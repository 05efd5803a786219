package promtext

import (
	"bytes"
	"math"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// FuzzParse feeds scraped exposition bodies to the parser. It must never
// panic, and whatever it accepts must survive a round trip: rendering the
// parsed samples in canonical form and parsing that again yields the same
// names, label sets and values. Delta of the result against itself must
// not panic either, since cube-top computes it on every scrape.
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		exposition,
		"a 1\na{} 2 1700000000\n",
		`x{k="a\\b\"c\nd"} -Inf`,
		"# only a comment\n\n",
		`h_bucket{le="+Inf"} NaN`,
		`broken{k="v"`,
		"name_without_value\n",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		m, err := Parse(bytes.NewReader(body))
		if err != nil {
			return
		}
		Delta(m, m)
		text := render(m)
		back, err := Parse(strings.NewReader(text))
		if err != nil {
			t.Fatalf("canonical form %q does not parse: %v", text, err)
		}
		if !sameMetrics(m, back) {
			t.Fatalf("round trip through %q changed the samples", text)
		}
	})
}

// render writes m as `name{key="value",...} value` lines: names in order,
// samples in their parsed order, labels sorted, values escaped as the
// parser unescapes them.
func render(m Metrics) string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	var sb strings.Builder
	esc := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	for _, name := range names {
		for _, s := range m[name] {
			keys := make([]string, 0, len(s.Labels))
			for k := range s.Labels {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			sb.WriteString(name)
			sb.WriteByte('{')
			for i, k := range keys {
				if i > 0 {
					sb.WriteByte(',')
				}
				sb.WriteString(k + `="` + esc.Replace(s.Labels[k]) + `"`)
			}
			sb.WriteString("} " + strconv.FormatFloat(s.Value, 'g', -1, 64) + "\n")
		}
	}
	return sb.String()
}

func sameMetrics(a, b Metrics) bool {
	if len(a) != len(b) {
		return false
	}
	for name, as := range a {
		bs := b[name]
		if len(as) != len(bs) {
			return false
		}
		for i := range as {
			x, y := as[i], bs[i]
			if x.Name != y.Name || len(x.Labels) != len(y.Labels) {
				return false
			}
			if x.Value != y.Value && !(math.IsNaN(x.Value) && math.IsNaN(y.Value)) {
				return false
			}
			for k, v := range x.Labels {
				if w, ok := y.Labels[k]; !ok || w != v {
					return false
				}
			}
		}
	}
	return true
}
