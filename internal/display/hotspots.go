package display

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"cube/internal/core"
)

// Hotspot is one entry of a severity ranking: a (metric, call path)
// combination with its severity summed over the whole system.
type Hotspot struct {
	Metric *core.Metric
	CNode  *core.CallNode
	// Value is the exclusive severity of the combination across all
	// threads.
	Value float64
}

// Hotspots ranks (metric, call path) combinations of the selected metric
// subtree by the magnitude of their exclusive severity and returns the top
// n. Thanks to the closure property the same mechanism applies to original
// experiments (largest time consumers) and to difference experiments
// (largest regressions and improvements — note negative values rank by
// magnitude, so both directions surface).
func Hotspots(e *core.Experiment, sel Selection, n int) []Hotspot {
	if sel.Metric == nil {
		if len(e.MetricRoots()) == 0 {
			return nil
		}
		sel.Metric = e.MetricRoots()[0]
		sel.MetricCollapsed = true
	}
	var metrics []*core.Metric
	if sel.MetricCollapsed {
		sel.Metric.Walk(func(m *core.Metric) { metrics = append(metrics, m) })
	} else {
		metrics = []*core.Metric{sel.Metric}
	}
	var out []Hotspot
	for _, m := range metrics {
		byCall, _ := e.RollUp(m, false, nil, false)
		for ci, v := range byCall {
			if v != 0 {
				out = append(out, Hotspot{Metric: m, CNode: e.CallNodes()[ci], Value: v})
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		return math.Abs(out[i].Value) > math.Abs(out[j].Value)
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// RenderHotspots writes the ranking as a table. In Percent/External modes
// values are normalized like the tree views (base: the selected metric
// root's total, or cfg.Base).
func RenderHotspots(w io.Writer, e *core.Experiment, sel Selection, cfg *Config, n int) error {
	c := cfg.orDefault()
	spots := Hotspots(e, sel, n)
	if len(spots) == 0 {
		_, err := fmt.Fprintln(w, "no non-zero severities for the selection")
		return err
	}
	base := 0.0
	switch c.Mode {
	case External:
		base = c.Base
	case Percent:
		base = e.MetricInclusive(spots[0].Metric.Root())
	}
	name := "(default)"
	if sel.Metric != nil {
		name = sel.Metric.Name
	}
	if _, err := fmt.Fprintf(w, "top %d severities for metric %s:\n", len(spots), name); err != nil {
		return err
	}
	for i, h := range spots {
		var val string
		if base != 0 {
			val = fmt.Sprintf("%8.2f%%", 100*h.Value/base)
		} else {
			val = fmt.Sprintf("%12.6g", h.Value)
		}
		sign := '+'
		if h.Value < 0 {
			sign = '-'
		}
		if _, err := fmt.Fprintf(w, "%3d. [%c] %s  %-26s %s\n",
			i+1, sign, val, h.Metric.Name, h.CNode.Path()); err != nil {
			return err
		}
	}
	return nil
}

// HotspotsString renders the ranking to a string.
func HotspotsString(e *core.Experiment, sel Selection, cfg *Config, n int) (string, error) {
	var sb strings.Builder
	if err := RenderHotspots(&sb, e, sel, cfg, n); err != nil {
		return "", err
	}
	return sb.String(), nil
}
