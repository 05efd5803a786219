package cubexml

import (
	"bytes"
	"context"
	"encoding/xml"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"cube/internal/core"
)

// writeLegacy is the original encoder-driven writer, kept as the
// reference implementation the writers are held to: it builds the full
// document including severity matrices and hands it to encoding/xml.
func writeLegacy(w io.Writer, e *core.Experiment) error {
	doc, metricID, cnodeID := buildDocMeta(e)

	// Severity: the dense 3-D array, one matrix per metric, one row per
	// call node, one value per thread; all-zero rows and matrices are
	// omitted to keep files compact (absent tuples read back as zero).
	threads := e.Threads()
	var sb strings.Builder
	for _, m := range e.Metrics() {
		mi := metricID[m]
		var mx *xMatrix
		for _, c := range e.CallNodes() {
			ci := cnodeID[c]
			nonZero := false
			sb.Reset()
			for ti, t := range threads {
				v := e.Severity(m, c, t)
				if math.IsNaN(v) || math.IsInf(v, 0) {
					// The format carries no non-finite policy; reject at
					// the boundary rather than emit a file other readers
					// choke on (mirrors the check in decodeDoc).
					return fmt.Errorf("cubexml: severity of metric %q at %q is %v; refusing to encode non-finite values",
						m.Name, c.Path(), v)
				}
				if v != 0 {
					nonZero = true
				}
				if ti > 0 {
					sb.WriteByte(' ')
				}
				sb.WriteString(formatValue(v))
			}
			if !nonZero {
				continue
			}
			if mx == nil {
				doc.Matrices = append(doc.Matrices, xMatrix{Metric: mi})
				mx = &doc.Matrices[len(doc.Matrices)-1]
			}
			mx.Rows = append(mx.Rows, xRow{CNode: ci, Values: sb.String()})
		}
	}

	if _, err := io.WriteString(w, xml.Header); err != nil {
		return err
	}
	enc := xml.NewEncoder(w)
	enc.Indent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return fmt.Errorf("cubexml: encode: %w", err)
	}
	_, err := io.WriteString(w, "\n")
	return err
}

// formatValue is the legacy writer's value formatting, one string per value.
func formatValue(v float64) string {
	return string(appendValue(nil, v))
}

// checkWriteEquivalent asserts the fast writer produces byte-identical
// output to the legacy encoding/xml writer, or fails with the same error.
func checkWriteEquivalent(t *testing.T, name string, e *core.Experiment) {
	t.Helper()
	var fast, legacy bytes.Buffer
	errf := writeFast(&fast, e)
	errl := writeLegacy(&legacy, e)
	switch {
	case (errf == nil) != (errl == nil):
		t.Errorf("%s: writers disagree:\nfast:   %v\nlegacy: %v", name, errf, errl)
	case errf != nil:
		if errf.Error() != errl.Error() {
			t.Errorf("%s: error text differs:\nfast:   %v\nlegacy: %v", name, errf, errl)
		}
	case !bytes.Equal(fast.Bytes(), legacy.Bytes()):
		t.Errorf("%s: output differs\nfast:\n%s\nlegacy:\n%s", name, firstDiff(fast.Bytes(), legacy.Bytes()), legacy.String())
	}
}

func firstDiff(a, b []byte) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			lo := i - 60
			if lo < 0 {
				lo = 0
			}
			return fmt.Sprintf("first difference at byte %d:\nfast:   %q\nlegacy: %q", i, a[lo:min(i+60, len(a))], b[lo:min(i+60, len(b))])
		}
	}
	return fmt.Sprintf("lengths differ: fast %d, legacy %d", len(a), len(b))
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestWriteFastMatchesLegacy(t *testing.T) {
	cases := map[string]func() *core.Experiment{
		"empty":  func() *core.Experiment { return core.New("empty") },
		"sample": sample,
		"metadata only": func() *core.Experiment {
			e := sample()
			e.EachSeverity(func(m *core.Metric, c *core.CallNode, th *core.Thread, _ float64) {
				e.SetSeverity(m, c, th, 0)
			})
			return e
		},
		"no threads": func() *core.Experiment {
			e := core.New("no threads")
			e.NewMetric("Time", core.Seconds, "")
			r := e.NewRegion("main", "app", 0, 0)
			e.NewCallRoot(e.NewCallSite("app", 1, r))
			return e
		},
		"no metrics": func() *core.Experiment {
			e := core.New("no metrics")
			r := e.NewRegion("main", "app", 0, 0)
			e.NewCallRoot(e.NewCallSite("app", 1, r))
			e.SingleThreadedSystem("m", 1, 2)
			return e
		},
		"escaping": func() *core.Experiment {
			e := core.New(`title with <tags> & "quotes" and 'apostrophes'`)
			e.Operation = "diff <&>"
			e.Derived = true
			e.Parents = []string{"run <1>", "run & 2"}
			m := e.NewMetric("Time <wall> & more", core.Seconds, "desc with ]]> and <em>")
			r := e.NewRegion("fn<T>", `mod "x" & y`, 1, 2)
			c := e.NewCallRoot(e.NewCallSite(`file "a" <b>`, 3, r))
			th := e.SingleThreadedSystem(`mach & <node>`, 1, 1)
			e.SetSeverity(m, c, th[0], 1.25)
			return e
		},
		"boundary values": func() *core.Experiment {
			e := core.New("boundary")
			m := e.NewMetric("Time", core.Seconds, "")
			r := e.NewRegion("main", "app", 0, 0)
			c := e.NewCallRoot(e.NewCallSite("app", 1, r))
			ths := e.SingleThreadedSystem("m", 1, 8)
			for i, v := range []float64{1e15 + 1, 1e15 - 1, 1e15, -(1e15 + 1), 0.1 + 0.2, math.MaxFloat64, math.SmallestNonzeroFloat64, -42} {
				e.SetSeverity(m, c, ths[i], v)
			}
			return e
		},
		"nan rejected": func() *core.Experiment {
			e := core.New("nan")
			m := e.NewMetric("Time", core.Seconds, "")
			r := e.NewRegion("main", "app", 0, 0)
			c := e.NewCallRoot(e.NewCallSite("app", 1, r))
			th := e.SingleThreadedSystem("m", 1, 1)
			e.SetSeverity(m, c, th[0], math.NaN())
			return e
		},
		"inf rejected": func() *core.Experiment {
			e := core.New("inf")
			m := e.NewMetric("Time", core.Seconds, "")
			r := e.NewRegion("main", "app", 0, 0)
			c := e.NewCallRoot(e.NewCallSite("app", 1, r))
			th := e.SingleThreadedSystem("m", 1, 1)
			e.SetSeverity(m, c, th[0], math.Inf(-1))
			return e
		},
		"topology": func() *core.Experiment {
			e := sample()
			topo, err := core.NewCartesian("grid", 2, 1)
			if err != nil {
				t.Fatal(err)
			}
			e.SetTopology(topo)
			return e
		},
	}
	for name, mk := range cases {
		checkWriteEquivalent(t, name, mk())
	}
}

// TestWriteFastMatchesLegacyQuick differentially fuzzes the two writers
// over random experiments; any divergence in bytes or errors fails.
func TestWriteFastMatchesLegacyQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		checkWriteEquivalent(t, fmt.Sprintf("seed=%d", seed), randomExperiment(r))
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestWriteFastAfterIngest pins byte equivalence for columnar-backed
// experiments (the state produced by the fast reader), where the fast
// writer streams straight from the sorted block.
func TestWriteFastAfterIngest(t *testing.T) {
	data := []byte(bufString(sample(), t))
	e, err := ReadBytes(context.Background(), data, ReadOptions{Limits: DefaultLimits, Engine: EngineFast})
	if err != nil {
		t.Fatal(err)
	}
	checkWriteEquivalent(t, "ingested sample", e)
}

// benchExperiment builds a deterministic ~2.5 MB document: 24 metrics,
// 120 call nodes, 32 threads, two thirds of tuples non-zero.
func benchExperiment(tb testing.TB) (*core.Experiment, []byte) {
	e := core.New("bench")
	var metrics []*core.Metric
	for i := 0; i < 24; i++ {
		metrics = append(metrics, e.NewMetric(fmt.Sprintf("metric-%02d", i), core.Seconds, ""))
	}
	r := e.NewRegion("main", "app", 0, 0)
	root := e.NewCallRoot(e.NewCallSite("app", 0, r))
	cnodes := []*core.CallNode{root}
	for i := 1; i < 120; i++ {
		cnodes = append(cnodes, cnodes[i/4].NewChild(e.NewCallSite("app", i, r)))
	}
	threads := e.SingleThreadedSystem("cluster", 4, 8)
	rng := rand.New(rand.NewSource(42))
	for _, m := range metrics {
		for _, c := range cnodes {
			for _, th := range threads {
				if rng.Intn(3) != 0 {
					e.SetSeverity(m, c, th, rng.NormFloat64()*1e3)
				}
			}
		}
	}
	var buf bytes.Buffer
	if err := Write(&buf, e); err != nil {
		tb.Fatal(err)
	}
	return e, buf.Bytes()
}

func benchmarkRead(b *testing.B, engine ReadEngine) {
	_, data := benchExperiment(b)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadBytes(context.Background(), data, ReadOptions{Limits: DefaultLimits, Engine: engine}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadFast(b *testing.B)   { benchmarkRead(b, EngineFast) }
func BenchmarkReadLegacy(b *testing.B) { benchmarkRead(b, EngineLegacy) }

func BenchmarkReadInfo(b *testing.B) {
	_, data := benchExperiment(b)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadInfo(context.Background(), bytes.NewReader(data), ReadOptions{Limits: DefaultLimits}); err != nil {
			b.Fatal(err)
		}
	}
}

func benchmarkWrite(b *testing.B, w func(io.Writer, *core.Experiment) error) {
	e, data := benchExperiment(b)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w(io.Discard, e); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWriteFast(b *testing.B)   { benchmarkWrite(b, writeFast) }
func BenchmarkWriteLegacy(b *testing.B) { benchmarkWrite(b, writeLegacy) }

// TestBenchDocInFastSubset keeps the benchmark honest: if the benchmark
// document ever falls out of the fast-path subset, BenchmarkReadFast
// would silently measure the legacy decoder.
func TestBenchDocInFastSubset(t *testing.T) {
	_, data := benchExperiment(t)
	if !strings.Contains(string(data), "<severity>") {
		t.Fatal("benchmark document has no severity section")
	}
	if _, err := ReadBytes(context.Background(), data, ReadOptions{Limits: DefaultLimits, Engine: EngineFast}); err != nil {
		t.Fatalf("benchmark document outside fast subset: %v", err)
	}
}

// TestEncoderTail pins the encoder behaviour the writers splice into: the
// metadata document of any experiment ends in an empty severity element
// followed by the root's closing tag. encodeMeta fails the encode if it
// ever does not.
func TestEncoderTail(t *testing.T) {
	escaping := core.New(`<title> & "more"`)
	escaping.Attrs["k"] = "]]>"
	for name, e := range map[string]*core.Experiment{"empty": core.New(""), "sample": sample(), "escaping": escaping} {
		doc, _, _ := buildDocMeta(e)
		var buf bytes.Buffer
		enc := xml.NewEncoder(&buf)
		enc.Indent("", "  ")
		if err := enc.Encode(doc); err != nil {
			t.Fatal(err)
		}
		if !strings.HasSuffix(buf.String(), severityTail) {
			t.Errorf("%s: metadata document ends %q, want %q", name, buf.String()[max(0, buf.Len()-40):], severityTail)
		}
		if _, err := encodeMeta(e); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
