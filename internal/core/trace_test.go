package core

import (
	"testing"

	"cube/internal/obs"
)

// collectSpans flattens a span tree into name → spans.
func collectSpans(root *obs.Span) map[string][]*obs.Span {
	out := map[string][]*obs.Span{}
	var walk func(s *obs.Span)
	walk = func(s *obs.Span) {
		out[s.Name()] = append(out[s.Name()], s)
		for _, c := range s.Children() {
			walk(c)
		}
	}
	walk(root)
	return out
}

func attrMap(s *obs.Span) map[string]any {
	m := map[string]any{}
	for _, a := range s.Attrs() {
		m[a.Key] = a.Value
	}
	return m
}

// TestOperatorTraceTree checks the span taxonomy the kernel engine emits:
// op root → integrate, per-operand lower, per-shard kernel, materialize.
func TestOperatorTraceTree(t *testing.T) {
	tr := obs.NewTracer(obs.TracerOptions{SampleRate: 1})
	obs.SetTracer(tr)
	defer obs.SetTracer(nil)

	a := buildSized("a", 3, 5, 4)
	b := buildSized("b", 3, 5, 4)
	const workers = 4
	if _, err := Merge(a, b, &Options{Workers: workers}); err != nil {
		t.Fatal(err)
	}

	traces := tr.Traces()
	if len(traces) != 1 {
		t.Fatalf("retained %d traces, want 1", len(traces))
	}
	root := traces[0].Root()
	if root.Name() != "op.merge" {
		t.Fatalf("root span = %q, want op.merge", root.Name())
	}
	ra := attrMap(root)
	if ra["operands"] != 2 || ra["cells_in"] != 120 || ra["cells_out"] == nil {
		t.Errorf("root attrs = %v", ra)
	}

	spans := collectSpans(root)
	if len(spans["integrate"]) != 1 {
		t.Errorf("got %d integrate spans, want 1", len(spans["integrate"]))
	}
	lowers := spans["lower"]
	if len(lowers) != 2 {
		t.Fatalf("got %d lower spans, want 2 (one per operand)", len(lowers))
	}
	for i, l := range lowers {
		la := attrMap(l)
		if la["operand"] != i || la["cells"] != 60 {
			t.Errorf("lower[%d] attrs = %v", i, la)
		}
	}
	kernels := spans["kernel"]
	if len(kernels) != workers {
		t.Fatalf("got %d kernel spans, want %d (one per shard)", len(kernels), workers)
	}
	shardSeen := map[any]bool{}
	totalRows := 0
	for _, k := range kernels {
		ka := attrMap(k)
		shardSeen[ka["shard"]] = true
		if ka["accumulator"] != "dense" && ka["accumulator"] != "sparse" {
			t.Errorf("kernel attrs lack accumulator: %v", ka)
		}
		rows, ok := ka["rows"].(int)
		if !ok {
			t.Errorf("kernel attrs lack rows: %v", ka)
		}
		totalRows += rows
	}
	if len(shardSeen) != workers {
		t.Errorf("shard numbers not distinct: %v", shardSeen)
	}
	// 3 metrics × 5 call nodes = 15 rows. Merge's ownership rule gives
	// every metric to operand a (first provider), so operand b's rows are
	// rejected before the shard check and only a's 15 count as processed.
	if totalRows != 15 {
		t.Errorf("kernel shards processed %d rows total, want 15", totalRows)
	}
	if len(spans["materialize"]) != 1 {
		t.Errorf("got %d materialize spans, want 1", len(spans["materialize"]))
	}
}

// TestOperatorTraceParent checks Options.Trace: the invocation parents
// under the caller's span (the server request) instead of opening a new
// root trace.
func TestOperatorTraceParent(t *testing.T) {
	tr := obs.NewTracer(obs.TracerOptions{SampleRate: 1})
	parent := tr.StartTrace("http /op/difference", "req-7")

	a := buildSized("a", 2, 3, 2)
	b := buildSized("b", 2, 3, 2)
	if _, err := Difference(a, b, &Options{Trace: parent}); err != nil {
		t.Fatal(err)
	}
	parent.End()

	got := tr.Trace("req-7")
	if got == nil {
		t.Fatalf("request trace not retained")
	}
	kids := got.Root().Children()
	if len(kids) != 1 || kids[0].Name() != "op.difference" {
		t.Fatalf("request root children = %v", kids)
	}
	if len(collectSpans(kids[0])["materialize"]) != 1 {
		t.Errorf("operator subtree incomplete under request span")
	}
}

// TestOperatorTraceError: failed invocations end their span with an error
// attribute rather than leaking an unfinished trace.
func TestOperatorTraceError(t *testing.T) {
	tr := obs.NewTracer(obs.TracerOptions{SampleRate: 1})
	obs.SetTracer(tr)
	defer obs.SetTracer(nil)

	if _, err := Mean(nil); err == nil {
		t.Fatal("Mean with no operands succeeded")
	}
	// ErrNoOperands fires before startOp; a nil operand fails integrate.
	a := buildSized("a", 2, 3, 2)
	if _, err := StdDev(nil, a, nil); err == nil {
		t.Fatal("StdDev with nil operand succeeded")
	}
	traces := tr.Traces()
	if len(traces) != 1 {
		t.Fatalf("retained %d traces after failed op", len(traces))
	}
	ra := attrMap(traces[0].Root())
	if ra["error"] != "core: operand 1 is nil" {
		t.Errorf("failed op span lacks error attr: %v", ra)
	}
}

// BenchmarkOperatorTracing guards the tracing overhead next to
// BenchmarkOperatorInstrumentation: "off" must stay within noise of the
// kernel baseline (one atomic pointer load per invocation), "sampled"
// within 5%.
func BenchmarkOperatorTracing(b *testing.B) {
	a := buildSized("a", 20, 50, 8) // 8000 cells per operand
	c := buildSized("b", 20, 50, 8)
	for _, mode := range []struct {
		name   string
		tracer *obs.Tracer
	}{{"off", nil}, {"sampled", obs.NewTracer(obs.TracerOptions{SampleRate: 1, RingSize: 4})}} {
		b.Run(mode.name, func(b *testing.B) {
			obs.SetTracer(mode.tracer)
			defer obs.SetTracer(nil)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Difference(a, c, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
