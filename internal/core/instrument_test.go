package core

import (
	"fmt"
	"testing"

	"cube/internal/obs"
)

// buildSized creates an experiment with metrics*cnodes*threads non-zero
// severity cells — large enough that per-invocation instrumentation cost
// is measured against real operator work.
func buildSized(title string, metrics, cnodes, threads int) *Experiment {
	e := New(title)
	ms := make([]*Metric, metrics)
	for i := range ms {
		ms[i] = e.NewMetric(fmt.Sprintf("m%d", i), Seconds, "")
	}
	main := e.NewRegion("main", "app", 0, 0)
	root := e.NewCallRoot(e.NewCallSite("", 0, main))
	cs := make([]*CallNode, cnodes)
	cs[0] = root
	for i := 1; i < cnodes; i++ {
		cs[i] = root.NewChild(e.NewCallSite("app.c", i, e.NewRegion(fmt.Sprintf("f%d", i), "app", 0, 0)))
	}
	ths := e.SingleThreadedSystem("mach", 1, threads)
	for mi, m := range ms {
		for ci, c := range cs {
			for ti, th := range ths {
				e.SetSeverity(m, c, th, float64(mi+ci+ti+1))
			}
		}
	}
	return e
}

func TestInstrumentRecordsOperatorMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	obs.SetRegistry(reg)
	defer obs.SetRegistry(nil)

	a := buildSized("a", 3, 4, 2)
	b := buildSized("b", 3, 4, 2)
	if _, err := Difference(a, b, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := MergeAll(nil, a, b); err != nil {
		t.Fatal(err)
	}
	if _, err := Min(nil, a, b); err != nil {
		t.Fatal(err)
	}
	if _, err := StdDev(nil, a, b); err != nil {
		t.Fatal(err)
	}

	for _, op := range []string{"difference", "merge", "min", "stddev"} {
		if got := reg.CounterValue("cube_op_invocations_total", obs.L("op", op)); got != 1 {
			t.Errorf("invocations{op=%s} = %d, want 1", op, got)
		}
	}
	// Difference(a, b) with identical structure but distinct cell values:
	// 24 cells in, nothing cancels except equal values. Both experiments
	// carry the same values, so the difference is all-zero; merge keeps
	// the first operand's 24 cells.
	if got := reg.CounterValue("cube_op_cells_total", obs.L("op", "merge")); got != 24 {
		t.Errorf("cells{op=merge} = %d, want 24", got)
	}
	snap := reg.Snapshot()
	var durObs int64
	var sawRatio bool
	for _, h := range snap.Histograms {
		switch h.Name {
		case "cube_op_duration_seconds":
			durObs += h.Count
		case "cube_op_zero_fill_ratio":
			sawRatio = true
		}
	}
	if durObs != 4 {
		t.Errorf("duration observations across ops = %d, want 4", durObs)
	}
	if !sawRatio {
		t.Errorf("missing zero-fill ratio histogram")
	}
	// Integration node-merge stats: every operator ran one integration.
	if got := reg.CounterValue("cube_integrate_invocations_total"); got != 4 {
		t.Errorf("integrate invocations = %d, want 4", got)
	}
	in := reg.CounterValue("cube_integrate_input_nodes_total", obs.L("dim", "metric"))
	out := reg.CounterValue("cube_integrate_output_nodes_total", obs.L("dim", "metric"))
	// Two operands with identical 3-metric forests merge to 3: inputs
	// double the outputs.
	if in != 2*out || out == 0 {
		t.Errorf("metric node merge stats: in=%d out=%d, want in == 2*out > 0", in, out)
	}
}

func TestInstrumentRecordsErrors(t *testing.T) {
	reg := obs.NewRegistry()
	obs.SetRegistry(reg)
	defer obs.SetRegistry(nil)
	a := buildSized("a", 1, 1, 1)
	if _, err := Difference(a, nil, nil); err == nil {
		t.Fatal("Difference with nil operand succeeded")
	}
	if got := reg.CounterValue("cube_op_errors_total", obs.L("op", "difference")); got != 1 {
		t.Errorf("errors{op=difference} = %d, want 1", got)
	}
	if got := reg.CounterValue("cube_op_invocations_total", obs.L("op", "difference")); got != 0 {
		t.Errorf("failed invocation counted as success: %d", got)
	}
}

func TestInstrumentDisabledRecordsNothing(t *testing.T) {
	reg := obs.NewRegistry()
	obs.SetRegistry(reg)
	obs.SetRegistry(nil) // turn it off again
	a := buildSized("a", 2, 2, 2)
	if _, err := Difference(a, a, nil); err != nil {
		t.Fatal(err)
	}
	if obs.ActiveRegistry() != nil {
		t.Errorf("ActiveRegistry() = non-nil after SetRegistry(nil)")
	}
	if got := reg.CounterValue("cube_op_invocations_total", obs.L("op", "difference")); got != 0 {
		t.Errorf("disabled instrumentation still recorded %d invocations", got)
	}
}

// BenchmarkOperatorInstrumentation guards the instrumentation hot path:
// the "on" variant must stay within a few percent of "off", because costs
// are aggregated per invocation, never per severity cell. Compare:
//
//	go test -run='^$' -bench=BenchmarkOperatorInstrumentation ./internal/core
func BenchmarkOperatorInstrumentation(b *testing.B) {
	a := buildSized("a", 20, 50, 8) // 8000 cells per operand
	c := buildSized("b", 20, 50, 8)
	for _, mode := range []struct {
		name string
		reg  *obs.Registry
	}{{"off", nil}, {"on", obs.NewRegistry()}} {
		b.Run(mode.name, func(b *testing.B) {
			obs.SetRegistry(mode.reg)
			defer obs.SetRegistry(nil)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Difference(a, c, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
