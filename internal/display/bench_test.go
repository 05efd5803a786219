package display

import (
	"fmt"
	"math/rand"
	"testing"

	"cube/internal/core"
)

// synthRun builds a sealed run shaped like cubebench's post-process inputs:
// binary metric and call trees under "Time" and "main", single-threaded
// ranks on four nodes, and every third (metric, call node, thread) tuple
// set to a value in [1, 9).
func synthRun(metrics, cnodes, threads int, seed int64) *core.Experiment {
	rng := rand.New(rand.NewSource(seed))
	e := core.New(fmt.Sprintf("synth %dx%dx%d", metrics, cnodes, threads))
	ms := []*core.Metric{e.NewMetric("Time", core.Seconds, "")}
	for i := 1; i < metrics; i++ {
		ms = append(ms, ms[(i-1)/2].NewChild(fmt.Sprintf("m%d", i), ""))
	}
	cs := []*core.CallNode{e.NewCallRoot(e.NewCallSite("app", 0, e.NewRegion("main", "app", 0, 0)))}
	for i := 1; i < cnodes; i++ {
		cs = append(cs, cs[(i-1)/2].NewChild(e.NewCallSite("app", i, e.NewRegion(fmt.Sprintf("f%d", i), "app", i, 0))))
	}
	e.Invalidate()
	ths := e.SingleThreadedSystem("node", 4, threads)
	for mi, m := range ms {
		for ci, c := range cs {
			for ti, th := range ths {
				if (mi+ci+ti)%3 == 0 {
					e.SetSeverity(m, c, th, 1+8*rng.Float64())
				}
			}
		}
	}
	e.CompactSeverities()
	return e
}

var renderSink string

// BenchmarkRender_32x96x16 renders a sealed post-process-sized run with the
// selection and configuration of the server's /view?mode=percent.
func BenchmarkRender_32x96x16(b *testing.B) {
	e := synthRun(32, 96, 16, 1)
	sel := Selection{MetricCollapsed: true, CNode: e.CallRoots()[0], CNodeCollapsed: true}
	cfg := &Config{HideZero: true, Mode: Percent}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := RenderString(e, sel, cfg)
		if err != nil {
			b.Fatal(err)
		}
		renderSink = out
	}
}
