package main

import (
	"io"
	"math"
	"path/filepath"
	"testing"

	"cube"
)

func TestVerdict(t *testing.T) {
	p50 := metricDef{"p50_ms", "ms", "lower", 0.10}
	tput := metricDef{"throughput_ops", "ops/s", "higher", 0.10}
	steady := []float64{10, 10.1, 9.9, 10, 10.05}
	for _, c := range []struct {
		d          metricDef
		base, next []float64
		want       string
	}{
		{p50, steady, []float64{10.2, 10.3, 10.1}, "ok"},
		{p50, steady, []float64{12, 12.1, 11.9}, "worse"},
		{p50, steady, []float64{8, 8.1, 7.9}, "better"},
		{p50, []float64{5, 10, 15, 20}, []float64{30, 31}, "unresolved"},
		{tput, steady, []float64{8, 8.1, 7.9}, "worse"},
		{tput, steady, []float64{12, 12.1}, "better"},
		{failedRatio, []float64{0, 0, 0}, []float64{0, 0.1, 0.1}, "worse"},
		{failedRatio, []float64{0, 0}, []float64{0, 0}, "ok"},
	} {
		if got, _ := verdict(c.d, c.base, c.next); got != c.want {
			t.Errorf("verdict(%s, %v, %v) = %s, want %s", c.d.name, c.base, c.next, got, c.want)
		}
	}
}

func ledgerOf(workload string, p50s ...float64) *ledger {
	l := &ledger{}
	for _, v := range p50s {
		l.Runs = append(l.Runs, &runResult{Workload: workload, Metrics: map[string]float64{"p50_ms": v}})
	}
	return l
}

func TestCompareExitsNonZeroOnWorse(t *testing.T) {
	base := ledgerOf("paper", 2, 2.01, 1.99)
	if code := compareLedgers(io.Discard, base, ledgerOf("paper", 2.02, 2, 2.03)); code != 0 {
		t.Errorf("compare of equal runs exited %d", code)
	}
	if code := compareLedgers(io.Discard, base, ledgerOf("paper", 3, 3.1, 2.9)); code != 1 {
		t.Errorf("compare of a 50%% slower p50 exited %d, want 1", code)
	}
	// A traced run's e2e metrics are not comparable with untraced ones.
	traced := ledgerOf("paper", 3, 3, 3)
	for _, r := range traced.Runs {
		r.Traced = true
	}
	if code := compareLedgers(io.Discard, base, traced); code != 0 {
		t.Errorf("compare against traced runs only exited %d", code)
	}
}

func TestLedgerAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.json")
	for i := 0; i < 2; i++ {
		if err := appendLedger(path, ledgerOf("paper", float64(i)).Runs); err != nil {
			t.Fatal(err)
		}
	}
	l, err := readLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := l.e2eValues("paper", "p50_ms"); len(got) != 2 || got[1] != 1 {
		t.Errorf("ledger holds p50 %v, want [0 1]", got)
	}
}

func TestTraceOverheadAgainstUntracedRunsAtTheSeed(t *testing.T) {
	l := ledgerOf("paper", 2, 2.2, 1.8)
	l.Runs = append(l.Runs, &runResult{Workload: "paper", Seed: 2, Metrics: map[string]float64{"p50_ms": 10}},
		&runResult{Workload: "paper", Traced: true, Metrics: map[string]float64{"p50_ms": 10}})
	traced := &runResult{Workload: "paper", Traced: true, Metrics: map[string]float64{"p50_ms": 2.1}}
	if got, ok := l.traceOverhead(traced); !ok || !near(got, 0.05) {
		t.Errorf("trace overhead = %g, %v, want 0.05 against the seed-0 untraced median 2", got, ok)
	}
	traced.Seed = 3
	if _, ok := l.traceOverhead(traced); ok {
		t.Error("trace overhead computed with no untraced run at the seed")
	}
}

func TestWriteCube(t *testing.T) {
	runs := []*runResult{
		{Workload: "paper", Metrics: map[string]float64{"p50_ms": 2, "server_rss_mb": 1, "server.busy_ms": 1.5, "throughput_ops": 400}},
		{Workload: "upload-diff", Metrics: map[string]float64{"p50_ms": 70, "server.busy_ms": 40, "trace_overhead": 0.01}},
	}
	path := filepath.Join(t.TempDir(), "run.cube")
	if err := writeCube(path, runs); err != nil {
		t.Fatal(err)
	}
	e, err := cube.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	th := e.Threads()[0]
	for _, c := range []struct {
		metric, path string
		want         float64
	}{
		{"time/p50_ms", "cubebench/paper", 0.002},
		{"time/server.busy_ms", "cubebench/paper/server", 0.0015},
		{"time/p50_ms", "cubebench/upload-diff", 0.070},
		{"memory/server_rss_mb", "cubebench/paper", 1 << 20},
		{"count/throughput_ops", "cubebench/paper", 400},
	} {
		m, cn := e.FindMetric(c.metric), e.FindCallNode(c.path)
		if m == nil || cn == nil {
			t.Errorf("no %s at %s in the experiment", c.metric, c.path)
			continue
		}
		if got := e.Severity(m, cn, th); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s at %s = %g, want %g", c.metric, c.path, got, c.want)
		}
	}
	if m := e.FindMetric("count/trace_overhead"); m != nil {
		t.Error("metrics outside the catalog are recorded")
	}
}
