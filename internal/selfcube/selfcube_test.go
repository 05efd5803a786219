package selfcube

import (
	"context"
	"log/slog"
	"testing"
	"time"

	"cube/internal/core"
	"cube/internal/cubexml"
	"cube/internal/obs"
	"cube/internal/store"
)

func TestRunTitle(t *testing.T) {
	if got, want := RunTitle("cube-server", 7), "self:cube-server:000007"; got != want {
		t.Fatalf("RunTitle = %q, want %q", got, want)
	}
	// Zero padding keeps titles in lexical == numeric order.
	if RunTitle("s", 9) >= RunTitle("s", 10) {
		t.Fatal("run titles do not sort in sequence order")
	}
}

func TestSeriesName(t *testing.T) {
	if got := SeriesName(nil); got != "" {
		t.Fatalf("SeriesName(nil) = %q, want empty", got)
	}
	got := SeriesName([]obs.Label{obs.L("route", "/expr"), obs.L("code", "200")})
	if want := "code=200,route=/expr"; got != want {
		t.Fatalf("SeriesName = %q, want %q (keys sorted)", got, want)
	}
}

func TestUnitFor(t *testing.T) {
	cases := []struct {
		family string
		want   core.Unit
	}{
		{"cube_http_request_duration_seconds", core.Seconds},
		{"cube_go_heap_alloc_bytes", core.Bytes},
		{"cube_http_requests_total", core.Occurrences},
		{"cube_http_request_duration_seconds_sum", core.Seconds},
	}
	for _, c := range cases {
		if got := UnitFor(c.family); got != c.want {
			t.Errorf("UnitFor(%s) = %v, want %v", c.family, got, c.want)
		}
	}
}

// testCollector builds a collector over a registry populated with
// request series and leaf-stage times: two parses, one accumulate.
func testCollector(t *testing.T) (*Collector, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	reg.Counter("cube_http_requests_total", obs.L("route", "/expr")).Add(5)
	reg.Counter("cube_http_requests_total", obs.L("route", "/healthz")).Add(2)
	reg.Gauge("cube_http_inflight").Set(3)
	reg.Histogram("cube_http_request_duration_seconds", obs.DefLatencyBuckets, obs.L("route", "/expr")).Observe(0.25)
	parse := reg.Histogram("cube_stage_seconds", obs.DefLatencyBuckets, obs.L("stage", "parse"))
	parse.Observe(0.002)
	parse.Observe(0.002)
	reg.Histogram("cube_kernel_stage_seconds", obs.DefLatencyBuckets, obs.L("stage", "accumulate")).Observe(0.001)
	return NewCollector(reg, nil, "testproc"), reg
}

func TestCollect(t *testing.T) {
	c, _ := testCollector(t)
	at := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	e, err := c.Collect(3, at)
	if err != nil {
		t.Fatal(err)
	}
	if e.Title != "self:testproc:000003" {
		t.Errorf("title = %q", e.Title)
	}
	if e.Attrs["self/seq"] != "3" || e.Attrs["self/process"] != "testproc" {
		t.Errorf("attrs = %v", e.Attrs)
	}
	if err := e.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}

	// Registry series land as per-series child metrics with the right values.
	if got := SeriesValue(e, "cube_http_requests_total", obs.L("route", "/expr")); got != 5 {
		t.Errorf("requests_total{route=/expr} = %g, want 5", got)
	}
	if got := SeriesValue(e, "cube_http_requests_total", obs.L("route", "/healthz")); got != 2 {
		t.Errorf("requests_total{route=/healthz} = %g, want 2", got)
	}
	if got := SeriesValue(e, "cube_http_inflight"); got != 3 {
		t.Errorf("inflight = %g, want 3", got)
	}
	// Histograms split into _count (occ) and _sum (unit of the family).
	if got := SeriesValue(e, "cube_http_request_duration_seconds_count", obs.L("route", "/expr")); got != 1 {
		t.Errorf("duration_count = %g, want 1", got)
	}
	if got := SeriesValue(e, "cube_http_request_duration_seconds_sum", obs.L("route", "/expr")); got != 0.25 {
		t.Errorf("duration_sum = %g, want 0.25", got)
	}
	sum := FindSeries(e, "cube_http_request_duration_seconds_sum", obs.L("route", "/expr"))
	if sum == nil || sum.Root().Unit != core.Seconds {
		t.Errorf("duration_sum unit: got %+v, want sec tree", sum)
	}
	cnt := FindSeries(e, "cube_http_request_duration_seconds_count", obs.L("route", "/expr"))
	if cnt == nil || cnt.Root().Unit != core.Occurrences {
		t.Errorf("duration_count unit: got %+v, want occ tree", cnt)
	}

	// The leaf stages became the call tree: process root, then one node
	// per stage.
	if len(e.CallRoots()) != 1 {
		t.Fatalf("call roots = %d, want 1", len(e.CallRoots()))
	}
	root := e.CallRoots()[0]
	if root.Callee().Name != "testproc" {
		t.Errorf("call root = %q, want testproc", root.Callee().Name)
	}
	if n := len(root.Children()); n != 9 {
		t.Errorf("stage nodes = %d, want 9", n)
	}
	parse := root.FindChild("parse")
	if parse == nil || root.FindChild("accumulate") == nil || root.FindChild("store") == nil {
		t.Fatal("leaf stages missing from call tree")
	}
	// Time and Visits carry the stage series' sums and counts.
	timeM := e.FindMetricByName("Time")
	visits := e.FindMetricByName("Visits")
	if timeM == nil || visits == nil {
		t.Fatal("Time/Visits metrics missing")
	}
	if got := e.MetricTotal(visits); got != 3 {
		t.Errorf("total visits = %g, want 3 (two parses, one accumulate)", got)
	}
	if got := e.MetricValue(timeM, parse); got != 0.004 {
		t.Errorf("parse time = %g, want 0.004", got)
	}

	// System dimension: one machine/node/process/thread.
	if n := len(e.Machines()); n != 1 {
		t.Fatalf("machines = %d, want 1", n)
	}
}

func TestCollectDifference(t *testing.T) {
	c, reg := testCollector(t)
	a, err := c.Collect(1, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	reg.Counter("cube_http_requests_total", obs.L("route", "/expr")).Add(10)
	reg.Histogram("cube_http_request_duration_seconds", obs.DefLatencyBuckets, obs.L("route", "/expr")).Observe(1.5)
	b, err := c.Collect(2, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	d, err := core.Difference(b, a, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := SeriesValue(d, "cube_http_requests_total", obs.L("route", "/expr")); got != 10 {
		t.Errorf("diff requests_total = %g, want 10", got)
	}
	if got := SeriesValue(d, "cube_http_requests_total", obs.L("route", "/healthz")); got != 0 {
		t.Errorf("diff requests_total{/healthz} = %g, want 0", got)
	}
	if got := SeriesValue(d, "cube_http_request_duration_seconds_sum", obs.L("route", "/expr")); got != 1.5 {
		t.Errorf("diff duration_sum = %g, want 1.5", got)
	}
}

func TestCollectRoundTrip(t *testing.T) {
	c, _ := testCollector(t)
	e, err := c.Collect(1, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	var buf []byte
	{
		w := &writerBuf{}
		if err := cubexml.Write(w, e); err != nil {
			t.Fatal(err)
		}
		buf = w.b
	}
	got, err := cubexml.ReadBytes(context.Background(), buf, cubexml.ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Title != e.Title {
		t.Errorf("round-trip title = %q, want %q", got.Title, e.Title)
	}
	if v := SeriesValue(got, "cube_http_requests_total", obs.L("route", "/expr")); v != 5 {
		t.Errorf("round-trip requests_total = %g, want 5", v)
	}
	if got.FindRegion("parse") == nil {
		t.Error("round-trip lost the stage regions")
	}
}

type writerBuf struct{ b []byte }

func (w *writerBuf) Write(p []byte) (int, error) { w.b = append(w.b, p...); return len(p), nil }

func TestCollectEmptyTracer(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("cube_requests_total").Inc()
	c := NewCollector(reg, nil, "p")
	e, err := c.Collect(1, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := SeriesValue(e, "cube_requests_total"); got != 1 {
		t.Errorf("requests_total = %g, want 1", got)
	}
}

func TestSnapshotterConfigValidation(t *testing.T) {
	if _, err := NewSnapshotter(SnapshotterConfig{}); err == nil {
		t.Error("want error without collector")
	}
	c, _ := testCollector(t)
	if _, err := NewSnapshotter(SnapshotterConfig{Collector: c}); err == nil {
		t.Error("want error without store")
	}
}

func TestSnapshotterSeriesAndRotation(t *testing.T) {
	c, reg := testCollector(t)
	obs.SetRegistry(reg)
	t.Cleanup(func() { obs.SetRegistry(nil) })
	st, err := store.Open(t.TempDir(), store.Options{Logger: slog.Default()})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := NewSnapshotter(SnapshotterConfig{
		Collector: c, Store: st, Keep: 2, Logger: slog.Default(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var runs []Run
	for i := 0; i < 3; i++ {
		// Change the registry between runs so each blob (and digest) differs.
		reg.Counter("cube_http_requests_total", obs.L("route", "/expr")).Inc()
		r, err := snap.Snapshot(ctx)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, r)
	}
	if runs[0].Seq != 1 || runs[2].Seq != 3 {
		t.Errorf("seqs = %d..%d, want 1..3", runs[0].Seq, runs[2].Seq)
	}
	if runs[0].Digest == runs[1].Digest {
		t.Error("distinct snapshots share a digest")
	}
	kept := snap.Runs()
	if len(kept) != 2 || kept[0].Seq != 2 || kept[1].Seq != 3 {
		t.Fatalf("retained runs = %+v, want seqs 2,3", kept)
	}
	latest, ok := snap.Latest()
	if !ok || latest.Seq != 3 {
		t.Fatalf("Latest = %+v/%v, want seq 3", latest, ok)
	}

	// The latest blob decodes back into the experiment it claims to be.
	d, ok := store.ParseDigest(latest.Digest)
	if !ok {
		t.Fatalf("bad digest %q", latest.Digest)
	}
	data, err := st.GetContext(ctx, d)
	if err != nil {
		t.Fatal(err)
	}
	e, err := cubexml.ReadBytes(ctx, data, cubexml.ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if e.Title != latest.Title {
		t.Errorf("blob title = %q, want %q", e.Title, latest.Title)
	}
	if e.Attrs["self/seq"] != "3" {
		t.Errorf("blob seq attr = %q, want 3", e.Attrs["self/seq"])
	}

	// Snapshot bookkeeping metrics moved.
	if got := reg.CounterValue("cube_self_snapshots_total"); got != 3 {
		t.Errorf("cube_self_snapshots_total = %d, want 3", got)
	}
	if got := reg.Gauge("cube_self_series_runs").Value(); got != 2 {
		t.Errorf("cube_self_series_runs = %d, want 2", got)
	}
}
