package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total", L("route", "/op"))
	c.Inc()
	c.Add(4)
	c.Add(-7) // ignored: counters only go up
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	// Same name+labels returns the same series; label order must not matter.
	c2 := r.Counter("requests_total", L("route", "/op"))
	if c2 != c {
		t.Errorf("lookup did not return the cached series")
	}
	multi := r.Counter("multi_total", L("b", "2"), L("a", "1"))
	multi.Inc()
	if got := r.CounterValue("multi_total", L("a", "1"), L("b", "2")); got != 1 {
		t.Errorf("label order split the series: got %d, want 1", got)
	}

	g := r.Gauge("in_flight")
	g.Add(3)
	g.Add(-1)
	if got := g.Value(); got != 2 {
		t.Errorf("gauge = %d, want 2", got)
	}
	g.Set(10)
	if got := g.Value(); got != 10 {
		t.Errorf("gauge after Set = %d, want 10", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.5, 5, 0.01} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("count = %d, want 5", h.Count())
	}
	if math.Abs(h.Sum()-5.565) > 1e-9 {
		t.Errorf("sum = %g, want 5.565", h.Sum())
	}
	snap := r.Snapshot()
	if len(snap.Histograms) != 1 {
		t.Fatalf("snapshot has %d histograms, want 1", len(snap.Histograms))
	}
	got := snap.Histograms[0].Buckets
	want := []BucketValue{
		{UpperBound: 0.01, Count: 2}, // 0.005 and the boundary value 0.01 (le is inclusive)
		{UpperBound: 0.1, Count: 3},
		{UpperBound: 1, Count: 4},
		{UpperBound: math.Inf(1), Count: 5},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("buckets = %+v, want %+v", got, want)
	}
}

func TestNilRegistryAndMetricsAreInert(t *testing.T) {
	var r *Registry
	r.Counter("c_total").Inc()
	r.Gauge("g").Set(1)
	r.Histogram("h", DefLatencyBuckets).Observe(1)
	r.Histogram("h", DefLatencyBuckets).ObserveExemplar(1, "deadbeef")
	if snap := r.Snapshot(); len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) != 0 {
		t.Errorf("nil registry snapshot not empty: %+v", snap)
	}
	if got := r.CounterValue("c_total"); got != 0 {
		t.Errorf("nil registry counter value = %d", got)
	}
}

func TestKindConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total")
	defer func() {
		if recover() == nil {
			t.Errorf("registering x_total as gauge did not panic")
		}
	}()
	r.Gauge("x_total")
}

func TestInvalidNamePanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Errorf("invalid metric name did not panic")
		}
	}()
	r.Counter("bad name")
}

// TestConcurrentUpdates exercises every metric type from many goroutines;
// run with -race to verify lock-freedom is actually safe. Totals must be
// exact: atomic updates lose nothing.
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	const workers, perWorker = 16, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				// Mix cached and uncached lookups to race the registry maps.
				r.Counter("ops_total", L("op", "difference")).Inc()
				r.Gauge("depth").Add(1)
				r.Histogram("dur_seconds", DefLatencyBuckets, L("op", "difference")).Observe(float64(i) / perWorker)
				r.Gauge("depth").Add(-1)
			}
		}(w)
	}
	wg.Wait()
	if got := r.CounterValue("ops_total", L("op", "difference")); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	snap := r.Snapshot()
	if len(snap.Histograms) != 1 || snap.Histograms[0].Count != workers*perWorker {
		t.Errorf("histogram count = %+v, want %d observations", snap.Histograms, workers*perWorker)
	}
	if got := snap.Gauges[0].Value; got != 0 {
		t.Errorf("gauge = %d, want 0 after balanced adds", got)
	}
}

// TestSnapshotDeterminism: two snapshots of the same state are identical,
// and ordering is stable regardless of registration order.
func TestSnapshotDeterminism(t *testing.T) {
	build := func(order []string) Snapshot {
		r := NewRegistry()
		for _, op := range order {
			r.Counter("ops_total", L("op", op)).Inc()
		}
		r.Gauge("g").Set(7)
		r.Histogram("h_seconds", []float64{1}).Observe(0.5)
		return r.Snapshot()
	}
	a := build([]string{"merge", "difference", "mean"})
	b := build([]string{"mean", "merge", "difference"})
	if !reflect.DeepEqual(a, b) {
		t.Errorf("snapshots differ under registration order:\n%+v\n%+v", a, b)
	}
	if !reflect.DeepEqual(a, build([]string{"merge", "difference", "mean"})) {
		t.Errorf("repeated snapshot not identical")
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("cube_op_invocations_total", L("op", "difference")).Add(3)
	r.Gauge("cube_http_in_flight").Set(2)
	h := r.Histogram("cube_dur_seconds", []float64{0.1, 1}, L("route", `/op/{op}`))
	h.Observe(0.05)
	h.Observe(0.5)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE cube_op_invocations_total counter",
		`cube_op_invocations_total{op="difference"} 3`,
		"# TYPE cube_http_in_flight gauge",
		"cube_http_in_flight 2",
		"# TYPE cube_dur_seconds histogram",
		`cube_dur_seconds_bucket{route="/op/{op}",le="0.1"} 1`,
		`cube_dur_seconds_bucket{route="/op/{op}",le="+Inf"} 2`,
		`cube_dur_seconds_sum{route="/op/{op}"} 0.55`,
		`cube_dur_seconds_count{route="/op/{op}"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q in:\n%s", want, out)
		}
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", L("path", "a\"b\\c\nd")).Inc()
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	if want := `c_total{path="a\"b\\c\nd"} 1`; !strings.Contains(buf.String(), want) {
		t.Errorf("escaped output missing %q in:\n%s", want, buf.String())
	}
}

func TestWriteJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", L("k", "v")).Add(9)
	// A histogram exercises the +Inf terminal bucket, which needs the
	// custom JSON marshalling (encoding/json rejects non-finite floats).
	r.Histogram("h_seconds", []float64{0.1, 1}).Observe(0.5)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(snap.Counters) != 1 || snap.Counters[0].Value != 9 {
		t.Errorf("round-tripped snapshot = %+v", snap)
	}
	if len(snap.Histograms) != 1 {
		t.Fatalf("histograms = %+v", snap.Histograms)
	}
	h := snap.Histograms[0]
	last := h.Buckets[len(h.Buckets)-1]
	if !math.IsInf(last.UpperBound, 1) || last.Count != 1 {
		t.Errorf("terminal bucket = %+v, want +Inf/1", last)
	}
}

func TestHandlers(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total").Inc()
	rw := httptest.NewRecorder()
	r.MetricsHandler().ServeHTTP(rw, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rw.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics content-type = %q", ct)
	}
	if !strings.Contains(rw.Body.String(), "c_total 1") {
		t.Errorf("metrics body = %q", rw.Body.String())
	}
	rw = httptest.NewRecorder()
	r.VarsHandler().ServeHTTP(rw, httptest.NewRequest("GET", "/debug/vars", nil))
	var doc map[string]any
	if err := json.Unmarshal(rw.Body.Bytes(), &doc); err != nil {
		t.Fatalf("vars output not JSON: %v", err)
	}
	if _, ok := doc["memstats"]; !ok {
		t.Errorf("vars output missing memstats: %v", doc)
	}
}

func TestRequestIDContext(t *testing.T) {
	if RequestID(context.Background()) != "" {
		t.Errorf("empty context has a request ID")
	}
	id := NewRequestID()
	if len(id) != 16 {
		t.Errorf("request ID %q not 16 hex chars", id)
	}
	if id2 := NewRequestID(); id2 == id {
		t.Errorf("request IDs collide: %q", id)
	}
	ctx := WithRequestID(context.Background(), id)
	if got := RequestID(ctx); got != id {
		t.Errorf("RequestID = %q, want %q", got, id)
	}
}

func TestHistogramExemplars(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", []float64{0.01, 0.1, 1})
	h.ObserveExemplar(0.005, "aaaa00001111bbbb")
	h.ObserveExemplar(0.5, "") // no trace active: records, no exemplar
	h.ObserveExemplar(2, "cccc2222dddd3333")

	snap := r.Snapshot()
	if len(snap.Histograms) != 1 {
		t.Fatalf("snapshot has %d histograms, want 1", len(snap.Histograms))
	}
	b := snap.Histograms[0].Buckets
	if b[0].ExemplarTraceID != "aaaa00001111bbbb" || b[0].ExemplarValue != 0.005 {
		t.Errorf("bucket 0 exemplar = %+v", b[0])
	}
	if b[2].ExemplarTraceID != "" {
		t.Errorf("bucket le=1 unexpectedly has exemplar %+v", b[2])
	}
	if b[3].ExemplarTraceID != "cccc2222dddd3333" {
		t.Errorf("+Inf bucket exemplar = %+v", b[3])
	}

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	want := `lat_seconds_bucket{le="0.01"} 1 # {trace_id="aaaa00001111bbbb"} 0.005`
	if !strings.Contains(text, want) {
		t.Errorf("prometheus output missing exemplar line %q:\n%s", want, text)
	}
	if !strings.Contains(text, `lat_seconds_bucket{le="1"} 2`+"\n") {
		t.Errorf("exemplar-free bucket line changed:\n%s", text)
	}

	// Exemplars survive the JSON round trip of a Snapshot.
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, back) {
		t.Errorf("snapshot round trip mismatch:\n got %+v\nwant %+v", back, snap)
	}
}
