package main

import (
	"math"
	"strings"
	"testing"

	"cube/internal/promtext"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 5.5}, {0.95, 9.55}, {1, 10}} {
		if got := quantile(xs, c.q); !near(got, c.want) {
			t.Errorf("quantile(1..10, %g) = %g, want %g", c.q, got, c.want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of an empty sample is not NaN")
	}
	if got := median([]float64{5, 1, 3, 2}); !near(got, 2.5) {
		t.Errorf("median = %g, want 2.5", got)
	}
}

// The reference values are Python's statistics.quantiles(xs, n=4), the
// computation the acceptance check applies to ten runs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, 1.75, 5.25},
		{[]float64{5, 1}, 0, 6},
		{[]float64{2, 8, 4}, 2, 8},
	} {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %g, %g, want %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 5.5/5.5) {
		t.Errorf("spread = %g, want 1", got)
	}
}

const scrape0 = `# HELP cube_http_requests_total requests
cube_http_requests_total{method="POST",route="/op/{op}",status="200"} 10
cube_http_requests_total{method="GET",route="/metrics",status="200"} 3
cube_http_request_duration_seconds_sum{route="/op/{op}"} 0.5
cube_http_request_duration_seconds_sum{route="/metrics"} 0.25
cube_parse_cache_hits_total 4
cube_parse_cache_misses_total 4
cube_meta_fastpath_total{kind="identity"} 1
cube_meta_fastpath_total{kind="miss"} 1
cube_kernel_stage_seconds_sum{stage="lower"} 0.1
`

const scrape1 = `cube_http_requests_total{method="POST",route="/op/{op}",status="200"} 30
cube_http_requests_total{method="GET",route="/metrics",status="200"} 4
cube_http_request_duration_seconds_sum{route="/op/{op}"} 1.5 # {trace_id="abc"} 0.2
cube_http_request_duration_seconds_sum{route="/metrics"} 0.5
cube_parse_cache_hits_total 10
cube_parse_cache_misses_total 6
cube_meta_fastpath_total{kind="identity"} 4
cube_meta_fastpath_total{kind="memo"} 3
cube_meta_fastpath_total{kind="miss"} 2
cube_kernel_stage_seconds_sum{stage="lower"} 0.05
`

func TestCounterDeltaPerOp(t *testing.T) {
	prev, err := promtext.Parse(strings.NewReader(scrape0))
	if err != nil {
		t.Fatal(err)
	}
	cur, err := promtext.Parse(strings.NewReader(scrape1))
	if err != nil {
		t.Fatal(err)
	}
	got := serverLayers(promtext.Delta(prev, cur), 10)
	for name, want := range map[string]float64{
		"server.requests":              2,   // 20 workload requests over 10 ops; the scrapes do not count
		"server.busy_ms":               100, // 1 s over 10 ops
		"server.parse_cache_hit_ratio": 0.75,
		// identity 3 + memo 3 of 7 integrations (memo is new since prev)
		"core.integrate_fastpath_ratio": 6.0 / 7,
		// the kernel histogram went down: a restarted server, so its whole
		// current value accrued in the window
		"core.kernel_lower_ms": 5,
	} {
		if !near(got[name], want) {
			t.Errorf("%s = %g, want %g", name, got[name], want)
		}
	}
}
