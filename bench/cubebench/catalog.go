package main

import "cube/internal/promtext"

// metricDef is one catalog entry. BENCHMARK.json at the repository root
// lists the same names, units, directions and bounds.
type metricDef struct {
	name, unit, better string
	// bound is the share of the base median by which an end-to-end metric
	// may worsen before a comparison calls it worse.
	bound float64
}

// e2eDefs are measured over the untraced window (set-up excepted).
var e2eDefs = []metricDef{
	{"throughput_ops", "ops/s", "higher", 0.25},
	{"p50_ms", "ms", "lower", 0.25},
	{"p95_ms", "ms", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"server_rss_mb", "MiB", "lower", 0.20},
}

// failedRatio is reported and compared beside the e2e metrics, but is 0
// on a healthy run, so no share-of-median bound applies: any increase is
// worse.
var failedRatio = metricDef{"failed_ratio", "ratio", "lower", 0}

// layerDefs are the per-layer metrics, all per completed op. Those ending
// in _ms that name a span category come from the traced replay; the rest
// are deltas of the server's own /metrics counters over the window.
var layerDefs = []metricDef{
	{name: "server.busy_ms", unit: "ms", better: "lower"},
	{name: "server.requests", unit: "count", better: "lower"},
	{name: "server.rejected", unit: "count", better: "lower"},
	{name: "server.parse_cache_hit_ratio", unit: "ratio", better: "higher"},
	{name: "server.lower_cache_hit_ratio", unit: "ratio", better: "higher"},
	{name: "server.unattributed_ms", unit: "ms", better: "lower"},
	{name: "store.puts", unit: "count", better: "lower"},
	{name: "store.get_hits", unit: "count", better: "lower"},
	{name: "store.put_ms", unit: "ms", better: "lower"},
	{name: "cubexml.read_kb", unit: "KiB", better: "lower"},
	{name: "cubexml.write_kb", unit: "KiB", better: "lower"},
	{name: "cubexml.read_ms", unit: "ms", better: "lower"},
	{name: "cubexml.write_ms", unit: "ms", better: "lower"},
	{name: "expr.plan_ms", unit: "ms", better: "lower"},
	{name: "expr.eval_ms", unit: "ms", better: "lower"},
	{name: "expr.cache_hit_ratio", unit: "ratio", better: "higher"},
	{name: "expr.eval_nodes", unit: "count", better: "lower"},
	{name: "core.op_ms", unit: "ms", better: "lower"},
	{name: "core.kernel_lower_ms", unit: "ms", better: "lower"},
	{name: "core.kernel_accumulate_ms", unit: "ms", better: "lower"},
	{name: "core.kernel_materialize_ms", unit: "ms", better: "lower"},
	{name: "core.cells_k", unit: "k", better: "lower"},
	{name: "core.integrate_fastpath_ratio", unit: "ratio", better: "higher"},
	{name: "core.call_ms", unit: "ms", better: "lower"},
	{name: "display.render_ms", unit: "ms", better: "lower"},
	{name: "client.encode_ms", unit: "ms", better: "lower"},
	{name: "client.decode_ms", unit: "ms", better: "lower"},
	{name: "go.gc_cycles", unit: "count", better: "lower"},
	{name: "go.gc_pause_ms", unit: "ms", better: "lower"},
}

// extraDefs are printed beside the catalog: the failure ratio, the
// window's sample count, and in a traced run the tracing overhead
// (traced p50 ÷ untraced p50 at the same seed − 1, when the -out ledger
// holds an untraced run to compare with).
var extraDefs = []metricDef{
	failedRatio,
	{name: "ops", unit: "count"},
	{name: "trace_overhead", unit: "ratio"},
}

func unitOf(name string) string {
	for _, defs := range [][]metricDef{e2eDefs, layerDefs, extraDefs} {
		for _, d := range defs {
			if d.name == name {
				return d.unit
			}
		}
	}
	return ""
}

// serverLayers turns the delta of the server's counters over a window
// into the per-op layer metrics. Probe routes (the scrapes themselves,
// health checks) are not the workload's requests.
func serverLayers(d promtext.Metrics, ops int) map[string]float64 {
	n := float64(ops)
	sum := func(name string) float64 { return d.Sum(name, nil) }
	labeled := func(name, k, v string) float64 { return d.Sum(name, map[string]string{k: v}) }
	workload := func(name string) float64 {
		return sum(name) - labeled(name, "route", "/metrics") - labeled(name, "route", "/healthz") -
			labeled(name, "route", "/readyz")
	}
	ratio := func(num, rest float64) float64 {
		if num+rest == 0 {
			return 0
		}
		return num / (num + rest)
	}
	fast := labeled("cube_meta_fastpath_total", "kind", "identity") + labeled("cube_meta_fastpath_total", "kind", "memo")
	stage := func(s string) float64 { return 1000 * labeled("cube_kernel_stage_seconds_sum", "stage", s) / n }
	return map[string]float64{
		"server.busy_ms":                1000 * workload("cube_http_request_duration_seconds_sum") / n,
		"server.requests":               workload("cube_http_requests_total") / n,
		"server.rejected":               (sum("cube_http_saturation_rejections_total") + sum("cube_http_timeouts_total")) / n,
		"server.parse_cache_hit_ratio":  ratio(sum("cube_parse_cache_hits_total"), sum("cube_parse_cache_misses_total")),
		"server.lower_cache_hit_ratio":  ratio(sum("cube_lower_cache_hits_total"), sum("cube_lower_cache_misses_total")),
		"store.puts":                    sum("cube_store_put_total") / n,
		"store.get_hits":                sum("cube_store_get_hits_total") / n,
		"cubexml.read_kb":               sum("cube_xml_read_bytes_total") / 1024 / n,
		"cubexml.write_kb":              sum("cube_xml_write_bytes_total") / 1024 / n,
		"expr.cache_hit_ratio":          ratio(sum("cube_expr_cache_hits_total"), sum("cube_expr_cache_misses_total")),
		"expr.eval_nodes":               sum("cube_expr_eval_nodes_total") / n,
		"core.op_ms":                    1000 * sum("cube_op_duration_seconds_sum") / n,
		"core.kernel_lower_ms":          stage("lower"),
		"core.kernel_accumulate_ms":     stage("accumulate"),
		"core.kernel_materialize_ms":    stage("materialize"),
		"core.cells_k":                  sum("cube_op_cells_total") / 1000 / n,
		"core.integrate_fastpath_ratio": ratio(fast, sum("cube_meta_fastpath_total")-fast),
		"go.gc_cycles":                  sum("cube_go_gc_cycles_total") / n,
		"go.gc_pause_ms":                1000 * sum("cube_go_gc_pause_seconds_sum") / n,
	}
}
