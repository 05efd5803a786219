// Command obssmoke is the assertion half of `make obs-smoke`: it stands
// up an in-process cube-server with the debug gate, an experiment store,
// and SLO objectives; drives inline, digest-referenced, and failing
// requests through the typed client; and then validates the telemetry
// the way an operator would consume it — over HTTP:
//
//   - every /debug/events NDJSON line parses and passes the wide-event
//     schema check (obs.ValidateEvent),
//   - the exactly-one-http-event-per-request invariant holds, with
//     distinct request IDs,
//   - every http event's leaf-stage times sum to at most its duration_ms,
//     and with tracing off the inline /op/difference event still carries
//     parse and accumulate times,
//   - a digest op answered from the parse cache pins its blobs without
//     reading the store, and one on a fresh server (empty cache) reads
//     them,
//   - client calls and store lifecycle transitions are present as their
//     own event kinds in the same ring,
//   - /debug/slo burn rates agree with recomputing the SLO arithmetic
//     from the same snapshot's raw counters,
//   - /debug/store inventory matches the traffic driven,
//   - /metrics carries the cube_slo_* gauges and the store's cube_store_*
//     series, and parses with promtext.
//
// The latency objective is set to 1ns so every request is deliberately
// "slow": latency burn must then equal total/((1-target)·total), which
// pins the burn formula, not just its zero.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"time"

	"cube"
	"cube/client"
	"cube/internal/obs"
	"cube/internal/promtext"
	"cube/internal/server"
	"cube/internal/store"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "obssmoke: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("obssmoke: ok")
}

func run() error {
	dir, err := os.MkdirTemp("", "obssmoke-store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// Install the registry and the sink before the store opens, as
	// cube-server does, so the store records into them from its recovery
	// scan on.
	cfg := server.DefaultConfig()
	cfg.Metrics = obs.NewRegistry()
	cfg.Events = obs.NewEventSink(0)
	obs.SetRegistry(cfg.Metrics)
	obs.SetEventSink(cfg.Events)
	defer obs.SetRegistry(nil)
	defer obs.SetEventSink(nil)
	sink := cfg.Events
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	cfg.Debug = true
	cfg.Store = st
	cfg.SLOAvailability = 0.999
	cfg.SLOLatency = time.Nanosecond          // every request is "slow" on purpose
	cfg.TraceSampleRate, cfg.TraceSlow = 0, 0 // stage times must not need traces
	if err := cfg.Validate(); err != nil {
		return err
	}
	srv := httptest.NewServer(server.NewHandler(cfg))
	defer srv.Close()

	// Traffic: 1 inline op, 2 store puts, 1 digest-referenced op, one
	// 404, one 422, and 1 digest-referenced op on a fresh server over the
	// same store — seven HTTP requests, six typed-client calls. None of
	// these retry, so the event arithmetic below is exact.
	ctx := context.Background()
	cl := client.New(srv.URL)
	a, b := buildExp("before", 3), buildExp("after", 1)
	if _, err := cl.Difference(ctx, a, b, nil); err != nil {
		return fmt.Errorf("inline difference: %w", err)
	}
	da, err := cl.Put(ctx, a)
	if err != nil {
		return fmt.Errorf("put a: %w", err)
	}
	db, err := cl.Put(ctx, b)
	if err != nil {
		return fmt.Errorf("put b: %w", err)
	}
	if _, err := cl.DifferenceByDigest(ctx, da, db, nil); err != nil {
		return fmt.Errorf("digest difference: %w", err)
	}
	resp, err := http.Get(srv.URL + "/no/such/route")
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		return fmt.Errorf("GET /no/such/route = %d, want 404", resp.StatusCode)
	}
	if _, err := cl.Prune(ctx, a, "NoSuchMetric", 0.5); err == nil {
		return fmt.Errorf("prune of unknown metric succeeded, want 422")
	}
	// A fresh server's parse cache holds neither blob, so its digest op
	// reads both from the store. It shares the sink and the registry, so
	// its events land in the same ring.
	fresh := httptest.NewServer(server.NewHandler(cfg))
	defer fresh.Close()
	if _, err := client.New(fresh.URL).DifferenceByDigest(ctx, da, db, nil); err != nil {
		return fmt.Errorf("digest difference on a fresh server: %w", err)
	}
	const wantHTTP, wantClient = 7, 6

	// Events emit after the response flushes; wait for the last one.
	deadline := time.Now().Add(5 * time.Second)
	for countKind(sink.Events(), "http") < wantHTTP {
		if time.Now().After(deadline) {
			return fmt.Errorf("ring has %d http events, want %d", countKind(sink.Events(), "http"), wantHTTP)
		}
		time.Sleep(time.Millisecond)
	}

	if err := checkEvents(srv.URL, wantHTTP, wantClient); err != nil {
		return err
	}
	if err := checkSLO(srv.URL); err != nil {
		return err
	}
	if err := checkStore(srv.URL); err != nil {
		return err
	}
	return checkMetrics(srv.URL)
}

// checkEvents validates the NDJSON export: schema per line, event counts
// per kind, distinct request IDs on the http events.
func checkEvents(base string, wantHTTP, wantClient int) error {
	resp, err := http.Get(base + "/debug/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "ndjson") {
		return fmt.Errorf("/debug/events Content-Type = %q", ct)
	}
	kinds := map[string]int{}
	ids := map[string]bool{}
	var diffs []obs.EventFields // the /op/difference events, in order
	lines := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		lines++
		var f obs.EventFields
		if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
			return fmt.Errorf("/debug/events line %d is not JSON: %v", lines, err)
		}
		if err := obs.ValidateEvent(&f); err != nil {
			return fmt.Errorf("/debug/events line %d fails schema: %v\n%s", lines, err, sc.Text())
		}
		kinds[f.Kind]++
		if f.Kind == "http" {
			if ids[f.RequestID] {
				return fmt.Errorf("duplicate http request_id %q", f.RequestID)
			}
			ids[f.RequestID] = true
			// Leaf stages never nest, so they fit in the request.
			if f.StageMS() > f.DurationMS+1e-6 {
				return fmt.Errorf("%s event: leaf stages sum to %g ms, more than duration_ms %g\n%s",
					f.Route, f.StageMS(), f.DurationMS, sc.Text())
			}
			if f.Route == "/op/{op}" && f.Op == "difference" {
				diffs = append(diffs, f)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if kinds["http"] != wantHTTP {
		return fmt.Errorf("http events = %d, want exactly %d (one per request); kinds = %v", kinds["http"], wantHTTP, kinds)
	}
	if kinds["client"] != wantClient {
		return fmt.Errorf("client events = %d, want %d; kinds = %v", kinds["client"], wantClient, kinds)
	}
	if kinds["store"] == 0 {
		return fmt.Errorf("no store lifecycle events in the ring; kinds = %v", kinds)
	}
	return checkDifferenceEvents(diffs)
}

// checkDifferenceEvents checks the three /op/difference events: the
// inline one (stage times with tracing off), the cache-answered digest
// one and the fresh server's digest one (store reads).
func checkDifferenceEvents(diffs []obs.EventFields) error {
	if len(diffs) != 3 {
		return fmt.Errorf("%d /op/difference events, want 3 (inline, digest, fresh-server digest)", len(diffs))
	}
	inline, cached, fresh := diffs[0], diffs[1], diffs[2]
	if inline.InlineOperands != 2 || inline.ParseMS <= 0 || inline.AccumulateMS <= 0 {
		return fmt.Errorf("inline difference event: inline_operands %d, parse_ms %g, accumulate_ms %g; want 2 and nonzero times at trace sample 0",
			inline.InlineOperands, inline.ParseMS, inline.AccumulateMS)
	}
	if cached.DigestOperands != 2 || cached.StorePins < 1 || cached.ParseCacheHits < 1 || cached.StoreGets != 0 {
		return fmt.Errorf("cached digest difference event: store_pins %d, parse_cache_hits %d, store_gets %d; want >=1, >=1, 0",
			cached.StorePins, cached.ParseCacheHits, cached.StoreGets)
	}
	if fresh.DigestOperands != 2 || fresh.StoreGets < 1 || fresh.ParseCacheMisses < 1 || fresh.ResolveMS <= 0 {
		return fmt.Errorf("fresh-server digest difference event: store_gets %d, parse_cache_misses %d, resolve_ms %g; want >=1, >=1, > 0",
			fresh.StoreGets, fresh.ParseCacheMisses, fresh.ResolveMS)
	}
	return nil
}

// checkSLO recomputes burn = bad/((1-target)·total) from the snapshot's
// own counters and requires the served values to match.
func checkSLO(base string) error {
	var doc struct {
		Enabled            bool    `json:"enabled"`
		AvailabilityTarget float64 `json:"availability_target"`
		LatencyTarget      float64 `json:"latency_target"`
		Routes             []struct {
			Route            string  `json:"route"`
			Total            int64   `json:"total"`
			Errors           int64   `json:"errors"`
			AvailabilityBurn float64 `json:"availability_burn"`
			Slow             int64   `json:"slow"`
			LatencyBurn      float64 `json:"latency_burn"`
			BudgetRemaining  float64 `json:"budget_remaining"`
		} `json:"routes"`
	}
	if err := getJSON(base+"/debug/slo", &doc); err != nil {
		return err
	}
	if !doc.Enabled || doc.AvailabilityTarget != 0.999 || len(doc.Routes) == 0 {
		return fmt.Errorf("/debug/slo = %+v, want enabled with availability 0.999 and routes", doc)
	}
	for _, r := range doc.Routes {
		if r.Total == 0 {
			return fmt.Errorf("slo route %q has zero total", r.Route)
		}
		wantAvail := float64(r.Errors) / ((1 - doc.AvailabilityTarget) * float64(r.Total))
		if math.Abs(r.AvailabilityBurn-wantAvail) > 1e-6 {
			return fmt.Errorf("route %q availability burn = %v, recomputed %v", r.Route, r.AvailabilityBurn, wantAvail)
		}
		// The 1ns threshold makes every request slow, so the latency burn
		// must be exactly 1/(1-target) — the formula with slow == total.
		if r.Slow != r.Total {
			return fmt.Errorf("route %q slow = %d of %d, want all slow under a 1ns threshold", r.Route, r.Slow, r.Total)
		}
		wantLat := float64(r.Slow) / ((1 - doc.LatencyTarget) * float64(r.Total))
		if math.Abs(r.LatencyBurn-wantLat) > 1e-6 {
			return fmt.Errorf("route %q latency burn = %v, recomputed %v", r.Route, r.LatencyBurn, wantLat)
		}
		if r.BudgetRemaining != 0 {
			return fmt.Errorf("route %q budget remaining = %v, want 0 with the latency budget torched", r.Route, r.BudgetRemaining)
		}
	}
	return nil
}

// checkStore matches the inventory against the traffic: two distinct
// documents were put, and the fresh server's digest op read them back
// (the first digest op was answered from the parse cache).
func checkStore(base string) error {
	var doc struct {
		Enabled bool  `json:"enabled"`
		Blobs   int   `json:"blobs"`
		Puts    int64 `json:"puts"`
		Gets    int64 `json:"gets"`
	}
	if err := getJSON(base+"/debug/store", &doc); err != nil {
		return err
	}
	if !doc.Enabled || doc.Blobs != 2 || doc.Puts != 2 || doc.Gets < 2 {
		return fmt.Errorf("/debug/store = %+v, want enabled, 2 blobs, 2 puts, >=2 gets", doc)
	}
	return nil
}

// checkMetrics parses the exposition and requires the SLO gauges the
// dashboards read (a fully-burned latency budget is 100x = 1e8 ppm) and
// the store's series for the traffic driven: two new blobs, and the fresh
// server's digest op read both.
func checkMetrics(base string) error {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	m, err := promtext.Parse(resp.Body)
	if err != nil {
		return err
	}
	if v, ok := m.Value("cube_slo_latency_burn_ppm", map[string]string{"route": "/op/{op}"}); !ok || v <= 0 {
		return fmt.Errorf("cube_slo_latency_burn_ppm{route=/op/{op}} = %v, %v; want > 0", v, ok)
	}
	if _, ok := m.Value("cube_slo_availability_burn_ppm", map[string]string{"route": "/op/{op}"}); !ok {
		return fmt.Errorf("cube_slo_availability_burn_ppm absent from /metrics")
	}
	if got := m.Sum("cube_http_requests_total", nil); got == 0 {
		return fmt.Errorf("cube_http_requests_total absent from /metrics")
	}
	puts, _ := m.Value("cube_store_put_total", nil)
	blobs, _ := m.Value("cube_store_blobs", nil)
	hits, _ := m.Value("cube_store_get_hits_total", nil)
	if puts != 2 || blobs != 2 || hits < 2 {
		return fmt.Errorf("cube_store_put_total %v, cube_store_blobs %v, cube_store_get_hits_total %v; want 2, 2, >=2", puts, blobs, hits)
	}
	return nil
}

func countKind(events []*obs.EventFields, kind string) int {
	n := 0
	for _, f := range events {
		if f.Kind == kind {
			n++
		}
	}
	return n
}

func getJSON(url string, into any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

// buildExp makes a minimal single-metric experiment whose severities
// differ by seed, so differences are non-trivial.
func buildExp(title string, seed float64) *cube.Experiment {
	e := cube.New(title)
	m := e.NewMetric("Time", cube.Seconds, "")
	root := e.NewCallRoot(e.NewCallSite("", 0, e.NewRegion("main", "app", 0, 0)))
	for i, th := range e.SingleThreadedSystem("m", 1, 4) {
		e.SetSeverity(m, root, th, seed+float64(i))
	}
	return e
}
