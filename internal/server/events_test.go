package server

// Wide-event end-to-end tests: every response — success, client error,
// unprocessable operands, panics, degraded-store 503s — produces exactly
// one "http" event whose request_id matches the X-Request-ID the client
// saw, and the /debug/events, /debug/store, and /debug/slo routes expose
// the telemetry (only) when the debug gate is open.

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"syscall"
	"testing"
	"time"

	"cube/internal/cubexml"
	"cube/internal/obs"
	"cube/internal/store"
)

// waitEvents waits for the sink to retain n events: the middleware emits
// after the response is flushed, so the client can observe the response a
// beat before the event lands in the ring.
func waitEvents(t *testing.T, sink *obs.EventSink, n int64) []*obs.EventFields {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for sink.Total() < n {
		if time.Now().After(deadline) {
			t.Fatalf("sink retained %d events, want %d", sink.Total(), n)
		}
		time.Sleep(time.Millisecond)
	}
	return sink.Events()
}

// TestEveryResponseEmitsOneWideEvent drives one request per outcome class
// through the full handler and asserts the exactly-one-event invariant,
// with the event's request ID matching the header on the wire.
func TestEveryResponseEmitsOneWideEvent(t *testing.T) {
	sink := obs.NewEventSink(32)
	cfg := quietConfig()
	cfg.Metrics = obs.NewRegistry()
	cfg.Events = sink
	srv := httptest.NewServer(NewHandler(cfg))
	defer srv.Close()

	do := func(wantStatus int, send func() *http.Response) *obs.EventFields {
		t.Helper()
		before := sink.Total()
		resp := send()
		readAll(t, resp)
		if resp.StatusCode != wantStatus {
			t.Fatalf("status = %d, want %d", resp.StatusCode, wantStatus)
		}
		events := waitEvents(t, sink, before+1)
		if got := sink.Total(); got != before+1 {
			t.Fatalf("request produced %d events, want exactly 1", got-before)
		}
		f := events[len(events)-1]
		if err := obs.ValidateEvent(f); err != nil {
			t.Errorf("event invalid: %v\n%+v", err, f)
		}
		if f.Status != wantStatus {
			t.Errorf("event status = %d, want %d", f.Status, wantStatus)
		}
		if id := resp.Header.Get("X-Request-ID"); f.RequestID != id {
			t.Errorf("event request_id = %q, header said %q", f.RequestID, id)
		}
		return f
	}

	// 200 with full operand and kernel attribution.
	f := do(http.StatusOK, func() *http.Response {
		return post(t, srv, "/op/difference", buildExp("a", 1), buildExp("b", 0))
	})
	if f.Route != "/op/{op}" || f.Method != "POST" || f.Op != "difference" {
		t.Errorf("route/method/op = %q/%q/%q", f.Route, f.Method, f.Op)
	}
	if f.Operands != 2 || f.InlineOperands != 2 || f.OperandBytes <= 0 {
		t.Errorf("operand attribution = %+v", f)
	}
	if f.KernelShards < 1 || f.KernelTuples <= 0 || f.KernelCells <= 0 {
		t.Errorf("kernel attribution missing: %+v", f)
	}
	if f.XMLReadBytes <= 0 || f.XMLWriteBytes <= 0 {
		t.Errorf("codec attribution missing: %+v", f)
	}
	if f.ResponseBytes != f.XMLWriteBytes {
		t.Errorf("response_bytes = %d, xml_write_bytes = %d", f.ResponseBytes, f.XMLWriteBytes)
	}
	// The columnar body is counted by its own twin.
	fc := do(http.StatusOK, func() *http.Response {
		return postAccept(t, srv, "/op/difference", cubexml.ColumnarType, buildExp("a", 1), buildExp("b", 0))
	})
	if fc.ColumnarWriteBytes <= 0 || fc.XMLWriteBytes != 0 || fc.EncodeMS <= 0 {
		t.Errorf("columnar codec attribution: %+v", fc)
	}
	if fc.ResponseBytes != fc.ColumnarWriteBytes {
		t.Errorf("response_bytes = %d, columnar_write_bytes = %d", fc.ResponseBytes, fc.ColumnarWriteBytes)
	}
	// The default config has a parse cache: two fresh operands miss twice.
	if f.ParseCacheMisses != 2 || f.ParseCacheHits != 0 {
		t.Errorf("parse cache = %d hits / %d misses, want 0/2", f.ParseCacheHits, f.ParseCacheMisses)
	}

	// Repeating one operand hits the cache.
	f = do(http.StatusOK, func() *http.Response {
		return post(t, srv, "/op/flatten", buildExp("a", 1))
	})
	if f.ParseCacheHits != 1 || f.ParseCacheMisses != 0 {
		t.Errorf("repeat parse cache = %d hits / %d misses, want 1/0", f.ParseCacheHits, f.ParseCacheMisses)
	}

	// 404: a route the mux does not know.
	f = do(http.StatusNotFound, func() *http.Response {
		resp, err := http.Get(srv.URL + "/no/such/route")
		if err != nil {
			t.Fatal(err)
		}
		return resp
	})
	if f.Route != "other" {
		t.Errorf("unknown-path route label = %q, want other", f.Route)
	}

	// 400: hostile multipart body.
	do(http.StatusBadRequest, func() *http.Response {
		resp, err := http.Post(srv.URL+"/op/difference",
			"multipart/form-data; boundary=x", strings.NewReader("garbage"))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	})

	// 422: well-formed operands the operator rejects (arity mismatch is
	// 400; an operand that is not a CUBE document is 400 too — prune with
	// an unknown metric is the clean 422).
	do(http.StatusUnprocessableEntity, func() *http.Response {
		return post(t, srv, "/op/prune?metric=nope&threshold=0.5", buildExp("a", 0))
	})
}

// TestPanicEmitsWideEvent pins the invariant on the worst path: a handler
// panic still yields exactly one event, carrying the 500 the recovery
// middleware wrote.
func TestPanicEmitsWideEvent(t *testing.T) {
	sink := obs.NewEventSink(8)
	s := &service{cfg: quietConfig(), events: sink}
	mux := http.NewServeMux()
	mux.HandleFunc("/panic", func(w http.ResponseWriter, r *http.Request) {
		panic("injected failure")
	})
	srv := httptest.NewServer(s.wrap(mux))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/panic")
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, resp)
	events := waitEvents(t, sink, 1)
	if len(events) != 1 {
		t.Fatalf("panic produced %d events, want 1", len(events))
	}
	f := events[0]
	if f.Status != http.StatusInternalServerError {
		t.Errorf("panic event status = %d, want 500", f.Status)
	}
	if f.RequestID != resp.Header.Get("X-Request-ID") {
		t.Errorf("panic event request_id = %q, header %q", f.RequestID, resp.Header.Get("X-Request-ID"))
	}
}

// TestDegradedStoreEmitsWideEvents drives the store into degraded mode
// over HTTP: the tripping 500, the fast-fail 503, and the store lifecycle
// events all land in the one shared sink.
func TestDegradedStoreEmitsWideEvents(t *testing.T) {
	sink := obs.NewEventSink(32)
	ffs := store.NewFaultFS(nil)
	cfg := quietConfig()
	cfg.Metrics = obs.NewRegistry()
	cfg.Events = sink
	cfg.Debug = true
	srv, _ := newStoreServer(t, cfg, store.Options{
		FS:               ffs,
		FailureThreshold: 1,
		ProbeInterval:    time.Minute,
	})

	doc := encodeExp(t, buildExp("fresh", 0))
	d := store.DigestOf(doc)
	ffs.Inject(&store.Fault{Op: "sync", Path: ".tmp-", Err: syscall.ENOSPC})
	resp := putExperiment(t, srv, d.String(), doc, "")
	if readAll(t, resp); resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("tripping PUT status = %d, want 500", resp.StatusCode)
	}
	resp = putExperiment(t, srv, d.String(), doc, "")
	if readAll(t, resp); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("degraded PUT status = %d, want 503", resp.StatusCode)
	}

	// Four events total: the store's recovery event at open, the tripping
	// PUT's http 500, the degraded_enter transition, and the http 503.
	var http500, http503, degradedEnter int
	for _, f := range waitEvents(t, sink, 4) {
		switch {
		case f.Kind == "http" && f.Status == 500:
			http500++
		case f.Kind == "http" && f.Status == 503:
			http503++
		case f.Kind == "store" && f.StoreEvent == "degraded_enter":
			degradedEnter++
		}
	}
	if http500 != 1 || http503 != 1 || degradedEnter != 1 {
		t.Errorf("events: %d 500s, %d 503s, %d degraded_enter, want 1 each", http500, http503, degradedEnter)
	}

	// The inventory endpoint must agree with the fault-injected state.
	resp, err := http.Get(srv.URL + "/debug/store")
	if err != nil {
		t.Fatal(err)
	}
	var inv struct {
		Enabled        bool   `json:"enabled"`
		Degraded       bool   `json:"degraded"`
		DegradedReason string `json:"degraded_reason"`
	}
	if err := json.Unmarshal([]byte(readAll(t, resp)), &inv); err != nil {
		t.Fatal(err)
	}
	if !inv.Enabled || !inv.Degraded || inv.DegradedReason == "" {
		t.Errorf("/debug/store = %+v, want enabled + degraded with a reason", inv)
	}
}

// TestDebugRoutesGated asserts the single -debug gate: with it off every
// /debug/* route 404s; with it on they all serve.
func TestDebugRoutesGated(t *testing.T) {
	routes := []string{"/debug/vars", "/debug/pprof/", "/debug/events", "/debug/store", "/debug/slo"}

	off := newTestServer(t) // quietConfig: Debug off
	for _, route := range routes {
		resp, err := http.Get(off.URL + route)
		if err != nil {
			t.Fatal(err)
		}
		readAll(t, resp)
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s with debug off: status %d, want 404", route, resp.StatusCode)
		}
	}

	cfg := quietConfig()
	cfg.Metrics = obs.NewRegistry()
	cfg.Debug = true
	on := httptest.NewServer(NewHandler(cfg))
	defer on.Close()
	for _, route := range routes {
		resp, err := http.Get(on.URL + route)
		if err != nil {
			t.Fatal(err)
		}
		readAll(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s with debug on: status %d, want 200", route, resp.StatusCode)
		}
	}
}

// TestDebugEventsEndpoint exercises the NDJSON export and its filters over
// HTTP.
func TestDebugEventsEndpoint(t *testing.T) {
	cfg := quietConfig()
	cfg.Metrics = obs.NewRegistry()
	cfg.Debug = true
	sink := obs.NewEventSink(32)
	cfg.Events = sink
	srv := httptest.NewServer(NewHandler(cfg))
	defer srv.Close()

	readAll(t, post(t, srv, "/op/flatten", buildExp("a", 0)))
	if resp, err := http.Get(srv.URL + "/nope"); err != nil {
		t.Fatal(err)
	} else {
		readAll(t, resp)
	}
	waitEvents(t, sink, 2)

	fetch := func(query string) []map[string]any {
		t.Helper()
		resp, err := http.Get(srv.URL + "/debug/events" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			t.Fatalf("/debug/events%s status %d: %s", query, resp.StatusCode, body)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/x-ndjson") {
			t.Errorf("Content-Type = %q, want application/x-ndjson", ct)
		}
		var out []map[string]any
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			var doc map[string]any
			if err := json.Unmarshal(sc.Bytes(), &doc); err != nil {
				t.Fatalf("line %d is not JSON: %v\n%s", len(out)+1, err, sc.Text())
			}
			out = append(out, doc)
		}
		return out
	}

	all := fetch("")
	if len(all) < 2 {
		t.Fatalf("unfiltered dump has %d events, want >= 2", len(all))
	}
	for _, doc := range all {
		for _, key := range []string{"kind", "time", "route", "status", "duration_ms", "request_id"} {
			if _, ok := doc[key]; !ok {
				t.Errorf("event line missing %q: %v", key, doc)
			}
		}
	}
	for _, doc := range fetch("?route=/op/{op}") {
		if doc["route"] != "/op/{op}" {
			t.Errorf("route filter leaked %v", doc["route"])
		}
	}
	for _, doc := range fetch("?class=4xx") {
		if int(doc["status"].(float64))/100 != 4 {
			t.Errorf("class filter leaked status %v", doc["status"])
		}
	}
	if got := fetch("?limit=1"); len(got) != 1 {
		t.Errorf("limit=1 returned %d events", len(got))
	}
	resp, err := http.Get(srv.URL + "/debug/events?status=banana")
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, resp)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad status filter answered %d, want 400", resp.StatusCode)
	}
}

// TestDebugStoreEndpoint asserts the inventory JSON over HTTP, and the
// enabled:false answer without a store.
func TestDebugStoreEndpoint(t *testing.T) {
	cfg := quietConfig()
	cfg.Metrics = obs.NewRegistry()
	cfg.Debug = true
	srv, _ := newStoreServer(t, cfg, store.Options{Budget: 1 << 20})

	doc := encodeExp(t, buildExp("stored", 0))
	d := store.DigestOf(doc)
	readAll(t, putExperiment(t, srv, d.String(), doc, ""))

	resp, err := http.Get(srv.URL + "/debug/store")
	if err != nil {
		t.Fatal(err)
	}
	var inv struct {
		Enabled bool    `json:"enabled"`
		Blobs   int     `json:"blobs"`
		Bytes   int64   `json:"bytes"`
		Budget  int64   `json:"budget"`
		Puts    int64   `json:"puts"`
		Press   float64 `json:"pressure"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&inv); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !inv.Enabled || inv.Blobs != 1 || inv.Bytes != int64(len(doc)) || inv.Puts != 1 {
		t.Errorf("inventory = %+v", inv)
	}
	if inv.Budget != 1<<20 || inv.Press <= 0 {
		t.Errorf("budget/pressure = %d/%g", inv.Budget, inv.Press)
	}

	// No store configured: enabled false.
	cfg2 := quietConfig()
	cfg2.Metrics = obs.NewRegistry()
	cfg2.Debug = true
	bare := httptest.NewServer(NewHandler(cfg2))
	defer bare.Close()
	resp, err = http.Get(bare.URL + "/debug/store")
	if err != nil {
		t.Fatal(err)
	}
	var barerep struct {
		Enabled bool `json:"enabled"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&barerep); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if barerep.Enabled {
		t.Error("store reported enabled without one configured")
	}
}

// TestSLOEndToEnd configures objectives, drives traffic with a known error
// mix, and asserts the burn math on /debug/slo and the ppm gauges on
// /metrics.
func TestSLOEndToEnd(t *testing.T) {
	cfg := quietConfig()
	cfg.Metrics = obs.NewRegistry()
	cfg.Debug = true
	cfg.SLOAvailability = 0.9 // error budget: 10% of requests
	cfg.SLOLatency = 10 * time.Second
	srv := httptest.NewServer(NewHandler(cfg))
	defer srv.Close()

	// Four successes on the op route, one 404 on "other" — client errors
	// must not burn availability budget.
	for i := 0; i < 4; i++ {
		readAll(t, post(t, srv, "/op/flatten", buildExp("a", 0)))
	}
	resp, err := http.Get(srv.URL + "/no/such/route")
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, resp)

	resp, err = http.Get(srv.URL + "/debug/slo")
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Enabled            bool    `json:"enabled"`
		Window             string  `json:"window"`
		AvailabilityTarget float64 `json:"availability_target"`
		Routes             []struct {
			Route            string  `json:"route"`
			Total            int64   `json:"total"`
			Errors           int64   `json:"errors"`
			AvailabilityBurn float64 `json:"availability_burn"`
			BudgetRemaining  float64 `json:"budget_remaining"`
		} `json:"routes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !rep.Enabled || rep.AvailabilityTarget != 0.9 || rep.Window == "" {
		t.Fatalf("slo report header = %+v", rep)
	}
	byRoute := map[string]int64{}
	for _, rt := range rep.Routes {
		byRoute[rt.Route] = rt.Total
		if rt.Route == "/op/{op}" {
			if rt.Errors != 0 || rt.AvailabilityBurn != 0 || rt.BudgetRemaining != 1 {
				t.Errorf("healthy route burned budget: %+v", rt)
			}
		}
	}
	// Observe runs after the handler returns, so the snapshot excludes
	// the /debug/slo request reading it.
	if byRoute["/op/{op}"] != 4 {
		t.Errorf("op route total = %d, want 4", byRoute["/op/{op}"])
	}
	if byRoute["other"] != 1 {
		t.Errorf("other route total = %d, want 1", byRoute["other"])
	}

	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, mresp)
	if !strings.Contains(body, "cube_slo_availability_burn_ppm") {
		t.Errorf("metrics exposition missing cube_slo_availability_burn_ppm:\n%.400s", body)
	}
}

// TestDebugEventsCombinedFilters: kind, route, status, and
// min_duration_ms given together must intersect — of four requests that
// each match some of the filters, only the slow successful operator
// request matches all of them.
func TestDebugEventsCombinedFilters(t *testing.T) {
	cfg := quietConfig()
	cfg.Metrics = obs.NewRegistry()
	cfg.Debug = true
	sink := obs.NewEventSink(32)
	cfg.Events = sink
	srv := httptest.NewServer(NewHandler(cfg))
	defer srv.Close()

	readAll(t, post(t, srv, "/op/flatten", buildExp("fast", 0))) // 200, fast: fails min_duration_ms
	postDifference(t, srv, 120*time.Millisecond)                 // 200, slow: matches everything
	// Same route, non-200: difference needs two operands.
	readAll(t, post(t, srv, "/op/difference", buildExp("lonely", 0)))
	if resp, err := http.Get(srv.URL + "/nope"); err != nil { // 404, different route
		t.Fatal(err)
	} else {
		readAll(t, resp)
	}
	waitEvents(t, sink, 4)

	query := "?kind=http&route=" + url.QueryEscape("/op/{op}") + "&status=200&min_duration_ms=80"
	resp, err := http.Get(srv.URL + "/debug/events" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("combined filter: status %d: %s", resp.StatusCode, readAll(t, resp))
	}
	var docs []map[string]any
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var doc map[string]any
		if err := json.Unmarshal(sc.Bytes(), &doc); err != nil {
			t.Fatalf("line %d is not JSON: %v\n%s", len(docs)+1, err, sc.Text())
		}
		docs = append(docs, doc)
	}
	if len(docs) != 1 {
		t.Fatalf("combined filter matched %d events, want exactly the slow 200:\n%v", len(docs), docs)
	}
	doc := docs[0]
	if doc["kind"] != "http" || doc["route"] != "/op/{op}" {
		t.Errorf("survivor = kind %v route %v, want http /op/{op}", doc["kind"], doc["route"])
	}
	if int(doc["status"].(float64)) != 200 {
		t.Errorf("survivor status = %v, want 200", doc["status"])
	}
	if ms := doc["duration_ms"].(float64); ms < 80 {
		t.Errorf("survivor duration_ms = %v, want >= 80", ms)
	}

	// The same conjunction with an unsatisfiable member answers an empty
	// (but well-formed) dump, not an error.
	resp2, err := http.Get(srv.URL + "/debug/events" + query + "&class=5xx")
	if err != nil {
		t.Fatal(err)
	}
	if body := readAll(t, resp2); resp2.StatusCode != http.StatusOK || strings.TrimSpace(body) != "" {
		t.Errorf("unsatisfiable conjunction: status %d body %q, want 200 and empty", resp2.StatusCode, body)
	}
}
