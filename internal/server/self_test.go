package server

// End-to-end tests of the self-telemetry loop: the server snapshots its
// own metrics into the experiment store, and the algebra over those
// snapshots — Difference via POST /expr with digest: leaves — surfaces a
// latency regression injected between two runs. This is the observability
// acceptance scenario: the server analyses itself with its own operators.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"mime/multipart"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"cube/internal/core"
	"cube/internal/cubexml"
	"cube/internal/obs"
	"cube/internal/selfcube"
	"cube/internal/store"
)

// selfTestServer is a debug-enabled, traced server with a store and
// manual-mode self-telemetry (snapshots on demand, no background loop).
func selfTestServer(t *testing.T, reg *obs.Registry) *httptest.Server {
	t.Helper()
	cfg := quietConfig()
	cfg.Metrics = reg
	cfg.Debug = true
	cfg.TraceSampleRate = 1
	cfg.SelfKeep = 8
	cfg.SelfProcess = "cube-server-test"
	srv, _ := newStoreServer(t, cfg, store.Options{})
	return srv
}

// slowBody delays the first body read, so the server spends that long
// inside the request — an injected latency regression on the route.
type slowBody struct {
	r     io.Reader
	delay time.Duration
	once  sync.Once
}

func (s *slowBody) Read(p []byte) (int, error) {
	s.once.Do(func() { time.Sleep(s.delay) })
	return s.r.Read(p)
}

// postDifference POSTs two operand documents to /op/difference, delaying
// the body by delay (0 for a fast request).
func postDifference(t *testing.T, srv *httptest.Server, delay time.Duration) {
	t.Helper()
	doc := encodeExp(t, buildExp("self-op", 0.5))
	var body bytes.Buffer
	mw := multipart.NewWriter(&body)
	for i := 0; i < 2; i++ {
		fw, err := mw.CreateFormFile("operand", "op.cube")
		if err != nil {
			t.Fatal(err)
		}
		fw.Write(doc)
	}
	mw.Close()
	resp, err := http.Post(srv.URL+"/op/difference", mw.FormDataContentType(),
		&slowBody{r: &body, delay: delay})
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("difference: status %d", resp.StatusCode)
	}
}

// stageTime returns the Time severity at the leaf stage's call node of a
// self-snapshot (or of a difference of two).
func stageTime(t *testing.T, e *core.Experiment, stage string) float64 {
	t.Helper()
	node := e.CallRoots()[0].FindChild(stage)
	timeM := e.FindMetricByName("Time")
	if node == nil || timeM == nil {
		t.Fatalf("stage %q or the Time metric missing from the self-snapshot", stage)
	}
	return e.MetricValue(timeM, node)
}

// TestSelfTelemetryStageTimesUnsampled checks that a self-snapshot's
// stage times do not depend on trace sampling: with tracing off, operator
// traffic still shows up as parse and accumulate time.
func TestSelfTelemetryStageTimesUnsampled(t *testing.T) {
	cfg := quietConfig()
	cfg.Metrics = obs.NewRegistry()
	cfg.Debug = true
	cfg.TraceSampleRate = 0
	cfg.TraceSlow = 0
	cfg.SelfKeep = 2
	srv, _ := newStoreServer(t, cfg, store.Options{})
	for i := 0; i < 3; i++ {
		postDifference(t, srv, 0)
	}
	takeSnapshot(t, srv)
	resp, err := http.Get(srv.URL + "/debug/self/experiment.xml")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	e, err := cubexml.Read(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, stage := range []string{"parse", "accumulate"} {
		if got := stageTime(t, e, stage); got <= 0 {
			t.Errorf("%s Time = %g at trace sample rate 0, want > 0", stage, got)
		}
	}
}

func takeSnapshot(t *testing.T, srv *httptest.Server) selfcube.Run {
	t.Helper()
	resp, err := http.Post(srv.URL+"/debug/self/snapshot", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot: status %d: %s", resp.StatusCode, readAll(t, resp))
	}
	var run selfcube.Run
	if err := json.NewDecoder(resp.Body).Decode(&run); err != nil {
		t.Fatal(err)
	}
	return run
}

func TestSelfTelemetryDetectsLatencyRegression(t *testing.T) {
	reg := obs.NewRegistry()
	srv := selfTestServer(t, reg)

	// No snapshot yet: the series is enabled but empty, and there is no
	// latest document to serve.
	resp, err := http.Get(srv.URL + "/debug/self/experiment.xml")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("experiment.xml before any snapshot: status %d, want 404", resp.StatusCode)
	}

	// Phase 1 — healthy: fast requests, then snapshot run 1.
	for i := 0; i < 3; i++ {
		postDifference(t, srv, 0)
	}
	run1 := takeSnapshot(t, srv)

	// Phase 2 — regressed: the same traffic is now slow, then run 2.
	const injected = 120 * time.Millisecond
	const slowReqs = 3
	for i := 0; i < slowReqs; i++ {
		postDifference(t, srv, injected)
	}
	run2 := takeSnapshot(t, srv)
	if run2.Seq != run1.Seq+1 || run2.Digest == run1.Digest {
		t.Fatalf("runs did not advance: %+v then %+v", run1, run2)
	}

	// The server's own algebra over its own history: run2 − run1.
	src := `{"op":"difference","args":[{"ref":"digest:` + run2.Digest + `"},{"ref":"digest:` + run1.Digest + `"}]}`
	diff := decodeExpResponse(t, postExprJSON(t, srv, src))

	// The regression surfaces in the matching route's latency series:
	// the between-runs delta of the duration sum carries the injected
	// slowness, and the count delta is exactly the slow requests.
	route := obs.L("route", "/op/{op}")
	gotSum := selfcube.SeriesValue(diff, "cube_http_request_duration_seconds_sum", route)
	if want := float64(slowReqs) * injected.Seconds() * 0.8; gotSum < want {
		t.Errorf("duration_sum delta = %gs, want >= %gs (injected %v x %d)",
			gotSum, want, injected, slowReqs)
	}
	gotCount := selfcube.SeriesValue(diff, "cube_http_request_duration_seconds_count", route)
	if gotCount != slowReqs {
		t.Errorf("duration_count delta = %g, want %d", gotCount, slowReqs)
	}

	// The stage times came along: the injected delay sits in the body
	// read, so the resolve stage's Time delta carries it.
	if got := stageTime(t, diff, "resolve"); got < float64(slowReqs)*injected.Seconds()*0.8 {
		t.Errorf("resolve Time delta = %gs, want >= %gs", got, float64(slowReqs)*injected.Seconds()*0.8)
	}

	// GET /debug/self lists both runs, oldest first.
	resp, err = http.Get(srv.URL + "/debug/self")
	if err != nil {
		t.Fatal(err)
	}
	var series struct {
		Enabled bool           `json:"enabled"`
		Process string         `json:"process"`
		Runs    []selfcube.Run `json:"runs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&series); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !series.Enabled || series.Process != "cube-server-test" {
		t.Errorf("series = %+v, want enabled with process cube-server-test", series)
	}
	if len(series.Runs) != 2 || series.Runs[0].Seq != run1.Seq || series.Runs[1].Seq != run2.Seq {
		t.Errorf("runs = %+v, want [run1 run2]", series.Runs)
	}

	// experiment.xml serves the newest snapshot, byte-identical to the
	// stored blob (it re-hashes to run2's digest) and parseable.
	resp, err = http.Get(srv.URL + "/debug/self/experiment.xml")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("experiment.xml: status %d", resp.StatusCode)
	}
	if got := hex.EncodeToString(func() []byte { h := sha256.Sum256(body); return h[:] }()); got != run2.Digest {
		t.Errorf("experiment.xml hashes to %s, want run2 digest %s", got, run2.Digest)
	}
	if resp.Header.Get("Content-Digest") == "" {
		t.Error("experiment.xml missing Content-Digest header")
	}
	latest, err := cubexml.Read(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("experiment.xml does not parse: %v", err)
	}
	if latest.Title != run2.Title {
		t.Errorf("latest title = %q, want %q", latest.Title, run2.Title)
	}

	// The snapshot operation itself accounted for: wide events of kind
	// "self" and the cube_self_* bookkeeping series.
	if got := reg.CounterValue("cube_self_snapshots_total"); got != 2 {
		t.Errorf("cube_self_snapshots_total = %d, want 2", got)
	}
	resp, err = http.Get(srv.URL + "/debug/events?kind=self")
	if err != nil {
		t.Fatal(err)
	}
	events := readAll(t, resp)
	if got := strings.Count(events, `"self.snapshot"`); got != 2 {
		t.Errorf("self wide events = %d, want 2 (body %q)", got, events)
	}
}

func TestSelfDisabledAnswersEnabledFalse(t *testing.T) {
	cfg := quietConfig()
	cfg.Metrics = obs.NewRegistry()
	cfg.Debug = true
	srv := httptest.NewServer(NewHandler(cfg))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/self")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var series struct {
		Enabled bool `json:"enabled"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&series); err != nil {
		t.Fatal(err)
	}
	if series.Enabled {
		t.Error("self-telemetry reports enabled without configuration")
	}
	// The snapshot routes are not mounted at all.
	resp2, err := http.Post(srv.URL+"/debug/self/snapshot", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Errorf("snapshot without self: status %d, want 404", resp2.StatusCode)
	}
}

func TestSelfConfigValidation(t *testing.T) {
	cfg := quietConfig()
	cfg.SelfInterval = -time.Second
	if err := cfg.Validate(); err == nil {
		t.Error("negative SelfInterval passed Validate")
	}
	cfg = quietConfig()
	cfg.SelfKeep = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative SelfKeep passed Validate")
	}
	cfg = quietConfig()
	cfg.SelfInterval = time.Minute // no store
	if err := cfg.Validate(); err == nil {
		t.Error("self-telemetry without store passed Validate")
	}
}

// TestServeStartsSelfLoop exercises the serve.go wiring: with
// SelfInterval set, Serve runs the background loop and the series grows
// without any manual snapshot call.
func TestServeStartsSelfLoop(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := quietConfig()
	cfg.Metrics = obs.NewRegistry()
	cfg.Store = st
	cfg.Debug = true
	cfg.SelfInterval = 10 * time.Millisecond
	cfg.SelfKeep = 4
	cfg.handler = NewHandler(cfg)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- Serve(ctx, ln, cfg) }()
	defer func() {
		cancel()
		<-done
	}()

	deadline := time.Now().Add(5 * time.Second)
	for {
		if runs := cfg.self.Runs(); len(runs) >= 2 {
			if runs[0].Seq >= runs[1].Seq {
				t.Fatalf("series not monotonic: %+v", runs)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("self loop took no snapshots within 5s")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// BenchmarkSelfServingOverhead guards the serving-path cost of
// self-telemetry: "off" serves requests with the feature unconfigured,
// "on" serves the same requests while the snapshot loop runs at 250ms —
// already ~240x the documented 1m cadence. The two must stay within a
// few percent: snapshots happen off the request path, and the
// collector's registry walk is bounded by series count, not request
// rate. A whole snapshot (collect + XML encode + durable store commit)
// costs single-digit milliseconds, so its duty cycle at any sane
// interval is well under the budget even on one core; cranking the
// interval toward the snapshot cost itself (25ms on a 1-CPU box) only
// measures that duty cycle, not the serving path. Compare:
//
//	go test -run='^$' -bench=BenchmarkSelfServingOverhead ./internal/server
func BenchmarkSelfServingOverhead(b *testing.B) {
	doc := encodeExp(b, buildExp("bench", 0.5))
	request := func(h http.Handler) {
		var body bytes.Buffer
		mw := multipart.NewWriter(&body)
		for i := 0; i < 2; i++ {
			fw, _ := mw.CreateFormFile("operand", "op.cube")
			fw.Write(doc)
		}
		mw.Close()
		req := httptest.NewRequest(http.MethodPost, "/op/difference", &body)
		req.Header.Set("Content-Type", mw.FormDataContentType())
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d", rec.Code)
		}
	}
	benchCfg := func() *Config {
		cfg := quietConfig()
		cfg.Metrics = obs.NewRegistry()
		cfg.Events = obs.NewEventSink(64)
		return cfg
	}
	b.Run("off", func(b *testing.B) {
		h := NewHandler(benchCfg())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			request(h)
		}
	})
	b.Run("on", func(b *testing.B) {
		st, err := store.Open(b.TempDir(), store.Options{})
		if err != nil {
			b.Fatal(err)
		}
		cfg := benchCfg()
		cfg.Store = st
		cfg.SelfInterval = 250 * time.Millisecond
		cfg.SelfKeep = 8
		h := NewHandler(cfg)
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			defer close(done)
			cfg.self.Loop(ctx)
		}()
		// Wait the loop out before b.TempDir cleanup: an in-flight
		// snapshot writing blobs during RemoveAll leaves the directory
		// non-empty mid-scan.
		b.Cleanup(func() {
			cancel()
			<-done
		})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			request(h)
		}
	})
}
