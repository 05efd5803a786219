package server

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"cube/internal/cubexml"
	"cube/internal/expr"
	"cube/internal/obs"
	"cube/internal/selfcube"
	"cube/internal/store"
)

// Config collects every robustness limit of the service. The zero value of
// a field disables the corresponding guard; DefaultConfig returns
// production defaults. Config is shared by NewHandler (per-request guards)
// and Serve (connection timeouts, graceful shutdown).
type Config struct {
	// Request guards.
	MaxOperands    int            // operand files per request
	MaxUploadBytes int64          // total request body bytes
	MaxFileBytes   int64          // bytes per operand file
	MaxConcurrent  int            // weighted in-flight request slots
	RequestTimeout time.Duration  // wall-clock budget per request
	RetryAfter     time.Duration  // Retry-After hint on 429 responses
	XML            cubexml.Limits // element/depth caps for operand parsing

	// ParseCacheBytes is the byte budget of the content-addressed operand
	// cache (cache.go): repeated uploads of the same bytes are answered
	// from a cached parse instead of re-decoding the XML. The budget
	// counts operand input bytes; zero disables the cache.
	ParseCacheBytes int64

	// ExprCacheBytes is the byte budget of the expression-digest result
	// cache behind POST /expr: evaluated subexpressions, keyed by
	// canonical expression digest × evaluation options, are served as
	// clones instead of re-running kernels. The budget counts an estimate
	// of resident result size; zero disables the cache (every expression
	// recomputes).
	ExprCacheBytes int64

	// MaxExprNodes / MaxExprDepth bound the expression documents POST
	// /expr accepts (denial-of-service guards). Zero selects the
	// expr.DefaultLimits values.
	MaxExprNodes int
	MaxExprDepth int

	// ReadEngine selects the cubexml parser for operand decoding
	// (EngineAuto by default); cube-server -read-engine=legacy is the
	// operational escape hatch if the fast path misbehaves.
	ReadEngine cubexml.ReadEngine

	// Store is the durable content-addressed experiment store. When set,
	// the service mounts PUT/GET/HEAD /experiments/{digest} and operator
	// endpoints accept `digest:<sha256>` operand references; /readyz
	// reports 503 while the store is degraded (read-only). nil disables
	// all of it (cube-server -store-dir="").
	Store *store.Store

	// DigestStrict upgrades a Content-Digest mismatch on uploads from a
	// logged-and-counted anomaly to a 400 rejection (cube-server
	// -digest-strict). Off by default: the document the client meant to
	// send is gone either way, and permissive mode keeps old clients
	// working while the mismatch counter surfaces the corruption.
	DigestStrict bool

	// Connection and shutdown behavior (used by Serve).
	ReadHeaderTimeout time.Duration
	ReadTimeout       time.Duration
	WriteTimeout      time.Duration
	IdleTimeout       time.Duration
	DrainTimeout      time.Duration // grace period for in-flight requests on shutdown

	// Logger receives one structured record per request (including the
	// request ID), plus error and panic reports. nil disables logging.
	Logger *slog.Logger

	// Metrics is the registry every layer records into — NewHandler
	// installs it as the process-wide registry (obs.SetRegistry) — and
	// backs the /metrics and /debug/vars endpoints. nil selects
	// obs.Default.
	Metrics *obs.Registry

	// Debug is the single gate for every /debug/* route: pprof, the
	// metrics vars snapshot, the trace viewer, the wide-event log, the
	// store inventory, and the SLO report. Off by default — the routes
	// expose internals (paths, timings, digests, payload sizes) and cost
	// CPU, so production deployments opt in (cube-server -debug).
	Debug bool

	// EnablePprof is the deprecated spelling of Debug, kept so existing
	// callers of the -pprof flag era keep working; either flag opens all
	// the debug routes.
	EnablePprof bool

	// Events receives the per-request wide events; nil makes NewHandler
	// create a private ring of EventRingSize. NewHandler installs it as
	// the process-wide sink (obs.SetEventSink), where the store's
	// lifecycle events land too.
	Events *obs.EventSink

	// EventRingSize bounds the wide-event ring when Events is nil;
	// zero means obs.DefaultEventRingSize.
	EventRingSize int

	// SLO objectives. SLOAvailability is the availability target (e.g.
	// 0.999: at most 1 request in 1000 answers 5xx) and SLOLatency /
	// SLOLatencyTarget the latency objective (SLOLatencyTarget of
	// requests faster than SLOLatency; target defaults to 0.99). Burn is
	// tracked per route over SLOWindow (default 5m), exported as
	// cube_slo_*_burn_ppm gauges and GET /debug/slo, and logged once per
	// budget exhaustion. All zero disables SLO tracking.
	SLOLatency       time.Duration
	SLOLatencyTarget float64
	SLOAvailability  float64
	SLOWindow        time.Duration

	// TraceSampleRate is the fraction of requests ([0, 1]) whose span
	// trees are retained for GET /debug/traces; TraceSlow additionally
	// retains — and logs through Logger, with the hottest spans inline —
	// every request trace at least this slow, regardless of sampling.
	// With both zero (the default) tracing is fully disabled and the
	// /debug/traces endpoints are not mounted.
	TraceSampleRate float64
	TraceSlow       time.Duration

	// Self-telemetry (internal/selfcube): with a Store configured and
	// SelfInterval or SelfKeep set, the service periodically materialises
	// its own metrics, runtime estimates, and span taxonomy as a CUBE
	// experiment and commits it to the store under the run series
	// self:<SelfProcess>:<seq>. SelfInterval is the snapshot period for
	// Serve's background loop (zero: manual snapshots only, via POST
	// /debug/self/snapshot); SelfKeep bounds how many runs stay pinned
	// (zero: selfcube.DefaultKeep); SelfProcess names the series
	// ("cube-server" by default).
	SelfInterval time.Duration
	SelfKeep     int
	SelfProcess  string

	// handler overrides the service mux inside Serve; tests use it to
	// exercise shutdown draining with controllable handlers.
	handler http.Handler

	// self is the snapshotter NewHandler built from the fields above;
	// Serve reads it back to start the periodic loop with its own
	// lifetime. Tests reach it through the same backpointer.
	self *selfcube.Snapshotter
}

// DefaultConfig returns the production defaults documented in the README.
func DefaultConfig() *Config {
	return &Config{
		MaxOperands:       16,
		MaxUploadBytes:    MaxUploadBytes,
		MaxFileBytes:      32 << 20,
		MaxConcurrent:     64,
		RequestTimeout:    30 * time.Second,
		RetryAfter:        1 * time.Second,
		XML:               cubexml.DefaultLimits,
		ParseCacheBytes:   256 << 20,
		ExprCacheBytes:    128 << 20,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       2 * time.Minute,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
		DrainTimeout:      10 * time.Second,
		Logger:            slog.Default(),
	}
}

// Validate reports configuration errors a flag parser cannot catch
// structurally. NewHandler does not call it — programmatic callers may
// rely on documented clamping — but cube-server rejects its flags
// through here.
func (c *Config) Validate() error {
	if c.TraceSampleRate < 0 || c.TraceSampleRate > 1 {
		return fmt.Errorf("server: trace sample rate %g out of range [0, 1]", c.TraceSampleRate)
	}
	if c.TraceSlow < 0 {
		return fmt.Errorf("server: trace slow threshold %v is negative", c.TraceSlow)
	}
	if c.ParseCacheBytes < 0 {
		return fmt.Errorf("server: parse cache budget %d is negative", c.ParseCacheBytes)
	}
	if c.ExprCacheBytes < 0 {
		return fmt.Errorf("server: expression cache budget %d is negative", c.ExprCacheBytes)
	}
	if c.MaxExprNodes < 0 {
		return fmt.Errorf("server: expression node limit %d is negative", c.MaxExprNodes)
	}
	if c.MaxExprDepth < 0 {
		return fmt.Errorf("server: expression depth limit %d is negative", c.MaxExprDepth)
	}
	if c.EventRingSize < 0 {
		return fmt.Errorf("server: event ring size %d is negative", c.EventRingSize)
	}
	if c.SLOAvailability < 0 || c.SLOAvailability >= 1 {
		return fmt.Errorf("server: availability SLO %g out of range [0, 1)", c.SLOAvailability)
	}
	if c.SLOLatencyTarget < 0 || c.SLOLatencyTarget >= 1 {
		return fmt.Errorf("server: latency SLO target %g out of range [0, 1)", c.SLOLatencyTarget)
	}
	if c.SLOLatency < 0 {
		return fmt.Errorf("server: latency SLO threshold %v is negative", c.SLOLatency)
	}
	if c.SLOWindow < 0 {
		return fmt.Errorf("server: SLO window %v is negative", c.SLOWindow)
	}
	switch c.ReadEngine {
	case cubexml.EngineAuto, cubexml.EngineFast, cubexml.EngineLegacy:
	default:
		return fmt.Errorf("server: unknown read engine %d", int(c.ReadEngine))
	}
	if c.SelfInterval < 0 {
		return fmt.Errorf("server: self-telemetry interval %v is negative", c.SelfInterval)
	}
	if c.SelfKeep < 0 {
		return fmt.Errorf("server: self-telemetry keep %d is negative", c.SelfKeep)
	}
	if c.selfEnabled() && c.Store == nil {
		return fmt.Errorf("server: self-telemetry needs the experiment store (-store-dir)")
	}
	return nil
}

// selfEnabled reports whether the self-telemetry snapshotter is requested
// (it additionally needs a store to commit into).
func (c *Config) selfEnabled() bool { return c.SelfInterval > 0 || c.SelfKeep > 0 }

// service binds the handlers to their configuration.
type service struct {
	cfg    *Config
	reg    *obs.Registry         // resolved metrics registry (may be nil in bare tests)
	tracer *obs.Tracer           // request tracer (nil unless configured)
	cache  *parseCache           // content-addressed operand cache (nil when disabled)
	expr   *expr.Engine          // expression evaluation engine (POST /expr)
	events *obs.EventSink        // wide-event ring; every request emits exactly one
	slo    *obs.SLOTracker       // windowed SLO burn tracker (nil unless configured)
	gor    *obs.GoRuntimeSampler // cube_go_* runtime series, sampled per scrape
	self   *selfcube.Snapshotter // self-telemetry run series (nil unless configured)
}

// debugEnabled reports whether the /debug/* routes are mounted.
func (c *Config) debugEnabled() bool { return c.Debug || c.EnablePprof }

// logError emits an error-level record carrying the request ID.
func (s *service) logError(ctx context.Context, msg string, args ...any) {
	if s.cfg.Logger != nil {
		args = append(args, slog.String("request_id", obs.RequestID(ctx)))
		s.cfg.Logger.ErrorContext(ctx, msg, args...)
	}
}

// wrap composes the middleware stack around h, outermost first: request-ID
// injection, telemetry (structured log + route metrics), panic recovery,
// concurrency limiting, per-request timeout, body caps.
func (s *service) wrap(h http.Handler) http.Handler {
	h = s.withMaxBytes(h)
	h = s.withTimeout(h)
	h = s.withLimit(h)
	h = s.withRecover(h)
	h = s.withTelemetry(h)
	h = s.withRequestID(h)
	return h
}

// --- request IDs ---------------------------------------------------------------

// withRequestID assigns every request an ID — honoring a well-formed
// client X-Request-ID (obs.SanitizeRequestID, the code path shared with
// the client's trace-ID minting), minting one otherwise — and propagates
// it on the context, the response header, log lines, and error bodies.
// The ID doubles as the request's trace ID, so a traced request is
// retrievable from /debug/traces by the X-Request-ID the caller sent or
// received.
func (s *service) withRequestID(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := obs.SanitizeRequestID(r.Header.Get("X-Request-ID"))
		if id == "" {
			id = obs.NewRequestID()
		}
		w.Header().Set("X-Request-ID", id)
		h.ServeHTTP(w, r.WithContext(obs.WithRequestID(r.Context(), id)))
	})
}

// --- telemetry: structured request log + route metrics -------------------------

// reqStats accumulates per-request facts (operand sizes) for the log line;
// it travels in the request context so the operand readers can report
// into it.
type reqStats struct {
	mu       sync.Mutex
	operands []int64
}

func (st *reqStats) add(n int64) {
	if st == nil {
		return
	}
	st.mu.Lock()
	st.operands = append(st.operands, n)
	st.mu.Unlock()
}

func (st *reqStats) sizes() []int64 {
	if st == nil {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return append([]int64(nil), st.operands...)
}

type ctxKey int

const statsKey ctxKey = iota

func statsFrom(ctx context.Context) *reqStats {
	st, _ := ctx.Value(statsKey).(*reqStats)
	return st
}

// statusWriter records the status code and bytes written for the log line
// and the route metrics.
type statusWriter struct {
	http.ResponseWriter
	code  int
	bytes int64
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.code == 0 {
		sw.code = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(p []byte) (int, error) {
	if sw.code == 0 {
		sw.code = http.StatusOK
	}
	n, err := sw.ResponseWriter.Write(p)
	sw.bytes += int64(n)
	return n, err
}

// routeLabel buckets a request path into a bounded label set, so hostile
// or misdirected paths cannot explode metric cardinality.
func routeLabel(path string) string {
	switch {
	case strings.HasPrefix(path, "/op/"):
		return "/op/{op}"
	case path == "/expr", path == "/view", path == "/report", path == "/info", path == "/healthz",
		path == "/readyz", path == "/metrics", path == "/debug/vars",
		path == "/debug/events", path == "/debug/store", path == "/debug/slo":
		return path
	case strings.HasPrefix(path, "/experiments/"):
		return "/experiments/{digest}"
	case strings.HasPrefix(path, "/debug/pprof"):
		return "/debug/pprof"
	case strings.HasPrefix(path, "/debug/traces"):
		return "/debug/traces"
	case strings.HasPrefix(path, "/debug/self"):
		return "/debug/self"
	default:
		return "other"
	}
}

// withTelemetry records per-route counters and latency/size histograms
// into the registry, opens the request's wide event (exactly one per
// request — including panics, timeouts, and limiter rejections, all of
// which run inside this middleware), feeds the SLO tracker, and emits one
// structured log record per request. The registry may be nil (bare test
// services), in which case only logging remains.
func (s *service) withTelemetry(h http.Handler) http.Handler {
	inFlight := s.reg.Gauge("cube_http_in_flight_requests")
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		label := routeLabel(r.URL.Path)
		st := &reqStats{}
		r = r.WithContext(context.WithValue(r.Context(), statsKey, st))
		sp := s.startRequestSpan(r)
		if sp != nil {
			r = r.WithContext(obs.ContextWithSpan(r.Context(), sp))
		}
		ev := s.events.NewEvent("http", label)
		if ev != nil {
			ev.SetRequestID(obs.RequestID(r.Context()))
			ev.SetMethod(r.Method)
			r = r.WithContext(obs.ContextWithEvent(r.Context(), ev))
		}
		sw := &statusWriter{ResponseWriter: w}
		inFlight.Add(1)
		h.ServeHTTP(sw, r)
		inFlight.Add(-1)
		code := sw.code
		if code == 0 {
			code = http.StatusOK
		}
		if sp != nil {
			sp.SetAttr("status", code)
			sp.SetAttr("bytes", sw.bytes)
			sp.End()
		}
		elapsed := time.Since(start)
		ev.SetStatus(code)
		ev.SetResponseBytes(sw.bytes)
		ev.SetTraceID(sp.TraceID())
		ev.Emit()
		s.slo.Observe(label, code, elapsed)
		route := obs.L("route", label)
		s.reg.Counter("cube_http_requests_total", route,
			obs.L("method", r.Method), obs.L("status", strconv.Itoa(code))).Inc()
		s.reg.Histogram("cube_http_request_duration_seconds", obs.DefLatencyBuckets, route).
			ObserveExemplar(elapsed.Seconds(), sp.TraceID())
		s.reg.Histogram("cube_http_response_bytes", obs.DefSizeBuckets, route).Observe(float64(sw.bytes))
		if s.cfg.Logger != nil {
			s.cfg.Logger.LogAttrs(r.Context(), slog.LevelInfo, "request",
				slog.String("request_id", obs.RequestID(r.Context())),
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.Int("status", code),
				slog.Int64("bytes", sw.bytes),
				slog.Duration("dur", elapsed.Round(time.Millisecond)),
				slog.Any("operands", st.sizes()),
			)
		}
	})
}

// startRequestSpan opens the request's root trace span, named after the
// bounded route label and identified by the request ID (set by
// withRequestID, which runs outside this middleware). Observability
// endpoints — metrics scrapes, health checks, the trace viewer itself —
// are not traced: they would flood the ring with noise. The span starts
// and ends here, outside withTimeout's handler goroutine, so it
// completes even when the handler overruns its deadline or panics.
func (s *service) startRequestSpan(r *http.Request) *obs.Span {
	if s.tracer == nil {
		return nil
	}
	path := r.URL.Path
	if path == "/metrics" || path == "/healthz" || path == "/readyz" || strings.HasPrefix(path, "/debug/") {
		return nil
	}
	sp := s.tracer.StartTrace("http "+routeLabel(path), obs.RequestID(r.Context()))
	sp.SetAttr("method", r.Method)
	sp.SetAttr("path", path)
	return sp
}

// --- panic recovery ------------------------------------------------------------

func (s *service) withRecover(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				if p == http.ErrAbortHandler {
					panic(p)
				}
				s.reg.Counter("cube_http_panics_total").Inc()
				s.logError(r.Context(), "panic serving request",
					slog.String("method", r.Method),
					slog.String("path", r.URL.Path),
					slog.Any("panic", p),
					slog.String("stack", string(debug.Stack())))
				// Best effort: if the handler already wrote headers this
				// is a no-op on a broken response, but the server and
				// its other connections stay up either way.
				httpError(w, r, http.StatusInternalServerError, "internal error")
			}
		}()
		h.ServeHTTP(w, r)
	})
}

// --- concurrency limiting ------------------------------------------------------

// semaphore is a weighted counting semaphore. Requests acquire a number of
// slots proportional to their declared body size, so one giant upload
// counts as several ordinary requests.
type semaphore struct {
	mu       sync.Mutex
	cur, cap int64
}

func (s *semaphore) tryAcquire(n int64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cur+n > s.cap {
		return false
	}
	s.cur += n
	return true
}

func (s *semaphore) release(n int64) {
	s.mu.Lock()
	s.cur -= n
	s.mu.Unlock()
}

// weight maps a request onto semaphore slots: one slot plus one per
// MaxFileBytes of declared body, clamped to the total capacity so a
// maximal request can still run (alone).
func (s *service) weight(r *http.Request) int64 {
	w := int64(1)
	if cl := r.ContentLength; cl > 0 && s.cfg.MaxFileBytes > 0 {
		w += cl / s.cfg.MaxFileBytes
	}
	if cap := int64(s.cfg.MaxConcurrent); w > cap {
		w = cap
	}
	return w
}

func (s *service) withLimit(h http.Handler) http.Handler {
	if s.cfg.MaxConcurrent <= 0 {
		return h
	}
	sem := &semaphore{cap: int64(s.cfg.MaxConcurrent)}
	rejected := s.reg.Counter("cube_http_saturation_rejections_total")
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Probes must answer even on a saturated server: a liveness check
		// that 429s under load gets the process killed exactly when it is
		// doing the most work, and readiness needs to keep reporting.
		if r.URL.Path == "/healthz" || r.URL.Path == "/readyz" {
			h.ServeHTTP(w, r)
			return
		}
		n := s.weight(r)
		if !sem.tryAcquire(n) {
			rejected.Inc()
			w.Header().Set("Retry-After", strconv.Itoa(int(s.cfg.RetryAfter/time.Second)))
			httpError(w, r, http.StatusTooManyRequests, "server saturated, retry later")
			return
		}
		defer sem.release(n)
		h.ServeHTTP(w, r)
	})
}

// --- per-request timeout -------------------------------------------------------

// bufferWriter buffers a response so the timeout middleware can discard it
// wholesale if the deadline fires first (mirroring http.TimeoutHandler).
type bufferWriter struct {
	mu   sync.Mutex
	hdr  http.Header
	body []byte
	code int
}

func (t *bufferWriter) Header() http.Header { return t.hdr }

func (t *bufferWriter) WriteHeader(code int) {
	t.mu.Lock()
	if t.code == 0 {
		t.code = code
	}
	t.mu.Unlock()
}

func (t *bufferWriter) Write(p []byte) (int, error) {
	t.write(p, false)
	return len(p), nil
}

// adopt takes body over as the response body without copying it: the
// caller must not touch body again. (Write may not keep p, so it copies.)
func (t *bufferWriter) adopt(body []byte) { t.write(body, true) }

func (t *bufferWriter) write(p []byte, own bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.code == 0 {
		t.code = http.StatusOK
	}
	if own && t.body == nil {
		t.body = p
	} else {
		t.body = append(t.body, p...)
	}
}

func (t *bufferWriter) flushTo(w http.ResponseWriter) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for k, v := range t.hdr {
		w.Header()[k] = v
	}
	code := t.code
	if code == 0 {
		code = http.StatusOK
	}
	w.WriteHeader(code)
	w.Write(t.body)
}

// withTimeout bounds each request's wall-clock time. The deadline is
// carried on the request context, so handlers abandon work between
// pipeline stages; if the handler overruns anyway, the buffered response
// is discarded and the client gets 503.
func (s *service) withTimeout(h http.Handler) http.Handler {
	if s.cfg.RequestTimeout <= 0 {
		return h
	}
	timeouts := s.reg.Counter("cube_http_timeouts_total")
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		r = r.WithContext(ctx)
		done := make(chan struct{})
		panicked := make(chan any, 1)
		tw := &bufferWriter{hdr: make(http.Header)}
		go func() {
			defer func() {
				if p := recover(); p != nil {
					panicked <- p
				}
			}()
			h.ServeHTTP(tw, r)
			close(done)
		}()
		select {
		case p := <-panicked:
			panic(p) // re-raise on the serving goroutine for withRecover
		case <-done:
			tw.flushTo(w)
		case <-ctx.Done():
			timeouts.Inc()
			w.Header().Set("Retry-After", strconv.Itoa(int(s.cfg.RetryAfter/time.Second)))
			httpError(w, r, http.StatusServiceUnavailable,
				"request timed out after %v", s.cfg.RequestTimeout)
		}
	})
}

// --- body size caps ------------------------------------------------------------

func (s *service) withMaxBytes(h http.Handler) http.Handler {
	if s.cfg.MaxUploadBytes <= 0 {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.ContentLength > s.cfg.MaxUploadBytes {
			httpError(w, r, http.StatusRequestEntityTooLarge,
				"request body %d bytes exceeds the %d byte limit", r.ContentLength, s.cfg.MaxUploadBytes)
			return
		}
		if r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes)
		}
		h.ServeHTTP(w, r)
	})
}
