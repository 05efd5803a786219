// Package server exposes the CUBE algebra as an HTTP service — the paper's
// closing suggestion ("CUBE can be easily integrated with a Grid
// environment by exposing its functionality as a … Grid service")
// translated to a plain stdlib web service: clients upload experiments in
// the CUBE XML format and receive derived experiments (or renderings) back.
// Because the algebra is closed, the service composes with itself: the
// output of one request is a valid input for the next.
//
// The service is hardened for production use: every request passes through
// a middleware stack (structured logging, panic recovery, a weighted
// concurrency limiter, a wall-clock timeout, and body-size caps — see
// middleware.go), operand parsing enforces the cubexml structural limits,
// and Serve (serve.go) adds connection timeouts and graceful shutdown.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"cube/internal/cli"
	"cube/internal/core"
	"cube/internal/cubexml"
	"cube/internal/display"
	"cube/internal/expr"
	"cube/internal/obs"
	"cube/internal/report"
	"cube/internal/selfcube"
	"cube/internal/store"
)

// MaxUploadBytes is the default bound on one request's total upload size.
const MaxUploadBytes = 64 << 20

// errTooLarge marks operand-guard violations that should map to
// 413 Request Entity Too Large rather than 400.
var errTooLarge = errors.New("request exceeds limits")

// Handler returns the service's HTTP handler with DefaultConfig:
//
//	POST /op/{difference|merge|mean|sum|min|max|stddev}
//	    multipart form, ordered file fields "operand"; optional query
//	    params callmatch=callee|callee+line, system=auto|collapse|copy-first.
//	    Response: the derived experiment as CUBE XML.
//	POST /op/{flatten|prune|extract|scale}
//	    one "operand"; prune: ?metric=<path>&threshold=<frac>;
//	    extract: repeated ?metric=<path>; scale: ?factor=<number>.
//	    Each /op request is the one-node expression of /expr's operator
//	    table (expr.OpNode), so both routes accept the same operators.
//	POST /expr
//	    evaluate a whole algebra DAG server-side: an application/json
//	    body (or a multipart "expr" field plus ordered "operand" files)
//	    carrying {"op":...,"args":[...]} nodes with digest:/operand:
//	    leaves. Identical subtrees evaluate once and results are served
//	    from the expression-digest cache on repeat. See expr.go.
//	POST /view
//	    one "operand"; ?metric=<name>&mode=absolute|percent&flat=1.
//	    Response: the text rendering of the three-tree display.
//	POST /info
//	    one or two "operand"s; with two, includes the structural
//	    comparison. Response: plain text.
//	PUT  /experiments/{sha256}
//	    commit a CUBE XML document in the content-addressed store
//	    (idempotent; body must hash to the URL digest). Requires a
//	    configured store (Config.Store / cube-server -store-dir).
//	GET  /experiments/{sha256}   fetch the stored document (HEAD: stat)
//
// With a store configured, every "operand" part may instead carry the
// reference `digest:<sha256>` to use a stored experiment — upload once,
// reference forever.
//
//	GET  /healthz      liveness (exempt from the concurrency limiter)
//	GET  /readyz       readiness: 503 + JSON while the store is read-only
//	GET  /metrics      Prometheus text exposition of the obs registry
//
// and, only with Config.Debug (cube-server -debug):
//
//	GET  /debug/vars    JSON snapshot of the metrics + memstats
//	GET  /debug/pprof/*  net/http/pprof profiles
//	GET  /debug/events  recent wide events as NDJSON
//	                    (?kind= &route= &status= &class=5xx &min_duration_ms= &limit=)
//	GET  /debug/store   experiment-store inventory as JSON
//	GET  /debug/slo     per-route SLO burn report as JSON
//	GET  /debug/self    self-telemetry run series: the snapshots the server
//	                    took of itself (digests, sizes, times) as JSON
//	GET  /debug/self/experiment.xml  the newest self-snapshot as CUBE XML
//	POST /debug/self/snapshot        take a snapshot now (also needs
//	                    Config.SelfInterval/SelfKeep and a store)
//	GET  /debug/traces       recent request traces (also needs tracing configured)
//	GET  /debug/traces/{id}  one trace: Chrome trace-event JSON, ?format=tree for text
func Handler() http.Handler {
	return NewHandler(nil)
}

// NewHandler returns the service handler with the given configuration
// (nil means DefaultConfig). All limits, the logger, and the metrics
// registry come from cfg. The registry is installed as the process-wide
// seam (obs.SetRegistry) that every layer records through — the algebra,
// the codec, the caches, the store, the SLO tracker and the
// self-snapshotter — and it backs /metrics. The seam is process-wide, so
// the last handler created wins.
func NewHandler(cfg *Config) http.Handler {
	if cfg == nil {
		cfg = DefaultConfig()
	}
	s := &service{cfg: cfg, reg: cfg.Metrics}
	if s.reg == nil {
		s.reg = obs.Default
	}
	obs.SetRegistry(s.reg)
	if cfg.ParseCacheBytes > 0 {
		s.cache = newParseCache(cfg.ParseCacheBytes, cfg.XML, cfg.ReadEngine)
	}
	s.expr = expr.NewEngine(expr.Config{CacheBytes: cfg.ExprCacheBytes})
	s.events = cfg.Events
	if s.events == nil {
		s.events = obs.NewEventSink(cfg.EventRingSize)
	}
	// The sink doubles as the process-wide seam (obs.SetEventSink), so
	// store lifecycle transitions that happen outside any request — LRU
	// evictions, degraded-mode probes — land in the same ring the
	// requests do. Like the registry seam above, the last handler created
	// wins.
	obs.SetEventSink(s.events)
	if cfg.SLOAvailability > 0 || cfg.SLOLatency > 0 {
		s.slo = obs.NewSLOTracker(obs.SLOConfig{
			Window:             cfg.SLOWindow,
			LatencyThreshold:   cfg.SLOLatency,
			LatencyTarget:      cfg.SLOLatencyTarget,
			AvailabilityTarget: cfg.SLOAvailability,
			Logger:             cfg.Logger,
		})
	}
	if cfg.TraceSampleRate > 0 || cfg.TraceSlow > 0 {
		s.tracer = obs.NewTracer(obs.TracerOptions{
			SampleRate: cfg.TraceSampleRate,
			Slow:       cfg.TraceSlow,
			Logger:     cfg.Logger,
		})
	}
	// Go runtime estimates (GC pauses, scheduler latency, heap) join the
	// registry as cube_go_* series; each /metrics scrape and each
	// self-telemetry snapshot samples them first, so the exposition is
	// always current without a background poller.
	s.gor = obs.NewGoRuntimeSampler(s.reg)
	if cfg.Store != nil && cfg.selfEnabled() {
		process := cfg.SelfProcess
		if process == "" {
			process = "cube-server"
		}
		snap, err := selfcube.NewSnapshotter(selfcube.SnapshotterConfig{
			Collector: selfcube.NewCollector(s.reg, s.gor, process),
			Store:     cfg.Store,
			Interval:  cfg.SelfInterval,
			Keep:      cfg.SelfKeep,
			Logger:    cfg.Logger,
		})
		if err != nil {
			// Config.Validate rejects every input that can get here; a
			// programmatic caller who skipped it gets the loud version.
			panic(err)
		}
		s.self = snap
		cfg.self = snap // backpointer: Serve starts the loop, tests reach the series
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	if cfg.Store != nil {
		mux.HandleFunc("PUT /experiments/{digest}", s.handleExperimentPut)
		mux.HandleFunc("GET /experiments/{digest}", s.handleExperimentGet)
	}
	mux.HandleFunc("POST /op/{op}", s.handleOp)
	mux.HandleFunc("POST /expr", s.handleExpr)
	mux.HandleFunc("POST /view", s.handleView)
	mux.HandleFunc("POST /report", s.handleReport)
	mux.HandleFunc("POST /info", s.handleInfo)
	metricsH := s.reg.MetricsHandler()
	mux.Handle("GET /metrics", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.gor.Sample()
		metricsH.ServeHTTP(w, r)
	}))
	// Everything under /debug/* is behind one gate (Config.Debug, with
	// EnablePprof as the deprecated synonym): the routes expose internals
	// and cost CPU, so production deployments opt in. Disabled debug
	// routes 404 like any unknown path.
	if cfg.debugEnabled() {
		mux.Handle("GET /debug/vars", s.reg.VarsHandler())
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
		mux.HandleFunc("GET /debug/events", s.handleEvents)
		mux.HandleFunc("GET /debug/store", s.handleStore)
		mux.HandleFunc("GET /debug/slo", s.handleSLO)
		mux.HandleFunc("GET /debug/self", s.handleSelf)
		if s.self != nil {
			mux.HandleFunc("GET /debug/self/experiment.xml", s.handleSelfLatest)
			mux.HandleFunc("POST /debug/self/snapshot", s.handleSelfSnapshot)
		}
		if s.tracer != nil {
			mux.HandleFunc("GET /debug/traces", s.handleTraceList)
			mux.HandleFunc("GET /debug/traces/{id}", s.handleTraceGet)
		}
	}
	return s.wrap(mux)
}

func (s *service) handleReport(w http.ResponseWriter, r *http.Request) {
	operands, ok := s.sharedOperands(w, r)
	if !ok {
		return
	}
	if len(operands) != 1 {
		httpError(w, r, http.StatusBadRequest, "report needs exactly 1 operand")
		return
	}
	e := operands[0]
	var sel display.Selection
	if name := r.URL.Query().Get("metric"); name != "" {
		if sel.Metric = e.FindMetric(name); sel.Metric == nil {
			sel.Metric = e.FindMetricByName(name)
		}
		if sel.Metric == nil {
			httpError(w, r, http.StatusBadRequest, "metric %q not found", name)
			return
		}
		sel.MetricCollapsed = true
	}
	var buf bytes.Buffer
	st, _ := obs.Begin(r.Context(), obs.Render)
	err := report.Write(&buf, e, &report.Options{Selection: sel})
	st.End(err)
	if err != nil {
		httpError(w, r, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	buf.WriteTo(w)
}

// handleTraceList summarizes the tracer's retained ring, newest first.
// Each entry's ID is the request's X-Request-ID, so a caller holding that
// header fetches its trace from /debug/traces/{id}.
func (s *service) handleTraceList(w http.ResponseWriter, r *http.Request) {
	type summary struct {
		ID         string  `json:"id"`
		Name       string  `json:"name"`
		Start      string  `json:"start"`
		DurationMS float64 `json:"duration_ms"`
		Spans      int     `json:"spans"`
		Sampled    bool    `json:"sampled"`
	}
	traces := s.tracer.Traces()
	out := make([]summary, 0, len(traces))
	for _, tr := range traces {
		out = append(out, summary{
			ID:         tr.ID(),
			Name:       tr.Root().Name(),
			Start:      tr.Start().UTC().Format(time.RFC3339Nano),
			DurationMS: float64(tr.Duration()) / float64(time.Millisecond),
			Spans:      tr.SpanCount(),
			Sampled:    tr.Sampled(),
		})
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	json.NewEncoder(w).Encode(out)
}

// handleTraceGet serves one retained trace: Chrome trace-event JSON by
// default (load into Perfetto / chrome://tracing), a plain-text span tree
// with ?format=tree.
func (s *service) handleTraceGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	tr := s.tracer.Trace(id)
	if tr == nil {
		httpError(w, r, http.StatusNotFound, "no retained trace %q", id)
		return
	}
	switch format := r.URL.Query().Get("format"); format {
	case "", "chrome":
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		obs.WriteChromeTrace(w, tr)
	case "tree":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		tr.WriteTree(w)
	default:
		httpError(w, r, http.StatusBadRequest, "unknown format %q (want chrome or tree)", format)
	}
}

// httpError writes a plain-text error response, stamped with the request
// ID so a client can quote the failing request when reporting problems.
func httpError(w http.ResponseWriter, r *http.Request, code int, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if id := obs.RequestID(r.Context()); id != "" {
		msg += "\nrequest-id: " + id
	}
	http.Error(w, msg, code)
}

// verifyDigest checks an upload's Content-Digest header (RFC 9530, sent
// by the bundled client) against got, the digest of the size received
// bytes — trust but verify.
// A mismatch means corruption somewhere between the sender's hashing and
// us. By default it is logged and counted and the bytes are processed as
// received (the cache keys on the server-computed digest regardless);
// with Config.DigestStrict the mismatch is returned as an error and the
// request is rejected instead.
func (s *service) verifyDigest(ctx context.Context, what, header string, got store.Digest, size int) error {
	if header == "" {
		return nil
	}
	want, ok := parseContentDigest(header)
	if !ok {
		return nil // no sha-256 entry, or unparseable: nothing to check against
	}
	if store.Digest(want) == got {
		return nil
	}
	if s.reg != nil {
		s.reg.Counter("cube_digest_mismatch_total").Inc()
	}
	s.logError(ctx, "content digest mismatch",
		slog.String("what", what),
		slog.Bool("strict", s.cfg.DigestStrict),
		slog.Int("bytes", size))
	if s.cfg.DigestStrict {
		return fmt.Errorf("%s: Content-Digest header does not match the received bytes", what)
	}
	return nil
}

func options(r *http.Request) (*core.Options, error) {
	cm := r.URL.Query().Get("callmatch")
	if cm == "" {
		cm = "callee"
	}
	sys := r.URL.Query().Get("system")
	if sys == "" {
		sys = "auto"
	}
	return cli.ParseOptions(cm, sys)
}

// ctxDone reports whether the request deadline or cancellation fired;
// handlers call it between pipeline stages so a timed-out request stops
// burning CPU on operators whose response will be discarded anyway.
func ctxDone(w http.ResponseWriter, r *http.Request) bool {
	if err := r.Context().Err(); err != nil {
		httpError(w, r, http.StatusServiceUnavailable, "request cancelled: %v", err)
		return true
	}
	return false
}

// writeExperiment encodes the result into one buffer first so a
// successful status line always carries a complete document (and
// Content-Length); encoding failures become a clean 500 instead of a
// corrupted 200. The body is columnar when the request accepts it
// (responseFormat), CUBE XML otherwise.
func (s *service) writeExperiment(w http.ResponseWriter, r *http.Request, e *core.Experiment) {
	f := responseFormat(r)
	body, err := cubexml.Encode(r.Context(), e, f)
	if err != nil {
		s.logError(r.Context(), "encoding result experiment",
			slog.String("title", e.Title), slog.Any("err", err))
		httpError(w, r, http.StatusInternalServerError, "encoding result: %v", err)
		return
	}
	w.Header().Set("Content-Type", f.ContentType())
	writeBody(w, body)
}

// responseFormat negotiates the body of a computed experiment: the
// columnar body when an Accept element names its media type without
// refusing it (q=0), CUBE XML otherwise. A scan of the header, with no
// allocation.
func responseFormat(r *http.Request) cubexml.Format {
	for _, accept := range r.Header["Accept"] {
		for accept != "" {
			var elem string
			elem, accept, _ = strings.Cut(accept, ",")
			mt, params, _ := strings.Cut(elem, ";")
			if !strings.EqualFold(strings.TrimSpace(mt), cubexml.ColumnarType) {
				continue
			}
			if refused(params) {
				return cubexml.FormatXML
			}
			return cubexml.FormatColumnar
		}
	}
	return cubexml.FormatXML
}

// refused reports whether the parameters of an Accept element set its
// quality to zero.
func refused(params string) bool {
	for params != "" {
		var p string
		p, params, _ = strings.Cut(params, ";")
		k, v, _ := strings.Cut(p, "=")
		if strings.EqualFold(strings.TrimSpace(k), "q") {
			v = strings.TrimRight(strings.TrimSpace(v), "0")
			return v == "" || v == "0."
		}
	}
	return false
}

// writeBody sends a complete response body with its Content-Length. The
// timeout middleware's buffer takes the body over instead of copying it.
func writeBody(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	if bw, ok := w.(*bufferWriter); ok {
		bw.adopt(body)
		return
	}
	w.Write(body)
}

// handleOp applies one operator: POST /op/{op} is the one-node expression
// the operator table (expr.OpNode) builds from the path and the query,
// applied to the request's operands. Unlike /expr it bypasses the result
// cache: its results rarely repeat (see DESIGN.md §10).
func (s *service) handleOp(w http.ResponseWriter, r *http.Request) {
	opts, err := options(r)
	if err != nil {
		httpError(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	// Parent the operator's span tree under the request's root span (nil
	// when tracing is off or the request was not sampled — the operator
	// then falls back to the process-wide tracer, which the server leaves
	// unset). The request's wide event rides along so the kernel layer
	// can attribute shards, tuples, cells, and compute time to it.
	opts.Trace = obs.SpanFromContext(r.Context())
	opts.Event = obs.EventFromContext(r.Context())
	operands, err := s.resolveOperands(r)
	if err != nil {
		s.exprError(w, r, err, http.StatusBadRequest)
		return
	}
	node, err := expr.OpNode(r.PathValue("op"), r.URL.Query(), len(operands))
	if err != nil {
		s.exprError(w, r, err, http.StatusBadRequest)
		return
	}
	if ctxDone(w, r) {
		return
	}
	result, err := node.Apply(opts, operands)
	if err != nil {
		s.exprError(w, r, err, http.StatusUnprocessableEntity)
		return
	}
	if ctxDone(w, r) {
		return
	}
	s.writeExperiment(w, r, result)
}

// sharedOperands resolves the request's operands, answering the error
// itself. They may be the parse cache's shared masters: sealed
// experiments, which the read-only display and report code reads
// directly.
func (s *service) sharedOperands(w http.ResponseWriter, r *http.Request) ([]*core.Experiment, bool) {
	operands, err := s.resolveOperands(r)
	if err != nil {
		s.exprError(w, r, err, http.StatusBadRequest)
		return nil, false
	}
	return operands, true
}

func (s *service) handleView(w http.ResponseWriter, r *http.Request) {
	operands, ok := s.sharedOperands(w, r)
	if !ok {
		return
	}
	if len(operands) != 1 {
		httpError(w, r, http.StatusBadRequest, "view needs exactly 1 operand")
		return
	}
	if ctxDone(w, r) {
		return
	}
	e := operands[0]
	var err error
	if r.URL.Query().Get("flat") == "1" {
		if e, err = core.Flatten(e); err != nil {
			httpError(w, r, http.StatusUnprocessableEntity, "%v", err)
			return
		}
	}
	sel := display.Selection{MetricCollapsed: true, CNodeCollapsed: true}
	if name := r.URL.Query().Get("metric"); name != "" {
		if sel.Metric = e.FindMetric(name); sel.Metric == nil {
			sel.Metric = e.FindMetricByName(name)
		}
		if sel.Metric == nil {
			httpError(w, r, http.StatusBadRequest, "metric %q not found", name)
			return
		}
	}
	if len(e.CallRoots()) > 0 {
		sel.CNode = e.CallRoots()[0]
	}
	cfg := &display.Config{HideZero: true}
	switch mode := r.URL.Query().Get("mode"); mode {
	case "", "absolute":
	case "percent":
		cfg.Mode = display.Percent
	default:
		httpError(w, r, http.StatusBadRequest, "unknown mode %q", mode)
		return
	}
	top := 0
	if topStr := r.URL.Query().Get("top"); topStr != "" {
		if top, err = strconv.Atoi(topStr); err != nil || top <= 0 {
			httpError(w, r, http.StatusBadRequest, "bad top parameter %q", topStr)
			return
		}
	}
	st, _ := obs.Begin(r.Context(), obs.Render)
	out, err := display.RenderString(e, sel, cfg)
	if err == nil && top > 0 {
		var spots string
		spots, err = display.HotspotsString(e, sel, cfg, top)
		out += "\n" + spots
	}
	st.End(err)
	if err != nil {
		httpError(w, r, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, out)
}

func (s *service) handleInfo(w http.ResponseWriter, r *http.Request) {
	operands, ok := s.sharedOperands(w, r)
	if !ok {
		return
	}
	if len(operands) > 2 {
		httpError(w, r, http.StatusBadRequest, "info accepts 1 or 2 operands")
		return
	}
	st, _ := obs.Begin(r.Context(), obs.Render)
	var sb strings.Builder
	for _, e := range operands {
		fmt.Fprintf(&sb, "%q: %d metrics, %d call paths, %d threads, %d tuples\n",
			e.Title, len(e.Metrics()), len(e.CallNodes()), len(e.Threads()), e.NonZeroCount())
		if e.Derived {
			fmt.Fprintf(&sb, "  derived by %q from %v\n", e.Operation, e.Parents)
		}
	}
	var err error
	if len(operands) == 2 {
		var rep *core.StructuralReport
		if rep, err = core.StructuralDiff(operands[0], operands[1], nil); err == nil {
			sb.WriteString(rep.Summary())
		}
	}
	st.End(err)
	if err != nil {
		httpError(w, r, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, sb.String())
}
