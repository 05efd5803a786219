// Command cube-server exposes the CUBE algebra as an HTTP service (the
// paper's Grid-service integration, on plain HTTP): clients POST
// experiments in the CUBE XML format and receive derived experiments or
// renderings. Example:
//
//	cube-server -addr :8080 &
//	curl -F operand=@before.cube -F operand=@after.cube \
//	     'http://localhost:8080/op/difference' > diff.cube
//	curl -F operand=@diff.cube 'http://localhost:8080/view?metric=Time&mode=percent'
//
// The server is production-hardened: panic recovery, a weighted
// concurrency limiter (429 + Retry-After when saturated), per-request
// timeouts, upload size and XML structural caps, structured request
// logging, connection timeouts, and graceful shutdown on SIGINT/SIGTERM
// (in-flight requests drain for -drain-timeout before the process exits).
// Every limit has a flag; see -help. The cube/client package is a typed Go
// client with matching retry behavior.
//
// Observability: GET /metrics serves the Prometheus text exposition of the
// request, operator, and codec metrics. -debug opens the /debug/* routes:
// /debug/vars (metrics + memstats as JSON), /debug/pprof/*, /debug/events
// (the wide-event flight recorder as NDJSON — one event per request with
// full resource attribution), /debug/store (experiment-store inventory),
// and /debug/slo (per-route error-budget burn; configure objectives with
// -slo-availability 0.999 and -slo-latency 500ms). Logs are structured
// (-log-format text|json) and every line carries the request ID that is
// also echoed in the X-Request-ID response header. The cube-top command
// renders a live terminal view from these endpoints.
//
// Tracing: -trace-sample 0.1 records span trees (request → operator →
// kernel shards) for a tenth of requests; -trace-slow 2s additionally
// keeps and logs every request slower than two seconds. Retained traces
// are listed at GET /debug/traces and served as Chrome trace-event JSON
// (or ?format=tree text) at GET /debug/traces/{id}, keyed by the
// request's X-Request-ID.
//
// Expressions: POST /expr evaluates a whole algebra DAG server-side in one
// request (JSON body with digest:/operand: leaves; see the README's
// Expression endpoint section). Identical subtrees evaluate once, and
// repeated expressions are answered from an expression-digest result cache
// within -expr-cache-mb; -expr-max-nodes / -expr-max-depth bound accepted
// documents.
//
// Experiment store: -store-dir enables a durable content-addressed store
// (crash-safe writes, corruption quarantine, LRU eviction within
// -store-mb). Clients PUT documents once at /experiments/{sha256} and
// then pass `digest:<sha256>` operand references to any operator; on
// sustained write errors the store degrades to read-only (uploads answer
// 503 + Retry-After, reads and cached compute keep serving, /readyz
// reports the condition) and re-arms automatically once writes succeed
// again. -digest-strict upgrades Content-Digest mismatches on uploads
// from a logged anomaly to a 400 rejection.
//
// Self-telemetry: with -store-dir set, -self-interval 1m makes the server
// snapshot its own metrics, Go runtime estimates, and request-span
// taxonomy as a CUBE experiment every minute, committed to the store
// under the run series self:cube-server:<seq> (the newest -self-keep
// runs stay pinned). GET /debug/self lists the series with digests, GET
// /debug/self/experiment.xml serves the newest snapshot, and POST
// /debug/self/snapshot takes one on demand — so the server's own history
// is analysed with its own algebra:
//
//	cube-diff -server http://localhost:7654 digest:<new> digest:<old>
//
// or any POST /expr DAG over the series. The cube-self command wraps the
// snapshot/series/diff workflow.
package main

import (
	"errors"
	"flag"
	"log/slog"
	"net"
	"net/http"
	"os"

	"cube/internal/cli"
	"cube/internal/core"
	"cube/internal/cubexml"
	"cube/internal/obs"
	"cube/internal/server"
	"cube/internal/store"
)

func main() {
	cfg := server.DefaultConfig()
	addr := flag.String("addr", "localhost:7654", "listen address (use :0 to pick a free port)")
	flag.IntVar(&cfg.MaxOperands, "max-operands", cfg.MaxOperands, "max operand files per request (0 = unlimited)")
	flag.Int64Var(&cfg.MaxUploadBytes, "max-upload-bytes", cfg.MaxUploadBytes, "max total request body bytes (0 = unlimited)")
	flag.Int64Var(&cfg.MaxFileBytes, "max-file-bytes", cfg.MaxFileBytes, "max bytes per operand file (0 = unlimited)")
	flag.IntVar(&cfg.MaxConcurrent, "max-concurrent", cfg.MaxConcurrent, "weighted concurrent request slots (0 = unlimited)")
	flag.DurationVar(&cfg.RequestTimeout, "timeout", cfg.RequestTimeout, "wall-clock budget per request (0 = unlimited)")
	flag.DurationVar(&cfg.RetryAfter, "retry-after", cfg.RetryAfter, "Retry-After hint sent with 429 responses")
	flag.IntVar(&cfg.XML.MaxElements, "xml-max-elements", cfg.XML.MaxElements, "max XML elements per operand (0 = unlimited)")
	flag.IntVar(&cfg.XML.MaxDepth, "xml-max-depth", cfg.XML.MaxDepth, "max XML nesting depth per operand (0 = unlimited)")
	flag.DurationVar(&cfg.ReadHeaderTimeout, "read-header-timeout", cfg.ReadHeaderTimeout, "time to read request headers")
	flag.DurationVar(&cfg.ReadTimeout, "read-timeout", cfg.ReadTimeout, "time to read a full request")
	flag.DurationVar(&cfg.WriteTimeout, "write-timeout", cfg.WriteTimeout, "time to write a full response")
	flag.DurationVar(&cfg.IdleTimeout, "idle-timeout", cfg.IdleTimeout, "keep-alive idle connection timeout")
	flag.DurationVar(&cfg.DrainTimeout, "drain-timeout", cfg.DrainTimeout, "grace period for in-flight requests on shutdown")
	flag.BoolVar(&cfg.Debug, "debug", false,
		"expose the /debug/* routes: pprof, vars, events, store, slo, traces")
	flag.BoolVar(&cfg.EnablePprof, "pprof", false, "deprecated synonym for -debug")
	flag.Float64Var(&cfg.TraceSampleRate, "trace-sample", 0, "fraction of requests to trace [0, 1]; enables /debug/traces")
	flag.DurationVar(&cfg.TraceSlow, "trace-slow", 0, "also trace and log every request at least this slow (0 = off)")
	flag.IntVar(&cfg.EventRingSize, "event-ring", 0,
		"wide events retained for /debug/events (0 = default 1024)")
	flag.DurationVar(&cfg.SLOLatency, "slo-latency", 0,
		"latency SLO threshold; with -slo-latency-target, tracks the fraction of slow requests (0 = off)")
	flag.Float64Var(&cfg.SLOLatencyTarget, "slo-latency-target", 0,
		"fraction of requests that must beat -slo-latency (0 = default 0.99)")
	flag.Float64Var(&cfg.SLOAvailability, "slo-availability", 0,
		"availability SLO target, e.g. 0.999 = at most 1 in 1000 requests 5xx (0 = off)")
	flag.DurationVar(&cfg.SLOWindow, "slo-window", 0, "sliding window for SLO burn tracking (0 = default 5m)")
	parseCacheMB := flag.Int64("parse-cache-mb", cfg.ParseCacheBytes>>20,
		"byte budget (MiB) of the content-addressed operand parse cache (0 = disabled)")
	exprCacheMB := flag.Int64("expr-cache-mb", cfg.ExprCacheBytes>>20,
		"byte budget (MiB) of the expression-digest result cache behind POST /expr (0 = disabled)")
	integrateMemoMB := flag.Int64("integrate-memo-mb", core.DefaultIntegrateMemoBytes>>20,
		"byte budget (MiB) of the process-wide integration memo — cached metadata merge plans keyed by operand digests (0 = disabled)")
	flag.IntVar(&cfg.MaxExprNodes, "expr-max-nodes", cfg.MaxExprNodes,
		"max nodes per expression document (0 = default 1024)")
	flag.IntVar(&cfg.MaxExprDepth, "expr-max-depth", cfg.MaxExprDepth,
		"max operator nesting depth per expression (0 = default 64)")
	storeDir := flag.String("store-dir", "",
		"directory of the durable content-addressed experiment store (empty = disabled)")
	storeMB := flag.Int64("store-mb", 1024,
		"byte budget (MiB) of the experiment store; LRU eviction above it (0 = unlimited)")
	flag.DurationVar(&cfg.SelfInterval, "self-interval", 0,
		"period between self-telemetry snapshots committed to the store (0 = off; needs -store-dir)")
	flag.IntVar(&cfg.SelfKeep, "self-keep", 0,
		"self-telemetry runs kept pinned in the store (0 = default 32)")
	flag.BoolVar(&cfg.DigestStrict, "digest-strict", false,
		"reject uploads whose Content-Digest header mismatches the received bytes (default: log and count only)")
	readEngine := flag.String("read-engine", "auto", "CUBE XML parser: auto | fast | legacy")
	logFormat := flag.String("log-format", "text", "structured log format: text | json")
	flag.Parse()
	cfg.ParseCacheBytes = *parseCacheMB << 20
	cfg.ExprCacheBytes = *exprCacheMB << 20
	core.SetIntegrateMemoBudget(*integrateMemoMB << 20)
	var err error
	if cfg.ReadEngine, err = cubexml.ParseReadEngine(*readEngine); err != nil {
		cli.Fatal("cube-server", err)
	}

	var handler slog.Handler
	switch *logFormat {
	case "text":
		handler = slog.NewTextHandler(os.Stderr, nil)
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, nil)
	default:
		cli.Fatal("cube-server", errors.New("unknown -log-format (want text or json)"))
	}
	logger := slog.New(handler)
	cfg.Logger = logger

	// One registry and one wide-event sink for the whole process,
	// installed as the process-wide seams before the store opens so its
	// recovery counters and event land where the requests' do (NewHandler
	// installs the same two again).
	cfg.Metrics = obs.Default
	cfg.Events = obs.NewEventSink(cfg.EventRingSize)
	obs.SetRegistry(cfg.Metrics)
	obs.SetEventSink(cfg.Events)

	if *storeDir != "" {
		st, err := store.Open(*storeDir, store.Options{Budget: *storeMB << 20, Logger: logger})
		if err != nil {
			cli.Fatal("cube-server", err)
		}
		cfg.Store = st
		logger.Info("experiment store open",
			slog.String("dir", *storeDir),
			slog.Int("blobs", st.Len()),
			slog.Int64("bytes", st.Bytes()),
			slog.Int("quarantined", st.Recovery.Quarantined))
	}

	// Validated after the store opens: the self-telemetry flags need
	// Config.Store to judge -self-interval/-self-keep without -store-dir.
	if err := cfg.Validate(); err != nil {
		cli.Fatal("cube-server", err)
	}

	// Bind before logging so the address printed is the one actually
	// serving (and :0 reports the kernel-chosen port).
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		cli.Fatal("cube-server", err)
	}
	logger.Info("cube-server listening", slog.String("url", "http://"+ln.Addr().String()))

	ctx, stop := cli.SignalContext()
	defer stop()
	if err := server.Serve(ctx, ln, cfg); err != nil && !errors.Is(err, http.ErrServerClosed) {
		cli.Fatal("cube-server", err)
	}
	logger.Info("cube-server: shutdown complete")
}
