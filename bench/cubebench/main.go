// Command cubebench is the end-to-end benchmark of cube-server. For each
// workload it builds and starts a fresh ./cmd/cube-server (production
// defaults, a fresh store, JSON logs) on a loopback port, drives it in a
// closed loop through the cube/client package, checks every response,
// and prints each metric as `workload metric value unit`, followed by one
// JSON summary line.
//
//	cubebench -seed 1 [-workload paper] [-seconds 20] [-trace 1] [-out ledger.json] [-cube run.cube]
//	cubebench -compare base.json new.json
//
// Run it from the repository root through bench/run.sh, which builds it
// with every artefact kept under .bench_build/.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"syscall"
	"time"

	"cube/client"
	"cube/internal/promtext"
)

// Fixed benchmark settings. They are part of the benchmark definition:
// changing one changes what every recorded number means.
const (
	// A run sets up at least minSetups times and until setupBudget is
	// spent; setup_s is the median. A set-up takes 5 to 250 ms and drifts
	// within seconds, so short ones are repeated more.
	minSetups    = 7
	setupBudget  = 2 * time.Second
	replayOps    = 200 // traced ops replayed in-process
	minWindowOps = 200 // a window runs on until this many ops succeed (at most 3× its length); fewer fail the run
)

type runConfig struct {
	buildDir, serverBin string
	seed                int64
	window, warmup      time.Duration
	trace               bool
	minOps              int
}

// runResult is one workload's run, as printed and as stored in a ledger.
type runResult struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Traced    bool               `json:"traced"`
	Time      string             `json:"time"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Correct   bool               `json:"correct"`
	Metrics   map[string]float64 `json:"metrics"`
	errs      []error
	rec       *recorder
}

func main() { os.Exit(run()) }

func run() int {
	workloadName := flag.String("workload", "", "workload to run (default: every workload in turn)")
	seed := flag.Int64("seed", 1, "seed of every generated input and request sequence")
	seconds := flag.Float64("seconds", 20, "length of the measured window in seconds")
	traceFlag := flag.Int("trace", 0, "1 traces the window, replays it in-process, and reports the per-layer metrics")
	traceOut := flag.String("trace-out", "", "Chrome trace-event file of a traced run (default .bench_build/trace.json)")
	out := flag.String("out", "", "append the runs to this JSON ledger (created if missing)")
	cubeOut := flag.String("cube", "", "also write the runs as one CUBE experiment")
	compare := flag.Bool("compare", false, "compare two ledgers: -compare base.json new.json")
	flag.Parse()
	if *compare {
		return runCompare(flag.Args(), os.Stdout)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cfg, err := configure(ctx, ".", *seed, *seconds, *traceFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cubebench:", err)
		return 2
	}
	selected := workloads
	if *workloadName != "" {
		w, ok := findWorkload(*workloadName)
		if !ok {
			fmt.Fprintf(os.Stderr, "cubebench: unknown workload %q\n", *workloadName)
			return 2
		}
		selected = []workload{w}
	}
	var prior *ledger
	if *out != "" {
		if prior, err = loadLedger(*out); err != nil {
			fmt.Fprintln(os.Stderr, "cubebench:", err)
			return 1
		}
	}

	var results []*runResult
	code := 0
	for _, w := range selected {
		res, err := runWorkload(ctx, cfg, w)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cubebench: %s: %v\n", w.name, err)
			return 1
		}
		for _, e := range res.errs {
			fmt.Fprintf(os.Stderr, "cubebench: %s: %v\n", w.name, e)
		}
		if prior != nil && res.Traced {
			if v, ok := prior.traceOverhead(res); ok {
				res.Metrics["trace_overhead"] = v
			}
		}
		if err := printResult(os.Stdout, res); err != nil {
			fmt.Fprintf(os.Stderr, "cubebench: %s: %v\n", w.name, err)
			return 1
		}
		if !res.Correct {
			code = 1
		}
		results = append(results, res)
	}
	if cfg.trace {
		path := *traceOut
		if path == "" {
			path = filepath.Join(cfg.buildDir, "trace.json")
		}
		if err := writeTraceFile(path, results); err != nil {
			fmt.Fprintln(os.Stderr, "cubebench:", err)
			return 1
		}
	}
	if prior != nil {
		if err := appendLedger(*out, results); err != nil {
			fmt.Fprintln(os.Stderr, "cubebench:", err)
			return 1
		}
	}
	if *cubeOut != "" {
		if err := writeCube(*cubeOut, results); err != nil {
			fmt.Fprintln(os.Stderr, "cubebench:", err)
			return 1
		}
	}
	return code
}

// configure prepares .bench_build in the repository at repo and builds
// the server from it. The command runs from the repository root.
func configure(ctx context.Context, repo string, seed int64, seconds float64, trace int) (runConfig, error) {
	if seconds <= 0 {
		return runConfig{}, errors.New("-seconds must be positive")
	}
	if trace != 0 && trace != 1 {
		return runConfig{}, errors.New("-trace takes 0 or 1")
	}
	repo, err := filepath.Abs(repo)
	if err != nil {
		return runConfig{}, err
	}
	window := time.Duration(seconds * float64(time.Second))
	cfg := runConfig{buildDir: filepath.Join(repo, ".bench_build"), seed: seed,
		window: window, warmup: min(max(window/4, time.Second), 5*time.Second),
		trace: trace == 1, minOps: minWindowOps}
	if err := os.MkdirAll(cfg.buildDir, 0o755); err != nil {
		return cfg, err
	}
	cfg.serverBin, err = buildServer(ctx, repo, cfg.buildDir)
	return cfg, err
}

// setUp starts a server and stores the workload's stored documents; its
// duration is one setup_s sample. Input generation is not part of it.
func setUp(ctx context.Context, bin, dir string, s *suite) (*serverProc, time.Duration, error) {
	t0 := time.Now()
	p, err := startServer(ctx, bin, dir)
	if err != nil {
		return nil, 0, err
	}
	c := client.New(p.url, client.WithMaxRetries(0), client.WithMetrics(nil))
	for _, i := range s.stored {
		putCtx, cancel := context.WithTimeout(ctx, opTimeout)
		_, err := c.PutBytes(putCtx, s.docs[i].bytes)
		cancel()
		if err != nil {
			p.stop()
			return nil, 0, fmt.Errorf("storing %s: %w", s.docs[i].name, err)
		}
	}
	return p, time.Since(t0), nil
}

// runWorkload measures one workload on a fresh server: set-up (repeated),
// full verification, warm-up, the measured window (traced when tracing),
// and full verification again.
func runWorkload(ctx context.Context, cfg runConfig, w workload) (*runResult, error) {
	s, err := w.build(cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("generating inputs: %w", err)
	}
	if err := s.computeExpected(); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.buildDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	var srv *serverProc
	defer func() { srv.stop() }()
	var setups []float64
	var spent time.Duration
	for i := 0; i < minSetups || spent < setupBudget; i++ {
		srv.stop()
		var d time.Duration
		if srv, d, err = setUp(ctx, cfg.serverBin, filepath.Join(dir, fmt.Sprintf("server-%d", i)), s); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		spent += d
	}
	sessions, hc := newSessions(s, srv.url, cfg.seed, w.clients)
	defer hc.CloseIdleConnections()

	res := &runResult{Workload: w.name, Seed: cfg.seed, Seconds: cfg.window.Seconds(), Traced: cfg.trace,
		Time: time.Now().UTC().Format(time.RFC3339), Metrics: map[string]float64{}}
	phases := []*phase{verifyAll(ctx, sessions[0]), load(ctx, sessions, cfg.warmup, 0)}
	var before []result
	for _, p := range phases {
		before = append(before, p.results...)
	}

	if cfg.trace {
		res.rec = &recorder{}
		for _, ss := range sessions {
			ss.rec = res.rec
		}
	}
	win, counters, err := measure(ctx, srv, sessions, cfg.window, cfg.minOps)
	for _, ss := range sessions {
		ss.rec = nil
	}
	if err != nil {
		return nil, err
	}
	rss, err := srv.peakRSSMiB()
	if err != nil {
		return nil, err
	}
	phases = append(phases, win, verifyAll(ctx, sessions[0]))
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	lat := win.latenciesMS()
	if len(lat) < cfg.minOps {
		return nil, fmt.Errorf("the window completed %d ops, fewer than %d", len(lat), cfg.minOps)
	}
	m := res.Metrics
	m["throughput_ops"] = float64(len(lat)) / win.end.Sub(win.start).Seconds()
	m["p50_ms"] = quantile(lat, 0.50)
	m["p95_ms"] = quantile(lat, 0.95)
	m["setup_s"] = median(setups)
	m["server_rss_mb"] = rss
	m[failedRatio.name] = float64(win.failed()) / float64(len(win.results))
	m["ops"] = float64(len(lat))
	for k, v := range serverLayers(counters, len(lat)) {
		m[k] = v
	}
	if cfg.trace {
		rp, err := newReplayer(s, res.rec, filepath.Join(dir, "replay-store"))
		if err != nil {
			return nil, err
		}
		layers, err := traceLayers(rp, before, win.results, replayOps)
		if err != nil {
			return nil, err
		}
		for k, v := range layers {
			m[k] = v
		}
	}

	for _, p := range phases {
		res.Attempted += len(p.results)
		for _, r := range p.results {
			if r.err != nil {
				res.Failed++
				if len(res.errs) < 5 {
					res.errs = append(res.errs, r.err)
				}
			}
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// measure runs one window of load between two scrapes of the server's
// counters and returns the window and the counter delta.
func measure(ctx context.Context, srv *serverProc, sessions []*session, d time.Duration, minOps int) (*phase, promtext.Metrics, error) {
	m0, err := srv.scrape(ctx)
	if err != nil {
		return nil, nil, err
	}
	p := load(ctx, sessions, d, minOps)
	m1, err := srv.scrape(ctx)
	if err != nil {
		return nil, nil, err
	}
	return p, promtext.Delta(m0, m1), nil
}

func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// printResult prints every metric as `workload metric value unit`, then
// the JSON summary: the end-to-end metrics of an untraced run, the
// per-layer metrics of a traced one. A NaN or infinite summary metric is
// an error, and no summary is printed.
func printResult(w io.Writer, r *runResult) error {
	names := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "%s %s %s %s\n", r.Workload, k, formatValue(r.Metrics[k]), unitOf(k))
	}
	defs := e2eDefs
	if r.Traced {
		defs = layerDefs
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	summary := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]value{}}
	for _, d := range defs {
		summary.Metrics[d.name] = value{r.Metrics[d.name], d.unit}
	}
	b, err := json.Marshal(summary)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}
