package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"

	"cube/internal/cli"
	"cube/internal/core"
	"cube/internal/display"
	"cube/internal/expr"
	"cube/internal/repro"
)

// workload is one traffic mix. Each mix does most of its work in a layer
// another mix bypasses, so an optimisation shows on one workload and must
// leave another unchanged; bench/README.md gives the reasons per mix.
type workload struct {
	name    string
	clients int
	build   func(seed int64) (*suite, error)
}

var workloads = []workload{
	{"paper", 1, buildPaper},
	{"upload-diff", 2, buildUploadDiff},
	{"series-expr", 2, buildSeriesExpr},
	{"post-process", 1, buildPostProcess},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// op is one user action, the unit of latency and throughput. Ops come
// from the seeded RNG, not from timing, so a seed fixes each client's
// request sequence. A client sends its ops in rounds, each holding every
// request kind of the mix in fixed shares in a seeded order, so the seed
// changes the order and the arguments but never the mix of a window.
type op struct {
	Client int    `json:"client"`
	Seq    int    `json:"seq"`
	Kind   string `json:"kind"`
	Args   []int  `json:"args,omitempty"` // document indexes
	Expr   string `json:"expr,omitempty"` // POST /expr document
	Key    string `json:"key"`            // expected-result class
}

// expected is what every response of one class must match: in full during
// warm-up and after the window, by its metric and tuple counts (or text
// length) inside the window.
type expected struct {
	exp     *core.Experiment
	text    string
	isText  bool
	metrics int
	tuples  int
}

// suite is a workload's generated inputs: the documents, the ones PUT at
// set-up, the round generator, and the expected result of every class.
type suite struct {
	docs     []*doc
	byDigest map[string]*doc
	stored   []int
	round    func(rng *rand.Rand, client int) []op // one round, in any order
	verify   []op                                  // one op per expected class
	expect   map[string]*expected
}

// Parameters of the post-processing requests.
const (
	pruneMetric    = "Time"
	pruneThreshold = 0.01
	extractMetric  = "Time/m1"
)

// Input sizes. On two cores every workload completes over 300 ops in a
// fifteen-second window, while the large inputs stay large enough that
// their layer, not per-request overhead, dominates. Six runs per version
// give series-expr about 2000 distinct expressions, more than the
// expression cache holds.
const seriesPerVer = 6

var (
	uploadShape = shape{32, 128, 32}
	seriesShape = shape{32, 128, 32}
	postShape   = shape{32, 96, 16}
)

func newSuite(docs []*doc, stored []int, round func(*rand.Rand, int) []op, verify []op) *suite {
	s := &suite{docs: docs, byDigest: map[string]*doc{}, stored: stored, round: round, verify: verify}
	for _, d := range docs {
		s.byDigest[d.digest] = d
	}
	return s
}

// computeExpected derives the expected result of every request class.
func (s *suite) computeExpected() error {
	s.expect = map[string]*expected{}
	for _, o := range s.verify {
		e, err := s.compute(o)
		if err != nil {
			return fmt.Errorf("expected result of %s: %w", o.Key, err)
		}
		s.expect[o.Key] = e
	}
	return nil
}

func docsOf(names []string, exps []*core.Experiment) ([]*doc, error) {
	out := make([]*doc, len(exps))
	for i, e := range exps {
		d, err := newDoc(names[i], e)
		if err != nil {
			return nil, err
		}
		out[i] = d
	}
	return out, nil
}

func seq(from, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = from + i
	}
	return out
}

// buildPaper: five PESCAN runs before and after the barrier removal
// (Fig. 2, §5.1) and the EXPERT + two CONE profiles of Fig. 3, all stored.
func buildPaper(seed int64) (*suite, error) {
	var names []string
	var exps []*core.Experiment
	var after []*core.Experiment
	for i := 0; i < 5; i++ {
		r, err := repro.Fig2(seed*100 + int64(i))
		if err != nil {
			return nil, err
		}
		names = append(names, fmt.Sprintf("pescan before %d", i))
		exps = append(exps, r.Before)
		after = append(after, r.After)
	}
	for i, e := range after {
		names = append(names, fmt.Sprintf("pescan after %d", i))
		exps = append(exps, e)
	}
	f3, err := repro.Fig3(seed, 1)
	if err != nil {
		return nil, err
	}
	names = append(names, "sweep3d expert", "sweep3d cone 0", "sweep3d cone 1")
	exps = append(exps, f3.Expert, f3.ConeProfiles[0], f3.ConeProfiles[1])
	for _, e := range exps {
		roundValues(e)
	}
	docs, err := docsOf(names, exps)
	if err != nil {
		return nil, err
	}
	before, afterIdx := seq(0, 5), seq(5, 5)
	diffExpr := exprDoc(enode{Op: "difference", Args: []enode{
		{Op: "mean", Args: refs(docs, before)}, {Op: "mean", Args: refs(docs, afterIdx)}}})
	difference := func(i int) op {
		return op{Kind: "difference", Args: []int{i, 5 + i}, Key: fmt.Sprintf("difference/%d", i)}
	}
	mean := func(series string, idx []int) op { return op{Kind: "mean", Args: idx, Key: "mean/" + series} }
	merge := op{Kind: "merge", Args: []int{10, 11, 12}, Key: "merge"}
	exprOp := op{Kind: "expr", Args: seq(0, 10), Expr: diffExpr, Key: "expr"}
	view := func(i int) op { return op{Kind: "view", Args: []int{i}, Key: fmt.Sprintf("view/%d", i)} }

	// A round is every kind once; the runs a difference, mean or view uses
	// are drawn.
	round := func(rng *rand.Rand, _ int) []op {
		m := mean("before", before)
		if rng.Intn(2) == 1 {
			m = mean("after", afterIdx)
		}
		return []op{difference(rng.Intn(5)), m, merge, exprOp, view(rng.Intn(5))}
	}
	verify := []op{mean("before", before), mean("after", afterIdx), merge, exprOp}
	for i := 0; i < 5; i++ {
		verify = append(verify, difference(i), view(i))
	}
	return newSuite(docs, seq(0, len(docs)), round, verify), nil
}

// roundValues rounds every severity to nine significant digits. The last
// bits of the paper's experiments differ from one call of repro to the
// next with the same seed; rounded, a seed gives the same documents every
// time.
func roundValues(e *core.Experiment) {
	for _, x := range tuples(e) {
		r, _ := strconv.ParseFloat(strconv.FormatFloat(x.v, 'g', 9, 64), 64) // parses its own output
		e.SetSeverity(x.m, x.c, x.th, r)
	}
}

// tuple is one severity of an experiment.
type tuple struct {
	m  *core.Metric
	c  *core.CallNode
	th *core.Thread
	v  float64
}

// tuples lists e's severities, so callers can change them after the walk.
func tuples(e *core.Experiment) []tuple {
	var out []tuple
	e.EachSeverity(func(m *core.Metric, c *core.CallNode, th *core.Thread, v float64) {
		out = append(out, tuple{m, c, th, v})
	})
	return out
}

// buildUploadDiff: a stored baseline of code version 0, and per client a
// version-1 run it uploads again and again under a new title, so every
// upload is new bytes with the same content.
func buildUploadDiff(seed int64) (*suite, error) {
	rng := rand.New(rand.NewSource(seed))
	names := []string{"baseline"}
	exps := []*core.Experiment{synth("baseline", uploadShape, 0, 0, rng)}
	for c := 0; c < 2; c++ {
		names = append(names, fmt.Sprintf("ci job %d", c))
		exps = append(exps, synth(names[c+1], uploadShape, 1, 1+c, rng))
	}
	docs, err := docsOf(names, exps)
	if err != nil {
		return nil, err
	}
	job := func(client int) op {
		return op{Kind: "upload-diff", Args: []int{1 + client, 0}, Key: fmt.Sprintf("job/%d", client)}
	}
	round := func(_ *rand.Rand, client int) []op { return []op{job(client)} }
	return newSuite(docs, []int{0}, round, []op{job(0), job(1)}), nil
}

// buildSeriesExpr: a pool of stored runs, half of each code version.
// Every op is one JSON expression over random subsets A of version 0 and
// B of version 1; the subsets make many distinct expressions, so the
// expression cache's working set exceeds its budget.
func buildSeriesExpr(seed int64) (*suite, error) {
	rng := rand.New(rand.NewSource(seed))
	var names []string
	var exps []*core.Experiment
	for v := 0; v < 2; v++ {
		for i := 0; i < seriesPerVer; i++ {
			names = append(names, fmt.Sprintf("v%d run %d", v, i))
			exps = append(exps, synth(names[len(names)-1], seriesShape, v, i, rng))
		}
	}
	docs, err := docsOf(names, exps)
	if err != nil {
		return nil, err
	}
	v0, v1 := seq(0, seriesPerVer), seq(seriesPerVer, seriesPerVer)
	mk := func(kind string, a, b []int) op {
		var root enode
		switch kind {
		case "diffmean":
			root = enode{Op: "difference", Args: []enode{{Op: "mean", Args: refs(docs, a)}, {Op: "mean", Args: refs(docs, b)}}}
		case "meanAB":
			root = enode{Op: "mean", Args: refs(docs, append(append([]int(nil), a...), b...))}
		default:
			root = enode{Op: "stddev", Args: refs(docs, a)}
			b = nil
		}
		return op{Kind: "expr", Args: append(append([]int(nil), a...), b...), Expr: exprDoc(root), Key: kind}
	}
	kinds := []string{"diffmean", "meanAB", "stddev"}
	// A round is every shape with every size of A; the runs are drawn.
	round := func(rng *rand.Rand, _ int) []op {
		var out []op
		for _, kind := range kinds {
			for k := 2; k <= 4; k++ {
				var b []int
				if kind != "stddev" {
					b = subset(rng, v1, 3)
				}
				out = append(out, mk(kind, subset(rng, v0, k), b))
			}
		}
		return out
	}
	var verify []op
	for _, k := range kinds {
		verify = append(verify, mk(k, v0[:2], v1[:3]))
	}
	return newSuite(docs, seq(0, len(docs)), round, verify), nil
}

// buildPostProcess: four runs uploaded inline, nothing stored.
func buildPostProcess(seed int64) (*suite, error) {
	rng := rand.New(rand.NewSource(seed))
	var names []string
	var exps []*core.Experiment
	for i := 0; i < 4; i++ {
		names = append(names, fmt.Sprintf("analysis run %d", i))
		exps = append(exps, synth(names[i], postShape, 0, i, rng))
	}
	docs, err := docsOf(names, exps)
	if err != nil {
		return nil, err
	}
	kinds := []string{"prune", "flatten", "extract", "view"}
	mk := func(kind string, i int) op { return op{Kind: kind, Args: []int{i}, Key: fmt.Sprintf("%s/%d", kind, i)} }
	// A round is every kind on every run, the verification set itself.
	var verify []op
	for _, k := range kinds {
		for i := range docs {
			verify = append(verify, mk(k, i))
		}
	}
	round := func(*rand.Rand, int) []op { return append([]op(nil), verify...) }
	return newSuite(docs, nil, round, verify), nil
}

// enode is the POST /expr wire form of one expression node.
type enode struct {
	Op   string  `json:"op,omitempty"`
	Args []enode `json:"args,omitempty"`
	Ref  string  `json:"ref,omitempty"`
}

func refs(docs []*doc, idx []int) []enode {
	out := make([]enode, len(idx))
	for i, d := range idx {
		out[i] = enode{Ref: "digest:" + docs[d].digest}
	}
	return out
}

func exprDoc(n enode) string {
	b, err := json.Marshal(n)
	if err != nil {
		panic(err) // enode holds only strings and slices
	}
	return string(b)
}

// serverOptions are the integration options the server applies when a
// request names none.
func serverOptions() *core.Options {
	opts, err := cli.ParseOptions("callee", "auto")
	if err != nil {
		panic(err)
	}
	return opts
}

// callCore runs the library operator behind the op's /op route.
func callCore(kind string, opts *core.Options, xs []*core.Experiment) (*core.Experiment, error) {
	switch kind {
	case "difference", "upload-diff":
		return core.Difference(xs[0], xs[1], opts)
	case "mean":
		return core.Mean(opts, xs...)
	case "merge":
		return core.MergeAll(opts, xs...)
	case "prune":
		return core.Prune(xs[0], pruneMetric, pruneThreshold)
	case "flatten":
		return core.Flatten(xs[0])
	case "extract":
		return core.ExtractMetrics(xs[0], extractMetric)
	}
	return nil, fmt.Errorf("no operator for op kind %q", kind)
}

// render is POST /view?mode=percent as the server's handler computes it.
func render(e *core.Experiment) (string, error) {
	sel := display.Selection{MetricCollapsed: true, CNodeCollapsed: true}
	if roots := e.CallRoots(); len(roots) > 0 {
		sel.CNode = roots[0]
	}
	return display.RenderString(e, sel, &display.Config{HideZero: true, Mode: display.Percent})
}

// compute derives the op's expected result in-process from the parsed
// input documents.
func (s *suite) compute(o op) (*expected, error) {
	opts := serverOptions()
	var res *core.Experiment
	var err error
	switch o.Kind {
	case "view":
		text, err := render(s.docs[o.Args[0]].exp)
		if err != nil {
			return nil, err
		}
		return &expected{text: text, isText: true}, nil
	case "expr":
		// The library's own evaluator: it orders commutative operands
		// canonically, so its result has the server's structure and bits.
		var ex *expr.Expr
		var plan *expr.Plan
		if ex, err = expr.Parse([]byte(o.Expr), expr.Limits{}); err == nil {
			plan, err = ex.Plan(nil)
		}
		if err != nil {
			return nil, err
		}
		res, _, err = expr.NewEngine(expr.Config{}).Eval(context.Background(), plan, opts,
			func(_ context.Context, leaf expr.Leaf) (*core.Experiment, error) {
				d, ok := s.byDigest[leaf.Digest]
				if !ok {
					return nil, fmt.Errorf("unknown leaf %s", leaf)
				}
				return d.exp, nil
			})
	default:
		xs := make([]*core.Experiment, len(o.Args))
		for i, a := range o.Args {
			xs[i] = s.docs[a].exp
		}
		res, err = callCore(o.Kind, opts, xs)
	}
	if err != nil {
		return nil, err
	}
	return &expected{exp: res, metrics: len(res.Metrics()), tuples: res.NonZeroCount()}, nil
}

// check compares a response with its class's expected result: in full, or
// by the O(1) counts used inside the measured window.
func check(want *expected, r response, full bool) error {
	if want == nil {
		return fmt.Errorf("no expected result for this request")
	}
	if want.isText {
		switch {
		case len(r.text) != len(want.text):
			return fmt.Errorf("view is %d bytes, want %d", len(r.text), len(want.text))
		case full && r.text != want.text:
			return fmt.Errorf("view differs from the in-process rendering")
		}
		return nil
	}
	switch {
	case r.exp == nil:
		return fmt.Errorf("no experiment in the response")
	case len(r.exp.Metrics()) != want.metrics:
		return fmt.Errorf("result has %d metrics, want %d", len(r.exp.Metrics()), want.metrics)
	case r.exp.NonZeroCount() != want.tuples:
		return fmt.Errorf("result has %d tuples, want %d", r.exp.NonZeroCount(), want.tuples)
	case full && !core.AlmostEqual(r.exp, want.exp, 1e-9):
		return fmt.Errorf("result differs from the in-process computation")
	}
	return nil
}
