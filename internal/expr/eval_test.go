package expr

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"cube/internal/core"
	"cube/internal/obs"
)

// evalExperiment builds a tiny single-metric experiment with the given
// per-thread severities.
func evalExperiment(title string, vals ...float64) *core.Experiment {
	e := core.New(title)
	m := e.NewMetric("Time", core.Seconds, "")
	c := e.NewCallRoot(e.NewCallSite("app", 0, e.NewRegion("main", "app", 0, 0)))
	e.Invalidate()
	e.SingleThreadedSystem("mach", 1, len(vals))
	for i, th := range e.Threads() {
		e.SetSeverity(m, c, th, vals[i])
	}
	return e
}

// useRegistry installs a fresh registry as the process-wide one for the
// rest of the test and returns it.
func useRegistry(t testing.TB) *obs.Registry {
	reg := obs.NewRegistry()
	obs.SetRegistry(reg)
	t.Cleanup(func() { obs.SetRegistry(nil) })
	return reg
}

// testStore maps fabricated digests to experiments and counts resolutions.
type testStore struct {
	byDigest map[string]*core.Experiment
	resolves atomic.Int64
}

func newTestStore(exps map[string]*core.Experiment) *testStore {
	s := &testStore{byDigest: map[string]*core.Experiment{}}
	for name, e := range exps {
		sum := sha256.Sum256([]byte(name))
		s.byDigest[hex.EncodeToString(sum[:])] = e
	}
	return s
}

func (s *testStore) resolver() Resolver {
	return func(ctx context.Context, leaf Leaf) (*core.Experiment, error) {
		s.resolves.Add(1)
		if leaf.Kind != LeafDigest {
			return nil, fmt.Errorf("test store resolves digests only, got %s", leaf)
		}
		e, ok := s.byDigest[leaf.Digest]
		if !ok {
			return nil, errors.New("not stored")
		}
		return e.Clone(), nil
	}
}

func planFor(t *testing.T, src string) *Plan {
	t.Helper()
	e, err := Parse([]byte(src), Limits{})
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	p, err := e.Plan(nil)
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	return p
}

// The acceptance-criteria scenario: a DAG containing the same
// subexpression twice evaluates it exactly once, the result matches the
// sequential composition, and a resubmitted identical DAG is served from
// the result cache without running any operator.
func TestEvalSharedSubexpressionOnceAndResultCache(t *testing.T) {
	a := evalExperiment("a", 4, 8, 12)
	b := evalExperiment("b", 1, 2, 3)
	store := newTestStore(map[string]*core.Experiment{"a": a, "b": b})
	reg := useRegistry(t)
	eng := NewEngine(Config{CacheBytes: 1 << 20})

	// mean(diff(a,b), scale(diff(a,b), 2)) — diff(a,b) written twice.
	src := fmt.Sprintf(`{"op":"mean","args":[
		{"op":"difference","args":[{"ref":%q},{"ref":%q}]},
		{"op":"scale","factor":2,"args":[{"op":"difference","args":[{"ref":%q},{"ref":%q}]}]}]}`,
		digestFor("a"), digestFor("b"), digestFor("a"), digestFor("b"))
	plan := planFor(t, src)
	if plan.CSEHits != 1 {
		t.Fatalf("CSEHits = %d, want 1", plan.CSEHits)
	}

	got, stats, err := eng.Eval(context.Background(), plan, nil, store.resolver())
	if err != nil {
		t.Fatal(err)
	}
	// Exactly 3 operator nodes run: difference once (not twice), scale, mean.
	if stats.Evaluated != 3 {
		t.Fatalf("Evaluated = %d, want 3 (shared difference must run once)", stats.Evaluated)
	}
	if v := reg.CounterValue("cube_expr_eval_nodes_total"); v != 3 {
		t.Fatalf("cube_expr_eval_nodes_total = %d, want 3", v)
	}
	if v := reg.CounterValue("cube_expr_cse_hits_total"); v != 1 {
		t.Fatalf("cube_expr_cse_hits_total = %d, want 1", v)
	}

	// Sequential single-operator composition of the same expression.
	d, err := core.Difference(a, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.Scale(d, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Mean(nil, d, s)
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint() != want.Fingerprint() {
		t.Fatal("DAG evaluation differs from sequential composition")
	}

	// Resubmit the identical DAG: served from the expression-digest cache —
	// no operator runs, no leaf resolves.
	before := store.resolves.Load()
	got2, stats2, err := eng.Eval(context.Background(), plan, nil, store.resolver())
	if err != nil {
		t.Fatal(err)
	}
	if !stats2.RootCached || stats2.Evaluated != 0 {
		t.Fatalf("replay: RootCached=%v Evaluated=%d, want cached with 0 evaluations", stats2.RootCached, stats2.Evaluated)
	}
	if store.resolves.Load() != before {
		t.Fatal("replay resolved leaves; want pure cache hit")
	}
	if v := reg.CounterValue("cube_expr_eval_nodes_total"); v != 3 {
		t.Fatalf("replay ran %d extra operator nodes", v-3)
	}
	if got2.Fingerprint() != want.Fingerprint() {
		t.Fatal("cached result differs")
	}
	// The cached clone is the caller's to mutate: changing it must not
	// poison later hits.
	got2.SetSeverity(got2.Metrics()[0], got2.CallNodes()[0], got2.Threads()[0], 999)
	got3, _, err := eng.Eval(context.Background(), plan, nil, store.resolver())
	if err != nil {
		t.Fatal(err)
	}
	if got3.Fingerprint() != want.Fingerprint() {
		t.Fatal("mutating a returned clone corrupted the cache")
	}
}

// A bare-leaf expression (`{"ref":"digest:..."}`) evaluates to the stored
// experiment itself.
func TestEvalBareLeaf(t *testing.T) {
	a := evalExperiment("a", 5, 7)
	store := newTestStore(map[string]*core.Experiment{"a": a})
	eng := NewEngine(Config{CacheBytes: 1 << 20})
	plan := planFor(t, fmt.Sprintf(`{"ref":%q}`, digestFor("a")))
	got, stats, err := eng.Eval(context.Background(), plan, nil, store.resolver())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Evaluated != 0 {
		t.Fatalf("Evaluated = %d, want 0", stats.Evaluated)
	}
	if got.Fingerprint() != a.Fingerprint() {
		t.Fatal("bare leaf should return the stored experiment")
	}
}

// Subexpression cache lines serve later expressions that embed the same
// subtree, even when the enclosing expression is new.
func TestEvalSubexpressionCacheReuse(t *testing.T) {
	a := evalExperiment("a", 4, 8)
	b := evalExperiment("b", 1, 2)
	store := newTestStore(map[string]*core.Experiment{"a": a, "b": b})
	eng := NewEngine(Config{CacheBytes: 1 << 20})

	diff := fmt.Sprintf(`{"op":"difference","args":[{"ref":%q},{"ref":%q}]}`, digestFor("a"), digestFor("b"))
	if _, _, err := eng.Eval(context.Background(), planFor(t, diff), nil, store.resolver()); err != nil {
		t.Fatal(err)
	}
	// A new expression containing diff as a subtree: only scale runs.
	_, stats, err := eng.Eval(context.Background(), planFor(t, `{"op":"scale","factor":3,"args":[`+diff+`]}`), nil, store.resolver())
	if err != nil {
		t.Fatal(err)
	}
	if stats.CacheHits != 1 || stats.Evaluated != 1 {
		t.Fatalf("CacheHits=%d Evaluated=%d, want 1 and 1 (difference served from cache)", stats.CacheHits, stats.Evaluated)
	}
}

// Different evaluation options must not share cache lines.
func TestEvalOptionsKeyCacheSeparately(t *testing.T) {
	a := evalExperiment("a", 4, 8)
	b := evalExperiment("b", 1, 2)
	store := newTestStore(map[string]*core.Experiment{"a": a, "b": b})
	eng := NewEngine(Config{CacheBytes: 1 << 20})
	plan := planFor(t, fmt.Sprintf(`{"op":"sum","args":[{"ref":%q},{"ref":%q}]}`, digestFor("a"), digestFor("b")))

	_, statsK, err := eng.Eval(context.Background(), plan, &core.Options{System: core.SystemCopyFirst}, store.resolver())
	if err != nil {
		t.Fatal(err)
	}
	_, statsL, err := eng.Eval(context.Background(), plan, &core.Options{System: core.SystemCollapse}, store.resolver())
	if err != nil {
		t.Fatal(err)
	}
	if statsK.RootCached || statsL.RootCached {
		t.Fatal("copy-first and collapse options must not share a cache line")
	}
}

// With caching disabled every evaluation recomputes, and nothing breaks.
func TestEvalNoCache(t *testing.T) {
	a := evalExperiment("a", 4)
	b := evalExperiment("b", 1)
	store := newTestStore(map[string]*core.Experiment{"a": a, "b": b})
	eng := NewEngine(Config{})
	plan := planFor(t, fmt.Sprintf(`{"op":"difference","args":[{"ref":%q},{"ref":%q}]}`, digestFor("a"), digestFor("b")))
	for i := 0; i < 2; i++ {
		_, stats, err := eng.Eval(context.Background(), plan, nil, store.resolver())
		if err != nil {
			t.Fatal(err)
		}
		if stats.RootCached || stats.Evaluated != 1 {
			t.Fatalf("run %d: RootCached=%v Evaluated=%d, want uncached single evaluation", i, stats.RootCached, stats.Evaluated)
		}
	}
}

// Concurrent identical requests share one evaluation via singleflight: the
// operator work happens once no matter how the requests interleave.
func TestEvalSingleflight(t *testing.T) {
	a := evalExperiment("a", 4, 8, 16)
	b := evalExperiment("b", 1, 2, 3)
	store := newTestStore(map[string]*core.Experiment{"a": a, "b": b})
	eng := NewEngine(Config{CacheBytes: 1 << 20})
	plan := planFor(t, fmt.Sprintf(`{"op":"stddev","args":[{"ref":%q},{"ref":%q}]}`, digestFor("a"), digestFor("b")))

	const n = 8
	var wg sync.WaitGroup
	var evaluated atomic.Int64
	fps := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e, stats, err := eng.Eval(context.Background(), plan, nil, store.resolver())
			if err != nil {
				t.Error(err)
				return
			}
			evaluated.Add(int64(stats.Evaluated))
			fps[i] = e.Fingerprint()
		}(i)
	}
	wg.Wait()
	if evaluated.Load() != 1 {
		t.Fatalf("total operator evaluations = %d, want 1 (singleflight + cache)", evaluated.Load())
	}
	for i := 1; i < n; i++ {
		if fps[i] != fps[0] {
			t.Fatal("concurrent evaluations disagree")
		}
	}
}

// An evaluation error is shared with concurrent waiters but not cached:
// the next request retries.
func TestEvalErrorNotCached(t *testing.T) {
	store := newTestStore(nil) // empty: every digest resolve fails
	eng := NewEngine(Config{CacheBytes: 1 << 20})
	plan := planFor(t, fmt.Sprintf(`{"op":"flatten","args":[{"ref":%q}]}`, digestFor("missing")))
	if _, _, err := eng.Eval(context.Background(), plan, nil, store.resolver()); err == nil {
		t.Fatal("want resolve error")
	}
	// Now store the experiment under that digest and retry: must succeed.
	sum := sha256.Sum256([]byte("missing"))
	store.byDigest[hex.EncodeToString(sum[:])] = evalExperiment("missing", 3)
	if _, _, err := eng.Eval(context.Background(), plan, nil, store.resolver()); err != nil {
		t.Fatalf("retry after error: %v", err)
	}
}

func TestEvalContextCancelled(t *testing.T) {
	a := evalExperiment("a", 1)
	store := newTestStore(map[string]*core.Experiment{"a": a})
	eng := NewEngine(Config{})
	plan := planFor(t, fmt.Sprintf(`{"op":"flatten","args":[{"ref":%q}]}`, digestFor("a")))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := eng.Eval(ctx, plan, nil, store.resolver()); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// The byte budget is enforced: a tiny budget evicts old entries and the
// eviction counter moves.
func TestResultCacheEviction(t *testing.T) {
	reg := useRegistry(t)
	rc := NewEngine(Config{CacheBytes: 2000}).cache // one tiny experiment (~1.6 KiB resident) fits, two don't
	k1 := resultKey{node: sha256.Sum256([]byte("k1"))}
	k2 := resultKey{node: sha256.Sum256([]byte("k2"))}
	e1 := evalExperiment("e1", 1)
	e2 := evalExperiment("e2", 2)
	e1.CompactSeverities()
	e2.CompactSeverities()
	rc.Add(k1, e1, e1.ResidentBytes())
	rc.Add(k2, e2, e2.ResidentBytes())
	if _, ok := rc.Get(k1); ok {
		t.Fatal("k1 should have been evicted")
	}
	if _, ok := rc.Get(k2); !ok {
		t.Fatal("k2 should be resident")
	}
	if v := reg.CounterValue("cube_expr_cache_evictions_total"); v != 1 {
		t.Fatalf("evictions = %d, want 1", v)
	}
}

// randomDAG builds a random wire expression over the named leaves, writing
// shared subexpressions out in full so CSE has real work to do. Returns
// the JSON and the expected experiment computed by sequential
// single-operator composition.
func randomDAG(r *rand.Rand, leaves map[string]*core.Experiment, names []string, depth int, opts *core.Options) (string, *core.Experiment, error) {
	if depth <= 0 || r.Intn(3) == 0 {
		name := names[r.Intn(len(names))]
		return fmt.Sprintf(`{"ref":%q}`, digestFor(name)), leaves[name].Clone(), nil
	}
	switch r.Intn(6) {
	case 0:
		ls, le, err := randomDAG(r, leaves, names, depth-1, opts)
		if err != nil {
			return "", nil, err
		}
		rs, re, err := randomDAG(r, leaves, names, depth-1, opts)
		if err != nil {
			return "", nil, err
		}
		out, err := core.Difference(le, re, opts)
		return fmt.Sprintf(`{"op":"difference","args":[%s,%s]}`, ls, rs), out, err
	case 1, 2:
		op := []string{"mean", "sum", "min"}[r.Intn(3)]
		ls, le, err := randomDAG(r, leaves, names, depth-1, opts)
		if err != nil {
			return "", nil, err
		}
		rs, re, err := randomDAG(r, leaves, names, depth-1, opts)
		if err != nil {
			return "", nil, err
		}
		var out *core.Experiment
		switch op {
		case "mean":
			out, err = core.Mean(opts, le, re)
		case "sum":
			out, err = core.Sum(opts, le, re)
		case "min":
			out, err = core.Min(opts, le, re)
		}
		return fmt.Sprintf(`{"op":%q,"args":[%s,%s]}`, op, ls, rs), out, err
	case 3:
		ls, le, err := randomDAG(r, leaves, names, depth-1, opts)
		if err != nil {
			return "", nil, err
		}
		out, err := core.Scale(le, 2, opts)
		return fmt.Sprintf(`{"op":"scale","factor":2,"args":[%s]}`, ls), out, err
	case 4:
		ls, le, err := randomDAG(r, leaves, names, depth-1, opts)
		if err != nil {
			return "", nil, err
		}
		out, err := core.Flatten(le)
		return fmt.Sprintf(`{"op":"flatten","args":[%s]}`, ls), out, err
	default:
		// Duplicate subexpression on purpose: X - X == zero everywhere,
		// and the DAG contains the same subtree twice.
		ls, le, err := randomDAG(r, leaves, names, depth-1, opts)
		if err != nil {
			return "", nil, err
		}
		out, err := core.Difference(le, le.Clone(), opts)
		return fmt.Sprintf(`{"op":"difference","args":[%s,%s]}`, ls, ls), out, err
	}
}

// Property: any random DAG evaluated through the engine equals the same
// composition executed as sequential single-operator calls, on both
// engines, and CSE/caching never change results.
func TestEvalMatchesSequentialProperty(t *testing.T) {
	leaves := map[string]*core.Experiment{}
	names := []string{"a", "b", "c"}
	r := rand.New(rand.NewSource(42))
	for i, name := range names {
		vals := make([]float64, 4)
		for j := range vals {
			// Dyadic values: sums are exact, fingerprints comparable.
			vals[j] = float64(r.Intn(64)) / 16 * float64(i+1)
		}
		leaves[name] = evalExperiment(name, vals...)
	}
	store := newTestStore(leaves)

	for iter := 0; iter < 25; iter++ {
		opts := &core.Options{}
		src, want, err := randomDAG(r, leaves, names, 3, opts)
		if err != nil {
			t.Fatalf("iter %d: sequential composition: %v", iter, err)
		}
		// Fresh engine per iteration: the cache must not be needed for
		// correctness. Evaluate twice — cold and cached — and require
		// both to match the sequential result.
		eng := NewEngine(Config{CacheBytes: 1 << 20})
		plan := planFor(t, src)
		for run := 0; run < 2; run++ {
			got, _, err := eng.Eval(context.Background(), plan, opts, store.resolver())
			if err != nil {
				t.Fatalf("iter %d run %d: %v", iter, run, err)
			}
			if got.Fingerprint() != want.Fingerprint() {
				t.Fatalf("iter %d run %d: DAG result differs from sequential composition\nsrc: %s",
					iter, run, src)
			}
		}
	}
}

// CSE sanity at the property level: duplicated subtrees never evaluate
// twice.
func TestEvalCSENeverReevaluates(t *testing.T) {
	leaves := map[string]*core.Experiment{
		"a": evalExperiment("a", 2, 4), "b": evalExperiment("b", 8, 16),
	}
	store := newTestStore(leaves)
	r := rand.New(rand.NewSource(7))
	for iter := 0; iter < 20; iter++ {
		src, _, err := randomDAG(r, leaves, []string{"a", "b"}, 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		eng := NewEngine(Config{CacheBytes: 1 << 20})
		plan := planFor(t, src)
		_, stats, err := eng.Eval(context.Background(), plan, nil, store.resolver())
		if err != nil {
			t.Fatalf("iter %d: %v\nsrc: %s", iter, err, src)
		}
		var opNodes int
		for _, n := range plan.Nodes {
			if n.Spec != nil {
				opNodes++
			}
		}
		if stats.Evaluated != opNodes {
			t.Fatalf("iter %d: Evaluated=%d but plan has %d operator nodes", iter, stats.Evaluated, opNodes)
		}
		if wire := strings.Count(src, `"op"`); wire > opNodes && stats.CSEHits == 0 {
			t.Fatalf("iter %d: %d wire ops collapsed to %d nodes but CSEHits=0", iter, wire, opNodes)
		}
	}
}

// A batched plan evaluates every root over one shared DAG: the common
// subexpression runs once, each root's result matches the sequential
// composition, a bare-leaf root round-trips, and a replayed batch is
// served entirely from the result cache.
func TestEvalMulti(t *testing.T) {
	a := evalExperiment("a", 4, 8, 12)
	b := evalExperiment("b", 1, 2, 3)
	store := newTestStore(map[string]*core.Experiment{"a": a, "b": b})
	eng := NewEngine(Config{CacheBytes: 1 << 20})

	d, _ := core.Difference(a, b, nil)
	sc, _ := core.Scale(d, 2, nil)

	src := fmt.Sprintf(`{"defs":{"d":{"op":"difference","args":[{"ref":%q},{"ref":%q}]}},
		"roots":[{"ref":"def:d"},{"op":"scale","factor":2,"args":[{"ref":"def:d"}]},{"ref":%q}]}`,
		digestFor("a"), digestFor("b"), digestFor("a"))
	plan := planFor(t, src)
	if len(plan.Roots) != 3 {
		t.Fatalf("plan has %d roots, want 3", len(plan.Roots))
	}

	outs, stats, err := eng.EvalMulti(context.Background(), plan, nil, store.resolver())
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 3 {
		t.Fatalf("got %d results, want 3", len(outs))
	}
	// difference once (shared by roots 0 and 1) + scale once.
	if stats.Evaluated != 2 {
		t.Errorf("Evaluated = %d, want 2 (difference shared across roots)", stats.Evaluated)
	}
	if outs[0].Fingerprint() != d.Fingerprint() {
		t.Error("root 0 differs from sequential difference")
	}
	if outs[1].Fingerprint() != sc.Fingerprint() {
		t.Error("root 1 differs from sequential scale")
	}
	if outs[2].Fingerprint() != a.Fingerprint() {
		t.Error("bare-leaf root did not round-trip")
	}

	// Each result is a private clone: mutating one must not leak into a
	// replay served from the result cache.
	for _, th := range outs[0].Threads() {
		outs[0].SetSeverity(outs[0].Metrics()[0], outs[0].CallNodes()[0], th, 999)
	}
	outs2, stats2, err := eng.EvalMulti(context.Background(), plan, nil, store.resolver())
	if err != nil {
		t.Fatal(err)
	}
	if stats2.Evaluated != 0 {
		t.Errorf("replay Evaluated = %d, want 0", stats2.Evaluated)
	}
	if !stats2.RootCached {
		t.Error("replay RootCached = false, want true")
	}
	if outs2[0].Fingerprint() != d.Fingerprint() {
		t.Error("replayed root 0 sees the caller's mutation (shared master leaked)")
	}
}
