package expr

import (
	"context"
	"encoding/hex"
	"fmt"

	"cube/internal/core"
	"cube/internal/lru"
	"cube/internal/obs"
)

// Engine evaluates canonicalized expression plans. It owns the
// expression-digest result cache and deduplicates concurrent evaluations
// of the same expression (singleflight), so a burst of identical DAGs
// runs the kernels once. An Engine is safe for concurrent use.
//
// Metrics (recorded into the process-wide registry, obs.SetRegistry):
//
//	cube_expr_requests_total        expressions evaluated (or served cached)
//	cube_expr_nodes_total           unique DAG nodes planned
//	cube_expr_cse_hits_total        subexpression references eliminated by CSE
//	cube_expr_eval_nodes_total      operator nodes actually executed
//	cube_expr_cache_hits_total      result-cache hits (node granularity)
//	cube_expr_cache_misses_total    operator nodes not found in the cache
//	cube_expr_cache_evictions_total LRU evictions under the byte budget
//	cube_expr_cache_bytes           resident bytes of the cached results
type Engine struct {
	cache *lru.Cache[resultKey, *core.Experiment] // compacted masters, shared read-only
}

// Config configures an Engine.
type Config struct {
	// CacheBytes is the byte budget of the expression-digest result
	// cache; 0 disables result caching (every request recomputes).
	CacheBytes int64
}

// NewEngine returns an evaluation engine.
func NewEngine(cfg Config) *Engine {
	return &Engine{cache: lru.New[resultKey, *core.Experiment](cfg.CacheBytes, "cube_expr_cache")}
}

// Resolver supplies leaf operands: stored experiments by digest, inline
// request operands by index. The engine only ever reads the experiments a
// Resolver returns — operators never mutate operands — so a resolver may
// hand out shared masters (the server's parse cache does) as long as
// nothing else mutates them either.
type Resolver func(ctx context.Context, leaf Leaf) (*core.Experiment, error)

// Stats reports what one evaluation did — the numbers the server folds
// into its wide event and the smoke tests assert on.
type Stats struct {
	Nodes      int  // unique DAG nodes after CSE
	CSEHits    int  // subexpression references eliminated by sharing
	CacheHits  int  // node results served from the expression-digest cache
	Evaluated  int  // operator nodes actually executed
	RootCached bool // whole expression answered without evaluating anything
}

// countRequest counts one evaluated (or cached) expression request.
func countRequest(stats Stats) {
	reg := obs.ActiveRegistry()
	reg.Counter("cube_expr_requests_total").Inc()
	reg.Counter("cube_expr_nodes_total").Add(int64(stats.Nodes))
	reg.Counter("cube_expr_cse_hits_total").Add(int64(stats.CSEHits))
}

// Eval evaluates the plan and returns the root experiment, which the
// caller owns and may mutate freely. Identical concurrent evaluations are
// shared; repeated evaluations are served from the result cache without
// touching a kernel.
func (g *Engine) Eval(ctx context.Context, plan *Plan, opts *core.Options, resolve Resolver) (*core.Experiment, Stats, error) {
	stats := Stats{Nodes: len(plan.Nodes), CSEHits: plan.CSEHits}
	countRequest(stats)

	fp := optsFingerprint(opts)
	if plan.Root.Spec == nil {
		// A bare leaf evaluates nothing, so there is nothing to share or
		// cache: resolve it and hand out a clone.
		masters, err := g.evalAll(ctx, plan, fp, opts, resolve, &stats, []*Node{plan.Root})
		if err != nil {
			return nil, stats, err
		}
		return masters[plan.Root].Clone(), stats, nil
	}
	// Singleflight: the first evaluation of an expression runs, identical
	// concurrent requests wait and share its result (and its error, so a
	// poisoned expression does not dogpile the kernels).
	master, outcome, err := g.cache.Do(resultKey{node: plan.Root.Key, opts: fp}, func() (*core.Experiment, int64, error) {
		masters, err := g.evalAll(ctx, plan, fp, opts, resolve, &stats, []*Node{plan.Root})
		if err != nil {
			return nil, 0, err
		}
		m := masters[plan.Root]
		return m, m.ResidentBytes(), nil
	})
	if err != nil {
		return nil, stats, err
	}
	if outcome != lru.Miss {
		obs.ActiveRegistry().Counter("cube_expr_cache_hits_total").Inc()
		stats.CacheHits++
		stats.RootCached = true
	}
	return master.Clone(), stats, nil
}

// EvalMulti evaluates every root of a batched plan in one pass over the
// shared DAG and returns one experiment per root, in plan order, each
// owned by the caller. A subexpression common to several roots — or one
// root nested inside another — runs once. Batched evaluations skip the
// whole-request singleflight (their identity is the root set, which the
// node-granular result cache already deduplicates), so concurrent
// identical batches race only on cache insertion, benignly.
func (g *Engine) EvalMulti(ctx context.Context, plan *Plan, opts *core.Options, resolve Resolver) ([]*core.Experiment, Stats, error) {
	stats := Stats{Nodes: len(plan.Nodes), CSEHits: plan.CSEHits}
	countRequest(stats)

	fp := optsFingerprint(opts)
	masters, err := g.evalAll(ctx, plan, fp, opts, resolve, &stats, plan.Roots)
	if err != nil {
		return nil, stats, err
	}
	outs := make([]*core.Experiment, len(plan.Roots))
	for i, r := range plan.Roots {
		outs[i] = masters[r].Clone()
	}
	stats.RootCached = stats.Evaluated == 0 && stats.CacheHits > 0
	return outs, stats, nil
}

// evalAll walks the plan in topological order (children before parents),
// so every unique subexpression is computed exactly once and its result —
// including its sealed severity block — is reused by every
// parent. It returns the compacted master of each requested root; callers
// clone them across the ownership boundary.
func (g *Engine) evalAll(ctx context.Context, plan *Plan, fp string, opts *core.Options, resolve Resolver, stats *Stats, roots []*Node) (map[*Node]*core.Experiment, error) {
	// results holds each node's experiment for use as an operand of its
	// parents. Operators never mutate their operands, so one experiment
	// serves every parent without per-parent cloning, and an operand
	// feeding several operators is sealed once. The same contract is what
	// lets leaf resolvers hand out shared sealed masters (the server's
	// parse cache) instead of per-request clones.
	results := make(map[*Node]*core.Experiment, len(plan.Nodes))
	isRoot := make(map[*Node]bool, len(roots))
	for _, r := range roots {
		isRoot[r] = true
	}
	masters := make(map[*Node]*core.Experiment, len(roots))
	reg := obs.ActiveRegistry()
	for _, n := range plan.Nodes {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if n.Spec == nil {
			e, err := resolve(ctx, n.Leaf)
			if err != nil {
				return nil, fmt.Errorf("expr: resolving %s: %w", n.Leaf, err)
			}
			results[n] = e
			if isRoot[n] {
				masters[n] = e
			}
			continue
		}
		key := resultKey{node: n.Key, opts: fp}
		if e, ok := g.cache.Get(key); ok {
			reg.Counter("cube_expr_cache_hits_total").Inc()
			stats.CacheHits++
			results[n] = e
			if isRoot[n] {
				masters[n] = e
			}
			continue
		}
		reg.Counter("cube_expr_cache_misses_total").Inc()
		operands := make([]*core.Experiment, len(n.Args))
		for i, a := range n.Args {
			operands[i] = results[a]
		}
		st, _ := obs.Begin(ctx, obs.ExprNode)
		nopts := opts
		if sp := st.Span(); sp != nil {
			sp.SetAttr("op", n.Spec.name)
			sp.SetAttr("key", n.KeyString()[:12])
			// Parent the operator's op.<name> span under expr.node so
			// traces show which DAG node each kernel run belongs to.
			var o core.Options
			if opts != nil {
				o = *opts
			}
			o.Trace = sp
			nopts = &o
		}
		master, err := n.Apply(nopts, operands)
		st.End(err)
		if err != nil {
			return nil, fmt.Errorf("expr: %s: %w", n.Spec.name, err)
		}
		stats.Evaluated++
		reg.Counter("cube_expr_eval_nodes_total").Inc()
		// Publish the master. Once it is visible in the cache, every
		// request only reads it — as an operand of parent nodes, and for
		// roots through the boundary clone its caller receives.
		g.cache.Add(key, master, master.ResidentBytes())
		results[n] = master
		if isRoot[n] {
			masters[n] = master
		}
	}
	return masters, nil
}

// DigestOfKey renders a plan key for logs and span attributes.
func DigestOfKey(key [32]byte) string { return hex.EncodeToString(key[:]) }
