package expr

import (
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"strings"
	"testing"

	"cube/internal/core"
)

// liveHeap returns the live heap after two forced collections (the second
// also empties sync.Pool victim caches, such as the kernel's radix
// scratch).
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return int64(s[0].Value.Uint64())
}

// gridExperiment builds a run with every (metric, call node, thread) tuple
// set: the shape of a series of stored runs of one binary.
func gridExperiment(title string, seed, nM, nC, nT int) *core.Experiment {
	e := core.New(title)
	reg := e.NewRegion("main", "app", 0, 0)
	root := e.NewCallRoot(e.NewCallSite("app", 0, reg))
	for i := 1; i < nC; i++ {
		root.NewChild(e.NewCallSite("app", i, e.NewRegion(fmt.Sprintf("f%d", i), "app", 0, 0)))
	}
	for i := 0; i < nM; i++ {
		e.NewMetric(fmt.Sprintf("m%d", i), core.Seconds, "")
	}
	e.Invalidate()
	e.SingleThreadedSystem("mach", 1, nT)
	for mi, m := range e.Metrics() {
		for ci, c := range e.CallNodes() {
			for ti, th := range e.Threads() {
				e.SetSeverity(m, c, th, float64(1+(seed+mi+ci+ti)%7))
			}
		}
	}
	return e
}

// TestResultCacheBudgetMatchesHeap fills the expression result cache to
// its budget with 3-operand mean results — series-expr's workload — and
// checks that the bytes it charges match the live heap the cached results
// occupy within 1.25×. An estimate that undercounts lets the cache hold
// several times its budget.
func TestResultCacheBudgetMatchesHeap(t *testing.T) {
	const runs = 12
	leaves := map[string]*core.Experiment{}
	var refs []string
	for i := 0; i < runs; i++ {
		name := fmt.Sprintf("run%d", i)
		e := gridExperiment(name, i, 8, 64, 16)
		// Lower and hash the operands up front: only the cache may grow
		// between the two heap readings.
		e.CompactSeverities()
		e.MetaDigest()
		ref := digestFor(name)
		leaves[strings.TrimPrefix(ref, "digest:")] = e
		refs = append(refs, ref)
	}
	resolve := func(_ context.Context, leaf Leaf) (*core.Experiment, error) {
		return leaves[leaf.Digest], nil
	}
	reg := useRegistry(t)
	g := NewEngine(Config{CacheBytes: 8 << 20})

	before := liveHeap()
	filled := false
	for i := 0; i < runs && !filled; i++ {
		for j := i + 1; j < runs && !filled; j++ {
			for k := j + 1; k < runs && !filled; k++ {
				plan := planFor(t, fmt.Sprintf(`{"op":"mean","args":[{"ref":%q},{"ref":%q},{"ref":%q}]}`, refs[i], refs[j], refs[k]))
				if _, _, err := g.Eval(context.Background(), plan, nil, resolve); err != nil {
					t.Fatal(err)
				}
				filled = reg.CounterValue("cube_expr_cache_evictions_total") > 0
			}
		}
	}
	if !filled {
		t.Fatal("the cache never reached its budget; add runs")
	}
	heap := liveHeap() - before
	charged := g.cache.Bytes()
	ratio := float64(heap) / float64(charged)
	t.Logf("%d cached results: charged %d bytes, live heap grew %d bytes (%.2f×)", g.cache.Len(), charged, heap, ratio)
	if ratio > 1.25 || ratio < 1/1.25 {
		t.Errorf("live heap is %.2f× the bytes charged, want within 1.25×", ratio)
	}
	runtime.KeepAlive(leaves)
}
