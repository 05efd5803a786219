package core

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"testing"
)

// liveHeap returns the live heap after two forced collections (the second
// also empties sync.Pool victim caches, such as the radix scratch).
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return int64(s[0].Value.Uint64())
}

// TestIntegrateMemoBudgetMatchesHeap fills the integration memo to its
// budget with the integrations of 3-operand means over runs whose call
// trees differ, and checks that the bytes the memo charges match the live
// heap its entries occupy within 1.25×.
func TestIntegrateMemoBudgetMatchesHeap(t *testing.T) {
	const runs = 12
	defer SetIntegrateMemoBudget(DefaultIntegrateMemoBytes)
	operands := make([]*Experiment, runs)
	for i := range operands {
		e := New(fmt.Sprintf("run%d", i))
		m := e.NewMetric("Time", Seconds, "")
		for _, name := range []string{"MPI", "Comm", "IO"} {
			m.NewChild(Intern(name), "")
		}
		root := e.NewCallRoot(e.NewCallSite("app", 0, e.NewRegion(Intern("main"), "app", 0, 0)))
		for j := 0; j < 150; j++ {
			root.NewChild(e.NewCallSite("app", j+1, e.NewRegion(Intern(fmt.Sprintf("f%d", j)), "app", 0, 0)))
		}
		// One call path of its own per run: every operand tuple has a
		// different metadata digest, so every mean misses the
		// digest-equality fast path and lands in the memo.
		root.NewChild(e.NewCallSite("app", 1000+i, e.NewRegion(Intern(fmt.Sprintf("only%d", i)), "app", 0, 0)))
		e.Invalidate()
		ths := e.SingleThreadedSystem("mach", 1, 8)
		e.SetSeverity(m, root, ths[i%len(ths)], float64(i+1))
		// Lower and hash the operands up front: only the memo may grow
		// between the two heap readings.
		e.CompactSeverities()
		e.MetaDigest()
		operands[i] = e
	}
	SetIntegrateMemoBudget(2 << 20)
	memo := integrateMemoTable.Load()

	before := liveHeap()
	filled := false
	var ents int
	for i := 0; i < runs && !filled; i++ {
		for j := i + 1; j < runs && !filled; j++ {
			for k := j + 1; k < runs && !filled; k++ {
				if _, err := Mean(nil, operands[i], operands[j], operands[k]); err != nil {
					t.Fatal(err)
				}
				// The memo evicted once its length stops growing.
				filled = memo.Len() <= ents
				ents = memo.Len()
			}
		}
	}
	if !filled {
		t.Fatal("the memo never reached its budget; add runs")
	}
	heap := liveHeap() - before
	charged := memo.Bytes()
	ratio := float64(heap) / float64(charged)
	t.Logf("%d memo entries: charged %d bytes, live heap grew %d bytes (%.2f×)", memo.Len(), charged, heap, ratio)
	if ratio > 1.25 || ratio < 1/1.25 {
		t.Errorf("live heap is %.2f× the bytes charged, want within 1.25×", ratio)
	}
	runtime.KeepAlive(operands)
}
