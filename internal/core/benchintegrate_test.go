package core

import (
	"fmt"
	"testing"
)

// benchMetaExperiment builds an experiment with the benchmark metadata
// domain: 64 metrics (8 roots × 8), 512 call nodes (8 trees × 64), and 64
// threads (4 nodes × 4 ranks × 4 threads), with every 8th tuple carrying a
// severity, committed through the columnar ingest so the operand starts in
// its compact lowered form like a parsed experiment would.
func benchMetaExperiment(title string) *Experiment {
	e := New(title)
	for i := 0; i < 8; i++ {
		root := e.NewMetric(fmt.Sprintf("metric%d", i), Seconds, "")
		for j := 0; j < 7; j++ {
			root.NewChild(fmt.Sprintf("child%d", j), "")
		}
	}
	regions := make([]*Region, 32)
	for i := range regions {
		regions[i] = e.NewRegion(fmt.Sprintf("region%d", i), "app.c", i*10, i*10+9)
	}
	for i := 0; i < 8; i++ {
		root := e.NewCallRoot(e.NewCallSite("app.c", i, regions[i%len(regions)]))
		for j := 0; j < 63; j++ {
			root.NewChild(e.NewCallSite("app.c", 100+j, regions[(i+j)%len(regions)]))
		}
	}
	mach := e.NewMachine("mach")
	for n := 0; n < 4; n++ {
		nd := mach.NewNode(fmt.Sprintf("node%d", n))
		for p := 0; p < 4; p++ {
			proc := nd.NewProcess(n*4+p, "")
			for t := 0; t < 4; t++ {
				proc.NewThread(t, "")
			}
		}
	}
	e.Invalidate()

	ing, _ := e.NewSeverityIngest() // a 64×256×64 domain packs
	nM, nC, nT := ing.Dims()
	var keys []uint64
	var vals []float64
	for mi := 0; mi < nM; mi++ {
		for ci := 0; ci < nC; ci++ {
			row := ing.RowKey(mi, ci)
			for ti := (mi + ci) % 8; ti < nT; ti += 8 {
				keys = append(keys, row+uint64(ti))
				vals = append(vals, float64(mi+ci+ti)/16)
			}
		}
	}
	ing.Commit(keys, vals, true)
	return e
}

// benchIntegrate measures integrate() itself — the metadata phase every
// operator runs first — with the fast paths enabled or forced cold.
func benchIntegrate(b *testing.B, off bool, operands ...*Experiment) {
	prev := metaFastpathOff.Swap(off)
	defer metaFastpathOff.Store(prev)
	SetIntegrateMemoBudget(DefaultIntegrateMemoBytes)
	defer SetIntegrateMemoBudget(DefaultIntegrateMemoBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := integrate(nil, operands...); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIntegrateSameMetadata: two operands from the same binary
// (digest-identical forests). The fast path serves this from the identity
// copy; cold runs the full treemerge.
func BenchmarkIntegrateSameMetadata(b *testing.B) {
	x := benchMetaExperiment("a")
	y := x.Clone()
	x.MetaDigest()
	y.MetaDigest()
	b.Run("fastpath", func(b *testing.B) { benchIntegrate(b, false, x, y) })
	b.Run("cold", func(b *testing.B) { benchIntegrate(b, true, x, y) })
}

// BenchmarkIntegrateMixed: two operands with different metadata digests —
// the repeated-pairing case the integration memo serves (first iteration
// misses and inserts, the rest hit).
func BenchmarkIntegrateMixed(b *testing.B) {
	x := benchMetaExperiment("a")
	y := benchMetaExperiment("b")
	y.NewMetric("extra", Seconds, "")
	y.Invalidate()
	x.MetaDigest()
	y.MetaDigest()
	b.Run("memo", func(b *testing.B) { benchIntegrate(b, false, x, y) })
	b.Run("cold", func(b *testing.B) { benchIntegrate(b, true, x, y) })
}
