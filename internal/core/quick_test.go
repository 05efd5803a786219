package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"cube/internal/obs"
)

// randomExperiment builds a random but valid experiment. Names are drawn
// from small pools so that independently generated experiments overlap
// partially — the interesting case for metadata integration.
func randomExperiment(r *rand.Rand, title string) *Experiment {
	e := New(title)

	metricNames := []string{"Time", "MPI", "Comm", "Sync", "Wait", "IO"}
	var buildMetric func(parent *Metric, depth int)
	buildMetric = func(parent *Metric, depth int) {
		if depth > 2 {
			return
		}
		n := r.Intn(3)
		for i := 0; i < n; i++ {
			c := parent.NewChild(metricNames[r.Intn(len(metricNames))]+fmt.Sprint(i), "")
			buildMetric(c, depth+1)
		}
	}
	nRoots := 1 + r.Intn(2)
	units := []Unit{Seconds, Occurrences, Bytes}
	for i := 0; i < nRoots; i++ {
		root := e.NewMetric(metricNames[r.Intn(len(metricNames))], units[r.Intn(len(units))], "")
		buildMetric(root, 1)
	}

	regionNames := []string{"main", "foo", "bar", "baz", "MPI_Recv", "loop"}
	regions := map[string]*Region{}
	reg := func(name string) *Region {
		if rg, ok := regions[name]; ok {
			return rg
		}
		rg := e.NewRegion(name, "app", 0, 0)
		regions[name] = rg
		return rg
	}
	var buildCall func(parent *CallNode, depth int)
	buildCall = func(parent *CallNode, depth int) {
		if depth > 2 {
			return
		}
		n := r.Intn(3)
		for i := 0; i < n; i++ {
			c := parent.NewChild(e.NewCallSite("app", r.Intn(3), reg(regionNames[r.Intn(len(regionNames))])))
			buildCall(c, depth+1)
		}
	}
	root := e.NewCallRoot(e.NewCallSite("app", 0, reg("main")))
	buildCall(root, 1)
	e.Invalidate()

	np := 1 + r.Intn(4)
	nodes := 1 + r.Intn(2)
	e.SingleThreadedSystem("mach", nodes, np)

	for _, m := range e.Metrics() {
		for _, c := range e.CallNodes() {
			for _, th := range e.Threads() {
				if r.Intn(3) == 0 {
					v := math.Round(r.NormFloat64()*100) / 16 // dyadic values add exactly
					e.SetSeverity(m, c, th, v)
				}
			}
		}
	}
	return e
}

func quickCfg() *quick.Config {
	return &quick.Config{MaxCount: 120}
}

// Property: random experiments are valid, and every operator's output is a
// valid experiment again (closure).
func TestQuickClosure(t *testing.T) {
	f := func(seedA, seedB int64) bool {
		a := randomExperiment(rand.New(rand.NewSource(seedA)), "a")
		b := randomExperiment(rand.New(rand.NewSource(seedB)), "b")
		if a.Validate() != nil || b.Validate() != nil {
			return false
		}
		ops := []func() (*Experiment, error){
			func() (*Experiment, error) { return Difference(a, b, nil) },
			func() (*Experiment, error) { return Merge(a, b, nil) },
			func() (*Experiment, error) { return Mean(nil, a, b) },
			func() (*Experiment, error) { return Sum(nil, a, b) },
			func() (*Experiment, error) { return Min(nil, a, b) },
			func() (*Experiment, error) { return Max(nil, a, b) },
		}
		for _, op := range ops {
			out, err := op()
			if err != nil || out.Validate() != nil || !out.Derived {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

// Property: Diff(a, a) is severity-free and Mean/Merge of an experiment
// with itself reproduce the experiment's content.
func TestQuickSelfOperations(t *testing.T) {
	f := func(seed int64) bool {
		a := randomExperiment(rand.New(rand.NewSource(seed)), "a")
		d, err := Difference(a, a, nil)
		if err != nil || d.NonZeroCount() != 0 {
			return false
		}
		m, err := Mean(nil, a, a)
		if err != nil || m.Fingerprint() != a.Fingerprint() {
			return false
		}
		g, err := Merge(a, a, nil)
		if err != nil || g.Fingerprint() != a.Fingerprint() {
			return false
		}
		mn, err := Min(nil, a, a)
		if err != nil || mn.Fingerprint() != a.Fingerprint() {
			return false
		}
		return true
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

// Property: difference and sum are inverse: (a - b) + b has a's severities
// over the integrated metadata.
func TestQuickDifferenceSumInverse(t *testing.T) {
	f := func(seedA, seedB int64) bool {
		a := randomExperiment(rand.New(rand.NewSource(seedA)), "a")
		b := randomExperiment(rand.New(rand.NewSource(seedB)), "b")
		d, err := Difference(a, b, nil)
		if err != nil {
			return false
		}
		back, err := Sum(nil, d, b)
		if err != nil {
			return false
		}
		// a zero-extended over the integrated metadata: compare against
		// a merged with an empty-severity b.
		bZero := b.Clone()
		bZero.EachSeverity(func(m *Metric, c *CallNode, th *Thread, v float64) {})
		aExt, err := Sum(nil, a, scaleToZero(b))
		if err != nil {
			return false
		}
		return back.Fingerprint() == aExt.Fingerprint()
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

// scaleToZero returns a copy of e with all severities zeroed (metadata
// intact), used to express zero-extension in operator laws.
func scaleToZero(e *Experiment) *Experiment {
	c := e.Clone()
	out, err := Scale(c, 0, nil)
	if err != nil {
		panic(err)
	}
	return out
}

// Property: Mean is the Sum scaled by 1/n over identical operand lists.
func TestQuickMeanSumConsistency(t *testing.T) {
	f := func(seedA, seedB, seedC int64) bool {
		xs := []*Experiment{
			randomExperiment(rand.New(rand.NewSource(seedA)), "a"),
			randomExperiment(rand.New(rand.NewSource(seedB)), "b"),
			randomExperiment(rand.New(rand.NewSource(seedC)), "c"),
		}
		mean, err := Mean(nil, xs...)
		if err != nil {
			return false
		}
		sum, err := Sum(nil, xs...)
		if err != nil {
			return false
		}
		scaled, err := Scale(sum, 1.0/3, nil)
		if err != nil {
			return false
		}
		// Compare numerically (floating point: 1/3 is not dyadic).
		return severitiesClose(mean, scaled, 1e-9)
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

// severitiesClose compares two experiments with identical metadata
// structure tuple-by-tuple within eps.
func severitiesClose(a, b *Experiment, eps float64) bool {
	if len(a.Metrics()) != len(b.Metrics()) || len(a.CallNodes()) != len(b.CallNodes()) || len(a.Threads()) != len(b.Threads()) {
		return false
	}
	da, db := a.Dense(), b.Dense()
	for i := range da.Values {
		for j := range da.Values[i] {
			for k := range da.Values[i][j] {
				if math.Abs(da.Values[i][j][k]-db.Values[i][j][k]) > eps {
					return false
				}
			}
		}
	}
	return true
}

// Property: min <= mean <= max element-wise.
func TestQuickMinMeanMaxOrder(t *testing.T) {
	f := func(seedA, seedB int64) bool {
		a := randomExperiment(rand.New(rand.NewSource(seedA)), "a")
		b := randomExperiment(rand.New(rand.NewSource(seedB)), "b")
		mn, err1 := Min(nil, a, b)
		me, err2 := Mean(nil, a, b)
		mx, err3 := Max(nil, a, b)
		if err1 != nil || err2 != nil || err3 != nil {
			return false
		}
		dn, de, dx := mn.Dense(), me.Dense(), mx.Dense()
		for i := range dn.Values {
			for j := range dn.Values[i] {
				for k := range dn.Values[i][j] {
					lo, mid, hi := dn.Values[i][j][k], de.Values[i][j][k], dx.Values[i][j][k]
					if lo > mid+1e-9 || mid > hi+1e-9 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

// Property: Merge is associative in content: merge(merge(a,b),c) has the
// same severities as merge(a,b,c) (left-to-right preference both ways).
func TestQuickMergeAssociative(t *testing.T) {
	f := func(seedA, seedB, seedC int64) bool {
		a := randomExperiment(rand.New(rand.NewSource(seedA)), "a")
		b := randomExperiment(rand.New(rand.NewSource(seedB)), "b")
		c := randomExperiment(rand.New(rand.NewSource(seedC)), "c")
		ab, err := Merge(a, b, nil)
		if err != nil {
			return false
		}
		abc1, err := Merge(ab, c, nil)
		if err != nil {
			return false
		}
		abc2, err := MergeAll(nil, a, b, c)
		if err != nil {
			return false
		}
		return abc1.Fingerprint() == abc2.Fingerprint()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Property: Flatten preserves every metric's total and is idempotent;
// Prune preserves totals for any threshold.
func TestQuickFlattenPruneInvariants(t *testing.T) {
	f := func(seed int64, rawThreshold uint8) bool {
		a := randomExperiment(rand.New(rand.NewSource(seed)), "a")
		threshold := float64(rawThreshold) / 255
		fl, err := Flatten(a)
		if err != nil {
			return false
		}
		fl2, err := Flatten(fl)
		if err != nil || fl2.Fingerprint() != fl.Fingerprint() {
			return false
		}
		pr, err := Prune(a, a.MetricRoots()[0].Path(), threshold)
		if err != nil {
			return false
		}
		for i, root := range a.MetricRoots() {
			want := a.MetricInclusive(root)
			if math.Abs(fl.MetricInclusive(fl.MetricRoots()[i])-want) > 1e-9*(1+math.Abs(want)) {
				return false
			}
			if math.Abs(pr.MetricInclusive(pr.MetricRoots()[i])-want) > 1e-9*(1+math.Abs(want)) {
				return false
			}
		}
		return fl.Validate() == nil && pr.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Property: clones are fingerprint-identical and independent.
func TestQuickCloneFaithful(t *testing.T) {
	f := func(seed int64) bool {
		a := randomExperiment(rand.New(rand.NewSource(seed)), "a")
		c := a.Clone()
		if c.Fingerprint() != a.Fingerprint() {
			return false
		}
		if len(c.Threads()) > 0 && len(c.Metrics()) > 0 && len(c.CallNodes()) > 0 {
			c.SetSeverity(c.Metrics()[0], c.CallNodes()[0], c.Threads()[0], 12345)
			if a.Fingerprint() == c.Fingerprint() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

// Property: the kernel and the reference walk (ops_oracle_test.go) are
// observationally identical — for every operator, system-integration mode,
// and worker count, the results carry the same fingerprint. Severities are
// dyadic (see randomExperiment), so all sums are exact and fingerprint
// equality is the right notion of sameness. Runs under -race, which also
// exercises the sharded workers for data races.
//
// Every kernel result is also stored exact-size (cap == len for the
// block's keys and values), on the dense accumulator and — with padded
// call trees — on the sparse one: a cached result must occupy what
// ResidentBytes charges for it, not the operands' combined tuple count.
func TestQuickEngineEquivalence(t *testing.T) {
	systems := []SystemMode{SystemAuto, SystemCollapse, SystemCopyFirst}
	workerCounts := []int{1, 2, 4}
	sink := obs.NewEventSink(8)
	f := func(seedA, seedB int64, sysRaw, wRaw uint8, sparse bool) bool {
		a := randomExperiment(rand.New(rand.NewSource(seedA)), "a")
		b := randomExperiment(rand.New(rand.NewSource(seedB)), "b")
		if sparse {
			padCallTree(a, 1200)
			padCallTree(b, 1200)
		}
		sys := systems[int(sysRaw)%len(systems)]
		kernel := &Options{System: sys, Workers: workerCounts[int(wRaw)%len(workerCounts)]}
		legacy := &Options{System: sys}
		for op, run := range arithmeticOps {
			kernel.Event = sink.NewEvent("cli", "")
			k, errK := run(kernel, a, b)
			l, errL := oracle(op, legacy, a, b)
			if errK != nil || errL != nil {
				return false
			}
			if k.Fingerprint() != l.Fingerprint() {
				t.Logf("%s: kernel and oracle results differ", op)
				return false
			}
			want := "dense"
			switch {
			case op == "min" || op == "max" || op == "stddev": // the fold accumulator
				want = "fold"
			case sparse:
				want = "sparse"
			}
			if got := kernel.Event.Fields().Accumulator; got != want {
				t.Logf("%s: accumulator %q, want %q", op, got, want)
				return false
			}
			if !exactBlock(t, k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

// TestKernelSparseSortInPooledBuffer covers the sparse result whose radix
// sort ends in the pooled scratch buffer — one scatter pass, since every
// key fits one byte — while the pool holds a buffer sized for an earlier,
// larger sort. The result must still be stored exact-size, not as the
// pooled buffer's prefix.
func TestKernelSparseSortInPooledBuffer(t *testing.T) {
	build := func(title string, v float64) *Experiment {
		e := New(title)
		m := e.NewMetric("Time", Seconds, "")
		root := e.NewCallRoot(e.NewCallSite("app", 0, e.NewRegion("main", "app", 0, 0)))
		padCallTree(e, 1200)
		ths := e.SingleThreadedSystem("mach", 1, 4)
		for i, th := range ths {
			e.SetSeverity(m, root, th, v*float64(i+1))
			e.SetSeverity(m, root.Children()[0], th, 2*v*float64(i+1))
		}
		return e
	}
	a, b := build("a", 1), build("b", 0.25)
	// Lower the operands now, so the install is the only sort that can
	// take the primed buffer below.
	a.CompactSeverities()
	b.CompactSeverities()
	for _, op := range []func(o *Options) (*Experiment, error){
		func(o *Options) (*Experiment, error) { return Difference(a, b, o) },
		func(o *Options) (*Experiment, error) { return Mean(o, a, b) },
		func(o *Options) (*Experiment, error) { return Max(o, a, b) },
	} {
		// Enlarge the buffer the next Get on this P returns (the pool's
		// private slot is served before anything Put behind it).
		bufs := radixScratch.Get().(*radixBufs)
		bufs.k, bufs.v = make([]uint64, 1<<14), make([]float64, 1<<14)
		radixScratch.Put(bufs)
		ev := obs.NewEventSink(1).NewEvent("cli", "")
		out, err := op(&Options{Workers: 1, Event: ev})
		if err != nil {
			t.Fatal(err)
		}
		if acc := ev.Fields().Accumulator; acc == "dense" {
			t.Fatalf("fixture selects the dense accumulator; enlarge it")
		}
		blk := out.block
		if n := blk.len(); n < 2 || blk.key[n-1] > 0xff {
			t.Fatalf("fixture keys span more than one radix digit (%d keys, max %d)", n, blk.key[n-1])
		}
		exactBlock(t, out)
	}
}

// padCallTree appends n severity-free call nodes, each calling a region of
// its own, under e's first call root. They leave the severities alone but
// enlarge the integrated result domain until the kernel chooses its sparse
// accumulator.
func padCallTree(e *Experiment, n int) {
	root := e.CallRoots()[0]
	for i := 0; i < n; i++ {
		root.NewChild(e.NewCallSite("pad", i, e.NewRegion(fmt.Sprintf("pad%d", i), "pad", 0, 0)))
	}
	e.Invalidate()
}

// exactBlock reports whether e's columnar block has cap == len for both
// its keys and its values, failing t when not.
func exactBlock(t *testing.T, e *Experiment) bool {
	t.Helper()
	b := e.block
	if cap(b.key) != len(b.key) || cap(b.val) != len(b.val) {
		t.Errorf("%s: block keys len %d cap %d, values len %d cap %d; want cap == len",
			e.Title, len(b.key), cap(b.key), len(b.val), cap(b.val))
		return false
	}
	return true
}
