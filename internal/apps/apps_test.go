package apps

import (
	"testing"

	"cube/internal/core"
	"cube/internal/expert"
	"cube/internal/mpisim"
	"cube/internal/trace"
)

func TestPescanDefaults(t *testing.T) {
	c := PescanConfig{}.WithDefaults()
	if c.NP != 16 || c.Nodes != 4 || c.Iterations == 0 || c.ImbalanceSec == 0 {
		t.Errorf("defaults incomplete: %+v", c)
	}
	// Explicit values survive.
	c2 := PescanConfig{NP: 8, Iterations: 3}.WithDefaults()
	if c2.NP != 8 || c2.Iterations != 3 {
		t.Errorf("explicit values overridden: %+v", c2)
	}
}

func TestPescanImbalanceShape(t *testing.T) {
	c := PescanConfig{}.WithDefaults()
	if c.imbalance(0) != 0 {
		t.Errorf("rank 0 must have zero displacement")
	}
	if c.imbalance(c.NP-1) != c.ImbalanceSec {
		t.Errorf("last rank must have full displacement")
	}
	if got := (PescanConfig{NP: 1}).WithDefaults(); got.imbalance(0) != 0 {
		t.Errorf("single-rank imbalance must be zero")
	}
}

func TestPescanRunsAndValidates(t *testing.T) {
	for _, barriers := range []bool{true, false} {
		run, err := RunPescan(PescanConfig{Barriers: barriers, Seed: 1, Iterations: 5})
		if err != nil {
			t.Fatalf("barriers=%v: %v", barriers, err)
		}
		if err := run.Trace.Validate(); err != nil {
			t.Fatalf("barriers=%v trace invalid: %v", barriers, err)
		}
		// Barrier events present iff the variant has barriers.
		hasBarrier := false
		for _, ev := range run.Trace.Events {
			if ev.Coll == trace.CollBarrier {
				hasBarrier = true
			}
		}
		if hasBarrier != barriers {
			t.Errorf("barriers=%v but trace barrier presence = %v", barriers, hasBarrier)
		}
	}
}

func TestPescanBarrierVersionIsSlower(t *testing.T) {
	b, err := RunPescan(PescanConfig{Barriers: true, Seed: 2, Iterations: 10})
	if err != nil {
		t.Fatal(err)
	}
	n, err := RunPescan(PescanConfig{Barriers: false, Seed: 2, Iterations: 10})
	if err != nil {
		t.Fatal(err)
	}
	if b.Elapsed <= n.Elapsed {
		t.Errorf("barrier version must be slower: %v vs %v", b.Elapsed, n.Elapsed)
	}
	speedup := (b.Elapsed - n.Elapsed) / b.Elapsed
	if speedup < 0.08 || speedup > 0.30 {
		t.Errorf("speedup %.1f%% outside the plausible band", 100*speedup)
	}
}

func TestPescanWaitMigration(t *testing.T) {
	analyze := func(barriers bool) map[string]float64 {
		run, err := RunPescan(PescanConfig{Barriers: barriers, Seed: 3, Iterations: 10})
		if err != nil {
			t.Fatal(err)
		}
		e, err := expert.Analyze(run.Trace, nil)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]float64{}
		for _, m := range []string{expert.MetricWaitAtBarrier, expert.MetricWaitAtNxN, expert.MetricLateSender} {
			out[m] = e.MetricTotal(e.FindMetricByName(m))
		}
		return out
	}
	with := analyze(true)
	without := analyze(false)
	if with[expert.MetricWaitAtBarrier] <= 0 {
		t.Errorf("barrier version has no barrier waiting")
	}
	if without[expert.MetricWaitAtBarrier] != 0 {
		t.Errorf("barrier-free version reports barrier waiting")
	}
	// Waiting migrates: NxN and late-sender waiting increase.
	if without[expert.MetricWaitAtNxN] <= with[expert.MetricWaitAtNxN] {
		t.Errorf("Wait-at-NxN did not increase: %v -> %v",
			with[expert.MetricWaitAtNxN], without[expert.MetricWaitAtNxN])
	}
	if without[expert.MetricLateSender] <= with[expert.MetricLateSender] {
		t.Errorf("Late Sender did not increase: %v -> %v",
			with[expert.MetricLateSender], without[expert.MetricLateSender])
	}
}

func TestSweep3DDefaultsAndGrid(t *testing.T) {
	c := Sweep3DConfig{}.WithDefaults()
	if c.PX*c.PY != 16 || c.Octants != 8 {
		t.Errorf("defaults: %+v", c)
	}
	run, err := RunSweep3D(Sweep3DConfig{Seed: 1, Octants: 2, Blocks: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := run.Trace.Validate(); err != nil {
		t.Fatalf("trace invalid: %v", err)
	}
	if run.Trace.NumRanks != 16 {
		t.Errorf("ranks = %d", run.Trace.NumRanks)
	}
}

func TestSweep3DDeterministicPerSeed(t *testing.T) {
	a, err := RunSweep3D(Sweep3DConfig{Seed: 9, NoiseAmp: 0.05, Octants: 2, Blocks: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSweep3D(Sweep3DConfig{Seed: 9, NoiseAmp: 0.05, Octants: 2, Blocks: 2})
	if err != nil {
		t.Fatal(err)
	}
	if a.Elapsed != b.Elapsed {
		t.Errorf("same seed, different elapsed")
	}
	c, err := RunSweep3D(Sweep3DConfig{Seed: 10, NoiseAmp: 0.05, Octants: 2, Blocks: 2})
	if err != nil {
		t.Fatal(err)
	}
	if c.Elapsed == a.Elapsed {
		t.Errorf("different seed, identical elapsed")
	}
}

func TestSweep3DTopology(t *testing.T) {
	c := Sweep3DConfig{}.WithDefaults()
	topo := Sweep3DTopology(c)
	if len(topo.Dims) != 2 || topo.Dims[0] != c.PY || topo.Dims[1] != c.PX {
		t.Fatalf("dims = %v, want [%d %d]", topo.Dims, c.PY, c.PX)
	}
	// rank = iy*PX + ix.
	if topo.RankAt(2, 3) != 2*c.PX+3 {
		t.Errorf("RankAt(2,3) = %d", topo.RankAt(2, 3))
	}
	if len(topo.Coords) != c.PX*c.PY {
		t.Errorf("coords = %d", len(topo.Coords))
	}
}

func TestHybridDefaultsAndRun(t *testing.T) {
	c := HybridConfig{}.WithDefaults()
	if c.NP != 4 || c.Threads != 4 || c.Iterations == 0 || c.ThreadImbalance == 0 {
		t.Errorf("defaults incomplete: %+v", c)
	}
	c2 := HybridConfig{NP: 2, Threads: 3, Iterations: 2}.WithDefaults()
	if c2.NP != 2 || c2.Threads != 3 || c2.Iterations != 2 {
		t.Errorf("explicit values overridden")
	}
	run, err := RunHybrid(HybridConfig{Seed: 1, Iterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := run.Trace.Validate(); err != nil {
		t.Fatalf("hybrid trace invalid: %v", err)
	}
	per := run.Trace.ThreadsPerRank()
	for rank, n := range per {
		if n != 4 {
			t.Errorf("rank %d threads = %d, want 4", rank, n)
		}
	}
}

func TestHybridSingleThreadDegenerate(t *testing.T) {
	run, err := RunHybrid(HybridConfig{Threads: 1, Iterations: 2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := run.Trace.Validate(); err != nil {
		t.Fatalf("single-thread hybrid invalid: %v", err)
	}
}

func TestSweep3DGridMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("grid mismatch did not panic")
		}
	}()
	cfg := Sweep3DConfig{PX: 3, PY: 3}.WithDefaults()
	sim := Sweep3DSimConfig(cfg)
	sim.NumRanks = 7 // does not match 3x3
	_, _ = mpisim.Simulate(sim, Sweep3D(cfg))
}

func TestPescanSimConfigVariantNames(t *testing.T) {
	if got := PescanSimConfig(PescanConfig{Barriers: true}).Program; got != "pescan-barrier" {
		t.Errorf("program = %q", got)
	}
	if got := PescanSimConfig(PescanConfig{}).Program; got != "pescan-nobarrier" {
		t.Errorf("program = %q", got)
	}
	if PescanSimConfig(PescanConfig{}).BarrierCost == 0 {
		t.Errorf("barrier cost not forwarded")
	}
}

func TestMasterWorkerWrongOrder(t *testing.T) {
	run, err := RunMasterWorker(MasterWorkerConfig{Seed: 1, Batches: 6})
	if err != nil {
		t.Fatal(err)
	}
	if err := run.Trace.Validate(); err != nil {
		t.Fatalf("trace invalid: %v", err)
	}
	e, err := expert.Analyze(run.Trace, nil)
	if err != nil {
		t.Fatal(err)
	}
	wrong := e.MetricInclusive(e.FindMetricByName(expert.MetricWrongOrder))
	if wrong <= 0 {
		t.Errorf("master/worker collection produced no wrong-order waiting")
	}
	// All wrong-order waiting sits on the master's collect path.
	m := e.FindMetricByName(expert.MetricWrongOrder)
	for _, cn := range e.CallNodes() {
		if v := e.MetricValue(m, cn); v > 0 && cn.Parent() != nil && cn.Parent().Callee().Name != "collect" {
			t.Errorf("wrong-order waiting at unexpected path %s", cn.Path())
		}
	}
	// Star-shaped communication: only rank 0 exchanges with workers.
	cm := run.Trace.BuildCommMatrix()
	for src := 1; src < cm.NumRanks; src++ {
		for dst := 1; dst < cm.NumRanks; dst++ {
			if cm.Messages[src][dst] != 0 {
				t.Errorf("worker-to-worker traffic %d->%d", src, dst)
			}
		}
		if cm.Messages[src][0] == 0 || cm.Messages[0][src] == 0 {
			t.Errorf("missing master traffic for worker %d", src)
		}
	}
}

func TestMasterWorkerDefaults(t *testing.T) {
	c := MasterWorkerConfig{}.WithDefaults()
	if c.NP != 8 || c.Batches != 10 || c.Skew == 0 {
		t.Errorf("defaults incomplete: %+v", c)
	}
	if MasterWorkerSimConfig(MasterWorkerConfig{}).Program != "masterworker" {
		t.Errorf("program name wrong")
	}
}

func TestSweep3DPipelineFill(t *testing.T) {
	// The corner rank opposite the sweep origin must experience
	// late-sender waiting during pipeline fill.
	run, err := RunSweep3D(Sweep3DConfig{Seed: 4, Octants: 1, Blocks: 3})
	if err != nil {
		t.Fatal(err)
	}
	e, err := expert.Analyze(run.Trace, nil)
	if err != nil {
		t.Fatal(err)
	}
	ls := e.FindMetricByName(expert.MetricLateSender)
	lsIncl := e.MetricInclusive(ls)
	if lsIncl <= 0 {
		t.Fatalf("no late-sender waiting in a wavefront sweep")
	}
	// Rank 15 (far corner for octant 0) waits more than rank 0 (origin).
	far := threadTotal(e, ls, e.FindThread(15, 0))
	near := threadTotal(e, ls, e.FindThread(0, 0))
	wrong := e.FindMetricByName(expert.MetricWrongOrder)
	far += threadTotal(e, wrong, e.FindThread(15, 0))
	near += threadTotal(e, wrong, e.FindThread(0, 0))
	if far <= near {
		t.Errorf("pipeline fill: far corner %v should wait more than origin %v", far, near)
	}
}

// threadTotal returns metric m's severity at thread t over every call path:
// the roll-up of each call tree, collapsed.
func threadTotal(e *core.Experiment, m *core.Metric, t *core.Thread) float64 {
	ti, _ := e.ThreadIndex(t)
	var s float64
	for _, root := range e.CallRoots() {
		_, byThread := e.RollUp(m, false, root, true)
		s += byThread[ti]
	}
	return s
}
