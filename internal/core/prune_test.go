package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// buildDeep: main{ heavy{ leaf }, light } with Time severities per thread:
// main=1, heavy=10, leaf=5, light=0.1 on 2 threads.
func buildDeep() *Experiment {
	e := New("deep")
	time := e.NewMetric("Time", Seconds, "")
	reg := func(n string) *Region { return e.NewRegion(n, "app", 0, 0) }
	root := e.NewCallRoot(e.NewCallSite("app", 0, reg("main")))
	heavy := root.NewChild(e.NewCallSite("app", 1, reg("heavy")))
	leaf := heavy.NewChild(e.NewCallSite("app", 2, reg("leaf")))
	light := root.NewChild(e.NewCallSite("app", 3, reg("light")))
	e.Invalidate()
	for _, th := range e.SingleThreadedSystem("m", 1, 2) {
		e.SetSeverity(time, root, th, 1)
		e.SetSeverity(time, heavy, th, 10)
		e.SetSeverity(time, leaf, th, 5)
		e.SetSeverity(time, light, th, 0.1)
	}
	return e
}

func TestPruneCollapsesLightSubtrees(t *testing.T) {
	e := buildDeep()
	total := e.MetricInclusive(e.FindMetricByName("Time")) // 32.2
	p, err := Prune(e, "Time", 0.05)                       // cut = 1.61
	if err != nil {
		t.Fatal(err)
	}
	if !p.Derived || p.Operation != "prune" {
		t.Errorf("provenance wrong")
	}
	// light (0.2 inclusive) collapses into main; heavy (30) and leaf (10)
	// survive.
	if p.FindCallNode("main/light") != nil {
		t.Errorf("light subtree survived")
	}
	if p.FindCallNode("main/heavy/leaf") == nil {
		t.Errorf("heavy/leaf pruned although above threshold")
	}
	// Totals preserved: light's severity re-attributed to main.
	if got := p.MetricInclusive(p.FindMetricByName("Time")); math.Abs(got-total) > 1e-12 {
		t.Errorf("prune changed the total: %v vs %v", got, total)
	}
	time := p.FindMetricByName("Time")
	main := p.FindCallNode("main")
	if got := p.MetricValue(time, main); math.Abs(got-2.2) > 1e-12 {
		t.Errorf("main after collapse = %v, want 2.2 (1+0.1 per thread)", got)
	}
	if err := p.Validate(); err != nil {
		t.Errorf("pruned experiment invalid: %v", err)
	}
	// Operand untouched.
	if e.FindCallNode("main/light") == nil {
		t.Errorf("prune mutated its operand")
	}
}

func TestPruneHighThresholdKeepsRoots(t *testing.T) {
	e := buildDeep()
	p, err := Prune(e, "Time", 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.CallRoots()) != 1 || len(p.CallRoots()[0].Children()) != 0 {
		t.Errorf("threshold 1.0 should collapse everything into the root")
	}
	total := e.MetricInclusive(e.FindMetricByName("Time"))
	if got := p.MetricInclusive(p.FindMetricByName("Time")); math.Abs(got-total) > 1e-12 {
		t.Errorf("total changed: %v vs %v", got, total)
	}
}

func TestPruneZeroThresholdIsIdentity(t *testing.T) {
	e := buildDeep()
	p, err := Prune(e, "Time", 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Fingerprint() != e.Fingerprint() {
		t.Errorf("threshold 0 must not change the experiment")
	}
}

func TestPruneNegativeSeverities(t *testing.T) {
	// Prune of a difference experiment uses magnitudes.
	a := buildDeep()
	b := buildDeep()
	b.SetSeverity(b.FindMetricByName("Time"), b.FindCallNode("main/heavy"), b.Threads()[0], 30)
	d, err := Difference(a, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Prune(d, "Time", 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if p.FindCallNode("main/heavy") == nil {
		t.Errorf("large negative subtree pruned (magnitude must count)")
	}
	if err := p.Validate(); err != nil {
		t.Errorf("invalid: %v", err)
	}
}

func TestPruneErrors(t *testing.T) {
	e := buildDeep()
	if _, err := Prune(e, "Nope", 0.1); err == nil {
		t.Errorf("unknown metric accepted")
	}
	if _, err := Prune(e, "Time", -0.1); err == nil {
		t.Errorf("negative threshold accepted")
	}
	if _, err := Prune(e, "Time", 1.5); err == nil {
		t.Errorf("threshold > 1 accepted")
	}
}

// pruneOracle is Prune's former algorithm, kept as the reference for
// TestQuickPruneMatchesOracle: absIncl re-walks every subtree through
// MetricValue for every node it decides, and collapsed severities are
// re-attributed tuple by tuple through AddSeverity.
func pruneOracle(x *Experiment, metricPath string, threshold float64) (*Experiment, error) {
	in, err := integrate(nil, x)
	if err != nil {
		return nil, err
	}
	out := in.out
	sel := out.FindMetric(metricPath)
	var metrics []*Metric
	sel.Walk(func(m *Metric) { metrics = append(metrics, m) })
	in.ensureMaps()
	mf, cf, tf := in.metricFrom[0], in.cnodeFrom[0], in.threadFrom[0]
	x.EachSeverity(func(m *Metric, c *CallNode, t *Thread, v float64) {
		out.AddSeverity(mf[m], cf[c], tf[t], v)
	})
	absIncl := func(c *CallNode) float64 {
		var s float64
		c.Walk(func(d *CallNode) {
			for _, m := range metrics {
				s += math.Abs(out.MetricValue(m, d))
			}
		})
		return s
	}
	var total float64
	for _, r := range out.CallRoots() {
		total += absIncl(r)
	}
	cut := threshold * total
	type tuple struct {
		m *Metric
		c *CallNode
		t *Thread
		v float64
	}
	var tuples []tuple
	out.EachSeverity(func(m *Metric, c *CallNode, t *Thread, v float64) { tuples = append(tuples, tuple{m, c, t, v}) })

	target := map[*CallNode]*CallNode{} // pruned node -> kept ancestor
	var walk func(n *CallNode, keptAncestor *CallNode)
	walk = func(n *CallNode, keptAncestor *CallNode) {
		if keptAncestor != nil && absIncl(n) < cut {
			n.Walk(func(d *CallNode) { target[d] = keptAncestor })
			return
		}
		var survivors []*CallNode
		for _, c := range n.children {
			walk(c, n)
			if target[c] == nil {
				survivors = append(survivors, c)
			}
		}
		n.children = survivors
	}
	for _, r := range out.CallRoots() {
		walk(r, nil)
	}
	out.block = &sevBlock{nC: 1, nT: 1}
	out.Invalidate()
	for _, tp := range tuples {
		c := tp.c
		if tgt := target[c]; tgt != nil {
			c = tgt
		}
		out.AddSeverity(tp.m, c, tp.t, tp.v)
	}
	return out, nil
}

// Property: Prune, with its one exclusive and one inclusive pass, keeps
// the same call nodes and severities as the former re-walking algorithm,
// on random trees with negative severities (plain and difference
// operands), at thresholds 0, 1 and in between.
func TestQuickPruneMatchesOracle(t *testing.T) {
	f := func(seedA, seedB int64, pick uint8, thRaw uint16) bool {
		a := randomExperiment(rand.New(rand.NewSource(seedA)), "a")
		b := randomExperiment(rand.New(rand.NewSource(seedB)), "b")
		d, err := Difference(a, b, nil)
		if err != nil {
			return false
		}
		for _, x := range []*Experiment{a, d} {
			path := x.Metrics()[int(pick)%len(x.Metrics())].Path()
			for _, th := range []float64{0, 1, float64(thRaw) / math.MaxUint16} {
				got, err1 := Prune(x, path, th)
				want, err2 := pruneOracle(x, path, th)
				if err1 != nil || err2 != nil {
					t.Logf("prune %s at %g: %v / %v", path, th, err1, err2)
					return false
				}
				if got.Fingerprint() != want.Fingerprint() {
					t.Logf("prune %s at %g differs from the oracle:\n%s\nwant\n%s", path, th, got.Fingerprint(), want.Fingerprint())
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}
