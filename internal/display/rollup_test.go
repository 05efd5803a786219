package display

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"cube/internal/core"
)

// randomRun builds a sealed experiment with a forest of one to three metric
// trees (mixed units), a forest of zero to three call trees (zero: no call
// tree at all), one or two machines of one or two nodes whose processes run
// one to three threads, a Cartesian topology over the ranks, and about half
// of all tuples set to values of either sign (difference operands) and of
// magnitudes far enough apart that the order of additions shows in the bits.
func randomRun(rng *rand.Rand) *core.Experiment {
	e := core.New("random")
	units := []core.Unit{core.Seconds, core.Occurrences, core.Bytes}
	var metrics []*core.Metric
	for r := 0; r < 1+rng.Intn(3); r++ {
		tree := []*core.Metric{e.NewMetric(fmt.Sprintf("M%d", r), units[rng.Intn(len(units))], "")}
		for i := rng.Intn(6); i > 0; i-- {
			tree = append(tree, tree[rng.Intn(len(tree))].NewChild(fmt.Sprintf("M%d.%d", r, len(tree)), ""))
		}
		metrics = append(metrics, tree...)
	}
	var cnodes []*core.CallNode
	for r := 0; r < rng.Intn(4); r++ {
		site := func(name string) *core.CallSite {
			return e.NewCallSite("app", len(cnodes), e.NewRegion(name, "app", 0, 0))
		}
		tree := []*core.CallNode{e.NewCallRoot(site(fmt.Sprintf("c%d", r)))}
		for i := rng.Intn(7); i > 0; i-- {
			tree = append(tree, tree[rng.Intn(len(tree))].NewChild(site(fmt.Sprintf("c%d.%d", r, len(tree)))))
		}
		cnodes = append(cnodes, tree...)
	}
	var threads []*core.Thread
	rank := 0
	for mi := 0; mi < 1+rng.Intn(2); mi++ {
		mach := e.NewMachine(fmt.Sprintf("mach%d", mi))
		for ni := 0; ni < 1+rng.Intn(2); ni++ {
			nd := mach.NewNode(fmt.Sprintf("node%d", ni))
			for pi := 0; pi < 1+rng.Intn(3); pi++ {
				p := nd.NewProcess(rank, fmt.Sprintf("rank %d", rank))
				rank++
				for ti := 0; ti < 1+rng.Intn(3); ti++ {
					threads = append(threads, p.NewThread(ti, ""))
				}
			}
		}
	}
	e.Invalidate()
	dims := []int{rank}
	if d := 1 + rng.Intn(rank); rank%d == 0 {
		dims = []int{d, rank / d}
		if rng.Intn(2) == 0 {
			dims = []int{1, d, rank / d}
		}
	}
	topo, err := core.NewCartesian("grid", dims...)
	if err != nil {
		panic(err)
	}
	e.SetTopology(topo)
	for _, m := range metrics {
		for _, c := range cnodes {
			for _, th := range threads {
				if rng.Intn(2) == 0 {
					e.SetSeverity(m, c, th, (2*rng.Float64()-1)*math.Pow(10, float64(rng.Intn(9)-4)))
				}
			}
		}
	}
	e.CompactSeverities()
	return e
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestRollupMatchesOracle checks the roll-up against the per-node walks it
// replaced, for every metric and call-node selection (none included) in
// both collapse states: the vectors, every call label and the total bit for
// bit, and the three-tree, hotspot and topology renderings byte for byte.
func TestRollupMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for run := 0; run < 30; run++ {
		e := randomRun(rng)
		calls := append([]*core.CallNode{nil}, e.CallNodes()...)
		collapsed := map[string]bool{}
		for _, c := range e.CallNodes() {
			if rng.Intn(4) == 0 {
				collapsed[c.Path()] = true
			}
		}
		cfgs := []*Config{
			nil,
			{Mode: Percent, HideZero: true},
			{Mode: External, Base: 1 + rng.Float64(), Collapsed: collapsed},
		}
		for _, m := range e.Metrics() {
			for _, c := range calls {
				for _, mc := range []bool{false, true} {
					for _, cc := range []bool{false, true} {
						sel := Selection{Metric: m, MetricCollapsed: mc, CNode: c, CNodeCollapsed: cc}
						checkRollup(t, e, sel)
						checkRenderings(t, e, sel, cfgs)
						if t.Failed() {
							t.Fatalf("run %d, selection %s (collapsed %v) at %v (collapsed %v)", run, m.Path(), mc, c, cc)
						}
					}
				}
			}
		}
	}
}

func checkRollup(t *testing.T, e *core.Experiment, sel Selection) {
	t.Helper()
	v := NewRollup(e, sel)
	for i, c := range e.CallNodes() {
		if want := selMetricValue(e, sel, c); !sameBits(v.ByCall[i], want) {
			t.Errorf("ByCall[%s] = %v, oracle %v", c.Path(), v.ByCall[i], want)
		}
		for _, col := range []bool{false, true} {
			if got, want := v.Call(c, col), callLabel(e, sel, c, col); !sameBits(got, want) {
				t.Errorf("Call(%s, %v) = %v, oracle %v", c.Path(), col, got, want)
			}
		}
	}
	for i, th := range e.Threads() {
		if want := threadValue(e, sel, th); !sameBits(v.ByThread[i], want) {
			t.Errorf("ByThread[%v] = %v, oracle %v", th, v.ByThread[i], want)
		}
	}
	if got, want := v.Total(), selectedTotal(e, sel); !sameBits(got, want) {
		t.Errorf("Total = %v, oracle %v", got, want)
	}
}

func checkRenderings(t *testing.T, e *core.Experiment, sel Selection, cfgs []*Config) {
	t.Helper()
	for _, cfg := range cfgs {
		got, err := RenderString(e, sel, cfg)
		want, werr := renderOracle(e, sel, cfg)
		if err != nil || werr != nil || got != want {
			t.Errorf("Render (cfg %+v) differs from the oracle (errors %v, %v):\n%s\noracle:\n%s", cfg, err, werr, got, want)
		}
		for _, n := range []int{0, 3} {
			got, err := HotspotsString(e, sel, cfg, n)
			if want := hotspotsStringOracle(e, sel, cfg, n); err != nil || got != want {
				t.Errorf("HotspotsString(%d) differs from the oracle (error %v):\n%s\noracle:\n%s", n, err, got, want)
			}
		}
	}
	got, err := RenderTopologyString(e, sel, nil)
	var want strings.Builder
	werr := renderTopologyOracle(&want, e, sel)
	if err != nil || werr != nil || got != want.String() {
		t.Errorf("RenderTopology differs from the oracle (errors %v, %v):\n%s\noracle:\n%s", err, werr, got, want.String())
	}
}
