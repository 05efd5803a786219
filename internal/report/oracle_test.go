package report

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"

	"cube/internal/core"
	"cube/internal/display"
)

// The per-node walks the display read before the roll-up, and Write over
// them: the oracle Write is checked against byte for byte. The hotspot
// ranking is display.Hotspots in both; the display package checks it
// against its own oracle.

func selMetricValue(e *core.Experiment, sel display.Selection, c *core.CallNode) float64 {
	if !sel.MetricCollapsed {
		return e.MetricValue(sel.Metric, c)
	}
	var s float64
	sel.Metric.Walk(func(d *core.Metric) { s += e.MetricValue(d, c) })
	return s
}

func callLabel(e *core.Experiment, sel display.Selection, c *core.CallNode, collapsed bool) float64 {
	if !collapsed {
		return selMetricValue(e, sel, c)
	}
	var s float64
	c.Walk(func(d *core.CallNode) { s += selMetricValue(e, sel, d) })
	return s
}

// threadValue reads one severity per (metric, call node) of the selection
// at thread t; a nil call node selects nothing.
func threadValue(e *core.Experiment, sel display.Selection, t *core.Thread) float64 {
	var metrics []*core.Metric
	if sel.MetricCollapsed {
		sel.Metric.Walk(func(d *core.Metric) { metrics = append(metrics, d) })
	} else {
		metrics = []*core.Metric{sel.Metric}
	}
	var cnodes []*core.CallNode
	if sel.CNodeCollapsed && sel.CNode != nil {
		sel.CNode.Walk(func(d *core.CallNode) { cnodes = append(cnodes, d) })
	} else {
		cnodes = []*core.CallNode{sel.CNode}
	}
	var s float64
	for _, m := range metrics {
		for _, c := range cnodes {
			s += e.Severity(m, c, t)
		}
	}
	return s
}

func selectedTotal(e *core.Experiment, sel display.Selection) float64 {
	var s float64
	for _, t := range e.Threads() {
		s += threadValue(e, sel, t)
	}
	return s
}

func writeOracle(w io.Writer, e *core.Experiment, opts *Options) error {
	var o Options
	if opts != nil {
		o = *opts
	}
	sel := o.Selection
	if sel.Metric == nil {
		if len(e.MetricRoots()) == 0 {
			return fmt.Errorf("report: experiment has no metrics")
		}
		sel.Metric = e.MetricRoots()[0]
		sel.MetricCollapsed = true
	}
	if sel.CNode == nil && len(e.CallRoots()) > 0 {
		sel.CNode = e.CallRoots()[0]
		sel.CNodeCollapsed = true
	}
	if o.TopN <= 0 {
		o.TopN = 10
	}

	m := &model{
		Title:      e.Title,
		Derived:    e.Derived,
		Operation:  e.Operation,
		Parents:    e.Parents,
		MetricName: sel.Metric.Name,
		Selected:   selectedTotal(e, sel),
		Unit:       string(sel.Metric.Unit),
	}

	// Metric trees: expanded semantics (exclusive values), bar scaled per
	// root.
	for _, root := range e.MetricRoots() {
		base := math.Abs(e.MetricInclusive(root))
		var build func(x *core.Metric) *node
		build = func(x *core.Metric) *node {
			v := display.MetricLabel(e, x, len(x.Children()) == 0)
			n := &node{Label: x.Name, Value: v, Negative: v < 0, Selected: x == sel.Metric}
			if base > 0 {
				n.Percent = 100 * math.Abs(v) / base
			}
			for _, c := range x.Children() {
				n.Children = append(n.Children, build(c))
			}
			return n
		}
		m.Metrics = append(m.Metrics, build(root))
	}

	// Call trees for the selected metric.
	callBase := math.Abs(e.MetricInclusive(sel.Metric.Root()))
	for _, root := range e.CallRoots() {
		var build func(x *core.CallNode) *node
		build = func(x *core.CallNode) *node {
			v := callLabel(e, sel, x, len(x.Children()) == 0)
			n := &node{Label: x.Callee().Name, Value: v, Negative: v < 0, Selected: x == sel.CNode}
			if callBase > 0 {
				n.Percent = 100 * math.Abs(v) / callBase
			}
			for _, c := range x.Children() {
				n.Children = append(n.Children, build(c))
			}
			return n
		}
		m.Calls = append(m.Calls, build(root))
	}

	// System tree for the selection.
	for _, mach := range e.Machines() {
		mn := &node{Label: "machine " + mach.Name}
		for _, nd := range mach.Nodes() {
			nn := &node{Label: "node " + nd.Name}
			for _, p := range nd.Processes() {
				pv := 0.0
				pn := &node{Label: p.String()}
				for _, th := range p.Threads() {
					tv := threadValue(e, sel, th)
					pv += tv
					if len(p.Threads()) > 1 {
						tn := &node{Label: fmt.Sprintf("thread %d", th.ID), Value: tv, Negative: tv < 0}
						if callBase > 0 {
							tn.Percent = 100 * math.Abs(tv) / callBase
						}
						pn.Children = append(pn.Children, tn)
					}
				}
				pn.Value = pv
				pn.Negative = pv < 0
				if callBase > 0 {
					pn.Percent = 100 * math.Abs(pv) / callBase
				}
				nn.Children = append(nn.Children, pn)
				nn.Value += pv
			}
			nn.Negative = nn.Value < 0
			if callBase > 0 {
				nn.Percent = 100 * math.Abs(nn.Value) / callBase
			}
			mn.Children = append(mn.Children, nn)
			mn.Value += nn.Value
		}
		mn.Negative = mn.Value < 0
		if callBase > 0 {
			mn.Percent = 100 * math.Abs(mn.Value) / callBase
		}
		m.System = append(m.System, mn)
	}

	// Topology heat map (2D only; other arities are skipped).
	if topo := e.Topology(); topo != nil && len(topo.Dims) == 2 {
		m.TopoDims = fmt.Sprintf("%v", topo.Dims)
		perRank := map[int]float64{}
		var maxAbs float64
		for _, p := range e.Processes() {
			var v float64
			for _, th := range p.Threads() {
				v += threadValue(e, sel, th)
			}
			perRank[p.Rank] = v
			if a := math.Abs(v); a > maxAbs {
				maxAbs = a
			}
		}
		for y := 0; y < topo.Dims[0]; y++ {
			var row []topoCell
			for x := 0; x < topo.Dims[1]; x++ {
				rank := topo.RankAt(y, x)
				cell := topoCell{Label: "·"}
				if rank >= 0 {
					v := perRank[rank]
					cell.Label = fmt.Sprintf("%d", rank)
					cell.Value = v
					if maxAbs > 0 {
						cell.Percent = 100 * math.Abs(v) / maxAbs
					}
				}
				row = append(row, cell)
			}
			m.TopoRows = append(m.TopoRows, row)
		}
	}

	for i, h := range display.Hotspots(e, sel, o.TopN) {
		m.Hotspots = append(m.Hotspots, hotspotRow{
			Rank: i + 1, Metric: h.Metric.Name, Path: h.CNode.Path(), Value: h.Value,
		})
	}

	return tmpl.Execute(w, m)
}

// randomRun builds a sealed experiment with one or two metric trees, zero
// to two call trees, multi-threaded processes on one or two machines, a
// 2D topology over the ranks, and values of either sign and of magnitudes
// far apart, so the order of additions shows in the printed digits.
func randomRun(rng *rand.Rand) *core.Experiment {
	e := core.New("random")
	var metrics []*core.Metric
	for r := 0; r < 1+rng.Intn(2); r++ {
		tree := []*core.Metric{e.NewMetric(fmt.Sprintf("M%d", r), core.Seconds, "")}
		for i := rng.Intn(5); i > 0; i-- {
			tree = append(tree, tree[rng.Intn(len(tree))].NewChild(fmt.Sprintf("M%d.%d", r, len(tree)), ""))
		}
		metrics = append(metrics, tree...)
	}
	var cnodes []*core.CallNode
	for r := 0; r < rng.Intn(3); r++ {
		tree := []*core.CallNode{e.NewCallRoot(e.NewCallSite("app", 0, e.NewRegion(fmt.Sprintf("c%d", r), "app", 0, 0)))}
		for i := rng.Intn(6); i > 0; i-- {
			site := e.NewCallSite("app", i, e.NewRegion(fmt.Sprintf("c%d.%d", r, len(tree)), "app", 0, 0))
			tree = append(tree, tree[rng.Intn(len(tree))].NewChild(site))
		}
		cnodes = append(cnodes, tree...)
	}
	var threads []*core.Thread
	rank := 0
	for mi := 0; mi < 1+rng.Intn(2); mi++ {
		mach := e.NewMachine(fmt.Sprintf("mach%d", mi))
		for ni := 0; ni < 1+rng.Intn(2); ni++ {
			nd := mach.NewNode(fmt.Sprintf("node%d", ni))
			for pi := 0; pi < 1+rng.Intn(2); pi++ {
				p := nd.NewProcess(rank, fmt.Sprintf("rank %d", rank))
				rank++
				for ti := 0; ti < 1+rng.Intn(3); ti++ {
					threads = append(threads, p.NewThread(ti, ""))
				}
			}
		}
	}
	e.Invalidate()
	topo, err := core.NewCartesian("grid", 1, rank)
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

// TestWriteMatchesOracle checks Write against writeOracle for every metric
// and call-node selection (none included) in both collapse states.
func TestWriteMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for run := 0; run < 20; run++ {
		e := randomRun(rng)
		calls := append([]*core.CallNode{nil}, e.CallNodes()...)
		for _, m := range e.Metrics() {
			for _, c := range calls {
				for _, mc := range []bool{false, true} {
					for _, cc := range []bool{false, true} {
						opts := &Options{Selection: display.Selection{Metric: m, MetricCollapsed: mc, CNode: c, CNodeCollapsed: cc}}
						got, err := WriteString(e, opts)
						var want strings.Builder
						werr := writeOracle(&want, e, opts)
						if err != nil || werr != nil || got != want.String() {
							t.Fatalf("run %d, %s (collapsed %v) at %v (collapsed %v): Write differs from the oracle (errors %v, %v):\n%s\noracle:\n%s",
								run, m.Path(), mc, c, cc, err, werr, got, want.String())
						}
					}
				}
			}
		}
	}
}
