package display

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"cube/internal/core"
)

// The display's per-node walks from before the roll-up: one Severity read
// or row sum per (metric, call node, thread) of the selection. They and the
// renderers built on them are the oracle Rollup and the renderers are
// checked against, bit for bit and byte for byte.

// selMetricValue returns the severity at call node c (exclusive along the
// call tree) for the metric selection.
func selMetricValue(e *core.Experiment, sel Selection, c *core.CallNode) float64 {
	if !sel.MetricCollapsed {
		return e.MetricValue(sel.Metric, c)
	}
	var s float64
	sel.Metric.Walk(func(d *core.Metric) { s += e.MetricValue(d, c) })
	return s
}

// callLabel returns the value shown at a call-tree node: exclusive when
// expanded, inclusive over the call subtree when collapsed.
func callLabel(e *core.Experiment, sel Selection, c *core.CallNode, collapsed bool) float64 {
	if !collapsed {
		return selMetricValue(e, sel, c)
	}
	var s float64
	c.Walk(func(d *core.CallNode) { s += selMetricValue(e, sel, d) })
	return s
}

// threadValue returns the severity of the metric and call-path selection at
// thread t. A nil call node selects nothing.
func threadValue(e *core.Experiment, sel Selection, t *core.Thread) float64 {
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

// selectedTotal returns the value of the full selection summed over the
// entire system.
func selectedTotal(e *core.Experiment, sel Selection) float64 {
	var s float64
	for _, t := range e.Threads() {
		s += threadValue(e, sel, t)
	}
	return s
}

// renderOracle is Render over the per-node walks.
func renderOracle(e *core.Experiment, sel Selection, cfg *Config) (string, error) {
	var sb strings.Builder
	r := &renderer{w: &sb, e: e, sel: sel, cfg: cfg.orDefault()}
	if sel.Metric == nil {
		if len(e.MetricRoots()) == 0 {
			return "", fmt.Errorf("display: experiment has no metrics")
		}
		sel.Metric = e.MetricRoots()[0]
		sel.MetricCollapsed = true
		r.sel = sel
	}
	title := e.Title
	if e.Derived {
		title += " (derived: " + e.Operation + ")"
	}
	r.printf("CUBE: %s\n", title)
	r.printf("mode: %s\n", r.cfg.Mode)
	if r.cfg.BarWidth > 0 {
		full := strings.Repeat("#", r.cfg.BarWidth)
		switch r.cfg.Mode {
		case External:
			r.printf("legend: |%s| = 100%% of the external reference (%g); relief [+] gain, [-] loss\n", full, r.cfg.Base)
		case Percent:
			r.printf("legend: |%s| = 100%% of the metric root's total; relief [+] positive, [-] negative\n", full)
		default:
			r.printf("legend: |%s| = the metric root's total; relief [+] positive, [-] negative\n", full)
		}
	}
	r.printf("\n")
	r.printf("Metric tree\n")
	for _, root := range e.MetricRoots() {
		r.base = r.metricBase(root)
		r.renderMetric(root, 0)
	}

	selVal := selectedTotal(e, sel)
	r.base = r.treeBase()
	r.printf("\nCall tree (metric: %s = %s)\n", sel.Metric.Name, strings.TrimSpace(r.value(selVal, sel.Metric.Unit)))
	var renderCall func(c *core.CallNode, depth int)
	renderCall = func(c *core.CallNode, depth int) {
		collapsed := r.collapsed(c.Path()) || len(c.Children()) == 0
		v := callLabel(e, sel, c, collapsed)
		if r.cfg.HideZero && callLabel(e, sel, c, true) == 0 {
			return
		}
		r.row(depth, v, sel.Metric.Unit, c == sel.CNode, c.Callee().Name)
		if r.collapsed(c.Path()) {
			return
		}
		for _, ch := range c.Children() {
			renderCall(ch, depth+1)
		}
	}
	for _, root := range e.CallRoots() {
		renderCall(root, 0)
	}

	if sel.CNode == nil {
		r.printf("\nSystem tree (no call path selected)\n")
		return sb.String(), r.err
	}
	r.printf("\nSystem tree (call path: %s)\n", sel.CNode.Path())
	singleThreaded := true
	for _, p := range e.Processes() {
		if len(p.Threads()) > 1 {
			singleThreaded = false
			break
		}
	}
	for _, mach := range e.Machines() {
		var machTotal float64
		for _, nd := range mach.Nodes() {
			for _, p := range nd.Processes() {
				for _, t := range p.Threads() {
					machTotal += threadValue(e, sel, t)
				}
			}
		}
		r.row(0, machTotal, sel.Metric.Unit, false, "machine "+mach.Name)
		for _, nd := range mach.Nodes() {
			var ndTotal float64
			for _, p := range nd.Processes() {
				for _, t := range p.Threads() {
					ndTotal += threadValue(e, sel, t)
				}
			}
			r.row(1, ndTotal, sel.Metric.Unit, false, "node "+nd.Name)
			for _, p := range nd.Processes() {
				var pTotal float64
				for _, t := range p.Threads() {
					pTotal += threadValue(e, sel, t)
				}
				r.row(2, pTotal, sel.Metric.Unit, false, p.String())
				if !singleThreaded {
					for _, t := range p.Threads() {
						r.row(3, threadValue(e, sel, t), sel.Metric.Unit, false, fmt.Sprintf("thread %d", t.ID))
					}
				}
			}
		}
	}
	return sb.String(), r.err
}

// hotspotsOracle is Hotspots over per-row sums.
func hotspotsOracle(e *core.Experiment, sel Selection, n int) []Hotspot {
	if sel.Metric == nil {
		if len(e.MetricRoots()) == 0 {
			return nil
		}
		sel.Metric = e.MetricRoots()[0]
		sel.MetricCollapsed = true
	}
	var metrics []*core.Metric
	if sel.MetricCollapsed {
		sel.Metric.Walk(func(m *core.Metric) { metrics = append(metrics, m) })
	} else {
		metrics = []*core.Metric{sel.Metric}
	}
	var out []Hotspot
	for _, m := range metrics {
		for _, c := range e.CallNodes() {
			if v := e.MetricValue(m, c); v != 0 {
				out = append(out, Hotspot{Metric: m, CNode: c, Value: v})
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		return math.Abs(out[i].Value) > math.Abs(out[j].Value)
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// hotspotsStringOracle is HotspotsString over hotspotsOracle.
func hotspotsStringOracle(e *core.Experiment, sel Selection, cfg *Config, n int) string {
	var sb strings.Builder
	c := cfg.orDefault()
	spots := hotspotsOracle(e, sel, n)
	if len(spots) == 0 {
		fmt.Fprintln(&sb, "no non-zero severities for the selection")
		return sb.String()
	}
	base := 0.0
	switch c.Mode {
	case External:
		base = c.Base
	case Percent:
		base = e.MetricInclusive(spots[0].Metric.Root())
	}
	name := "(default)"
	if sel.Metric != nil {
		name = sel.Metric.Name
	}
	fmt.Fprintf(&sb, "top %d severities for metric %s:\n", len(spots), name)
	for i, h := range spots {
		var val string
		if base != 0 {
			val = fmt.Sprintf("%8.2f%%", 100*h.Value/base)
		} else {
			val = fmt.Sprintf("%12.6g", h.Value)
		}
		sign := '+'
		if h.Value < 0 {
			sign = '-'
		}
		fmt.Fprintf(&sb, "%3d. [%c] %s  %-26s %s\n", i+1, sign, val, h.Metric.Name, h.CNode.Path())
	}
	return sb.String()
}

// renderTopologyOracle is RenderTopology over threadValue.
func renderTopologyOracle(w io.Writer, e *core.Experiment, sel Selection) error {
	topo := e.Topology()
	if topo == nil {
		return fmt.Errorf("display: experiment has no topology")
	}
	if len(topo.Dims) > 3 {
		return fmt.Errorf("display: topology rendering supports up to 3 dimensions, got %d", len(topo.Dims))
	}
	if sel.Metric == nil {
		if len(e.MetricRoots()) == 0 {
			return fmt.Errorf("display: experiment has no metrics")
		}
		sel.Metric = e.MetricRoots()[0]
		sel.MetricCollapsed = true
	}
	value := map[int]float64{}
	var maxAbs float64
	for _, p := range e.Processes() {
		var v float64
		for _, th := range p.Threads() {
			v += threadValue(e, sel, th)
		}
		value[p.Rank] = v
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	cnodeLabel := "no call path selected"
	if sel.CNode != nil {
		cnodeLabel = "call path " + sel.CNode.Path()
	}
	fmt.Fprintf(w, "Topology %q %v — metric %s, %s (max |value| %g)\n",
		topo.Name, topo.Dims, sel.Metric.Name, cnodeLabel, maxAbs)
	cell := func(rank int, ok bool) string {
		if !ok {
			return " ··"
		}
		v := value[rank]
		intensity := 0
		if maxAbs > 0 {
			intensity = int(math.Abs(v) / maxAbs * 9.499)
		}
		sign := ' '
		if v > 0 {
			sign = '+'
		} else if v < 0 {
			sign = '-'
		}
		return fmt.Sprintf(" %c%d", sign, intensity)
	}
	rankAt := func(coord []int) (int, bool) {
		for rank, c := range topo.Coords {
			match := len(c) == len(coord)
			for i := range coord {
				if !match || c[i] != coord[i] {
					match = false
					break
				}
			}
			if match {
				return rank, true
			}
		}
		return 0, false
	}
	writeGrid := func(prefix []int, rows, cols int) {
		for y := 0; y < rows; y++ {
			var sb strings.Builder
			for x := 0; x < cols; x++ {
				coord := append(append([]int(nil), prefix...), y, x)
				if len(topo.Dims) == 1 {
					coord = []int{x}
				}
				rank, ok := rankAt(coord)
				sb.WriteString(cell(rank, ok))
			}
			fmt.Fprintln(w, sb.String())
		}
	}
	switch len(topo.Dims) {
	case 1:
		writeGrid(nil, 1, topo.Dims[0])
	case 2:
		writeGrid(nil, topo.Dims[0], topo.Dims[1])
	default:
		for z := 0; z < topo.Dims[0]; z++ {
			fmt.Fprintf(w, "plane %d:\n", z)
			writeGrid([]int{z}, topo.Dims[1], topo.Dims[2])
		}
	}
	return nil
}
