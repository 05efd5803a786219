// Package display is a text-mode rendering of the CUBE display: three
// coupled tree browsers showing the metric, the program (call tree), and
// the system dimension from left to right (here: top to bottom). Thanks to
// the algebra's closure property the display treats derived experiments
// exactly like original ones.
//
// The display follows the paper's principles:
//
//   - Single representation: within a tree each fraction of the severity is
//     shown only once. An expanded node is labelled with its exclusive
//     value, a collapsed node with the inclusive sum over its subtree.
//   - Aggregation across dimensions by selection: the call tree shows the
//     selected metric, the system tree the selected metric at the selected
//     call path; selecting a collapsed node aggregates its subtree.
//   - Severity ranking: every value carries a relief sign — raised (+) for
//     positive values, sunken (-) for negative ones (differences!) — and a
//     proportional bar standing in for the GUI's colour scale.
//   - Absolute values, percentages of the root total, or percentages
//     normalized with respect to an external total (for comparing
//     experiments).
package display

import (
	"fmt"
	"io"
	"math"
	"strings"

	"cube/internal/core"
)

// Mode selects how values are displayed.
type Mode int

const (
	// Absolute displays raw severity values with their units.
	Absolute Mode = iota
	// Percent displays values as percentages of the selected metric
	// root's grand total within the same experiment.
	Percent
	// External displays values as percentages of an externally supplied
	// total (e.g. the previous code version's execution time), which
	// simplifies cross-experiment comparison.
	External
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Absolute:
		return "absolute"
	case Percent:
		return "percent"
	case External:
		return "external percent"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Selection is the user's current selection: one metric node and one call
// node, each with its expansion state (a collapsed selection aggregates the
// whole subtree).
type Selection struct {
	Metric          *core.Metric
	MetricCollapsed bool
	CNode           *core.CallNode
	CNodeCollapsed  bool
}

// Config controls rendering.
type Config struct {
	// Mode selects absolute, percent, or external percent display.
	Mode Mode
	// Base is the external 100 % reference (External mode only).
	Base float64
	// Collapsed marks tree nodes (by metric path or call path) rendered
	// collapsed: their subtree is hidden and their label is inclusive.
	Collapsed map[string]bool
	// HideZero suppresses subtrees whose inclusive value is zero.
	HideZero bool
	// BarWidth is the width of the severity bar (0 disables bars).
	BarWidth int
}

func (c *Config) orDefault() Config {
	var out Config
	if c != nil {
		out = *c
	}
	if out.BarWidth == 0 {
		out.BarWidth = 8
	}
	return out
}

// --- Aggregation semantics ---------------------------------------------------

// MetricLabel returns the value shown at a metric-tree node: the exclusive
// severity total when expanded, the inclusive subtree total when collapsed.
func MetricLabel(e *core.Experiment, m *core.Metric, collapsed bool) float64 {
	if collapsed {
		return e.MetricInclusive(m)
	}
	return e.MetricTotal(m)
}

// Rollup is one selection's severity from core.Experiment.RollUp: the
// only source of the call and system trees' values. ByCall holds the
// selected metrics' exclusive value per call node and ByThread the full
// selection's value per thread, indexed like CallNodes() and Threads().
type Rollup struct {
	e                *core.Experiment
	ByCall, ByThread []float64
}

// NewRollup rolls the selection up in one pass over the severity store. A
// nil call node selects nothing: every thread reads zero.
func NewRollup(e *core.Experiment, sel Selection) Rollup {
	byCall, byThread := e.RollUp(sel.Metric, sel.MetricCollapsed, sel.CNode, sel.CNodeCollapsed)
	return Rollup{e: e, ByCall: byCall, ByThread: byThread}
}

// Call returns the value shown at a call-tree node for the metric
// selection: exclusive when expanded, the sum over the node's pre-order
// subtree range when collapsed.
func (v Rollup) Call(c *core.CallNode, collapsed bool) float64 {
	i, ok := v.e.CallNodeIndex(c)
	if !ok {
		return 0
	}
	n := 1
	if collapsed {
		n = 0
		c.Walk(func(*core.CallNode) { n++ })
	}
	return sum(v.ByCall[i : i+n])
}

// Total returns the value of the full selection summed over the entire
// system — the number the paper quotes as e.g. "13.2 % of the execution
// time" when combined with Percent mode.
func (v Rollup) Total() float64 { return sum(v.ByThread) }

// ByRank returns the selection's value per process rank and the largest
// magnitude among them.
func (v Rollup) ByRank() (byRank map[int]float64, maxAbs float64) {
	byRank = make(map[int]float64, len(v.e.Processes()))
	ti := 0
	for _, p := range v.e.Processes() {
		n := len(p.Threads())
		byRank[p.Rank] = sum(v.ByThread[ti : ti+n])
		maxAbs = max(maxAbs, math.Abs(byRank[p.Rank]))
		ti += n
	}
	return byRank, maxAbs
}

// sum adds xs in order, starting from zero.
func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// threadsIn counts the threads of the given system nodes. Threads() lists
// them in machine/node/process order, so a machine's, node's or process's
// threads are one contiguous index range.
func threadsIn(nodes ...*core.SystemNode) int {
	n := 0
	for _, nd := range nodes {
		for _, p := range nd.Processes() {
			n += len(p.Threads())
		}
	}
	return n
}

// --- Rendering -----------------------------------------------------------------

type renderer struct {
	w    io.Writer
	e    *core.Experiment
	sel  Selection
	cfg  Config
	v    Rollup
	base float64 // 100% reference for the current tree
	err  error
}

func (r *renderer) printf(format string, args ...any) {
	if r.err != nil {
		return
	}
	_, r.err = fmt.Fprintf(r.w, format, args...)
}

// value formats a severity value under the current mode and base.
func (r *renderer) value(v float64, unit core.Unit) string {
	switch r.cfg.Mode {
	case Percent, External:
		if r.base == 0 {
			return fmt.Sprintf("%8.1f%%", 0.0)
		}
		return fmt.Sprintf("%8.1f%%", 100*v/r.base)
	default:
		switch unit {
		case core.Seconds:
			return fmt.Sprintf("%12.6f", v)
		default:
			return fmt.Sprintf("%12.0f", v)
		}
	}
}

// relief returns the sign marker: raised for gains (positive), sunken for
// losses (negative).
func relief(v float64) byte {
	switch {
	case v > 0:
		return '+'
	case v < 0:
		return '-'
	}
	return ' '
}

// bar renders the colour-scale substitute proportional to |v|/base.
func (r *renderer) bar(v float64) string {
	if r.cfg.BarWidth <= 0 {
		return ""
	}
	frac := 0.0
	if r.base != 0 {
		frac = v / r.base
		if frac < 0 {
			frac = -frac
		}
		if frac > 1 {
			frac = 1
		}
	}
	n := int(frac*float64(r.cfg.BarWidth) + 0.5)
	return "|" + strings.Repeat("#", n) + strings.Repeat(".", r.cfg.BarWidth-n) + "| "
}

func (r *renderer) collapsed(path string) bool {
	return r.cfg.Collapsed != nil && r.cfg.Collapsed[path]
}

func (r *renderer) mark(selected bool) string {
	if selected {
		return "»"
	}
	return " "
}

// Render writes the three-tree view of the experiment.
func Render(w io.Writer, e *core.Experiment, sel Selection, cfg *Config) error {
	r := &renderer{w: w, e: e, sel: sel, cfg: cfg.orDefault()}
	if sel.Metric == nil {
		if len(e.MetricRoots()) == 0 {
			return fmt.Errorf("display: experiment has no metrics")
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
	// The colour legend of the GUI, as text: how the bar maps to values.
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

	// --- Metric tree ---
	r.printf("Metric tree\n")
	for _, root := range e.MetricRoots() {
		r.base = r.metricBase(root)
		r.renderMetric(root, 0)
	}

	// --- Call tree ---
	r.v = NewRollup(e, sel)
	r.base = r.treeBase()
	r.printf("\nCall tree (metric: %s = %s)\n", sel.Metric.Name, strings.TrimSpace(r.value(r.v.Total(), sel.Metric.Unit)))
	for _, root := range e.CallRoots() {
		r.renderCall(root, 0)
	}

	// --- System tree ---
	if sel.CNode == nil {
		r.printf("\nSystem tree (no call path selected)\n")
		return r.err
	}
	r.printf("\nSystem tree (call path: %s)\n", sel.CNode.Path())
	singleThreaded := true
	for _, p := range e.Processes() {
		if len(p.Threads()) > 1 {
			singleThreaded = false
			break
		}
	}
	unit := sel.Metric.Unit
	ti := 0 // index of the next thread in Threads()
	for _, mach := range e.Machines() {
		r.row(0, sum(r.v.ByThread[ti:ti+threadsIn(mach.Nodes()...)]), unit, false, "machine "+mach.Name)
		for _, nd := range mach.Nodes() {
			r.row(1, sum(r.v.ByThread[ti:ti+threadsIn(nd)]), unit, false, "node "+nd.Name)
			for _, p := range nd.Processes() {
				vals := r.v.ByThread[ti : ti+len(p.Threads())]
				r.row(2, sum(vals), unit, false, p.String())
				if !singleThreaded {
					// The thread level of single-threaded applications
					// is hidden.
					for k, t := range p.Threads() {
						r.row(3, vals[k], unit, false, fmt.Sprintf("thread %d", t.ID))
					}
				}
				ti += len(vals)
			}
		}
	}
	return r.err
}

// metricBase returns the 100% reference for a metric tree. An external
// base only makes sense for roots measured in the same unit as the
// selected metric's root (normalizing a visit count by seconds would be
// meaningless); other roots fall back to their own inclusive total.
func (r *renderer) metricBase(root *core.Metric) float64 {
	switch r.cfg.Mode {
	case External:
		if root.Unit == r.sel.Metric.Root().Unit {
			return r.cfg.Base
		}
		return r.e.MetricInclusive(root)
	case Percent:
		return r.e.MetricInclusive(root)
	}
	return r.e.MetricInclusive(root) // bars still need a scale in Absolute mode
}

// treeBase returns the 100% reference for the call/system trees: the
// selected metric root's grand total (Percent), or the external base.
func (r *renderer) treeBase() float64 {
	if r.cfg.Mode == External {
		return r.cfg.Base
	}
	return r.e.MetricInclusive(r.sel.Metric.Root())
}

func (r *renderer) row(depth int, v float64, unit core.Unit, selected bool, label string) {
	r.printf("%s%s [%c] %s %s%s\n",
		r.mark(selected), strings.Repeat("  ", depth), relief(v), r.value(v, unit), r.bar(v), label)
}

func (r *renderer) renderMetric(m *core.Metric, depth int) {
	collapsed := r.collapsed(m.Path()) || len(m.Children()) == 0
	v := MetricLabel(r.e, m, collapsed)
	if r.cfg.HideZero && MetricLabel(r.e, m, true) == 0 {
		return
	}
	selected := m == r.sel.Metric
	r.row(depth, v, m.Unit, selected, m.Name)
	if r.collapsed(m.Path()) {
		return
	}
	for _, c := range m.Children() {
		r.renderMetric(c, depth+1)
	}
}

func (r *renderer) renderCall(c *core.CallNode, depth int) {
	collapsed := r.collapsed(c.Path()) || len(c.Children()) == 0
	v := r.v.Call(c, collapsed)
	if r.cfg.HideZero && r.v.Call(c, true) == 0 {
		return
	}
	selected := c == r.sel.CNode
	r.row(depth, v, r.sel.Metric.Unit, selected, c.Callee().Name)
	if r.collapsed(c.Path()) {
		return
	}
	for _, ch := range c.Children() {
		r.renderCall(ch, depth+1)
	}
}

// RenderString renders to a string (convenience for tests and examples).
func RenderString(e *core.Experiment, sel Selection, cfg *Config) (string, error) {
	var sb strings.Builder
	if err := Render(&sb, e, sel, cfg); err != nil {
		return "", err
	}
	return sb.String(), nil
}
