// Package report renders CUBE experiments as self-contained HTML documents:
// the three dimensions as nested, expandable trees (the browser's
// <details> element gives the expand/collapse interaction for free),
// severity bars and sign colouring in place of the GUI's colour scale, an
// optional topology heat map, and the hotspot ranking. Reports work for
// derived experiments exactly like for original ones.
package report

import (
	"fmt"
	"html/template"
	"io"
	"math"
	"strings"

	"cube/internal/core"
	"cube/internal/display"
)

// Options configure report generation.
type Options struct {
	// Selection chooses the metric/call-path focus (defaults like the
	// display: first metric root and first call root, collapsed).
	Selection display.Selection
	// TopN is the length of the hotspot ranking (default 10).
	TopN int
}

type node struct {
	Label    string
	Value    float64
	Percent  float64 // of the tree base, for the bar
	Negative bool
	Selected bool
	Children []*node
}

type topoCell struct {
	Label   string
	Percent float64
	Value   float64
}

type hotspotRow struct {
	Rank   int
	Metric string
	Path   string
	Value  float64
}

type model struct {
	Title      string
	Derived    bool
	Operation  string
	Parents    []string
	MetricName string
	Selected   float64
	Unit       string
	Metrics    []*node
	Calls      []*node
	System     []*node
	TopoDims   string
	TopoRows   [][]topoCell
	Hotspots   []hotspotRow
}

// Write renders the experiment as a standalone HTML document.
func Write(w io.Writer, e *core.Experiment, opts *Options) error {
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

	roll := display.NewRollup(e, sel)
	m := &model{
		Title:      e.Title,
		Derived:    e.Derived,
		Operation:  e.Operation,
		Parents:    e.Parents,
		MetricName: sel.Metric.Name,
		Selected:   roll.Total(),
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

	// Call trees for the selected metric; the call and system trees'
	// bars are scaled by the selected metric root's total.
	callBase := math.Abs(e.MetricInclusive(sel.Metric.Root()))
	valued := func(n *node, v float64) *node {
		n.Value, n.Negative = v, v < 0
		if callBase > 0 {
			n.Percent = 100 * math.Abs(v) / callBase
		}
		return n
	}
	for _, root := range e.CallRoots() {
		var build func(x *core.CallNode) *node
		build = func(x *core.CallNode) *node {
			n := valued(&node{Label: x.Callee().Name, Selected: x == sel.CNode}, roll.Call(x, len(x.Children()) == 0))
			for _, c := range x.Children() {
				n.Children = append(n.Children, build(c))
			}
			return n
		}
		m.Calls = append(m.Calls, build(root))
	}

	// System tree for the selection: a process sums its threads, a node
	// its processes and a machine its nodes.
	ti := 0 // index of the next thread in Threads()
	for _, mach := range e.Machines() {
		mn := &node{Label: "machine " + mach.Name}
		for _, nd := range mach.Nodes() {
			nn := &node{Label: "node " + nd.Name}
			for _, p := range nd.Processes() {
				pv := 0.0
				pn := &node{Label: p.String()}
				for _, th := range p.Threads() {
					tv := roll.ByThread[ti]
					ti++
					pv += tv
					if len(p.Threads()) > 1 {
						pn.Children = append(pn.Children, valued(&node{Label: fmt.Sprintf("thread %d", th.ID)}, tv))
					}
				}
				nn.Children = append(nn.Children, valued(pn, pv))
				nn.Value += pv
			}
			mn.Children = append(mn.Children, valued(nn, nn.Value))
			mn.Value += nn.Value
		}
		m.System = append(m.System, valued(mn, mn.Value))
	}

	// Topology heat map (2D only; other arities are skipped).
	if topo := e.Topology(); topo != nil && len(topo.Dims) == 2 {
		m.TopoDims = fmt.Sprintf("%v", topo.Dims)
		perRank, maxAbs := roll.ByRank()
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

// WriteString renders the report to a string.
func WriteString(e *core.Experiment, opts *Options) (string, error) {
	var sb strings.Builder
	if err := Write(&sb, e, opts); err != nil {
		return "", err
	}
	return sb.String(), nil
}

var tmpl = template.Must(template.New("report").Parse(`<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>CUBE: {{.Title}}</title>
<style>
body { font: 14px/1.4 system-ui, sans-serif; margin: 2em; color: #222; }
h1 { font-size: 1.3em; } h2 { font-size: 1.1em; margin-top: 1.4em; }
details { margin-left: 1.2em; } summary { cursor: pointer; }
.bar { display: inline-block; height: 0.7em; background: #4a90d9; vertical-align: baseline; }
.neg .bar { background: #d9534f; }
.val { display: inline-block; min-width: 7em; text-align: right;
       font-variant-numeric: tabular-nums; margin-right: 0.5em; }
.sel { background: #fffbd6; }
.prov { color: #666; }
table.topo { border-collapse: collapse; }
table.topo td { width: 2.2em; height: 2.2em; text-align: center; border: 1px solid #ddd; }
table.hot td, table.hot th { padding: 0.2em 0.7em; text-align: left; }
</style>
</head>
<body>
<h1>CUBE: {{.Title}}</h1>
{{if .Derived}}<p class="prov">derived by <b>{{.Operation}}</b> from {{range $i, $p := .Parents}}{{if $i}}, {{end}}{{$p}}{{end}}</p>{{end}}
<p>selected metric <b>{{.MetricName}}</b> = {{printf "%.6g" .Selected}} {{.Unit}}</p>

{{define "node"}}
{{if .Children}}<details open><summary{{if .Selected}} class="sel"{{end}}>{{template "row" .}}</summary>
{{range .Children}}{{template "node" .}}{{end}}</details>
{{else}}<div style="margin-left:1.2em"{{if .Selected}} class="sel"{{end}}>{{template "row" .}}</div>{{end}}
{{end}}
{{define "row"}}<span class="val{{if .Negative}} neg{{end}}">{{printf "%.6g" .Value}}</span><span{{if .Negative}} class="neg"{{end}}><span class="bar" style="width:{{printf "%.0f" .Percent}}px"></span></span> {{.Label}}{{end}}

<h2>Metric tree</h2>
{{range .Metrics}}{{template "node" .}}{{end}}

<h2>Call tree</h2>
{{range .Calls}}{{template "node" .}}{{end}}

<h2>System tree</h2>
{{range .System}}{{template "node" .}}{{end}}

{{if .TopoRows}}
<h2>Topology {{.TopoDims}}</h2>
<table class="topo">
{{range .TopoRows}}<tr>{{range .}}<td title="{{printf "%.6g" .Value}}" style="background: rgba(74,144,217,{{printf "%.2f" .Percent}}%)">{{.Label}}</td>{{end}}</tr>
{{end}}</table>
{{end}}

{{if .Hotspots}}
<h2>Hotspots</h2>
<table class="hot"><tr><th>#</th><th>metric</th><th>call path</th><th>value</th></tr>
{{range .Hotspots}}<tr><td>{{.Rank}}</td><td>{{.Metric}}</td><td>{{.Path}}</td><td>{{printf "%.6g" .Value}}</td></tr>
{{end}}</table>
{{end}}
</body>
</html>
`))
