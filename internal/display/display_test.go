package display

import (
	"strings"
	"testing"

	"cube/internal/core"
)

// build creates a display-test experiment:
//
//	metrics: Time{Comm{Wait}}
//	calls:   main{work, MPI_Recv}
//	system:  1 machine / 1 node / 2 single-threaded ranks
//
// severities (per thread): Time@main=1, Time@work=4, Comm@recv=2,
// Wait@recv=1 → Time root inclusive = 2*(1+4+2+1) = 16.
func build() *core.Experiment {
	e := core.New("disp")
	time := e.NewMetric("Time", core.Seconds, "")
	comm := time.NewChild("Comm", "")
	wait := comm.NewChild("Wait", "")

	mainR := e.NewRegion("main", "app", 0, 0)
	workR := e.NewRegion("work", "app", 0, 0)
	recvR := e.NewRegion("MPI_Recv", "libmpi", 0, 0)
	root := e.NewCallRoot(e.NewCallSite("", 0, mainR))
	work := root.NewChild(e.NewCallSite("app", 5, workR))
	recv := root.NewChild(e.NewCallSite("app", 9, recvR))

	for _, th := range e.SingleThreadedSystem("m", 1, 2) {
		e.SetSeverity(time, root, th, 1)
		e.SetSeverity(time, work, th, 4)
		e.SetSeverity(comm, recv, th, 2)
		e.SetSeverity(wait, recv, th, 1)
	}
	return e
}

func TestMetricLabelSemantics(t *testing.T) {
	e := build()
	time := e.FindMetricByName("Time")
	comm := e.FindMetricByName("Comm")
	// Expanded: exclusive. Collapsed: inclusive subtree total.
	if got := MetricLabel(e, time, false); got != 10 {
		t.Errorf("expanded Time = %v, want 10", got)
	}
	if got := MetricLabel(e, time, true); got != 16 {
		t.Errorf("collapsed Time = %v, want 16", got)
	}
	if got := MetricLabel(e, comm, false); got != 4 {
		t.Errorf("expanded Comm = %v, want 4", got)
	}
	if got := MetricLabel(e, comm, true); got != 6 {
		t.Errorf("collapsed Comm = %v, want 6", got)
	}
}

func TestCallLabelSemantics(t *testing.T) {
	e := build()
	time := e.FindMetricByName("Time")
	root := e.FindCallNode("main")
	expanded := NewRollup(e, Selection{Metric: time}) // expanded: only Time itself
	if got := expanded.Call(root, false); got != 2 {
		t.Errorf("root label (expanded metric, expanded cnode) = %v, want 2", got)
	}
	if got := expanded.Call(root, true); got != 10 {
		t.Errorf("root label (collapsed cnode) = %v, want 10", got)
	}
	collapsed := NewRollup(e, Selection{Metric: time, MetricCollapsed: true}) // whole metric subtree
	if got := collapsed.Call(root, true); got != 16 {
		t.Errorf("root label (collapsed metric+cnode) = %v, want 16", got)
	}
	recv := e.FindCallNode("main/MPI_Recv")
	if got := collapsed.Call(recv, false); got != 6 {
		t.Errorf("recv label = %v, want 6", got)
	}
}

func TestThreadValueAndSelectedTotal(t *testing.T) {
	e := build()
	wait := e.FindMetricByName("Wait")
	recv := e.FindCallNode("main/MPI_Recv")
	v := NewRollup(e, Selection{Metric: wait, CNode: recv})
	if got := v.ByThread[0]; got != 1 {
		t.Errorf("ByThread[0] = %v, want 1", got)
	}
	if got := v.Total(); got != 2 {
		t.Errorf("Total = %v, want 2", got)
	}
	// Collapsed call selection aggregates the subtree.
	root := e.FindCallNode("main")
	all := NewRollup(e, Selection{Metric: e.FindMetricByName("Time"), MetricCollapsed: true,
		CNode: root, CNodeCollapsed: true})
	if got := all.Total(); got != 16 {
		t.Errorf("fully collapsed total = %v, want 16", got)
	}
}

func render(t *testing.T, e *core.Experiment, sel Selection, cfg *Config) string {
	t.Helper()
	s, err := RenderString(e, sel, cfg)
	if err != nil {
		t.Fatalf("render: %v", err)
	}
	return s
}

func TestRenderAbsolute(t *testing.T) {
	e := build()
	sel := Selection{Metric: e.FindMetricByName("Wait"), MetricCollapsed: true,
		CNode: e.FindCallNode("main"), CNodeCollapsed: true}
	out := render(t, e, sel, nil)
	for _, want := range []string{
		"CUBE: disp", "Metric tree", "Call tree (metric: Wait", "System tree",
		"Time", "Comm", "Wait", "main", "work", "MPI_Recv",
		"machine m", "node node00", "rank 0", "rank 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering lacks %q:\n%s", want, out)
		}
	}
	// Single-threaded: thread rows are hidden.
	if strings.Contains(out, "thread 0") {
		t.Errorf("thread level should be hidden for single-threaded runs")
	}
	// Selected rows marked.
	if !strings.Contains(out, "»") {
		t.Errorf("selection marker missing")
	}
}

func TestRenderPercentMode(t *testing.T) {
	e := build()
	sel := Selection{Metric: e.FindMetricByName("Wait"), MetricCollapsed: true,
		CNode: e.FindCallNode("main"), CNodeCollapsed: true}
	out := render(t, e, sel, &Config{Mode: Percent})
	// Wait total = 2, Time root total = 16 → 12.5%.
	if !strings.Contains(out, "12.5%") {
		t.Errorf("percent value missing:\n%s", out)
	}
	if !strings.Contains(out, "mode: percent") {
		t.Errorf("mode header missing")
	}
}

func TestRenderExternalMode(t *testing.T) {
	e := build()
	sel := Selection{Metric: e.FindMetricByName("Wait"), MetricCollapsed: true,
		CNode: e.FindCallNode("main"), CNodeCollapsed: true}
	out := render(t, e, sel, &Config{Mode: External, Base: 32})
	// Wait total 2 / external base 32 = 6.2%.
	if !strings.Contains(out, "6.2%") {
		t.Errorf("externally normalized value missing:\n%s", out)
	}
}

func TestRenderReliefSigns(t *testing.T) {
	e := build()
	// Make Wait@recv negative (a difference experiment would).
	wait := e.FindMetricByName("Wait")
	recv := e.FindCallNode("main/MPI_Recv")
	for _, th := range e.Threads() {
		e.SetSeverity(wait, recv, th, -1)
	}
	sel := Selection{Metric: wait, MetricCollapsed: true,
		CNode: recv, CNodeCollapsed: true}
	out := render(t, e, sel, nil)
	if !strings.Contains(out, "[-]") {
		t.Errorf("sunken relief missing for negative severity:\n%s", out)
	}
	if !strings.Contains(out, "[+]") {
		t.Errorf("raised relief missing for positive severity")
	}
}

func TestRenderCollapsedNodes(t *testing.T) {
	e := build()
	sel := Selection{Metric: e.FindMetricByName("Time"), MetricCollapsed: true,
		CNode: e.FindCallNode("main"), CNodeCollapsed: true}
	out := render(t, e, sel, &Config{Collapsed: map[string]bool{"Time/Comm": true, "main": true}})
	if strings.Contains(out, "Wait") {
		t.Errorf("children of collapsed metric rendered:\n%s", out)
	}
	if strings.Contains(out, "work") {
		t.Errorf("children of collapsed call node rendered")
	}
}

func TestRenderHideZero(t *testing.T) {
	e := build()
	e.NewMetric("Empty", core.Bytes, "")
	sel := Selection{Metric: e.FindMetricByName("Time"), MetricCollapsed: true,
		CNode: e.FindCallNode("main"), CNodeCollapsed: true}
	out := render(t, e, sel, &Config{HideZero: true})
	if strings.Contains(out, "Empty") {
		t.Errorf("zero subtree rendered with HideZero")
	}
	out = render(t, e, sel, nil)
	if !strings.Contains(out, "Empty") {
		t.Errorf("zero subtree hidden without HideZero")
	}
}

func TestRenderDefaultsWhenSelectionEmpty(t *testing.T) {
	e := build()
	out := render(t, e, Selection{}, nil)
	if !strings.Contains(out, "Call tree (metric: Time") {
		t.Errorf("default metric selection not applied:\n%s", out)
	}
	if !strings.Contains(out, "System tree (no call path selected)") {
		t.Errorf("missing no-cnode note")
	}
}

func TestRenderNoMetrics(t *testing.T) {
	e := core.New("empty")
	if _, err := RenderString(e, Selection{}, nil); err == nil {
		t.Errorf("experiment without metrics accepted")
	}
}

func TestRenderDerivedTitle(t *testing.T) {
	e := build()
	e.Derived = true
	e.Operation = "difference"
	sel := Selection{Metric: e.FindMetricByName("Time"), CNode: e.FindCallNode("main")}
	out := render(t, e, sel, nil)
	if !strings.Contains(out, "(derived: difference)") {
		t.Errorf("derived marker missing")
	}
}

func TestRenderMultiThreadedShowsThreads(t *testing.T) {
	e := core.New("mt")
	time := e.NewMetric("Time", core.Seconds, "")
	mainR := e.NewRegion("main", "app", 0, 0)
	root := e.NewCallRoot(e.NewCallSite("", 0, mainR))
	p := e.NewMachine("m").NewNode("n").NewProcess(0, "")
	t0 := p.NewThread(0, "")
	t1 := p.NewThread(1, "")
	e.SetSeverity(time, root, t0, 1)
	e.SetSeverity(time, root, t1, 2)
	sel := Selection{Metric: time, MetricCollapsed: true, CNode: root, CNodeCollapsed: true}
	out := render(t, e, sel, nil)
	if !strings.Contains(out, "thread 0") || !strings.Contains(out, "thread 1") {
		t.Errorf("thread rows missing for multi-threaded process:\n%s", out)
	}
}

func TestModeString(t *testing.T) {
	if Absolute.String() != "absolute" || Percent.String() != "percent" ||
		External.String() != "external percent" || Mode(9).String() == "" {
		t.Errorf("mode strings wrong")
	}
}

func TestBarScaling(t *testing.T) {
	e := build()
	sel := Selection{Metric: e.FindMetricByName("Time"), MetricCollapsed: true,
		CNode: e.FindCallNode("main"), CNodeCollapsed: true}
	out := render(t, e, sel, &Config{Mode: Percent, BarWidth: 4})
	// The Time root row (100%) must show a full bar.
	if !strings.Contains(out, "|####|") {
		t.Errorf("full bar missing:\n%s", out)
	}
}
