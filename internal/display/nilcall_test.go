package display_test

import (
	"strings"
	"testing"

	"cube/internal/core"
	"cube/internal/display"
	"cube/internal/report"
)

// TestNilCallSelection renders an experiment without a call tree, whose
// call selection is nil, in both call collapse states through the
// three-tree view, the topology map and the HTML report: the empty call
// selection reads zero everywhere.
func TestNilCallSelection(t *testing.T) {
	e := core.New("no calls")
	time := e.NewMetric("Time", core.Seconds, "")
	e.SingleThreadedSystem("m", 1, 4)
	topo, err := core.NewCartesian("grid", 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	e.SetTopology(topo)
	for _, collapsed := range []bool{false, true} {
		sel := display.Selection{Metric: time, MetricCollapsed: true, CNodeCollapsed: collapsed}
		out, err := display.RenderString(e, sel, &display.Config{Mode: display.Percent, HideZero: true})
		if err != nil {
			t.Fatalf("collapsed %v: Render: %v", collapsed, err)
		}
		for _, want := range []string{"Call tree (metric: Time = 0.0%)", "System tree (no call path selected)"} {
			if !strings.Contains(out, want) {
				t.Errorf("collapsed %v: view lacks %q:\n%s", collapsed, want, out)
			}
		}
		out, err = display.RenderTopologyString(e, sel, nil)
		if err != nil {
			t.Fatalf("collapsed %v: RenderTopology: %v", collapsed, err)
		}
		if want := ", no call path selected (max |value| 0)\n  0  0\n  0  0\n"; !strings.HasSuffix(out, want) {
			t.Errorf("collapsed %v: topology = %q, want suffix %q", collapsed, out, want)
		}
		out, err = report.WriteString(e, &report.Options{Selection: sel})
		if err != nil {
			t.Fatalf("collapsed %v: report: %v", collapsed, err)
		}
		if want := "selected metric <b>Time</b> = 0 sec"; !strings.Contains(out, want) {
			t.Errorf("collapsed %v: report lacks %q", collapsed, want)
		}
	}
}
