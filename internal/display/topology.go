package display

import (
	"fmt"
	"io"
	"math"
	"strings"

	"cube/internal/core"
)

// RenderTopology renders the severity of the current selection (metric and
// call path, with their expansion states) over the experiment's Cartesian
// topology as an ASCII map: one cell per process, intensity digits 0–9
// standing in for the GUI's colour scale and a sign prefix for the relief
// (differences may be negative). One-dimensional topologies render a single
// row, two-dimensional ones a grid, three-dimensional ones a grid per
// outermost plane.
func RenderTopology(w io.Writer, e *core.Experiment, sel Selection, cfg *Config) error {
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

	value, maxAbs := NewRollup(e, sel).ByRank()

	// A nil call node selects no call path, so every cell reads 0.
	cnodeLabel := "no call path selected"
	if sel.CNode != nil {
		cnodeLabel = "call path " + sel.CNode.Path()
	}
	if _, err := fmt.Fprintf(w, "Topology %q %v — metric %s, %s (max |value| %g)\n",
		topo.Name, topo.Dims, sel.Metric.Name, cnodeLabel, maxAbs); err != nil {
		return err
	}

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
	writeGrid := func(prefix []int, rows, cols int) error {
		for y := 0; y < rows; y++ {
			var sb strings.Builder
			for x := 0; x < cols; x++ {
				coord := append(append([]int(nil), prefix...), y, x)
				if len(topo.Dims) == 1 {
					coord = []int{x}
				}
				rank := topo.RankAt(coord...)
				sb.WriteString(cell(rank, rank >= 0))
			}
			if _, err := fmt.Fprintln(w, sb.String()); err != nil {
				return err
			}
		}
		return nil
	}

	switch len(topo.Dims) {
	case 1:
		return writeGrid(nil, 1, topo.Dims[0])
	case 2:
		return writeGrid(nil, topo.Dims[0], topo.Dims[1])
	default:
		for z := 0; z < topo.Dims[0]; z++ {
			if _, err := fmt.Fprintf(w, "plane %d:\n", z); err != nil {
				return err
			}
			if err := writeGrid([]int{z}, topo.Dims[1], topo.Dims[2]); err != nil {
				return err
			}
		}
		return nil
	}
}

// RenderTopologyString renders to a string.
func RenderTopologyString(e *core.Experiment, sel Selection, cfg *Config) (string, error) {
	var sb strings.Builder
	if err := RenderTopology(&sb, e, sel, cfg); err != nil {
		return "", err
	}
	return sb.String(), nil
}
