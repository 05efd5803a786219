package core

import (
	"fmt"
	"math"
)

// Prune is a data-reduction operator in the spirit of the paper's
// future-work discussion ("new operators which perform data reduction …
// might further help manage size"): call subtrees whose inclusive severity
// for the selected metric subtree falls below threshold × (the metric's
// grand total) are collapsed into their nearest kept ancestor. Severities
// are re-attributed, not dropped, so every metric's grand total is
// preserved; only the call-tree resolution shrinks. Call roots are always
// kept (possibly as leaves). The result is a complete derived experiment.
//
// The monotonicity argument behind the cut (a subtree below the threshold
// has only subtrees below the threshold) holds for non-negative
// severities; for difference experiments the magnitude of the selected
// metric is used, per (metric, call node) after summing over threads.
func Prune(x *Experiment, metricPath string, threshold float64) (*Experiment, error) {
	if threshold < 0 || threshold > 1 {
		return nil, fmt.Errorf("core: prune threshold %g outside [0,1]", threshold)
	}
	in, err := integrate(nil, x)
	if err != nil {
		return nil, err
	}
	out := in.out

	sel := out.FindMetric(metricPath)
	if sel == nil {
		return nil, fmt.Errorf("core: metric %q not found", metricPath)
	}

	// The operand's severities on the integrated domain give, in one
	// exclusive pass, |severity| of the selected metric subtree per call
	// node; one bottom-up pass over the pre-order enumeration turns that
	// into the inclusive value per call subtree.
	nC, nT := out.packDims()
	ib, _ := x.sealedBlock().remap(in.tables()[0], nC, nT)
	nodes := out.CallNodes()
	incl := make([]float64, len(nodes))
	sel.Walk(func(m *Metric) {
		for ci := range nodes {
			lo := (uint64(out.metricIndex[m])*nC + uint64(ci)) * nT
			incl[ci] += math.Abs(ib.sumRange(lo, lo+nT))
		}
	})
	for i := len(nodes) - 1; i >= 0; i-- {
		if p := nodes[i].parent; p != nil {
			incl[out.cnodeIndex[p]] += incl[i]
		}
	}
	var total float64
	for _, r := range out.CallRoots() {
		total += incl[out.cnodeIndex[r]]
	}
	cut := threshold * total

	// Decide survivors top-down and collapse the rest.
	target := make([]*CallNode, len(nodes)) // node index -> node holding its severities
	var walk func(n *CallNode, keptAncestor *CallNode)
	walk = func(n *CallNode, keptAncestor *CallNode) {
		if keptAncestor != nil && incl[out.cnodeIndex[n]] < cut {
			// Collapse this whole subtree into the kept ancestor.
			n.Walk(func(d *CallNode) { target[out.cnodeIndex[d]] = keptAncestor })
			return
		}
		target[out.cnodeIndex[n]] = n
		var survivors []*CallNode
		for _, c := range n.children {
			walk(c, n)
			if target[out.cnodeIndex[c]] == c {
				survivors = append(survivors, c)
			}
		}
		n.children = survivors
	}
	for _, r := range out.CallRoots() {
		walk(r, nil)
	}

	// Re-attribute severities of collapsed nodes.
	out.Invalidate()
	out.reindex()
	callTo := make([]int32, len(nodes))
	for i, t := range target {
		callTo[i] = int32(out.cnodeIndex[t])
	}
	in.installRestructured(nil, callTo)

	out.Derived = true
	out.Operation = "prune"
	out.Parents = []string{x.Title}
	out.Title = fmt.Sprintf("prune(%s, %s < %g)", x.Title, metricPath, threshold)
	out.Attrs["cube.operation"] = "prune"
	out.Attrs["cube.prune.metric"] = metricPath
	out.Attrs["cube.prune.threshold"] = fmt.Sprintf("%g", threshold)
	return out, nil
}
