package core

import (
	"fmt"
	"slices"
)

// This file implements structural operators beyond the paper's three
// arithmetic ones ("others may follow in the future"): the flat-profile
// representation the data model describes — "every flat profile can be
// represented using multiple trivial call trees (one for each region)
// consisting only of a single node" — and data-reduction operators that
// restrict an experiment to a metric subtree or a call subtree. All of
// them are closed: their results are complete derived experiments.

// Flatten converts an experiment into its flat-profile form: the severity
// of every call path is accumulated onto the path's callee region, and the
// call dimension becomes a forest of trivial single-node call trees, one
// per region (in first-appearance order of the original call tree). The
// metric and system dimensions are preserved. Displays use this to offer
// the flat-profile view of the program dimension.
func Flatten(x *Experiment) (*Experiment, error) {
	if x == nil {
		return nil, fmt.Errorf("core: Flatten of nil experiment")
	}
	in, err := integrate(nil, x)
	if err != nil {
		return nil, err
	}
	out := in.out
	in.tables() // index the integrated domain before restructuring it

	// Replace the call forest with one trivial tree per callee region of
	// the integrated tree, mapping every original call node onto its
	// region, in first-appearance order, so the flat call-node index of
	// every integrated call node is its region's position.
	regionNode := map[*Region]int32{}
	var flatRoots []*CallNode
	var sites []*CallSite
	nodes := out.CallNodes()
	callTo := make([]int32, len(nodes))
	for i, cn := range nodes {
		reg := cn.Callee()
		fi, ok := regionNode[reg]
		if !ok {
			site := &CallSite{File: reg.Module, Line: reg.BeginLine, Callee: reg}
			sites = append(sites, site)
			fi = int32(len(flatRoots))
			regionNode[reg] = fi
			flatRoots = append(flatRoots, NewCallNode(site))
		}
		callTo[i] = fi
	}
	out.callRoots = flatRoots
	out.callSites = sites
	out.Invalidate()
	in.installRestructured(nil, callTo)

	out.Derived = true
	out.Operation = "flatten"
	out.Parents = []string{x.Title}
	out.Title = fmt.Sprintf("flatten(%s)", x.Title)
	out.Attrs["cube.operation"] = "flatten"
	return out, nil
}

// ExtractMetrics restricts an experiment to the metric subtrees rooted at
// the metrics with the given paths (see Metric.Path), discarding all other
// metrics and their severities — a simple data-reduction operator in the
// spirit of the paper's future-work discussion. The extracted roots become
// the roots of the result's metric forest; program and system dimensions
// are preserved.
func ExtractMetrics(x *Experiment, paths ...string) (*Experiment, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("core: ExtractMetrics requires at least one metric path")
	}
	in, err := integrate(nil, x)
	if err != nil {
		return nil, err
	}
	out := in.out
	in.tables() // index the integrated domain before restructuring it

	// A path inside another requested path's subtree is covered by it:
	// each subtree becomes one root, in the order of its first mention,
	// whatever order the paths come in.
	var requested, newRoots []*Metric
	for _, p := range paths {
		m := out.FindMetric(p)
		if m == nil {
			return nil, fmt.Errorf("core: metric %q not found", p)
		}
		requested = append(requested, m)
	}
	for _, m := range requested {
		for a := m.parent; a != nil; a = a.parent {
			if slices.Contains(requested, a) {
				m = a
			}
		}
		if !slices.Contains(newRoots, m) {
			newRoots = append(newRoots, m)
		}
	}
	for _, m := range newRoots {
		m.parent = nil
	}
	metrics := out.Metrics()
	out.metricRoots = newRoots
	out.Invalidate()
	out.reindex()
	in.installRestructured(remapFrom(metrics, out.metricIndex), nil)

	out.Derived = true
	out.Operation = "extract"
	out.Parents = []string{x.Title}
	out.Title = fmt.Sprintf("extract(%s)", x.Title)
	out.Attrs["cube.operation"] = "extract"
	return out, nil
}

// ExtractCallSubtree restricts an experiment to the call subtree rooted at
// the call node with the given path (see CallNode.Path); the subtree root
// becomes the only call root of the result. Severities outside the subtree
// are discarded.
func ExtractCallSubtree(x *Experiment, path string) (*Experiment, error) {
	in, err := integrate(nil, x)
	if err != nil {
		return nil, err
	}
	out := in.out
	in.tables() // index the integrated domain before restructuring it

	root := out.FindCallNode(path)
	if root == nil {
		return nil, fmt.Errorf("core: call path %q not found", path)
	}
	nodes := out.CallNodes()
	root.parent = nil
	out.callRoots = []*CallNode{root}
	out.Invalidate()
	out.reindex()
	in.installRestructured(nil, remapFrom(nodes, out.cnodeIndex))

	out.Derived = true
	out.Operation = "extract-call"
	out.Parents = []string{x.Title}
	out.Title = fmt.Sprintf("extract-call(%s, %s)", x.Title, path)
	out.Attrs["cube.operation"] = "extract-call"
	return out, nil
}

// installRestructured stores the single operand's severities in out after
// the caller restructured out's forests and invalidated its enumerations.
// metricTo and callTo map out's integrated enumeration indices to its
// current ones (-1 drops the tuple; nil keeps the index); in.tables()
// must have been built before the restructuring. Tuples that land on one
// key sum in the operand's order.
func (in *integration) installRestructured(metricTo, callTo []int32) {
	rt := in.tables()[0]
	rt.m, rt.c = compose(rt.m, metricTo), compose(rt.c, callTo)
	out := in.out
	out.reindex()
	nC, nT := out.packDims()
	b, _ := in.operands[0].sealedBlock().remap(rt, nC, nT)
	out.installBlock(b.key, b.val)
}

// compose returns the index table a followed by b; nil b keeps a.
func compose(a, b []int32) []int32 {
	if b == nil {
		return a
	}
	c := make([]int32, len(a))
	for i, j := range a {
		c[i] = b[j]
	}
	return c
}

// remapFrom maps each node of an earlier enumeration to its index in the
// current one, or -1 when it is no longer registered.
func remapFrom[T comparable](old []T, idx map[T]int) []int32 {
	tab := make([]int32, len(old))
	for i, n := range old {
		tab[i] = -1
		if j, ok := idx[n]; ok {
			tab[i] = int32(j)
		}
	}
	return tab
}
