package core

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Fingerprint returns a canonical textual digest of the experiment:
// metadata structure (metric paths with units, call paths, the system
// forest) followed by every non-zero severity tuple. Two experiments with
// equal fingerprints are structurally identical and carry the same data —
// handy for round-trip tests, operator law checks, and debugging. Titles
// and provenance are deliberately excluded so original and derived
// experiments with equal content compare equal.
func (e *Experiment) Fingerprint() string {
	var sb strings.Builder
	sb.WriteString("metrics:\n")
	for _, m := range e.Metrics() {
		fmt.Fprintf(&sb, "  %s [%s]\n", m.Path(), m.Unit)
	}
	sb.WriteString("calltree:\n")
	for _, c := range e.CallNodes() {
		fmt.Fprintf(&sb, "  %s\n", c.Path())
	}
	sb.WriteString("system:\n")
	for _, mach := range e.Machines() {
		fmt.Fprintf(&sb, "  machine %s\n", mach.Name)
		for _, nd := range mach.Nodes() {
			fmt.Fprintf(&sb, "    node %s\n", nd.Name)
			for _, p := range nd.Processes() {
				ids := make([]int, 0, len(p.Threads()))
				for _, t := range p.Threads() {
					ids = append(ids, t.ID)
				}
				sort.Ints(ids)
				fmt.Fprintf(&sb, "      rank %d threads %v\n", p.Rank, ids)
			}
		}
	}
	if t := e.topology; t != nil {
		fmt.Fprintf(&sb, "topology: %s %v\n", t.Name, t.Dims)
		for _, rank := range t.SortedRanks() {
			fmt.Fprintf(&sb, "  rank %d at %v\n", rank, t.Coords[rank])
		}
	}
	sb.WriteString("severity:\n")
	e.EachSeverity(func(m *Metric, c *CallNode, t *Thread, v float64) {
		fmt.Fprintf(&sb, "  (%s | %s | %d.%d) = %.12g\n", m.Path(), c.Path(), t.Process().Rank, t.ID, v)
	})
	return sb.String()
}

// AlmostEqual reports whether two experiments have identical metadata
// structure (equal fingerprint skeletons) and severity functions that agree
// element-wise within the given relative-plus-absolute tolerance:
// |a - b| <= eps * (1 + max(|a|, |b|)). Useful for regression-testing
// pipelines whose floating-point results may differ in the last bits.
func AlmostEqual(a, b *Experiment, eps float64) bool {
	if len(a.Metrics()) != len(b.Metrics()) ||
		len(a.CallNodes()) != len(b.CallNodes()) ||
		len(a.Threads()) != len(b.Threads()) {
		return false
	}
	for i, m := range a.Metrics() {
		bm := b.Metrics()[i]
		if m.Path() != bm.Path() || m.Unit != bm.Unit {
			return false
		}
	}
	for i, c := range a.CallNodes() {
		if c.Path() != b.CallNodes()[i].Path() {
			return false
		}
	}
	for i, t := range a.Threads() {
		bt := b.Threads()[i]
		if t.ID != bt.ID || t.Process().Rank != bt.Process().Rank {
			return false
		}
	}
	if !a.topology.Equal(b.topology) {
		return false
	}
	// Merge-join the two sorted severity blocks: the dimension counts
	// agree (checked above), so both blocks pack keys identically
	// and equal keys mean corresponding tuples. Keys present on one side
	// only compare against the zero extension.
	within := func(va, vb float64) bool {
		scale := math.Abs(va)
		if s := math.Abs(vb); s > scale {
			scale = s
		}
		return math.Abs(va-vb) <= eps*(1+scale)
	}
	ba, bb := a.sealedBlock(), b.sealedBlock()
	i, j := 0, 0
	for i < ba.len() && j < bb.len() {
		switch ka, kb := ba.key[i], bb.key[j]; {
		case ka == kb:
			if !within(ba.val[i], bb.val[j]) {
				return false
			}
			i++
			j++
		case ka < kb:
			if !within(ba.val[i], 0) {
				return false
			}
			i++
		default:
			if !within(0, bb.val[j]) {
				return false
			}
			j++
		}
	}
	for ; i < ba.len(); i++ {
		if !within(ba.val[i], 0) {
			return false
		}
	}
	for ; j < bb.len(); j++ {
		if !within(0, bb.val[j]) {
			return false
		}
	}
	return true
}
