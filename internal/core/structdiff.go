package core

import (
	"fmt"
	"sort"
	"strings"
)

// StructuralReport compares the metadata of two experiments — the
// structural merge/difference of Karavanic & Miller's multi-execution
// framework, which CUBE instantiates. Unlike the arithmetic operators it
// does not touch severities; it reports which resources of each dimension
// are shared and which are unique to either operand. Tools use it to judge
// whether applying an arithmetic operator "makes sense" (computing the
// mean of entirely different programs is generally not helpful) and to
// explain integration results to the user.
type StructuralReport struct {
	// SharedMetrics, OnlyAMetrics, OnlyBMetrics partition the metric
	// nodes (by path) of the integrated metric forest.
	SharedMetrics, OnlyAMetrics, OnlyBMetrics []string
	// SharedCalls, OnlyACalls, OnlyBCalls partition the call paths.
	SharedCalls, OnlyACalls, OnlyBCalls []string
	// SharedRanks, OnlyARanks, OnlyBRanks partition the process ranks.
	SharedRanks, OnlyARanks, OnlyBRanks []int
	// PartitionsCompatible reports whether both operands partition their
	// processes into nodes the same way (if not, integration collapses
	// the machine/node levels by default).
	PartitionsCompatible bool
}

// Similarity returns a crude [0,1] score: the fraction of metadata nodes
// (metrics, call paths, ranks) that are shared between the operands.
func (r *StructuralReport) Similarity() float64 {
	shared := len(r.SharedMetrics) + len(r.SharedCalls) + len(r.SharedRanks)
	total := shared + len(r.OnlyAMetrics) + len(r.OnlyBMetrics) +
		len(r.OnlyACalls) + len(r.OnlyBCalls) + len(r.OnlyARanks) + len(r.OnlyBRanks)
	if total == 0 {
		return 1
	}
	return float64(shared) / float64(total)
}

// Summary renders the report as a short human-readable text.
func (r *StructuralReport) Summary() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "metrics: %d shared, %d only-A, %d only-B\n",
		len(r.SharedMetrics), len(r.OnlyAMetrics), len(r.OnlyBMetrics))
	fmt.Fprintf(&sb, "call paths: %d shared, %d only-A, %d only-B\n",
		len(r.SharedCalls), len(r.OnlyACalls), len(r.OnlyBCalls))
	fmt.Fprintf(&sb, "ranks: %d shared, %d only-A, %d only-B\n",
		len(r.SharedRanks), len(r.OnlyARanks), len(r.OnlyBRanks))
	fmt.Fprintf(&sb, "node partitions compatible: %v\n", r.PartitionsCompatible)
	fmt.Fprintf(&sb, "similarity: %.2f\n", r.Similarity())
	return sb.String()
}

// StructuralDiff compares the metadata sets of a and b under the given
// integration options.
func StructuralDiff(a, b *Experiment, opts *Options) (*StructuralReport, error) {
	in, err := integrate(opts, a, b)
	if err != nil {
		return nil, err
	}
	rep := &StructuralReport{}
	tabs := in.tables()
	// reached marks the result nodes an operand's remap table reaches.
	reached := func(n int, tab []int32) []bool {
		r := make([]bool, n)
		for _, i := range tab {
			r[i] = true
		}
		return r
	}
	metrics, calls := in.out.Metrics(), in.out.CallNodes()
	ma, mb := reached(len(metrics), tabs[0].m), reached(len(metrics), tabs[1].m)
	for i, m := range metrics {
		switch {
		case ma[i] && mb[i]:
			rep.SharedMetrics = append(rep.SharedMetrics, m.Path())
		case ma[i]:
			rep.OnlyAMetrics = append(rep.OnlyAMetrics, m.Path())
		default:
			rep.OnlyBMetrics = append(rep.OnlyBMetrics, m.Path())
		}
	}
	ca, cb := reached(len(calls), tabs[0].c), reached(len(calls), tabs[1].c)
	for i, c := range calls {
		switch {
		case ca[i] && cb[i]:
			rep.SharedCalls = append(rep.SharedCalls, c.Path())
		case ca[i]:
			rep.OnlyACalls = append(rep.OnlyACalls, c.Path())
		default:
			rep.OnlyBCalls = append(rep.OnlyBCalls, c.Path())
		}
	}

	ranksOf := func(x *Experiment) map[int]bool {
		out := map[int]bool{}
		for _, p := range x.Processes() {
			out[p.Rank] = true
		}
		return out
	}
	ra, rb := ranksOf(a), ranksOf(b)
	for rank := range ra {
		if rb[rank] {
			rep.SharedRanks = append(rep.SharedRanks, rank)
		} else {
			rep.OnlyARanks = append(rep.OnlyARanks, rank)
		}
	}
	for rank := range rb {
		if !ra[rank] {
			rep.OnlyBRanks = append(rep.OnlyBRanks, rank)
		}
	}
	sort.Ints(rep.SharedRanks)
	sort.Ints(rep.OnlyARanks)
	sort.Ints(rep.OnlyBRanks)
	rep.PartitionsCompatible = partitionSignature(a) == partitionSignature(b)
	return rep, nil
}
