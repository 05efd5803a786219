package core

import (
	"fmt"
	"math"
)

// ValidationError describes a violation of the data-model constraints.
type ValidationError struct {
	// Dimension names the dimension the violation occurred in: "metric",
	// "program", "system", or "severity".
	Dimension string
	// Msg describes the violation.
	Msg string
}

// Error implements the error interface.
func (e *ValidationError) Error() string {
	return fmt.Sprintf("core: invalid experiment (%s dimension): %s", e.Dimension, e.Msg)
}

func invalid(dim, format string, args ...any) error {
	return &ValidationError{Dimension: dim, Msg: fmt.Sprintf(format, args...)}
}

// Validate checks that the experiment satisfies the constraints of the CUBE
// data model:
//
//   - every metric has an admitted unit and all metrics within one tree
//     share that unit;
//   - every call node references a call site with a non-nil callee, and the
//     callee is a registered region;
//   - processes have unique ranks, threads have unique ids within their
//     process, and every process owns at least one thread (the thread level
//     is mandatory);
//   - every stored severity tuple references registered metadata, no
//     value is NaN or infinite, and the domain fits the store's packed
//     keys (a *DomainError otherwise).
//
// Severities may be negative: derived difference experiments legitimately
// contain negative values.
func (e *Experiment) Validate() error {
	// Metric dimension.
	seenM := map[*Metric]bool{}
	for _, root := range e.metricRoots {
		if root == nil {
			return invalid("metric", "nil metric root")
		}
		if root.parent != nil {
			return invalid("metric", "metric %q attached as root but has parent %q", root.Name, root.parent.Name)
		}
		unit := root.Unit
		var err error
		root.Walk(func(m *Metric) {
			if err != nil {
				return
			}
			if seenM[m] {
				err = invalid("metric", "metric %q appears more than once in the forest", m.Name)
				return
			}
			seenM[m] = true
			if m.Name == "" {
				err = invalid("metric", "metric with empty name under root %q", root.Name)
				return
			}
			if !ValidUnit(m.Unit) {
				err = invalid("metric", "metric %q has invalid unit %q", m.Name, m.Unit)
				return
			}
			if m.Unit != unit {
				err = invalid("metric", "metric %q has unit %q but its tree root %q has unit %q",
					m.Name, m.Unit, root.Name, unit)
				return
			}
		})
		if err != nil {
			return err
		}
	}

	// Program dimension.
	regSet := map[*Region]bool{}
	for _, r := range e.regions {
		if r == nil {
			return invalid("program", "nil region registered")
		}
		if r.Name == "" {
			return invalid("program", "region with empty name")
		}
		regSet[r] = true
	}
	seenC := map[*CallNode]bool{}
	for _, root := range e.callRoots {
		if root == nil {
			return invalid("program", "nil call root")
		}
		if root.parent != nil {
			return invalid("program", "call node %q attached as root but has a parent", root.Path())
		}
		var err error
		root.Walk(func(n *CallNode) {
			if err != nil {
				return
			}
			if seenC[n] {
				err = invalid("program", "call node %q appears more than once in the forest", n.Path())
				return
			}
			seenC[n] = true
			if n.Site == nil {
				err = invalid("program", "call node without call site")
				return
			}
			if n.Site.Callee == nil {
				err = invalid("program", "call site %s:%d has nil callee", n.Site.File, n.Site.Line)
				return
			}
			if len(regSet) > 0 && !regSet[n.Site.Callee] {
				err = invalid("program", "call node %q references unregistered region %q", n.Path(), n.Site.Callee.Name)
				return
			}
		})
		if err != nil {
			return err
		}
	}

	// System dimension.
	ranks := map[int]bool{}
	for _, mach := range e.machines {
		if mach == nil {
			return invalid("system", "nil machine")
		}
		for _, nd := range mach.Nodes() {
			for _, p := range nd.Processes() {
				if ranks[p.Rank] {
					return invalid("system", "duplicate process rank %d", p.Rank)
				}
				ranks[p.Rank] = true
				if len(p.Threads()) == 0 {
					return invalid("system", "process %d has no threads (thread level is mandatory)", p.Rank)
				}
				tids := map[int]bool{}
				for _, t := range p.Threads() {
					if tids[t.ID] {
						return invalid("system", "process %d has duplicate thread id %d", p.Rank, t.ID)
					}
					tids[t.ID] = true
				}
			}
		}
	}

	// Optional topology.
	if e.topology != nil {
		if err := e.topology.validate(e); err != nil {
			return err
		}
	}

	// Severity function. Sealing reports writes it could not place
	// (unregistered metadata, a domain too large to pack). Block keys
	// reference enumeration indices; the max-key guard catches a corrupt
	// ingest packing (keys ascend, and the mod/div unpacking keeps the
	// call-node and thread components in range by construction, so only
	// the metric component can escape).
	b := e.sealedBlock()
	if e.lost != nil {
		return e.lost
	}
	if n := b.len(); n > 0 {
		if len(e.cnodes) == 0 || len(e.threads) == 0 {
			return invalid("severity", "severity tuples stored but the call or system dimension is empty")
		}
		if int(b.key[n-1]/(b.nC*b.nT)) >= len(e.metrics) {
			return invalid("severity", "severity key out of range of the metric dimension")
		}
	}
	for i, v := range b.val {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			mi, ci, ti := b.at(i)
			return invalid("severity", "severity of (%s, %s, %s) is %v",
				e.metrics[mi].Name, e.cnodes[ci].Path(), e.threads[ti], v)
		}
	}
	return nil
}
