package core

// Clone returns a deep copy of the experiment: fresh metadata trees and a
// fresh severity store. The copy is independent of the original; mutating
// one never affects the other.
func (e *Experiment) Clone() *Experiment {
	b := e.sealedBlock()
	out := New(e.Title)
	out.Derived = e.Derived
	out.Operation = e.Operation
	out.Parents = append([]string(nil), e.Parents...)
	out.topology = e.topology.Clone()
	for k, v := range e.Attrs {
		out.Attrs[k] = v
	}

	// Metric forest.
	for _, root := range e.metricRoots {
		out.metricRoots = append(out.metricRoots, cloneMetric(root, nil))
	}

	// Regions and call sites.
	rMap := map[*Region]*Region{}
	for _, r := range e.regions {
		nr := *r
		rMap[r] = &nr
		out.regions = append(out.regions, &nr)
	}
	sMap := map[*CallSite]*CallSite{}
	cloneSite := func(s *CallSite) *CallSite {
		if s == nil {
			return nil
		}
		if ns, ok := sMap[s]; ok {
			return ns
		}
		ns := &CallSite{File: s.File, Line: s.Line}
		if s.Callee != nil {
			if nr, ok := rMap[s.Callee]; ok {
				ns.Callee = nr
			} else {
				// Callee not registered as a region: copy it privately so
				// the clone never aliases the original's metadata.
				nr := *s.Callee
				rMap[s.Callee] = &nr
				ns.Callee = &nr
			}
		}
		sMap[s] = ns
		return ns
	}
	for _, s := range e.callSites {
		out.callSites = append(out.callSites, cloneSite(s))
	}

	// Call forest.
	var cloneCall func(n *CallNode, parent *CallNode) *CallNode
	cloneCall = func(n *CallNode, parent *CallNode) *CallNode {
		nn := &CallNode{Site: cloneSite(n.Site), parent: parent}
		for _, c := range n.children {
			nn.children = append(nn.children, cloneCall(c, nn))
		}
		return nn
	}
	for _, root := range e.callRoots {
		out.callRoots = append(out.callRoots, cloneCall(root, nil))
	}

	// System forest.
	for _, mach := range e.machines {
		nm := out.NewMachine(mach.Name)
		for _, nd := range mach.Nodes() {
			nnd := nm.NewNode(nd.Name)
			for _, p := range nd.Processes() {
				np := nnd.NewProcess(p.Rank, p.Name)
				for _, t := range p.Threads() {
					np.NewThread(t.ID, t.Name)
				}
			}
		}
	}

	// Severity. The clone's metadata was rebuilt in the same construction
	// order, so its enumerations are index-isomorphic to the original's
	// and the packed keys mean the same tuples: the copy is two flat array
	// copies. The structurally identical metadata also keeps a cached
	// metadata digest valid, so it carries over (stamped with the clone's
	// own generation).
	out.Invalidate()
	out.reindex()
	if c := e.metaDigest.Load(); c != nil && c.gen == e.metaGen {
		out.metaDigest.Store(&metaDigestCache{gen: out.metaGen, sum: c.sum})
	}
	out.installBlock(append([]uint64(nil), b.key...), append([]float64(nil), b.val...))
	return out
}

func cloneMetric(m *Metric, parent *Metric) *Metric {
	nm := &Metric{Name: m.Name, Unit: m.Unit, Description: m.Description, parent: parent}
	for _, c := range m.children {
		nm.children = append(nm.children, cloneMetric(c, nm))
	}
	return nm
}
