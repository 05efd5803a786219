package core

import (
	"errors"
	"fmt"
	"sort"

	"cube/internal/obs"
	"cube/internal/treemerge"
)

// Options control metadata integration. The zero value (or nil) selects the
// defaults: call-tree matching by callee, and automatic system handling
// (copy the first operand's machine/node hierarchy when the partitioning of
// processes into nodes is compatible among the operands, collapse to a
// single machine and node otherwise).
type Options struct {
	// CallMatch selects the call-tree equality relation.
	CallMatch CallMatchMode
	// System selects how machine/node hierarchies are integrated.
	System SystemMode
	// CollapsedMachine names the machine created when hierarchies are
	// collapsed; defaults to "merged machine".
	CollapsedMachine string
	// Workers bounds the number of kernel shards worked concurrently;
	// 0 means GOMAXPROCS. Results are identical for every worker count.
	Workers int
	// Trace, when non-nil, attaches the operator invocation's span tree
	// as a child of this span — the HTTP service passes its request span
	// here so one request yields one connected trace. When nil, operators
	// open a root trace on the process-wide tracer (obs.SetTracer) if one
	// is installed, and skip tracing entirely otherwise.
	Trace *obs.Span
	// Event, when non-nil, receives the invocation's resource attribution
	// (operator name, kernel cells/shards/tuples, accumulator choice,
	// summed shard compute time) — the HTTP service passes its per-request
	// wide event here. A nil Event costs nothing: every hook is a
	// nil-receiver no-op.
	Event *obs.Event
}

func (o *Options) orDefault() *Options {
	if o == nil {
		return &Options{}
	}
	return o
}

func (o *Options) collapsedMachine() string {
	if o != nil && o.CollapsedMachine != "" {
		return o.CollapsedMachine
	}
	return "merged machine"
}

// ErrNoOperands is returned by operators invoked without operands.
var ErrNoOperands = errors.New("core: operator requires at least one operand")

// Fast-path kinds, used for the integrate span attribute, the
// cube_meta_fastpath_total metric, and the wide-event columns.
const (
	fastpathFull     = "full"
	fastpathIdentity = "identity"
	fastpathMemo     = "memo"
	fastpathMiss     = "miss" // full walk that populated the memo
)

// integration is the outcome of integrating the metadata of several operand
// experiments: a fresh result experiment with merged metadata, plus mappings
// from every operand's metadata nodes to the result's, which extend each
// operand's severity function onto the integrated domain (undefined tuples
// are implicitly zero).
//
// The mappings exist in two forms. The full treemerge walk produces
// pointer maps (metricFrom et al.); the digest fast paths produce flat
// index tables (tabs, metricSrc) directly, and tables() derives them from
// the maps on the full walk, so every consumer reads tables on every path.
type integration struct {
	out      *Experiment
	operands []*Experiment
	// fastpath records how the integration was obtained ("" means the full
	// walk without memo involvement, i.e. single-operand or fastpath-off).
	fastpath string
	// metricFrom[i] maps operand i's metrics to result metrics.
	metricFrom []map[*Metric]*Metric
	// cnodeFrom[i] maps operand i's call nodes to result call nodes.
	cnodeFrom []map[*CallNode]*CallNode
	// threadFrom[i] maps operand i's threads to result threads.
	threadFrom []map[*Thread]*Thread
	// tabs[i] is the flat index form of the mappings for operand i; nil
	// until built by tables(). Fast paths share one backing table across
	// operands and across concurrent invocations — never mutate entries.
	tabs []remapTable
	// metricSrc maps each result metric's enumeration index to the
	// smallest operand index that provides it (Merge's "take it from the
	// first" rule); nil until built by metricSrcs().
	metricSrc []int32
}

func newIntegration(operands []*Experiment) *integration {
	return &integration{
		operands:   operands,
		metricFrom: make([]map[*Metric]*Metric, len(operands)),
		cnodeFrom:  make([]map[*CallNode]*CallNode, len(operands)),
		threadFrom: make([]map[*Thread]*Thread, len(operands)),
	}
}

func (in *integration) fastpathLabel() string {
	if in.fastpath == "" {
		return fastpathFull
	}
	return in.fastpath
}

// tables returns the flat per-operand remap tables, deriving them from the
// pointer maps on first use (one map lookup per metadata node, instead of
// one per severity tuple — the kernel layer's whole point).
func (in *integration) tables() []remapTable {
	if in.tabs != nil {
		return in.tabs
	}
	out := in.out
	out.reindex()
	tabs := make([]remapTable, len(in.operands))
	for i, x := range in.operands {
		x.reindex()
		rt := remapTable{
			m: make([]int32, len(x.metrics)),
			c: make([]int32, len(x.cnodes)),
			t: make([]int32, len(x.threads)),
		}
		mf, cf, tf := in.metricFrom[i], in.cnodeFrom[i], in.threadFrom[i]
		for si, sm := range x.metrics {
			rt.m[si] = int32(out.metricIndex[mf[sm]])
		}
		for si, sc := range x.cnodes {
			rt.c[si] = int32(out.cnodeIndex[cf[sc]])
		}
		for si, st := range x.threads {
			rt.t[si] = int32(out.threadIndex[tf[st]])
		}
		tabs[i] = rt
	}
	in.tabs = tabs
	return tabs
}

// metricSrcs returns metricSrc, deriving it from the pointer maps on first
// use.
func (in *integration) metricSrcs() []int32 {
	if in.metricSrc != nil {
		return in.metricSrc
	}
	out := in.out
	out.reindex()
	src := make([]int32, len(out.metrics))
	for i := len(in.operands) - 1; i >= 0; i-- { // the lowest operand wins
		for _, rm := range in.metricFrom[i] {
			src[out.metricIndex[rm]] = int32(i)
		}
	}
	in.metricSrc = src
	return src
}

// integrate merges the metadata sets of the operands into a fresh
// experiment, dimension by dimension: the metric forest and the call forest
// via top-down structural tree merges with dimension-specific equality
// relations, and the system dimension by matching processes and threads on
// their application-level identifiers while copying or collapsing the upper
// machine/node levels.
//
// Two digest-driven fast paths front the full walk (metadigest.go,
// memo.go). When every operand carries the same metadata digest — the
// dominant production case: runs of one instrumented binary, identical
// trees, different severities — the merge is, provably, a structural copy
// of operand 0 with positional mappings, built here in O(nodes) with no
// treemerge forests and no pointer maps. Otherwise a byte-budgeted memo
// keyed by the ordered digest tuple + options serves repeated mixed
// pairings. Both paths are observable (integrate.fastpath span attribute,
// cube_meta_* metrics, wide-event columns) and both are exactly invisible
// in results — the property tests in metaprop_test.go hold Fingerprint
// equality against the cold walk across all operators.
//
// The integrated domain must fit the severity store's packed keys;
// otherwise integrate returns a *DomainError.
func integrate(opts *Options, operands ...*Experiment) (*integration, error) {
	return integrateUnder(nil, opts, operands)
}

func integrateAny(opts *Options, operands []*Experiment) (*integration, error) {
	if len(operands) == 0 {
		return nil, ErrNoOperands
	}
	for i, x := range operands {
		if x == nil {
			return nil, fmt.Errorf("core: operand %d is nil", i)
		}
	}
	opts = opts.orDefault()
	if len(operands) >= 2 && !metaFastpathOff.Load() {
		digs := make([][32]byte, len(operands))
		same := true
		for i, x := range operands {
			digs[i] = x.MetaDigest()
			if digs[i] != digs[0] {
				same = false
			}
		}
		if same {
			in, err := integrateIdentity(opts, operands)
			if err != nil {
				return nil, err
			}
			return in, nil
		}
		memo := integrateMemoTable.Load()
		var key memoKey
		if memo != nil {
			key = memoKeyOf(opts, digs)
			if ent, ok := memo.Get(key); ok {
				return ent.open(operands), nil
			}
		}
		in, err := integrateFull(opts, operands)
		if err != nil {
			return nil, err
		}
		if memo != nil {
			in.fastpath = fastpathMiss
			ent := newMemoEntry(in)
			memo.Add(key, ent, ent.bytes)
		}
		return in, nil
	}
	return integrateFull(opts, operands)
}

// integrateFull is the original treemerge walk over all operands.
func integrateFull(opts *Options, operands []*Experiment) (*integration, error) {
	in := newIntegration(operands)
	in.out = New("")
	in.mergeMetrics(operands)
	in.mergeProgram(opts, operands)
	if err := in.mergeSystem(opts, operands); err != nil {
		return nil, err
	}
	// A topology survives integration only when every operand agrees on
	// it (coordinates are meaningless across different layouts).
	topo := operands[0].topology
	for _, x := range operands[1:] {
		if !topo.Equal(x.topology) {
			topo = nil
			break
		}
	}
	in.out.topology = topo.Clone()
	in.out.Invalidate()
	return in, nil
}

// integrateIdentity merges operands whose metadata digests all agree.
//
// Why a plain copy of operand 0 is the correct merge: digest equality means
// byte-identical metadata serialisations, so all operand forests are
// structurally identical with identical keys in identical sibling order.
// The treemerge of identical forests pairs nodes positionally (duplicate
// sibling keys match first-with-first) and therefore reproduces operand 0's
// structure exactly, mapping the i-th pre-order node of *every* operand to
// the i-th pre-order node of the result — identity index tables, shared by
// all operands. Region deduplication and call-site rebuilding see only
// operand 0's entries, because later operands contribute nothing new. The
// system dimension reuses the real mergeSystem on operands[:1]: the
// (rank, id, name) union over n identical operands equals the union over
// one, and SystemAuto resolves to copy-first both ways (all partition
// signatures are equal). Threads still need a real table — mergeSystem
// sorts thread IDs within each process, so the mapping is not positional
// in general — but one table serves every operand.
func integrateIdentity(opts *Options, operands []*Experiment) (*integration, error) {
	in := newIntegration(operands)
	out := New("")
	in.out = out
	first := operands[0]
	first.reindex()

	// Nodes are carved out of per-kind slabs — the counts are known exactly
	// from operand 0's (clean) enumerations, so the whole copy costs one
	// allocation per node kind instead of one per node. The slab guards
	// below fall back to individual allocation rather than growing a slab:
	// growth would move earlier elements and dangle their pointers.
	mslab := make([]Metric, len(first.metrics))
	cslab := make([]CallNode, len(first.cnodes))
	sslab := make([]CallSite, 0, len(first.callSites))
	rslab := make([]Region, 0, len(first.regions))

	// Metric forest: structural pre-order copy.
	var nm int
	var copyMetric func(m *Metric, parent *Metric) *Metric
	copyMetric = func(m *Metric, parent *Metric) *Metric {
		var out *Metric
		if nm < len(mslab) {
			out = &mslab[nm]
			nm++
		} else {
			out = new(Metric)
		}
		*out = Metric{Name: m.Name, Unit: m.Unit, Description: m.Description, parent: parent}
		if len(m.children) > 0 {
			out.children = make([]*Metric, len(m.children))
			for i, c := range m.children {
				out.children[i] = copyMetric(c, out)
			}
		}
		return out
	}
	out.metricRoots = make([]*Metric, len(first.metricRoots))
	for i, r := range first.metricRoots {
		out.metricRoots[i] = copyMetric(r, nil)
	}

	// Regions: union by (name, module), first occurrence provides the
	// prototype — the same rule mergeProgram applies, restricted to
	// operand 0's registrations.
	regionBy := make(map[string]*Region, len(first.regions))
	regionOut := make(map[*Region]*Region, len(first.regions))
	out.regions = make([]*Region, 0, len(first.regions))
	internRegion := func(r *Region) *Region {
		if r == nil {
			return nil
		}
		if nr, ok := regionOut[r]; ok {
			return nr
		}
		k := regionKey(r)
		nr, ok := regionBy[k]
		if !ok {
			if len(rslab) < cap(rslab) {
				rslab = append(rslab, *r)
				nr = &rslab[len(rslab)-1]
			} else {
				cp := *r
				nr = &cp
			}
			regionBy[k] = nr
			out.regions = append(out.regions, nr)
		}
		regionOut[r] = nr
		return nr
	}
	for _, r := range first.regions {
		internRegion(r)
	}

	// Call forest: structural pre-order copy; call sites are rebuilt for
	// reachable nodes only, in first-use order, shared between nodes that
	// shared them in the operand.
	siteFor := make(map[*CallSite]*CallSite, len(first.callSites))
	out.callSites = make([]*CallSite, 0, len(first.callSites))
	var nc int
	var copyCall func(n *CallNode, parent *CallNode) *CallNode
	copyCall = func(n *CallNode, parent *CallNode) *CallNode {
		ns, ok := siteFor[n.Site]
		if !ok {
			if len(sslab) < cap(sslab) {
				sslab = append(sslab, CallSite{File: n.Site.File, Line: n.Site.Line, Callee: internRegion(n.Site.Callee)})
				ns = &sslab[len(sslab)-1]
			} else {
				ns = &CallSite{File: n.Site.File, Line: n.Site.Line, Callee: internRegion(n.Site.Callee)}
			}
			siteFor[n.Site] = ns
			out.callSites = append(out.callSites, ns)
		}
		var nn *CallNode
		if nc < len(cslab) {
			nn = &cslab[nc]
			nc++
		} else {
			nn = new(CallNode)
		}
		*nn = CallNode{Site: ns, parent: parent}
		if len(n.children) > 0 {
			nn.children = make([]*CallNode, len(n.children))
			for i, c := range n.children {
				nn.children[i] = copyCall(c, nn)
			}
		}
		return nn
	}
	out.callRoots = make([]*CallNode, len(first.callRoots))
	for i, r := range first.callRoots {
		out.callRoots[i] = copyCall(r, nil)
	}

	// System dimension: the real merge over operand 0 alone (fills
	// threadFrom[0]).
	if err := in.mergeSystem(opts, operands[:1]); err != nil {
		return nil, err
	}
	out.topology = first.topology.Clone()

	out.Invalidate()
	out.reindex()

	// Identity tables for metrics and call nodes; a real (sorted-ID) table
	// for threads. One table backs every operand.
	rt := remapTable{
		m: make([]int32, len(first.metrics)),
		c: make([]int32, len(first.cnodes)),
		t: make([]int32, len(first.threads)),
	}
	for i := range rt.m {
		rt.m[i] = int32(i)
	}
	for i := range rt.c {
		rt.c[i] = int32(i)
	}
	tf := in.threadFrom[0]
	for si, st := range first.threads {
		rt.t[si] = int32(out.threadIndex[tf[st]])
	}
	in.tabs = make([]remapTable, len(operands))
	for i := range in.tabs {
		in.tabs[i] = rt
	}
	// Every result metric comes from operand 0 (Merge's ownership rule).
	in.metricSrc = make([]int32, len(out.metrics))
	in.fastpath = fastpathIdentity
	return in, nil
}

// --- Metric dimension -------------------------------------------------------

func metricToTM(m *Metric, reg map[*Metric]*treemerge.Node) *treemerge.Node {
	n := treemerge.New(metricKey(m), m)
	reg[m] = n
	for _, c := range m.Children() {
		n.Add(metricToTM(c, reg))
	}
	return n
}

func (in *integration) mergeMetrics(operands []*Experiment) {
	forests := make([][]*treemerge.Node, len(operands))
	tmOf := make([]map[*Metric]*treemerge.Node, len(operands))
	for i, x := range operands {
		tmOf[i] = map[*Metric]*treemerge.Node{}
		for _, r := range x.MetricRoots() {
			forests[i] = append(forests[i], metricToTM(r, tmOf[i]))
		}
	}
	merged, maps := treemerge.MergeAll(forests...)

	// Rebuild a metric forest from the merged neutral forest.
	built := map[*treemerge.Node]*Metric{}
	var build func(n *treemerge.Node, parent *Metric) *Metric
	build = func(n *treemerge.Node, parent *Metric) *Metric {
		proto := n.Payload.(*Metric)
		nm := &Metric{Name: proto.Name, Unit: proto.Unit, Description: proto.Description, parent: parent}
		built[n] = nm
		for _, c := range n.Children {
			nm.children = append(nm.children, build(c, nm))
		}
		return nm
	}
	for _, r := range merged {
		in.out.metricRoots = append(in.out.metricRoots, build(r, nil))
	}
	for i := range operands {
		in.metricFrom[i] = map[*Metric]*Metric{}
		for m, tm := range tmOf[i] {
			in.metricFrom[i][m] = built[maps[i][tm]]
		}
	}
}

// --- Program dimension --------------------------------------------------------

func (in *integration) mergeProgram(opts *Options, operands []*Experiment) {
	// Regions: union by (name, module); first occurrence provides the
	// prototype (description, line numbers).
	regionBy := map[string]*Region{}
	regionFrom := make([]map[*Region]*Region, len(operands))
	internRegion := func(i int, r *Region) *Region {
		if r == nil {
			return nil
		}
		if nr, ok := regionFrom[i][r]; ok {
			return nr
		}
		k := regionKey(r)
		nr, ok := regionBy[k]
		if !ok {
			cp := *r
			nr = &cp
			regionBy[k] = nr
			in.out.regions = append(in.out.regions, nr)
		}
		regionFrom[i][r] = nr
		return nr
	}
	for i, x := range operands {
		regionFrom[i] = map[*Region]*Region{}
		for _, r := range x.Regions() {
			internRegion(i, r)
		}
	}

	// Call forest: top-down structural merge keyed by the configured
	// equality relation.
	forests := make([][]*treemerge.Node, len(operands))
	tmOf := make([]map[*CallNode]*treemerge.Node, len(operands))
	var toTM func(i int, n *CallNode) *treemerge.Node
	toTM = func(i int, n *CallNode) *treemerge.Node {
		tn := treemerge.New(callNodeKey(n, opts.CallMatch), n)
		tmOf[i][n] = tn
		for _, c := range n.Children() {
			tn.Add(toTM(i, c))
		}
		return tn
	}
	operandOf := map[*CallNode]int{}
	for i, x := range operands {
		tmOf[i] = map[*CallNode]*treemerge.Node{}
		for _, r := range x.CallRoots() {
			forests[i] = append(forests[i], toTM(i, r))
		}
		for _, cn := range x.CallNodes() {
			operandOf[cn] = i
		}
	}
	merged, maps := treemerge.MergeAll(forests...)

	siteFor := map[*CallSite]*CallSite{}
	built := map[*treemerge.Node]*CallNode{}
	var build func(n *treemerge.Node, parent *CallNode) *CallNode
	build = func(n *treemerge.Node, parent *CallNode) *CallNode {
		proto := n.Payload.(*CallNode)
		op := operandOf[proto]
		ns, ok := siteFor[proto.Site]
		if !ok {
			ns = &CallSite{
				File:   proto.Site.File,
				Line:   proto.Site.Line,
				Callee: internRegion(op, proto.Site.Callee),
			}
			siteFor[proto.Site] = ns
			in.out.callSites = append(in.out.callSites, ns)
		}
		nn := &CallNode{Site: ns, parent: parent}
		built[n] = nn
		for _, c := range n.Children {
			nn.children = append(nn.children, build(c, nn))
		}
		return nn
	}
	for _, r := range merged {
		in.out.callRoots = append(in.out.callRoots, build(r, nil))
	}
	for i := range operands {
		in.cnodeFrom[i] = map[*CallNode]*CallNode{}
		for cn, tm := range tmOf[i] {
			in.cnodeFrom[i][cn] = built[maps[i][tm]]
		}
	}
}

// --- System dimension ---------------------------------------------------------

// partitionSignature canonically describes how an experiment partitions
// process ranks into nodes: one sorted rank list per node, nodes in
// machine/node order.
func partitionSignature(x *Experiment) string {
	var sig []byte
	for _, mach := range x.Machines() {
		for _, nd := range mach.Nodes() {
			ranks := make([]int, 0, len(nd.Processes()))
			for _, p := range nd.Processes() {
				ranks = append(ranks, p.Rank)
			}
			sort.Ints(ranks)
			sig = append(sig, '[')
			for _, r := range ranks {
				sig = append(sig, fmt.Sprintf("%d,", r)...)
			}
			sig = append(sig, ']')
		}
	}
	return string(sig)
}

func (in *integration) mergeSystem(opts *Options, operands []*Experiment) error {
	// Union of threads keyed by (rank, thread id).
	type rankInfo struct {
		name    string
		threads map[int]string // thread id -> name
	}
	union := map[int]*rankInfo{}
	var rankOrder []int
	for _, x := range operands {
		for _, p := range x.Processes() {
			ri, ok := union[p.Rank]
			if !ok {
				ri = &rankInfo{name: p.Name, threads: map[int]string{}}
				union[p.Rank] = ri
				rankOrder = append(rankOrder, p.Rank)
			}
			for _, t := range p.Threads() {
				if _, ok := ri.threads[t.ID]; !ok {
					ri.threads[t.ID] = t.Name
				}
			}
		}
	}
	sort.Ints(rankOrder)

	mode := opts.System
	if mode == SystemAuto {
		mode = SystemCopyFirst
		if len(operands) > 1 {
			sig := partitionSignature(operands[0])
			for _, x := range operands[1:] {
				if partitionSignature(x) != sig {
					mode = SystemCollapse
					break
				}
			}
		}
	}

	// threadOf returns (and lazily creates nothing — all threads are created
	// below) the result thread for a (rank, id) pair.
	resultThread := map[threadKey]*Thread{}
	newThreads := func(p *Process, rank int) {
		ri := union[rank]
		ids := make([]int, 0, len(ri.threads))
		for id := range ri.threads {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			t := p.NewThread(id, ri.threads[id])
			resultThread[threadKey{rank, id}] = t
		}
	}

	switch mode {
	case SystemCollapse:
		mach := in.out.NewMachine(opts.collapsedMachine())
		nd := mach.NewNode("merged node")
		for _, rank := range rankOrder {
			p := nd.NewProcess(rank, union[rank].name)
			newThreads(p, rank)
		}
	case SystemCopyFirst:
		placed := map[int]bool{}
		var lastNode *SystemNode
		for _, mach := range operands[0].Machines() {
			nm := in.out.NewMachine(mach.Name)
			for _, nd := range mach.Nodes() {
				nnd := nm.NewNode(nd.Name)
				lastNode = nnd
				for _, p := range nd.Processes() {
					np := nnd.NewProcess(p.Rank, union[p.Rank].name)
					newThreads(np, p.Rank)
					placed[p.Rank] = true
				}
			}
		}
		// Ranks present only in later operands go to the last node.
		var extra []int
		for _, rank := range rankOrder {
			if !placed[rank] {
				extra = append(extra, rank)
			}
		}
		if len(extra) > 0 {
			if lastNode == nil {
				mach := in.out.NewMachine(opts.collapsedMachine())
				lastNode = mach.NewNode("merged node")
			}
			for _, rank := range extra {
				p := lastNode.NewProcess(rank, union[rank].name)
				newThreads(p, rank)
			}
		}
	default:
		return fmt.Errorf("core: unknown system mode %v", opts.System)
	}

	for i, x := range operands {
		in.threadFrom[i] = map[*Thread]*Thread{}
		for _, t := range x.Threads() {
			rt := resultThread[threadKey{t.proc.Rank, t.ID}]
			if rt == nil {
				return fmt.Errorf("core: internal error: no result thread for rank %d id %d", t.proc.Rank, t.ID)
			}
			in.threadFrom[i][t] = rt
		}
	}
	return nil
}
