package core

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// Experiment is a valid instance of the CUBE data model: metadata (a metric
// forest, program resources, and a system forest) plus data (the severity
// function mapping (metric, call path, thread) tuples onto accumulated
// metric values).
//
// Experiments are either original (collected during a real run, a
// simulation, or produced by an analytical model) or derived (the result of
// an algebraic operator). Both kinds are full experiments and can be
// processed, stored, and displayed identically — the algebra's closure
// property.
//
// Metadata is built through the New*/Add* methods. Mutating trees directly
// (e.g. Metric.NewChild) after they were attached to an experiment is
// allowed, but the caller must then call Invalidate so cached enumerations
// are rebuilt. Severity values are keyed by node identity, so they survive
// metadata growth.
//
// Concurrency: any number of goroutines may read an experiment at once,
// including one nobody has read yet — the first reader enumerates the
// metadata and seals pending severity writes under the experiment's lock.
// Writes (metadata construction, Invalidate, SetSeverity, AddSeverity,
// SetDense) must not run alongside reads or other writes.
type Experiment struct {
	// Title labels the experiment, e.g. "pescan barriers=on run 3".
	Title string
	// Attrs carries free-form attributes (provenance, configuration).
	Attrs map[string]string
	// Derived is true when the experiment is the output of an operator.
	Derived bool
	// Operation names the operator that produced a derived experiment
	// ("difference", "merge", "mean", ...); empty for original data.
	Operation string
	// Parents lists the titles of the operand experiments of a derived
	// experiment, in operand order.
	Parents []string

	metricRoots []*Metric
	regions     []*Region
	callSites   []*CallSite
	callRoots   []*CallNode
	machines    []*Machine
	topology    *Topology

	// The severity function: a sorted block of packed keys (kernel.go),
	// never nil, plus a write buffer of severity writes not yet sealed
	// into it. lost is the first write sealing could not place; Validate
	// reports it.
	block   *sevBlock
	pending map[sevKey]pendingWrite
	lost    error

	// Cached flattened enumerations and index maps, rebuilt by reindex;
	// metaGen advances on every rebuild.
	metrics     []*Metric
	cnodes      []*CallNode
	procs       []*Process
	threads     []*Thread
	metricIndex map[*Metric]int
	cnodeIndex  map[*CallNode]int
	threadIndex map[*Thread]int
	metaGen     uint64

	// mu serialises reindexing and sealing. indexed (the enumerations are
	// current and the block is packed against them) and sealed (indexed,
	// and the write buffer is empty) are their lock-free fast paths.
	mu      sync.Mutex
	indexed atomic.Bool
	sealed  atomic.Bool

	// Cached whole-forest metadata digest (metadigest.go). Valid only while
	// its generation matches metaGen; the atomic pointer makes concurrent
	// MetaDigest calls on a shared experiment safe.
	metaDigest atomic.Pointer[metaDigestCache]
}

type sevKey struct {
	m *Metric
	c *CallNode
	t *Thread
}

// pendingWrite is one buffered severity write: set replaces the sealed
// value, otherwise v is added to it.
type pendingWrite struct {
	v   float64
	set bool
}

// New returns an empty experiment with the given title.
func New(title string) *Experiment {
	return &Experiment{
		Title: title,
		Attrs: map[string]string{},
		block: &sevBlock{nC: 1, nT: 1},
	}
}

// Invalidate discards cached enumerations after external metadata mutation.
func (e *Experiment) Invalidate() {
	e.indexed.Store(false)
	e.sealed.Store(false)
}

// reindex makes the enumerations and index maps current.
func (e *Experiment) reindex() {
	if e.indexed.Load() {
		return
	}
	e.mu.Lock()
	e.reindexLocked()
	e.mu.Unlock()
}

func (e *Experiment) reindexLocked() {
	if e.indexed.Load() {
		return
	}
	// Fresh slices: callers may still hold the previous enumeration, and
	// repack needs it to move the block's tuples.
	oldM, oldC, oldT := e.metrics, e.cnodes, e.threads
	e.metrics = make([]*Metric, 0, len(oldM))
	e.cnodes = make([]*CallNode, 0, len(oldC))
	e.procs = make([]*Process, 0, len(e.procs))
	e.threads = make([]*Thread, 0, len(oldT))
	for _, r := range e.metricRoots {
		r.Walk(func(m *Metric) { e.metrics = append(e.metrics, m) })
	}
	for _, r := range e.callRoots {
		r.Walk(func(n *CallNode) { e.cnodes = append(e.cnodes, n) })
	}
	for _, mach := range e.machines {
		for _, nd := range mach.Nodes() {
			for _, p := range nd.Processes() {
				e.procs = append(e.procs, p)
				e.threads = append(e.threads, p.Threads()...)
			}
		}
	}
	e.metricIndex = indexOf(e.metrics)
	e.cnodeIndex = indexOf(e.cnodes)
	e.threadIndex = indexOf(e.threads)
	e.metaGen++
	if e.block.len() > 0 {
		e.repack(oldM, oldC, oldT)
	}
	e.indexed.Store(true)
}

func indexOf[T comparable](nodes []T) map[T]int {
	idx := make(map[T]int, len(nodes))
	for i, n := range nodes {
		idx[n] = i
	}
	return idx
}

// repack re-keys the block from the enumeration it was packed against to
// the current one. A tuple whose node left the forests is dropped and
// reported by Validate.
func (e *Experiment) repack(oldM []*Metric, oldC []*CallNode, oldT []*Thread) {
	nC, nT := e.packDims()
	if err := e.domainError(); err != nil {
		e.lose(err)
		e.block = &sevBlock{nC: nC, nT: nT}
		return
	}
	rt := remapTable{m: remapFrom(oldM, e.metricIndex), c: remapFrom(oldC, e.cnodeIndex), t: remapFrom(oldT, e.threadIndex)}
	var dropped int
	if e.block, dropped = e.block.remap(rt, nC, nT); dropped > 0 {
		e.lose(invalid("severity", "%d severity tuples refer to metadata that is no longer registered", dropped))
	}
}

// packDims returns the call-node and thread counts keys are packed with,
// clamped to at least 1 so the packing stays invertible on empty
// dimensions. The enumerations must be current.
func (e *Experiment) packDims() (nC, nT uint64) {
	return uint64(max(len(e.cnodes), 1)), uint64(max(len(e.threads), 1))
}

// domainError returns a *DomainError when the current enumerations cannot
// be packed into 64-bit keys.
func (e *Experiment) domainError() error {
	return checkDomain(len(e.metrics), len(e.cnodes), len(e.threads))
}

func (e *Experiment) lose(err error) {
	if e.lost == nil {
		e.lost = err
	}
}

// --- Metadata construction -------------------------------------------------

// NewMetric creates a root metric, attaches it to the experiment, and
// returns it.
func (e *Experiment) NewMetric(name string, unit Unit, description string) *Metric {
	m := NewMetric(name, unit, description)
	e.metricRoots = append(e.metricRoots, m)
	e.Invalidate()
	return m
}

// AddMetricRoot attaches existing root metrics to the experiment.
func (e *Experiment) AddMetricRoot(roots ...*Metric) error {
	for _, m := range roots {
		if m.parent != nil {
			return fmt.Errorf("core: metric %q is not a root", m.Name)
		}
		e.metricRoots = append(e.metricRoots, m)
	}
	e.Invalidate()
	return nil
}

// NewRegion creates a region, registers it, and returns it.
func (e *Experiment) NewRegion(name, module string, beginLine, endLine int) *Region {
	r := &Region{Name: name, Module: module, BeginLine: beginLine, EndLine: endLine}
	e.regions = append(e.regions, r)
	return r
}

// AddRegion registers existing regions.
func (e *Experiment) AddRegion(rs ...*Region) {
	e.regions = append(e.regions, rs...)
}

// NewCallSite creates a call site entering callee, registers it, and returns
// it. The callee should be registered with the experiment as well.
func (e *Experiment) NewCallSite(file string, line int, callee *Region) *CallSite {
	s := &CallSite{File: file, Line: line, Callee: callee}
	e.callSites = append(e.callSites, s)
	return s
}

// AddCallSite registers existing call sites.
func (e *Experiment) AddCallSite(ss ...*CallSite) {
	e.callSites = append(e.callSites, ss...)
}

// NewCallRoot creates a root call node entered via site, attaches it, and
// returns it.
func (e *Experiment) NewCallRoot(site *CallSite) *CallNode {
	n := NewCallNode(site)
	e.callRoots = append(e.callRoots, n)
	e.Invalidate()
	return n
}

// AddCallRoot attaches existing root call nodes to the experiment.
func (e *Experiment) AddCallRoot(roots ...*CallNode) error {
	for _, n := range roots {
		if n.parent != nil {
			return fmt.Errorf("core: call node %q is not a root", n.Path())
		}
		e.callRoots = append(e.callRoots, n)
	}
	e.Invalidate()
	return nil
}

// NewMachine creates a machine, attaches it, and returns it.
func (e *Experiment) NewMachine(name string) *Machine {
	m := NewMachine(name)
	e.machines = append(e.machines, m)
	e.Invalidate()
	return m
}

// AddMachine attaches existing machines to the experiment.
func (e *Experiment) AddMachine(ms ...*Machine) {
	e.machines = append(e.machines, ms...)
	e.Invalidate()
}

// --- Metadata access -------------------------------------------------------

// MetricRoots returns the roots of the metric forest in insertion order.
func (e *Experiment) MetricRoots() []*Metric { return e.metricRoots }

// Regions returns the registered regions in insertion order.
func (e *Experiment) Regions() []*Region { return e.regions }

// CallSites returns the registered call sites in insertion order.
func (e *Experiment) CallSites() []*CallSite { return e.callSites }

// CallRoots returns the roots of the call forest in insertion order.
func (e *Experiment) CallRoots() []*CallNode { return e.callRoots }

// Machines returns the machines in insertion order.
func (e *Experiment) Machines() []*Machine { return e.machines }

// Metrics returns all metrics of the forest in pre-order. The returned
// slice is owned by the experiment and must not be modified.
func (e *Experiment) Metrics() []*Metric {
	e.reindex()
	return e.metrics
}

// CallNodes returns all call-tree nodes in pre-order. The returned slice is
// owned by the experiment and must not be modified.
func (e *Experiment) CallNodes() []*CallNode {
	e.reindex()
	return e.cnodes
}

// Processes returns all processes in machine/node order. The returned slice
// is owned by the experiment and must not be modified.
func (e *Experiment) Processes() []*Process {
	e.reindex()
	return e.procs
}

// Threads returns all threads in machine/node/process order. The returned
// slice is owned by the experiment and must not be modified.
func (e *Experiment) Threads() []*Thread {
	e.reindex()
	return e.threads
}

// MetricIndex returns the position of m in Metrics(), if registered.
func (e *Experiment) MetricIndex(m *Metric) (int, bool) {
	e.reindex()
	i, ok := e.metricIndex[m]
	return i, ok
}

// CallNodeIndex returns the position of n in CallNodes(), if registered.
func (e *Experiment) CallNodeIndex(n *CallNode) (int, bool) {
	e.reindex()
	i, ok := e.cnodeIndex[n]
	return i, ok
}

// ThreadIndex returns the position of t in Threads(), if registered.
func (e *Experiment) ThreadIndex(t *Thread) (int, bool) {
	e.reindex()
	i, ok := e.threadIndex[t]
	return i, ok
}

// FindMetric returns the first metric with the given path (names from the
// root separated by "/"), or nil.
func (e *Experiment) FindMetric(path string) *Metric {
	for _, m := range e.Metrics() {
		if m.Path() == path {
			return m
		}
	}
	return nil
}

// FindMetricByName returns the first metric (pre-order) with the given
// name, or nil.
func (e *Experiment) FindMetricByName(name string) *Metric {
	for _, m := range e.Metrics() {
		if m.Name == name {
			return m
		}
	}
	return nil
}

// FindRegion returns the first registered region with the given name, or
// nil.
func (e *Experiment) FindRegion(name string) *Region {
	for _, r := range e.regions {
		if r.Name == name {
			return r
		}
	}
	return nil
}

// FindCallNode returns the first call node (pre-order) whose Path equals
// path, or nil.
func (e *Experiment) FindCallNode(path string) *CallNode {
	for _, n := range e.CallNodes() {
		if n.Path() == path {
			return n
		}
	}
	return nil
}

// FindProcess returns the process with the given rank, or nil.
func (e *Experiment) FindProcess(rank int) *Process {
	for _, p := range e.Processes() {
		if p.Rank == rank {
			return p
		}
	}
	return nil
}

// FindThread returns the thread with the given rank and thread id, or nil.
func (e *Experiment) FindThread(rank, id int) *Thread {
	for _, t := range e.Threads() {
		if t.proc.Rank == rank && t.ID == id {
			return t
		}
	}
	return nil
}

// --- Severity function -----------------------------------------------------

// seal makes the enumerations current and folds the write buffer into the
// block, once, under the experiment's lock; afterwards every read is a
// pure load.
func (e *Experiment) seal() {
	if e.sealed.Load() {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.reindexLocked()
	if len(e.pending) > 0 {
		e.fold()
	}
	e.sealed.Store(true)
}

// fold merges the write buffer into the block: node pointers resolve to
// enumeration indices, a set drops the sealed value it replaces, and
// sumSorted adds up what remains per key — at most one sealed value and
// one pending add, whose sum does not depend on their order. A write that
// names unregistered metadata is dropped and reported by Validate.
func (e *Experiment) fold() {
	pending := e.pending
	e.pending = nil
	if err := e.domainError(); err != nil {
		e.lose(err)
		return
	}
	nC, nT := e.packDims()
	b := e.block
	keys := make([]uint64, 0, b.len()+len(pending))
	vals := make([]float64, 0, cap(keys))
	var sets []uint64
	for k, p := range pending {
		mi, ok1 := e.metricIndex[k.m]
		ci, ok2 := e.cnodeIndex[k.c]
		ti, ok3 := e.threadIndex[k.t]
		switch {
		case !ok1:
			e.lose(invalid("severity", "severity refers to unregistered metric %q", k.m.Name))
		case !ok2:
			e.lose(invalid("severity", "severity refers to unregistered call node %q", k.c.Path()))
		case !ok3:
			e.lose(invalid("severity", "severity refers to unregistered thread %q", k.t.String()))
		default:
			key := (uint64(mi)*nC+uint64(ci))*nT + uint64(ti)
			keys, vals = append(keys, key), append(vals, p.v)
			if p.set && b.len() > 0 {
				sets = append(sets, key)
			}
		}
	}
	slices.Sort(sets)
	for i, k := range b.key {
		if _, found := slices.BinarySearch(sets, k); !found {
			keys, vals = append(keys, k), append(vals, b.val[i])
		}
	}
	keys, vals = sumSorted(keys, vals)
	e.block = &sevBlock{key: keys, val: vals, nC: nC, nT: nT}
}

// installBlock replaces the severity function with sorted, zero-free
// (key, value) pairs packed against the current enumerations.
func (e *Experiment) installBlock(keys []uint64, vals []float64) {
	e.reindex()
	nC, nT := e.packDims()
	e.block = &sevBlock{key: keys, val: vals, nC: nC, nT: nT}
	e.pending = nil
	e.sealed.Store(true)
}

// sealedBlock returns the severity function as its sorted block.
func (e *Experiment) sealedBlock() *sevBlock {
	e.seal()
	return e.block
}

// Severity returns the accumulated value of metric m measured while thread t
// was executing in call path c. Undefined tuples are zero. The stored value
// is exclusive along both the metric tree and the call tree: it belongs to
// exactly m (not m's descendants) at exactly c (not c's descendants).
//
// Severity reads pending writes without sealing them, so generators may
// interleave reads and writes at no extra cost; on a sealed experiment it
// is a binary search of the block.
func (e *Experiment) Severity(m *Metric, c *CallNode, t *Thread) float64 {
	var p pendingWrite
	if !e.sealed.Load() {
		e.mu.Lock()
		defer e.mu.Unlock()
		e.reindexLocked()
		if p = e.pending[sevKey{m, c, t}]; p.set {
			return p.v
		}
	}
	b := e.block
	mi, ok1 := e.metricIndex[m]
	ci, ok2 := e.cnodeIndex[c]
	ti, ok3 := e.threadIndex[t]
	if ok1 && ok2 && ok3 {
		key := (uint64(mi)*b.nC+uint64(ci))*b.nT + uint64(ti)
		if i, found := slices.BinarySearch(b.key, key); found {
			return b.val[i] + p.v
		}
	}
	return p.v
}

// SetSeverity sets the severity of the (m, c, t) tuple. Severities may be
// negative (e.g. in difference experiments). Setting zero removes the tuple
// from the underlying sparse store.
func (e *Experiment) SetSeverity(m *Metric, c *CallNode, t *Thread, v float64) {
	e.write(sevKey{m, c, t}, pendingWrite{v: v, set: true})
}

// AddSeverity accumulates v onto the severity of the (m, c, t) tuple.
func (e *Experiment) AddSeverity(m *Metric, c *CallNode, t *Thread, v float64) {
	if v == 0 {
		return
	}
	k := sevKey{m, c, t}
	p := e.pending[k]
	p.v += v
	e.write(k, p)
}

func (e *Experiment) write(k sevKey, p pendingWrite) {
	if e.pending == nil {
		e.pending = map[sevKey]pendingWrite{}
	}
	e.pending[k] = p
	e.sealed.Store(false)
}

// NonZeroCount returns the number of stored non-zero severity tuples.
func (e *Experiment) NonZeroCount() int {
	return e.sealedBlock().len()
}

// EachSeverity calls fn for every stored non-zero severity tuple in a
// deterministic order (metric, call node, thread enumeration order).
func (e *Experiment) EachSeverity(fn func(m *Metric, c *CallNode, t *Thread, v float64)) {
	b := e.sealedBlock()
	for i, v := range b.val {
		mi, ci, ti := b.at(i)
		fn(e.metrics[mi], e.cnodes[ci], e.threads[ti], v)
	}
}

// SeverityColumns returns the severity function as its two sealed
// columns: the packed keys (mi*nC + ci)*nT + ti in ascending order, with
// nC and nT the call-node and thread counts (each clamped to at least 1),
// and their non-zero values. The slices are the store's own and must not
// be modified. This is the egress seam the writers of cubexml read.
func (e *Experiment) SeverityColumns() (keys []uint64, vals []float64) {
	b := e.sealedBlock()
	return b.key, b.val
}

// CompactSeverities seals pending severity writes into the sorted block
// and reports true. Callers that share an experiment between goroutines
// (the server's parse cache) seal it before publishing it; reads seal on
// demand as well, so this only moves the work.
func (e *Experiment) CompactSeverities() bool {
	e.seal()
	return true
}

// --- Aggregation helpers ---------------------------------------------------

// MetricValue returns the severity of metric m at call node c summed over
// all threads (exclusive along both trees).
func (e *Experiment) MetricValue(m *Metric, c *CallNode) float64 {
	return e.rowSum(m, c, 1)
}

// MetricTotal returns the severity of exactly metric m summed across the
// whole program and system (all call paths, all threads).
func (e *Experiment) MetricTotal(m *Metric) float64 {
	return e.rowSum(m, nil, len(e.CallNodes()))
}

// rowSum sums the n (metric, call node) rows that start at row (m, c), or
// at m's first row for a nil c. Keys sort by (metric, call node, thread),
// so the rows occupy one key range of the block.
func (e *Experiment) rowSum(m *Metric, c *CallNode, n int) float64 {
	b := e.sealedBlock()
	mi, okm := e.metricIndex[m]
	ci, okc := 0, true
	if c != nil {
		ci, okc = e.cnodeIndex[c]
	}
	if !okm || !okc {
		return 0
	}
	lo := (uint64(mi)*b.nC + uint64(ci)) * b.nT
	return b.sumRange(lo, lo+uint64(n)*b.nT)
}

// MetricInclusive returns MetricTotal summed over m and all of m's
// descendant metrics — the value a display shows for a collapsed metric
// node.
func (e *Experiment) MetricInclusive(m *Metric) float64 {
	var s float64
	m.Walk(func(d *Metric) { s += e.MetricTotal(d) })
	return s
}

// RollUp returns a display selection's severity from one pass over the
// sealed block. The metric selection is m, or m's subtree when
// metricSubtree is set; the call selection is c, c's subtree when
// callSubtree is set, or empty for a nil (or unregistered) c.
//
//   - byCall[i] is the selected metrics' exclusive value at CallNodes()[i]
//     summed over all threads, whatever the call selection.
//   - byThread[i] is the value of the metric and call selection at
//     Threads()[i].
//
// Subtrees are contiguous in the pre-order enumerations, so the selected
// metrics' tuples are one key range and the selected call nodes one index
// range. The sums keep the grouping of a per-node walk bit for bit: each
// (metric, call node) row sums from zero over its threads and byCall adds
// the rows in ascending metric order; byThread adds values in ascending
// (metric, call node) order.
func (e *Experiment) RollUp(m *Metric, metricSubtree bool, c *CallNode, callSubtree bool) (byCall, byThread []float64) {
	b := e.sealedBlock()
	byCall = make([]float64, len(e.cnodes))
	byThread = make([]float64, len(e.threads))
	mLo, mHi := span(e.metricIndex, m, metricSubtree)
	cLo, cHi := span(e.cnodeIndex, c, callSubtree)
	hi := mHi * b.nC * b.nT
	i, _ := slices.BinarySearch(b.key, mLo*b.nC*b.nT)
	for i < len(b.key) && b.key[i] < hi {
		r := b.key[i] / b.nT
		ci := r % b.nC
		selected := ci >= cLo && ci < cHi
		var row float64
		for ; i < len(b.key) && b.key[i]/b.nT == r; i++ {
			row += b.val[i]
			if selected {
				byThread[b.key[i]%b.nT] += b.val[i]
			}
		}
		byCall[ci] += row
	}
	return byCall, byThread
}

// span returns the enumeration index range of n, or of n's subtree; it is
// empty when n is not registered.
func span[T interface {
	comparable
	Walk(func(T))
}](index map[T]int, n T, subtree bool) (lo, hi uint64) {
	i, ok := index[n]
	if !ok {
		return 0, 0
	}
	lo, hi = uint64(i), uint64(i)+1
	if subtree {
		hi = lo
		n.Walk(func(T) { hi++ })
	}
	return lo, hi
}

// --- Dense snapshot ---------------------------------------------------------

// Dense is a dense three-dimensional snapshot of an experiment's severity
// function, indexed [metric][call node][thread] in the experiment's
// enumeration order — the representation the CUBE file format stores and
// the natural operand layout for element-wise operator arithmetic.
type Dense struct {
	Metrics   []*Metric
	CallNodes []*CallNode
	Threads   []*Thread
	Values    [][][]float64
}

// Dense materialises the experiment's severity function as a dense array.
func (e *Experiment) Dense() *Dense {
	b := e.sealedBlock()
	d := &Dense{Metrics: e.metrics, CallNodes: e.cnodes, Threads: e.threads}
	d.Values = make([][][]float64, len(e.metrics))
	flat := make([]float64, len(e.metrics)*len(e.cnodes)*len(e.threads))
	for i := range d.Values {
		d.Values[i] = make([][]float64, len(e.cnodes))
		for j := range d.Values[i] {
			off := (i*len(e.cnodes) + j) * len(e.threads)
			d.Values[i][j] = flat[off : off+len(e.threads)]
		}
	}
	for i, v := range b.val {
		mi, ci, ti := b.at(i)
		d.Values[mi][ci][ti] = v
	}
	return d
}

// SetDense replaces the experiment's severity function with the contents of
// a dense array previously obtained from Dense (or constructed over the
// same enumerations).
func (e *Experiment) SetDense(d *Dense) error {
	e.reindex()
	if len(d.Metrics) != len(e.metrics) || len(d.CallNodes) != len(e.cnodes) || len(d.Threads) != len(e.threads) {
		return fmt.Errorf("core: dense shape %dx%dx%d does not match experiment %dx%dx%d",
			len(d.Metrics), len(d.CallNodes), len(d.Threads),
			len(e.metrics), len(e.cnodes), len(e.threads))
	}
	e.block = &sevBlock{nC: 1, nT: 1}
	e.pending = nil
	e.sealed.Store(false)
	for i, m := range d.Metrics {
		for j, c := range d.CallNodes {
			for l, t := range d.Threads {
				if v := d.Values[i][j][l]; v != 0 {
					e.SetSeverity(m, c, t, v)
				}
			}
		}
	}
	return nil
}

// --- Convenience system construction ----------------------------------------

// SingleThreadedSystem builds a machine/node/process/thread hierarchy for a
// pure message-passing run: ranks 0..np-1 distributed round-robin-block over
// the given number of nodes, one thread per process. It returns the threads
// indexed by rank.
func (e *Experiment) SingleThreadedSystem(machine string, nodes, np int) []*Thread {
	per := make([]int, np)
	for i := range per {
		per[i] = 1
	}
	byRank := e.ThreadedSystem(machine, nodes, per)
	threads := make([]*Thread, np)
	for rank, ts := range byRank {
		threads[rank] = ts[0]
	}
	return threads
}

// ThreadedSystem builds a machine/node/process/thread hierarchy for a
// hybrid run: ranks 0..len(threadsPerRank)-1 distributed block-wise over
// the given number of nodes, with threadsPerRank[r] threads in process r
// (clamped to at least one — the thread level is mandatory). It returns
// the threads indexed by [rank][thread id].
func (e *Experiment) ThreadedSystem(machine string, nodes int, threadsPerRank []int) [][]*Thread {
	if nodes < 1 {
		nodes = 1
	}
	np := len(threadsPerRank)
	mach := e.NewMachine(machine)
	perNode := (np + nodes - 1) / nodes
	threads := make([][]*Thread, np)
	rank := 0
	for n := 0; n < nodes && rank < np; n++ {
		nd := mach.NewNode(fmt.Sprintf("node%02d", n))
		for i := 0; i < perNode && rank < np; i++ {
			p := nd.NewProcess(rank, fmt.Sprintf("rank %d", rank))
			nt := threadsPerRank[rank]
			if nt < 1 {
				nt = 1
			}
			for tid := 0; tid < nt; tid++ {
				threads[rank] = append(threads[rank], p.NewThread(tid, ""))
			}
			rank++
		}
	}
	e.Invalidate()
	return threads
}
