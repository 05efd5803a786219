package core

import (
	"crypto/sha256"
	"encoding/binary"
	"sync/atomic"
	"unsafe"

	"cube/internal/lru"
)

// Integration memoization. integrate's outcome is fully determined by the
// ordered tuple of operand metadata digests plus the matching options
// (CallMatch relation, System mode, collapsed-machine name) — severity data
// never influences the merged metadata or the mappings. Repeated *mixed*
// pairings (comparing this run against last week's baseline, over and over,
// per operator call and per request) therefore re-derive the same merged
// forests and remap tables every time. The memo cache stores, per key, a
// severity-free skeleton of the merged experiment plus the flat per-operand
// remap tables; a hit clones the skeleton (cheap: metadata only) and shares
// the immutable tables, skipping the treemerge walk and all pointer-map
// construction.
//
// Keying on digests alone would be unsound: the same operand tuple merges
// differently under CallMatchCalleeLine than under CallMatchCallee, and the
// system forest differs between collapse and copy-first — hence the Options
// fingerprint in the key. Workers does not enter the key: it selects
// how severity arithmetic runs, not what the integration is.
//
// Entries never retain operand experiments — only the skeleton, index
// tables, and source attribution — so the cache pins metadata bytes, not
// severity payloads. It is byte-budgeted with LRU eviction; the budget is
// process-wide (SetIntegrateMemoBudget, cube-server -integrate-memo-mb).

// DefaultIntegrateMemoBytes is the initial process-wide memo budget.
const DefaultIntegrateMemoBytes = 32 << 20

// metaFastpathOff disables both the digest-equality fast path and the memo
// cache, forcing every integration through the full treemerge walk. Tests
// and benchmarks use it to obtain cold baselines and oracle results.
var metaFastpathOff atomic.Bool

var integrateMemoTable atomic.Pointer[lru.Cache[memoKey, *memoEntry]]

func init() {
	SetIntegrateMemoBudget(DefaultIntegrateMemoBytes)
}

// SetIntegrateMemoBudget replaces the process-wide integration memo cache
// with an empty one holding at most budgetBytes of skeleton metadata;
// budgetBytes <= 0 disables memoization (the digest-equality fast path
// stays active — it needs no storage).
func SetIntegrateMemoBudget(budgetBytes int64) {
	if budgetBytes <= 0 {
		integrateMemoTable.Store(nil)
		return
	}
	integrateMemoTable.Store(lru.New[memoKey, *memoEntry](budgetBytes, "cube_meta_memo"))
}

type memoKey [32]byte

// memoKeyOf condenses the ordered operand digest tuple and the
// integration-relevant options into one key.
func memoKeyOf(opts *Options, digs [][32]byte) memoKey {
	h := sha256.New()
	var hdr [24]byte
	binary.LittleEndian.PutUint64(hdr[0:], uint64(opts.CallMatch))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(opts.System))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(len(digs)))
	h.Write(hdr[:])
	h.Write([]byte(opts.collapsedMachine()))
	h.Write([]byte{0})
	for i := range digs {
		h.Write(digs[i][:])
	}
	var k memoKey
	h.Sum(k[:0])
	return k
}

// memoEntry is one cached integration outcome. All fields are immutable
// after construction: concurrent hits clone the skeleton (a read-only
// operation) and share the tables.
type memoEntry struct {
	skel      *Experiment // merged metadata, no severities; cloned per hit
	tabs      []remapTable
	metricSrc []int32
	bytes     int64
}

// newMemoEntry snapshots a freshly computed full integration. The skeleton
// is cloned *before* the caller runs kernels and stamps provenance onto
// in.out, so the entry stays severity- and title-free. The entry is
// charged what it occupies: the skeleton's ResidentBytes plus the tables.
func newMemoEntry(in *integration) *memoEntry {
	ent := &memoEntry{
		skel:      in.out.Clone(),
		tabs:      in.tables(),
		metricSrc: in.metricSrcs(),
	}
	ent.bytes = allocBytes(int64(unsafe.Sizeof(*ent))) + ent.skel.ResidentBytes() +
		allocBytes(int64(cap(ent.tabs))*int64(unsafe.Sizeof(remapTable{}))) +
		allocBytes(int64(cap(ent.metricSrc))*4)
	for _, rt := range ent.tabs {
		ent.bytes += allocBytes(int64(cap(rt.m))*4) + allocBytes(int64(cap(rt.c))*4) + allocBytes(int64(cap(rt.t))*4)
	}
	return ent
}

// open instantiates a cached integration for a concrete operand tuple.
func (ent *memoEntry) open(operands []*Experiment) *integration {
	in := newIntegration(operands)
	in.out = ent.skel.Clone()
	in.tabs = ent.tabs
	in.metricSrc = ent.metricSrc
	in.fastpath = fastpathMemo
	return in
}
