package core

import (
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"time"

	"cube/internal/obs"
)

// This file implements the severity store and the indexed kernel layer: the
// arithmetic core shared by all algebraic operators.
//
// An experiment's severity function is one sorted block (sevBlock) of
// packed (metric, call node, thread) enumeration indices and their values.
// The operators' element-wise semantics are defined over the
// *zero-extended* severity functions on the integrated metadata; the
// kernels realise them in three stages over flat integer indices:
//
//  1. lower  — each operand's sealed block is read as is: sealing
//     (Experiment.seal) already sorted it into canonical pre-order.
//  2. accumulate — per operand, a remap table ([]int32, source index →
//     result index, built from the integration with one lookup per
//     metadata node instead of one per tuple) turns every block entry into
//     a packed uint64 linear index of the result domain. Because block
//     keys ascend, the (metric, call node) row component only changes
//     every run of consecutive tuples; the kernels re-derive the row remap
//     on row changes and reduce the per-tuple work to one table load and
//     one fused multiply-add. Accumulation goes into either a dense
//     []float64 (when the result domain is small enough relative to the
//     tuple count) or a map[uint64]float64. Work is sharded by result
//     (metric, call node) row across workers; shards partition the key
//     space, so accumulators never need locks.
//  3. materialize — the accumulated (key, value) pairs are radix-sorted
//     into canonical order and become the result's block directly, so
//     operator chains never re-lower. Exact zeros are dropped, as
//     SetSeverity and AddSeverity would.
//
// Because every per-key combination folds the collapsed contributions of
// one operand first (in canonical source order) and then combines operands
// in operand order, results are deterministic: the same operands and
// options produce bit-identical results regardless of worker count or map
// iteration order.

// sevBlock is a sorted severity store: packed linear indices
// (mi*nC + ci)*nT + ti in ascending order and their non-zero values, where
// nC and nT are the owning experiment's enumeration sizes (clamped to ≥ 1
// so the packing is invertible on empty dimensions).
type sevBlock struct {
	key    []uint64
	val    []float64
	nC, nT uint64
}

func (b *sevBlock) len() int { return len(b.val) }

// at unpacks entry i into enumeration indices.
func (b *sevBlock) at(i int) (mi, ci, ti int) {
	k := b.key[i]
	ti = int(k % b.nT)
	rem := k / b.nT
	return int(rem / b.nC), int(rem % b.nC), ti
}

// sumRange sums the values with keys in [lo, hi) per (metric, call node)
// row first, then over rows — the grouping of a per-row walk.
func (b *sevBlock) sumRange(lo, hi uint64) float64 {
	var total, row float64
	cur := ^uint64(0)
	i, _ := slices.BinarySearch(b.key, lo)
	for ; i < len(b.key) && b.key[i] < hi; i++ {
		if r := b.key[i] / b.nT; r != cur {
			total += row
			row, cur = 0, r
		}
		row += b.val[i]
	}
	return total + row
}

// remap re-keys the block through per-dimension index tables into a block
// packed with nC and nT. A table entry of -1 drops the tuple (dropped
// counts them); tuples that land on one key sum in source order.
func (b *sevBlock) remap(rt remapTable, nC, nT uint64) (out *sevBlock, dropped int) {
	keys := make([]uint64, 0, b.len())
	vals := make([]float64, 0, b.len())
	for i, v := range b.val {
		mi, ci, ti := b.at(i)
		rm, rc, rth := rt.m[mi], rt.c[ci], rt.t[ti]
		if rm < 0 || rc < 0 || rth < 0 {
			dropped++
			continue
		}
		keys = append(keys, (uint64(rm)*nC+uint64(rc))*nT+uint64(rth))
		vals = append(vals, v)
	}
	keys, vals = sumSorted(keys, vals)
	return &sevBlock{key: keys, val: vals, nC: nC, nT: nT}, dropped
}

// sumSorted sorts (key, value) pairs by key, stably, sums the values of
// equal keys in their order, and drops zero sums. The result reuses the
// input's storage, copied to exact size.
func sumSorted(keys []uint64, vals []float64) ([]uint64, []float64) {
	radixSortKV(keys, vals)
	n := 0
	for i := 0; i < len(keys); {
		k, s := keys[i], vals[i]
		for i++; i < len(keys) && keys[i] == k; i++ {
			s += vals[i]
		}
		if s != 0 {
			keys[n], vals[n] = k, s
			n++
		}
	}
	return exactSize(keys[:n], vals[:n])
}

// DomainError reports an experiment whose metric × call node × thread
// domain has more tuples than the severity store's 64-bit keys can
// address.
type DomainError struct {
	Metrics, CallNodes, Threads int
}

func (e *DomainError) Error() string {
	return fmt.Sprintf("core: severity domain of %d metrics × %d call nodes × %d threads exceeds 2^64 tuples",
		e.Metrics, e.CallNodes, e.Threads)
}

// checkDomain returns a *DomainError unless every (metric, call node,
// thread) index triple of the given dimension sizes packs into a distinct
// uint64.
func checkDomain(nM, nC, nT int) error {
	hi, cells := bits.Mul64(uint64(max(nM, 1)), uint64(max(nC, 1)))
	if hi == 0 {
		hi, _ = bits.Mul64(cells, uint64(max(nT, 1)))
	}
	if hi != 0 {
		return &DomainError{Metrics: nM, CallNodes: nC, Threads: nT}
	}
	return nil
}

// radixScratch pools the ping-pong buffers of radixSortKV; lowering several
// operands (or chained operators) reuses one pair instead of allocating —
// and, unlike fresh allocations, pooled buffers skip the runtime's zeroing.
var radixScratch = sync.Pool{New: func() any { return &radixBufs{} }}

type radixBufs struct {
	k []uint64
	v []float64
}

// radixSortKV sorts keys ascending (LSD radix, byte digits) in place,
// keeping vals parallel. All digit histograms are gathered in a single
// pre-pass; digit positions where every key agrees are skipped, so small
// key spaces sort in two or three scatter passes, ping-ponging between the
// input and the pooled scratch buffers. When an odd number of passes leaves
// the data in the scratch, it is copied back: the sorted pair always
// occupies the caller's slices, so a result stored from them is exactly as
// large as the caller allocated it — never a pooled buffer sized for some
// earlier, larger sort.
func radixSortKV(keys []uint64, vals []float64) {
	n := len(keys)
	if n < 2 {
		return
	}
	var maxKey uint64
	for _, k := range keys {
		if k > maxKey {
			maxKey = k
		}
	}
	passes := (bits.Len64(maxKey) + 7) / 8
	if passes == 0 {
		return
	}
	var counts [8][257]int
	for _, k := range keys {
		for p := 0; p < passes; p++ {
			counts[p][int(byte(k>>(8*p)))+1]++
		}
	}
	bufs := radixScratch.Get().(*radixBufs)
	if cap(bufs.k) < n {
		bufs.k = make([]uint64, n)
		bufs.v = make([]float64, n)
	}
	src, dst := keys, bufs.k[:n]
	srcV, dstV := vals, bufs.v[:n]
	for p := 0; p < passes; p++ {
		shift := uint(8 * p)
		count := &counts[p]
		if count[int(byte(maxKey>>shift))+1] == n {
			// All keys share this digit; the pass would be the identity.
			continue
		}
		for i := 1; i < 257; i++ {
			count[i] += count[i-1]
		}
		for i, k := range src {
			d := byte(k >> shift)
			dst[count[d]] = k
			dstV[count[d]] = srcV[i]
			count[d]++
		}
		src, dst = dst, src
		srcV, dstV = dstV, srcV
	}
	if &src[0] != &keys[0] {
		copy(keys, src)
		copy(vals, srcV)
	}
	radixScratch.Put(bufs)
}

// remapTable maps each source enumeration index of one operand onto the
// corresponding result enumeration index, for all three dimensions.
type remapTable struct {
	m, c, t []int32
}

// kernelPlan gathers everything the kernels need: the operands' lowered
// blocks, per-operand remap tables, the result dimensions, and the worker
// layout.
type kernelPlan struct {
	in     *integration
	span   *obs.Span  // operator invocation span; nil when untraced
	event  *obs.Event // request/CLI wide event; nil when none attached
	blocks []*sevBlock
	maps   []remapTable
	nC, nT uint64 // result dimensions used for packing (≥ 1)
	cells  uint64 // total result cells (integrate checked they fit)
	total  int    // total tuples across all operand blocks
	shards int
}

func newKernelPlan(in *integration, opts *Options, operands []*Experiment, span *obs.Span) *kernelPlan {
	out := in.out
	out.reindex()
	ev := opts.event()
	p := &kernelPlan{
		in:     in,
		span:   span,
		event:  ev,
		blocks: make([]*sevBlock, len(operands)),
		maps:   make([]remapTable, len(operands)),
		nC:     uint64(len(out.cnodes)),
		nT:     uint64(len(out.threads)),
	}
	if p.nC == 0 {
		p.nC = 1
	}
	if p.nT == 0 {
		p.nT = 1
	}
	p.cells = uint64(len(out.metrics)) * p.nC * p.nT
	for i, x := range operands {
		st := obs.BeginIn(span, ev, obs.Lower)
		// The remap tables come from the integration in flat form —
		// identity or memoised tables on the digest fast paths, derived
		// from the pointer maps otherwise (integrate.go tables()), on
		// the first operand's lowering.
		p.maps[i] = in.tables()[i]
		p.blocks[i] = x.sealedBlock()
		n := p.blocks[i].len()
		p.total += n
		st.Count(obs.KernelTuples, int64(n))
		if sp := st.Span(); sp != nil {
			sp.SetAttr("operand", i)
			sp.SetAttr("cells", n)
		}
		st.End(nil)
	}

	workers := 0
	if opts != nil {
		workers = opts.Workers
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Shard by result (metric, call node) row. More shards than rows (or
	// tuples) would only add scan passes.
	rows := int(p.cells / p.nT)
	if workers > rows {
		workers = rows
	}
	if workers > p.total {
		workers = p.total
	}
	if workers < 1 {
		workers = 1
	}
	p.shards = workers
	return p
}

// shardOf returns the shard owning a packed result key. Keys of one result
// (metric, call node) row always land in the same shard, so dense
// accumulator rows are written by exactly one worker.
func (p *kernelPlan) shardOf(key uint64) int {
	return int((key / p.nT) % uint64(p.shards))
}

// accumulate runs fn once per shard, concurrently when the plan has more
// than one shard, as the plan's accumulate stage. When a wide event is
// attached, every shard reports its own wall time into it from its own
// goroutine, so the event's compute_ms sums CPU-parallel work and may
// exceed the invocation's wall duration.
func (p *kernelPlan) accumulate(accumulator string, fn func(shard int)) {
	st := obs.BeginIn(p.span, p.event, obs.Accumulate)
	defer st.End(nil)
	st.Count(obs.KernelCalls, 1)
	st.Count(obs.KernelShards, int64(p.shards))
	st.Event().SetAccumulator(accumulator)
	run := fn
	if st.Event() != nil {
		shared := st // only an evented plan moves its stage to the heap
		run = func(shard int) {
			start := time.Now()
			fn(shard)
			shared.Count(obs.KernelCompute, int64(time.Since(start)))
		}
	}
	if p.shards == 1 {
		run(0)
		return
	}
	var wg sync.WaitGroup
	wg.Add(p.shards)
	for s := 0; s < p.shards; s++ {
		go func(s int) {
			defer wg.Done()
			run(s)
		}(s)
	}
	wg.Wait()
}

// denseOK decides between the dense accumulator (one float64 per result
// cell) and the sparse map accumulator: dense wins when the result domain is
// small in absolute terms and not vastly larger than the work to do.
func (p *kernelPlan) denseOK() bool {
	const maxDenseCells = 1 << 23 // 64 MiB of float64
	return p.cells > 0 && p.cells <= maxDenseCells && p.cells <= 8*uint64(p.total)+1024
}

// blockRows drives the row-cached remapping of one operand block: it calls
// row once per run of consecutive tuples sharing a source (metric, call
// node) row — returning the packed result-row base (metric and call node
// already remapped) and whether the run participates at all — and tuple for
// every tuple of participating runs with the precomputed base, the source
// thread index, and the value. Because block keys ascend, runs are maximal
// and the per-tuple work stays free of divisions and metric/cnode loads.
func blockRows(b *sevBlock, rt remapTable, p *kernelPlan,
	row func(srcMetric int, rowBase uint64) bool,
	tuple func(rowBase uint64, srcThread int32, v float64)) {
	srcNC, srcNT := b.nC, b.nT
	var rowStart, rowEnd, rowBase uint64
	use := false
	for j, v := range b.val {
		k := b.key[j]
		if k >= rowEnd {
			r := k / srcNT
			rowStart = r * srcNT
			rowEnd = rowStart + srcNT
			smi := r / srcNC
			rowBase = (uint64(rt.m[smi])*p.nC + uint64(rt.c[r%srcNC])) * p.nT
			use = row(int(smi), rowBase)
		}
		if use {
			tuple(rowBase, int32(k-rowStart), v)
		}
	}
}

// kernelCombine computes the weighted sum of the operands' zero-extended
// severity functions: result(key) = Σ_i weights[i] · folded_i(key), where
// folded_i sums the collapsed contributions of operand i. keep, when
// non-nil, restricts operand i to source metrics with keep[i][srcMetric]
// (Merge's ownership rule); a nil inner slice admits every metric.
func (p *kernelPlan) kernelCombine(weights []float64, keep [][]bool) {
	if p.denseOK() {
		acc := make([]float64, p.cells)
		p.accumulate("dense", func(shard int) {
			ssp, rows := p.shardSpan(shard, "dense")
			for i, b := range p.blocks {
				w := weights[i]
				if w == 0 {
					continue
				}
				var kp []bool
				if keep != nil {
					kp = keep[i]
				}
				rtT := p.maps[i].t
				blockRows(b, p.maps[i], p,
					func(smi int, rowBase uint64) bool {
						if kp != nil && !kp[smi] {
							return false
						}
						if p.shards != 1 && p.shardOf(rowBase) != shard {
							return false
						}
						if rows != nil {
							*rows++
						}
						return true
					},
					func(rowBase uint64, st int32, v float64) {
						acc[rowBase+uint64(rtT[st])] += w * v
					})
			}
			endShardSpan(ssp, rows)
		})
		st := obs.BeginIn(p.span, p.event, obs.Materialize)
		// Count first so the output is allocated at its exact size: it
		// becomes a cached result's store, and capacity sized for the
		// operands' combined tuples would pin about n× its length.
		n := 0
		for _, v := range acc {
			if v != 0 {
				n++
			}
		}
		keys := make([]uint64, 0, n)
		vals := make([]float64, 0, n)
		for key, v := range acc {
			if v != 0 {
				keys = append(keys, uint64(key))
				vals = append(vals, v)
			}
		}
		p.install(keys, vals, true, &st)
		return
	}
	accs := make([]map[uint64]float64, p.shards)
	p.accumulate("sparse", func(shard int) {
		ssp, rows := p.shardSpan(shard, "sparse")
		acc := make(map[uint64]float64, p.total/p.shards+1)
		for i, b := range p.blocks {
			w := weights[i]
			if w == 0 {
				continue
			}
			var kp []bool
			if keep != nil {
				kp = keep[i]
			}
			rtT := p.maps[i].t
			blockRows(b, p.maps[i], p,
				func(smi int, rowBase uint64) bool {
					if kp != nil && !kp[smi] {
						return false
					}
					if p.shards != 1 && p.shardOf(rowBase) != shard {
						return false
					}
					if rows != nil {
						*rows++
					}
					return true
				},
				func(rowBase uint64, st int32, v float64) {
					acc[rowBase+uint64(rtT[st])] += w * v
				})
		}
		accs[shard] = acc
		endShardSpan(ssp, rows)
	})
	st := obs.BeginIn(p.span, p.event, obs.Materialize)
	n := 0
	for _, acc := range accs {
		n += len(acc)
	}
	keys := make([]uint64, 0, n)
	vals := make([]float64, 0, n)
	for _, acc := range accs {
		for key, v := range acc {
			if v != 0 {
				keys = append(keys, key)
				vals = append(vals, v)
			}
		}
	}
	p.install(keys, vals, false, &st)
}

// shardSpan opens one worker shard's "kernel" span, annotated with the
// shard number and accumulator choice. The returned counter is nil when
// the shard is untraced, so the hot row callback pays a predictable
// nil check instead of counting work nobody will read.
func (p *kernelPlan) shardSpan(shard int, accumulator string) (*obs.Span, *int) {
	ssp := p.span.StartChild("kernel")
	if ssp == nil {
		return nil, nil
	}
	ssp.SetAttr("shard", shard)
	ssp.SetAttr("accumulator", accumulator)
	return ssp, new(int)
}

// endShardSpan closes a shard span with its processed-row count.
func endShardSpan(ssp *obs.Span, rows *int) {
	if ssp == nil {
		return
	}
	ssp.SetAttr("rows", *rows)
	ssp.End()
}

// kernelFold computes, for every result key defined in at least one
// operand, finish(folded) where folded[i] is the collapsed (summed)
// contribution of operand i — zero when the operand does not define the key
// (zero extension). finish must be pure; it receives a buffer owned by the
// kernel, valid only for the duration of the call.
func (p *kernelPlan) kernelFold(finish func(folded []float64) float64) {
	nOps := len(p.blocks)
	type shardOut struct {
		keys []uint64
		vals []float64
	}
	outs := make([]shardOut, p.shards)
	p.accumulate("fold", func(shard int) {
		ssp, rows := p.shardSpan(shard, "fold")
		idx := make(map[uint64]int32, p.total/p.shards+1)
		var keys []uint64
		var arena []float64
		zero := make([]float64, nOps)
		for i, b := range p.blocks {
			rtT := p.maps[i].t
			blockRows(b, p.maps[i], p,
				func(_ int, rowBase uint64) bool {
					if p.shards != 1 && p.shardOf(rowBase) != shard {
						return false
					}
					if rows != nil {
						*rows++
					}
					return true
				},
				func(rowBase uint64, st int32, v float64) {
					key := rowBase + uint64(rtT[st])
					slot, ok := idx[key]
					if !ok {
						slot = int32(len(keys))
						idx[key] = slot
						keys = append(keys, key)
						arena = append(arena, zero...)
					}
					arena[int(slot)*nOps+i] += v
				})
		}
		// Finish per key, dropping exact-zero results (the store never
		// holds zeros).
		vals := make([]float64, 0, len(keys))
		kept := keys[:0]
		for s, key := range keys {
			if v := finish(arena[s*nOps : (s+1)*nOps]); v != 0 {
				kept = append(kept, key)
				vals = append(vals, v)
			}
		}
		outs[shard] = shardOut{kept, vals}
		endShardSpan(ssp, rows)
	})
	st := obs.BeginIn(p.span, p.event, obs.Materialize)
	n := 0
	for _, o := range outs {
		n += len(o.keys)
	}
	keys := make([]uint64, 0, n)
	vals := make([]float64, 0, n)
	for _, o := range outs {
		keys = append(keys, o.keys...)
		vals = append(vals, o.vals...)
	}
	p.install(keys, vals, false, &st)
}

// install stores the kernel output as the result's severity block and
// ends the materialize stage st; the accumulators already dropped exact
// zeros. The stored slices are exact-size, so a cached result occupies
// what ResidentBytes charges for it.
func (p *kernelPlan) install(keys []uint64, vals []float64, sorted bool, st *obs.Stage) {
	keys, vals = exactSize(keys, vals)
	if sp := st.Span(); !sorted && sp != nil {
		rsp := sp.StartChild("radix-sort")
		rsp.SetAttr("keys", len(keys))
		radixSortKV(keys, vals)
		rsp.End()
	} else if !sorted {
		radixSortKV(keys, vals)
	}
	p.in.out.installBlock(keys, vals)
	if sp := st.Span(); sp != nil {
		sp.SetAttr("cells", len(keys))
	}
	st.End(nil)
}

// exactSize returns the pair with capacity equal to length, copying only
// when dropped zeros (or skipped tuples) left spare capacity behind.
func exactSize(keys []uint64, vals []float64) ([]uint64, []float64) {
	if cap(keys) == len(keys) && cap(vals) == len(vals) {
		return keys, vals
	}
	k := make([]uint64, len(keys))
	v := make([]float64, len(vals))
	copy(k, keys)
	copy(v, vals)
	return k, v
}

// mergeKeep builds Merge's per-operand ownership masks over source metric
// indices: operand i keeps a source metric exactly when it is the first
// operand providing the integrated metric. It runs on the flat index forms
// so the digest fast paths never materialise pointer maps for it.
func mergeKeep(in *integration, operands []*Experiment) [][]bool {
	srcs := in.metricSrcs()
	tabs := in.tables()
	keep := make([][]bool, len(operands))
	for i := range operands {
		tm := tabs[i].m
		k := make([]bool, len(tm))
		for si, ri := range tm {
			k[si] = srcs[ri] == int32(i)
		}
		keep[i] = k
	}
	return keep
}
