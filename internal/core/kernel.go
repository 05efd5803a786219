package core

import (
	"math/bits"
	"runtime"
	"sync"
	"time"

	"cube/internal/obs"
)

// This file implements the indexed severity kernel layer: the arithmetic
// core shared by all algebraic operators.
//
// The operators' element-wise semantics are defined over the *zero-extended*
// severity functions on the integrated metadata. The naive realisation walks
// each operand's sparse map and remaps every tuple through three
// pointer-keyed maps (metricFrom/cnodeFrom/threadFrom) before touching a
// pointer-keyed result map — four hash operations over 24-byte keys per
// tuple. The kernel layer replaces that walk with three stages over flat
// integer indices:
//
//  1. lower  — each operand's sparse map is lowered once into a columnar
//     block: packed (metric, call node, thread) linear indices plus values,
//     radix-sorted into the canonical pre-order. Blocks are cached on the
//     experiment and invalidated by severity or metadata mutation, so
//     repeated operator application over the same operands pays the pointer
//     chasing only once.
//  2. accumulate — per operand, a remap table ([]int32, source index →
//     result index, built from the integration's cached index maps with one
//     map lookup per metadata node instead of one per tuple) turns every
//     block entry into a packed uint64 linear index of the result domain.
//     Because block keys ascend, the (metric, call node) row component only
//     changes every run of consecutive tuples; the kernels re-derive the
//     row remap on row changes and reduce the per-tuple work to one table
//     load and one fused multiply-add. Accumulation goes into either a
//     dense []float64 (when the result domain is small enough relative to
//     the tuple count) or a map[uint64]float64 — both far cheaper than a
//     pointer-keyed map. Work is sharded by result (metric, call node) row
//     across workers; shards partition the key space, so accumulators never
//     need locks.
//  3. materialize — the accumulated (key, value) pairs are radix-sorted
//     into canonical order and become the result's severity store directly:
//     the sorted block doubles as the result's lowered-block cache, so
//     operator chains never re-lower, and the pointer-keyed sparse map is
//     only materialised lazily if a map-based accessor is used
//     (Experiment.ensureSev). Exact zeros are dropped, as SetSeverity and
//     AddSeverity would.
//
// Because every per-key combination folds the collapsed contributions of
// one operand first (in canonical source order) and then combines operands
// in operand order, results are deterministic: the same operands and
// options produce bit-identical results regardless of worker count or map
// iteration order.

// sevBlock is the columnar lowering of a sparse severity store: packed
// linear indices (mi*nC + ci)*nT + ti in ascending order and their values,
// where nC and nT are the owning experiment's enumeration sizes at build
// time (clamped to ≥ 1 so the packing is invertible on empty dimensions).
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

// loweredBlock returns the experiment's severity function in columnar form,
// building and caching it on first use. Tuples that refer to unregistered
// metadata (possible only on invalid experiments) are skipped, matching
// Dense. The cache is invalidated by any severity mutation (sevGen) and by
// metadata re-enumeration (metaGen).
func (e *Experiment) loweredBlock() *sevBlock {
	e.reindex()
	if e.lowered != nil && e.loweredSevGen == e.sevGen && e.loweredMetaGen == e.metaGen {
		return e.lowered
	}
	nC, nT := uint64(len(e.cnodes)), uint64(len(e.threads))
	if nC == 0 {
		nC = 1
	}
	if nT == 0 {
		nT = 1
	}
	sev := e.sevMap()
	keys := make([]uint64, 0, len(sev))
	vals := make([]float64, 0, len(sev))
	for k, v := range sev {
		mi, ok1 := e.metricIndex[k.m]
		ci, ok2 := e.cnodeIndex[k.c]
		ti, ok3 := e.threadIndex[k.t]
		if !ok1 || !ok2 || !ok3 {
			continue
		}
		keys = append(keys, (uint64(mi)*nC+uint64(ci))*nT+uint64(ti))
		vals = append(vals, v)
	}
	keys, vals = exactSize(keys, vals)
	radixSortKV(keys, vals)
	e.lowered = &sevBlock{key: keys, val: vals, nC: nC, nT: nT}
	e.loweredSevGen = e.sevGen
	e.loweredMetaGen = e.metaGen
	if len(keys) == len(sev) {
		// The block captures the map losslessly (no unregistered tuples
		// were skipped), so the columnar form becomes the primary store:
		// drop the pointer-keyed map — it is rebuilt on demand by
		// ensureSev — and relieve the garbage collector of millions of
		// pointer-bearing map entries on large experiments.
		e.sev = nil
	}
	return e.lowered
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
	cells  uint64 // total result cells, 0 when it would overflow
	total  int    // total tuples across all operand blocks
	shards int
}

// kernelFeasible reports whether the result domain fits the packed-index
// representation (it always does for realistic metadata; the guard keeps
// pathological dimensions on the legacy path rather than overflowing).
func kernelFeasible(out *Experiment) bool {
	out.reindex()
	return bits.Len(uint(len(out.metrics)))+bits.Len(uint(len(out.cnodes)))+bits.Len(uint(len(out.threads))) <= 62
}

func newKernelPlan(in *integration, opts *Options, operands []*Experiment, span *obs.Span) *kernelPlan {
	out := in.out
	out.reindex()
	var ev *obs.Event
	if opts != nil {
		ev = opts.Event
	}
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
	stage := startKernelStage()
	// The remap tables come from the integration in flat form — identity
	// or memoised tables on the digest fast paths, derived from the
	// pointer maps otherwise (integrate.go tables()).
	tabs := in.tables()
	for i, x := range operands {
		lsp := span.StartChild("lower")
		p.blocks[i] = x.loweredBlock()
		p.total += p.blocks[i].len()
		p.maps[i] = tabs[i]
		if lsp != nil {
			lsp.SetAttr("operand", i)
			lsp.SetAttr("cells", p.blocks[i].len())
			lsp.End()
		}
	}
	stage.done("lower")

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
	recordKernelPlan(p)
	return p
}

// shardOf returns the shard owning a packed result key. Keys of one result
// (metric, call node) row always land in the same shard, so dense
// accumulator rows are written by exactly one worker.
func (p *kernelPlan) shardOf(key uint64) int {
	return int((key / p.nT) % uint64(p.shards))
}

// parallel runs fn once per shard, concurrently when the plan has more than
// one shard. When a wide event is attached, every shard reports its own
// wall time into it from its own goroutine — the event's accumulators are
// concurrency-safe — so the event's compute_ms sums CPU-parallel work and
// may exceed the invocation's wall duration.
func (p *kernelPlan) parallel(fn func(shard int)) {
	run := fn
	if ev := p.event; ev != nil {
		run = func(shard int) {
			start := time.Now()
			fn(shard)
			ev.AddCompute(time.Since(start))
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
	stage := startKernelStage()
	if p.denseOK() {
		p.event.SetAccumulator("dense")
		acc := make([]float64, p.cells)
		p.parallel(func(shard int) {
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
		stage.done("accumulate")
		stage = startKernelStage()
		msp := p.span.StartChild("materialize")
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
		p.install(keys, vals, true, msp)
		msp.SetAttr("cells", len(keys))
		msp.End()
		stage.done("materialize")
		return
	}
	p.event.SetAccumulator("sparse")
	accs := make([]map[uint64]float64, p.shards)
	p.parallel(func(shard int) {
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
	stage.done("accumulate")
	stage = startKernelStage()
	msp := p.span.StartChild("materialize")
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
	p.install(keys, vals, false, msp)
	msp.SetAttr("cells", len(keys))
	msp.End()
	stage.done("materialize")
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
	stage := startKernelStage()
	p.event.SetAccumulator("fold")
	nOps := len(p.blocks)
	type shardOut struct {
		keys []uint64
		vals []float64
	}
	outs := make([]shardOut, p.shards)
	p.parallel(func(shard int) {
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
	stage.done("accumulate")
	stage = startKernelStage()
	msp := p.span.StartChild("materialize")
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
	p.install(keys, vals, false, msp)
	msp.SetAttr("cells", len(keys))
	msp.End()
	stage.done("materialize")
}

// install writes the kernel output into the result's severity store, in
// columnar form only: the sorted (key, value) pairs become the result's
// lowered-block cache directly, so chained operators skip the lowering
// stage, and the pointer-keyed sparse map is left unmaterialised —
// Experiment.ensureSev builds it lazily if a map-based accessor is ever
// used. Exact zeros were dropped by the accumulators, preserving the
// zero-deletion invariant. The stored slices are exact-size, so a cached
// result occupies what ResidentBytes charges for it.
func (p *kernelPlan) install(keys []uint64, vals []float64, sorted bool, parent *obs.Span) {
	keys, vals = exactSize(keys, vals)
	if !sorted {
		rsp := parent.StartChild("radix-sort")
		rsp.SetAttr("keys", len(keys))
		radixSortKV(keys, vals)
		rsp.End()
	}
	out := p.in.out
	out.sevGen++
	out.sev = nil // columnar-only until a map accessor materialises it
	out.lowered = &sevBlock{key: keys, val: vals, nC: p.nC, nT: p.nT}
	out.loweredSevGen = out.sevGen
	out.loweredMetaGen = out.metaGen
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
