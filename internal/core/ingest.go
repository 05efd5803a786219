package core

// This file is the ingest seam of the severity store: a way for producers
// that already know enumeration indices (the cubexml fast-path reader,
// bulk generators) to land severity tuples directly in the packed sevBlock
// representation of kernel.go, skipping the write buffer entirely.

// SeverityIngest accumulates index-addressed severity tuples for one
// experiment and installs them as the experiment's severity block. The
// intended flow is:
//
//	ing, err := e.NewSeverityIngest()
//	nM, nC, nT := ing.Dims()
//	... producers append ing.RowKey(mi, ci)+ti / value pairs, possibly
//	    from several goroutines into disjoint slices ...
//	ing.Commit(keys, vals, sorted)
//
// Keys must be unique (each (metric, call node, thread) tuple at most
// once) and values non-zero and the indices in range of Dims; Commit
// trusts the producer on all three, which is why the type lives behind
// the internal boundary. Duplicate-free input is what preserves the
// store's set semantics; producers that cannot rule out duplicates must
// fall back to SetSeverity.
type SeverityIngest struct {
	e            *Experiment
	nM, nC, nT   int
	packC, packT uint64
}

// NewSeverityIngest prepares ingesting severities into e, capturing the
// current enumeration sizes. The experiment's metadata must be complete;
// mutating metadata between NewSeverityIngest and Commit invalidates the
// packing. It returns a *DomainError when the domain is too large to pack.
func (e *Experiment) NewSeverityIngest() (*SeverityIngest, error) {
	e.reindex()
	if err := e.domainError(); err != nil {
		return nil, err
	}
	packC, packT := e.packDims()
	return &SeverityIngest{
		e:     e,
		nM:    len(e.metrics),
		nC:    len(e.cnodes),
		nT:    len(e.threads),
		packC: packC,
		packT: packT,
	}, nil
}

// Dims returns the enumeration sizes (metrics, call nodes, threads) the
// packing was built against.
func (in *SeverityIngest) Dims() (nMetrics, nCallNodes, nThreads int) {
	return in.nM, in.nC, in.nT
}

// RowKey returns the packed key of (mi, ci, thread 0); the key of thread
// ti within the row is RowKey(mi, ci) + ti. Keys compare in (metric,
// call node, thread) enumeration order, the canonical severity order.
func (in *SeverityIngest) RowKey(mi, ci int) uint64 {
	return (uint64(mi)*in.packC + uint64(ci)) * in.packT
}

// Commit installs the accumulated (key, value) pairs as the experiment's
// severity function, replacing whatever it held. The slices are owned by
// the experiment afterwards. sorted asserts the keys already ascend
// strictly; otherwise they are radix-sorted here (values follow their
// keys). Ingesting n tuples costs O(n) flat array writes plus at most one
// sort, with no per-tuple map or allocation work.
func (in *SeverityIngest) Commit(keys []uint64, vals []float64, sorted bool) {
	if !sorted {
		radixSortKV(keys, vals)
	}
	in.e.installBlock(keys, vals)
}
