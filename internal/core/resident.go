package core

import (
	"math/bits"
	"unsafe"
)

// ResidentBytes estimates the heap bytes the experiment occupies: its
// severity block's slice capacities, its metadata forests, the cached
// enumerations and index maps, and the experiment header itself. Names are
// interned process-wide (intern.go) and shared by every experiment, so
// their bytes are not charged; titles and attributes, which are per
// experiment, are. Each allocation is rounded up the way the runtime's
// size classes round it.
//
// The byte-budgeted caches that hold experiments (the expression result
// cache, the integration memo) charge this, so their budgets bound
// resident memory. It seals pending writes first, which is safe on a
// shared master.
func (e *Experiment) ResidentBytes() int64 {
	e.seal()
	const ptr = int64(unsafe.Sizeof(uintptr(0)))
	n := allocBytes(int64(unsafe.Sizeof(*e)))
	n += int64(len(e.Title))
	n += mapBytes(len(e.Attrs), unsafe.Sizeof("")*2)
	for k, v := range e.Attrs {
		n += int64(len(k) + len(v))
	}
	n += allocBytes(int64(cap(e.Parents)) * int64(unsafe.Sizeof("")))
	for _, p := range e.Parents {
		n += int64(len(p))
	}

	// Metadata forests and registries.
	n += allocBytes(int64(cap(e.metricRoots)+cap(e.regions)+cap(e.callSites)+cap(e.callRoots)+cap(e.machines)) * ptr)
	for _, r := range e.metricRoots {
		r.Walk(func(m *Metric) {
			n += allocBytes(int64(unsafe.Sizeof(*m))) + allocBytes(int64(cap(m.children))*ptr)
		})
	}
	n += int64(len(e.regions)) * allocBytes(int64(unsafe.Sizeof(Region{})))
	n += int64(len(e.callSites)) * allocBytes(int64(unsafe.Sizeof(CallSite{})))
	for _, r := range e.callRoots {
		r.Walk(func(c *CallNode) {
			n += allocBytes(int64(unsafe.Sizeof(*c))) + allocBytes(int64(cap(c.children))*ptr)
		})
	}
	for _, m := range e.machines {
		n += allocBytes(int64(unsafe.Sizeof(*m))) + allocBytes(int64(cap(m.nodes))*ptr)
		for _, nd := range m.nodes {
			n += allocBytes(int64(unsafe.Sizeof(*nd))) + allocBytes(int64(cap(nd.procs))*ptr)
			for _, p := range nd.procs {
				n += allocBytes(int64(unsafe.Sizeof(*p))) + allocBytes(int64(cap(p.threads))*ptr)
				n += int64(len(p.threads)) * allocBytes(int64(unsafe.Sizeof(Thread{})))
			}
		}
	}
	if t := e.topology; t != nil {
		n += allocBytes(int64(unsafe.Sizeof(*t))) + allocBytes(int64(cap(t.Dims))*ptr)
		n += mapBytes(len(t.Coords), unsafe.Sizeof(0)+unsafe.Sizeof([]int(nil)))
		for _, c := range t.Coords {
			n += allocBytes(int64(cap(c)) * ptr)
		}
	}

	// Cached enumerations and their index maps.
	n += allocBytes(int64(cap(e.metrics)) * ptr)
	n += allocBytes(int64(cap(e.cnodes)) * ptr)
	n += allocBytes(int64(cap(e.procs)) * ptr)
	n += allocBytes(int64(cap(e.threads)) * ptr)
	const indexSlot = unsafe.Sizeof(uintptr(0)) + unsafe.Sizeof(0)
	n += mapBytes(len(e.metricIndex), indexSlot)
	n += mapBytes(len(e.cnodeIndex), indexSlot)
	n += mapBytes(len(e.threadIndex), indexSlot)

	// Severity block.
	b := e.block
	n += allocBytes(int64(unsafe.Sizeof(*b)))
	n += allocBytes(int64(cap(b.key)) * 8)
	n += allocBytes(int64(cap(b.val)) * 8)
	if e.metaDigest.Load() != nil {
		n += allocBytes(int64(unsafe.Sizeof(metaDigestCache{})))
	}
	return n
}

// allocBytes approximates the heap bytes one allocation of size bytes
// occupies. The runtime's size classes step by 8 bytes up to 32, by 16 up
// to 256, then by at most a sixteenth of the next power of two up to
// 32 KiB; larger objects take whole 8 KiB pages.
func allocBytes(size int64) int64 {
	switch {
	case size <= 0:
		return 0
	case size <= 32:
		return (size + 7) &^ 7
	case size <= 256:
		return (size + 15) &^ 15
	case size <= 32<<10:
		step := int64(1) << (bits.Len64(uint64(size-1)) - 4)
		return (size + step - 1) / step * step
	}
	return (size + 8191) &^ 8191
}

// mapBytes approximates a map of n entries whose key and value take slot
// bytes together: slots come in groups of eight plus a control byte each,
// the slot count is a power of two kept at most 7/8 full, and the map
// header adds a fixed amount.
func mapBytes(n int, slot uintptr) int64 {
	const header = 48
	if n == 0 {
		return header
	}
	slots := 8
	for slots*7/8 < n {
		slots *= 2
	}
	return header + allocBytes(int64(slots)*(int64(slot)+1))
}
