package core

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// --- Lowered-block cache -----------------------------------------------------

func TestLoweredBlockCaching(t *testing.T) {
	e := buildSmall("a")
	b1 := e.sealedBlock()
	if b1.len() != e.NonZeroCount() {
		t.Fatalf("block has %d tuples, store has %d", b1.len(), e.NonZeroCount())
	}
	if b2 := e.sealedBlock(); b2 != b1 {
		t.Errorf("unchanged experiment rebuilt its block")
	}
	// A severity write is sealed into a new block.
	e.SetSeverity(e.Metrics()[0], e.CallNodes()[0], e.Threads()[0], 42)
	b3 := e.sealedBlock()
	if b3 == b1 {
		t.Errorf("severity write did not reseal the block")
	}
	// Inserting a call node shifts pre-order indices: the block is
	// repacked and every tuple keeps its value.
	before := e.Fingerprint()
	e.CallRoots()[0].NewChild(e.NewCallSite("app", 99, e.NewRegion("new", "app", 0, 0)))
	e.Invalidate()
	if b5 := e.sealedBlock(); b5 == b3 || b5.nC != uint64(len(e.CallNodes())) {
		t.Errorf("call-tree growth did not repack the block")
	}
	sevs := func(f string) string { return f[strings.Index(f, "severity:"):] }
	if after := e.Fingerprint(); sevs(after) != sevs(before) {
		t.Errorf("repacking changed the severities:\n%s\nwant\n%s", after, before)
	}
	if err := e.Validate(); err != nil {
		t.Errorf("repacked experiment invalid: %v", err)
	}
}

func TestLoweredBlockCanonicalOrder(t *testing.T) {
	e := buildSmall("a")
	b := e.sealedBlock()
	for i := 1; i < b.len(); i++ {
		if b.key[i-1] >= b.key[i] {
			t.Fatalf("keys not strictly ascending at %d: %d, %d", i, b.key[i-1], b.key[i])
		}
	}
	// Every entry round-trips through the enumerations to its stored value.
	for i := 0; i < b.len(); i++ {
		mi, ci, ti := b.at(i)
		m, c, th := e.Metrics()[mi], e.CallNodes()[ci], e.Threads()[ti]
		if got := e.Severity(m, c, th); got != b.val[i] {
			t.Fatalf("entry %d: block %v, store %v", i, b.val[i], got)
		}
	}
}

// --- Radix sort --------------------------------------------------------------

func TestRadixSortKV(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 2, 3, 17, 1000} {
		keys := make([]uint64, n)
		vals := make([]float64, n)
		for i := range keys {
			// Keys spanning four digit bytes, including 0xff digits (a
			// former implementation wrapped byte(255)+1 to 0 in the
			// counting-sort offsets).
			keys[i] = uint64(r.Intn(1 << 30))
			if i%5 == 0 {
				keys[i] |= 0xff
			}
			vals[i] = float64(i)
		}
		type kv struct {
			k uint64
			v float64
		}
		want := make([]kv, n)
		for i := range want {
			want[i] = kv{keys[i], vals[i]}
		}
		sort.Slice(want, func(i, j int) bool { return want[i].k < want[j].k })
		radixSortKV(keys, vals)
		for i := range want {
			if keys[i] != want[i].k || vals[i] != want[i].v {
				t.Fatalf("n=%d: entry %d = (%d, %v), want (%d, %v)",
					n, i, keys[i], vals[i], want[i].k, want[i].v)
			}
		}
	}
}

func TestRadixSortKVSharedDigits(t *testing.T) {
	// All keys agree on the low byte: the identity pass must be skipped
	// without disturbing the order established by the other passes.
	keys := []uint64{0x0300_07, 0x0100_07, 0x0200_07, 0x0102_07}
	vals := []float64{3, 1, 2, 1.5}
	radixSortKV(keys, vals)
	wantK := []uint64{0x0100_07, 0x0102_07, 0x0200_07, 0x0300_07}
	wantV := []float64{1, 1.5, 2, 3}
	for i := range wantK {
		if keys[i] != wantK[i] || vals[i] != wantV[i] {
			t.Fatalf("entry %d = (%x, %v), want (%x, %v)", i, keys[i], vals[i], wantK[i], wantV[i])
		}
	}
}

// --- Sealed store --------------------------------------------------------------

func TestKernelResultIsColumnarOnly(t *testing.T) {
	a, b := buildSmall("a"), buildSmall("b")
	d, err := Difference(a, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !d.sealed.Load() || d.pending != nil {
		t.Fatalf("kernel result is not sealed")
	}
	n := d.NonZeroCount()
	seen := 0
	d.EachSeverity(func(*Metric, *CallNode, *Thread, float64) { seen++ })
	if n != seen {
		t.Errorf("NonZeroCount = %d, EachSeverity visited %d", n, seen)
	}
	// Point reads are loads: they leave the block as it is.
	blk := d.block
	_ = d.Severity(d.Metrics()[0], d.CallNodes()[0], d.Threads()[0])
	if d.block != blk || d.pending != nil {
		t.Errorf("Severity changed the store")
	}
}

func TestLazyResultSurvivesMetadataMutation(t *testing.T) {
	a, b := buildSmall("a"), buildSmall("b")
	d, err := Sum(nil, a, b)
	if err != nil {
		t.Fatal(err)
	}
	total := d.MetricInclusive(d.FindMetricByName("Time"))
	// Growing the metric forest re-enumerates the metadata; the block
	// must follow the new indices.
	d.NewMetric("Extra", Seconds, "")
	if got := d.MetricInclusive(d.FindMetricByName("Time")); got != total {
		t.Errorf("total after metadata mutation = %v, want %v", got, total)
	}
	if err := d.Validate(); err != nil {
		t.Errorf("mutated result invalid: %v", err)
	}
}

func TestLazyResultMutation(t *testing.T) {
	a, b := buildSmall("a"), buildSmall("b")
	d, err := Sum(nil, a, b)
	if err != nil {
		t.Fatal(err)
	}
	m, c, th := d.Metrics()[0], d.CallNodes()[0], d.Threads()[0]
	d.SetSeverity(m, c, th, 123)
	if got := d.Severity(m, c, th); got != 123 {
		t.Errorf("severity after write = %v, want 123", got)
	}
	d.AddSeverity(m, c, th, -123)
	if got := d.Severity(m, c, th); got != 0 {
		t.Errorf("severity after cancel = %v, want 0", got)
	}
}

// --- Accumulator selection ----------------------------------------------------

// TestKernelMapAccumulatorPath drives an operand pair whose integrated
// domain is far larger than the tuple count, forcing the sparse map
// accumulator, and checks the result against the legacy engine.
func TestKernelMapAccumulatorPath(t *testing.T) {
	build := func(title string, v float64) *Experiment {
		e := New(title)
		m := e.NewMetric("Time", Seconds, "")
		reg := e.NewRegion("main", "app", 0, 0)
		root := e.NewCallRoot(e.NewCallSite("app", 0, reg))
		for i := 0; i < 2100; i++ {
			root.NewChild(e.NewCallSite("app", i+1, reg))
		}
		e.Invalidate()
		th := e.SingleThreadedSystem("mach", 1, 1)[0]
		e.SetSeverity(m, root, th, v)
		e.SetSeverity(m, root.Children()[0], th, 2*v)
		return e
	}
	a, b := build("a", 1), build("b", 0.5)
	in, err := integrate(nil, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if p := newKernelPlan(in, nil, []*Experiment{a, b}, nil); p.denseOK() {
		t.Fatalf("fixture selects the dense accumulator (cells=%d, total=%d); enlarge it", p.cells, p.total)
	}
	k, err := Difference(a, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	l, err := oracle("difference", nil, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if k.Fingerprint() != l.Fingerprint() {
		t.Errorf("map-accumulator kernel result differs from legacy")
	}
	if got := sev(k, "Time", "main", 0); got != 0.5 {
		t.Errorf("diff at root = %v, want 0.5", got)
	}
}

// --- Worker sharding -----------------------------------------------------------

func TestKernelWorkerCountInvariance(t *testing.T) {
	a, b := buildSmall("a"), buildSmall("b")
	b.SetSeverity(b.FindMetricByName("Time"), b.FindCallNode("main/compute"), b.Threads()[1], 7)
	ref, err := oracle("difference", nil, a, b)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 3, 8, 64} {
		d, err := Difference(a, b, &Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if d.Fingerprint() != ref.Fingerprint() {
			t.Errorf("workers=%d: result differs from reference", workers)
		}
		sd, err := StdDev(&Options{Workers: workers}, a, b)
		if err != nil {
			t.Fatal(err)
		}
		sdRef, err := oracle("stddev", nil, a, b)
		if err != nil {
			t.Fatal(err)
		}
		if sd.Fingerprint() != sdRef.Fingerprint() {
			t.Errorf("workers=%d: stddev differs from reference", workers)
		}
	}
}

// --- Non-finite propagation ----------------------------------------------------

// TestKernelNaNPropagation documents the IEEE-754 in-core policy: operators
// neither mask nor reject non-finite severities — they propagate. (Validate
// and the cubexml boundary keep such values out of well-formed experiments;
// this exercises programmatic construction.)
func TestKernelNaNPropagation(t *testing.T) {
	for _, engine := range []string{"kernel", "oracle"} {
		a, b := buildSmall("a"), buildSmall("b")
		m, c, th := a.FindMetricByName("Time"), a.FindCallNode("main"), a.Threads()[0]
		a.SetSeverity(m, c, th, math.NaN())
		b.SetSeverity(b.FindMetricByName("Time"), b.FindCallNode("main"), b.Threads()[0], math.Inf(1))
		d, err := runEngine(engine, "difference", a, b)
		if err != nil {
			t.Fatal(err)
		}
		if got := sev(d, "Time", "main", 0); !math.IsNaN(got) {
			t.Errorf("engine %v: NaN − Inf = %v, want NaN", engine, got)
		}
		// Inf − Inf is NaN, not a cancelled zero.
		a2, b2 := buildSmall("a"), buildSmall("b")
		a2.SetSeverity(a2.FindMetricByName("Time"), a2.FindCallNode("main"), a2.Threads()[0], math.Inf(1))
		b2.SetSeverity(b2.FindMetricByName("Time"), b2.FindCallNode("main"), b2.Threads()[0], math.Inf(1))
		d2, err := runEngine(engine, "difference", a2, b2)
		if err != nil {
			t.Fatal(err)
		}
		if got := sev(d2, "Time", "main", 0); !math.IsNaN(got) {
			t.Errorf("engine %v: Inf − Inf = %v, want NaN", engine, got)
		}
	}
}

// --- Merge ownership -----------------------------------------------------------

func TestKernelMergeOwnership(t *testing.T) {
	// Time provided by both operands: the first provider owns all of its
	// values, even where the second has tuples the first lacks.
	a, b := buildSmall("a"), buildSmall("b")
	b.SetSeverity(b.FindMetricByName("Time"), b.FindCallNode("main"), b.Threads()[0], 99)
	for _, engine := range []string{"kernel", "oracle"} {
		g, err := runEngine(engine, "merge", a, b)
		if err != nil {
			t.Fatal(err)
		}
		if got := sev(g, "Time", "main", 0); got != 0.5 {
			t.Errorf("engine %v: merged severity = %v, want first operand's 0.5", engine, got)
		}
	}
}

// --- Packed-key bound ------------------------------------------------------------

// TestCheckDomain: a domain packs into the 64-bit keys exactly when its
// metric × call node × thread product is below 2^64 (empty dimensions
// count as one). Only the sizes are checked; nothing that large is built.
func TestCheckDomain(t *testing.T) {
	for _, tc := range []struct {
		nM, nC, nT int
		ok         bool
	}{
		{0, 0, 0, true},
		{64, 512, 64, true},
		{1 << 21, 1 << 21, 1 << 21, true},  // 2^63
		{1 << 22, 1 << 21, 1 << 21, false}, // 2^64
		{1 << 40, 1 << 24, 0, false},       // overflows in metrics × call nodes
		{3, 6148914691236517205, 1, true},  // 2^64 - 1
		{3, 6148914691236517206, 1, false}, // just over
	} {
		err := checkDomain(tc.nM, tc.nC, tc.nT)
		var de *DomainError
		if tc.ok != (err == nil) || (err != nil && (!errors.As(err, &de) || de.Metrics != tc.nM)) {
			t.Errorf("checkDomain(%d, %d, %d) = %v, want ok=%v and a *DomainError otherwise", tc.nM, tc.nC, tc.nT, err, tc.ok)
		}
	}
}
