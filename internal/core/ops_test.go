package core

import (
	"math"
	"testing"
)

func sev(e *Experiment, metric, call string, rank int) float64 {
	m := e.FindMetricByName(metric)
	c := e.FindCallNode(call)
	t := e.FindThread(rank, 0)
	if m == nil || c == nil || t == nil {
		return math.NaN()
	}
	return e.Severity(m, c, t)
}

func TestDifferenceBasic(t *testing.T) {
	a := buildSmall("a")
	b := buildSmall("b")
	// Perturb b.
	b.SetSeverity(b.FindMetricByName("Time"), b.FindCallNode("main/compute"), b.Threads()[0], 10)

	d, err := Difference(a, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Derived || d.Operation != "difference" || len(d.Parents) != 2 {
		t.Errorf("provenance wrong: %+v", d)
	}
	if got := sev(d, "Time", "main/compute", 0); got != 1-10 {
		t.Errorf("diff value = %v, want -9", got)
	}
	// Unchanged tuples cancel to zero and vanish from the sparse store.
	if got := sev(d, "Time", "main", 0); got != 0 {
		t.Errorf("unchanged tuple = %v, want 0", got)
	}
	if err := d.Validate(); err != nil {
		t.Errorf("difference invalid: %v", err)
	}
}

func TestDifferenceSelfIsZero(t *testing.T) {
	a := buildSmall("a")
	d, err := Difference(a, a, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.NonZeroCount() != 0 {
		t.Errorf("Diff(a,a) has %d non-zero tuples", d.NonZeroCount())
	}
}

func TestDifferenceZeroExtension(t *testing.T) {
	// A call path present only in one operand: missing tuples are zero.
	a := newCallExp("a", "main/onlyA")
	b := newCallExp("b", "main/onlyB")
	ta := a.FindThread(0, 0)
	tb := b.FindThread(0, 0)
	a.SetSeverity(a.Metrics()[0], a.FindCallNode("main/onlyA"), ta, 5)
	b.SetSeverity(b.Metrics()[0], b.FindCallNode("main/onlyB"), tb, 3)

	d, err := Difference(a, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := sev(d, "Time", "main/onlyA", 0); got != 5 {
		t.Errorf("onlyA = %v, want 5", got)
	}
	if got := sev(d, "Time", "main/onlyB", 0); got != -3 {
		t.Errorf("onlyB = %v, want -3 (zero-extended minuend)", got)
	}
}

func TestDifferenceAntiSymmetric(t *testing.T) {
	a := buildSmall("a")
	b := buildSmall("b")
	b.SetSeverity(b.FindMetricByName("Comm"), b.FindCallNode("main/MPI_Recv"), b.Threads()[2], 7)
	ab, _ := Difference(a, b, nil)
	ba, _ := Difference(b, a, nil)
	neg, err := Scale(ba, -1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ab.Fingerprint() != neg.Fingerprint() {
		t.Errorf("Diff(a,b) != -Diff(b,a)")
	}
}

func TestMeanIdentityAndAverage(t *testing.T) {
	a := buildSmall("a")
	m1, err := Mean(nil, a)
	if err != nil {
		t.Fatal(err)
	}
	if m1.Fingerprint() != a.Fingerprint() {
		t.Errorf("Mean(a) != a")
	}

	b := buildSmall("b")
	b.SetSeverity(b.FindMetricByName("Time"), b.FindCallNode("main"), b.Threads()[0], 1.5)
	m2, err := Mean(nil, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if got := sev(m2, "Time", "main", 0); got != (0.5+1.5)/2 {
		t.Errorf("mean = %v, want 1", got)
	}
	// Mean over three operands.
	m3, err := Mean(nil, a, a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := (0.5 + 0.5 + 1.5) / 3
	if got := sev(m3, "Time", "main", 0); math.Abs(got-want) > 1e-12 {
		t.Errorf("3-way mean = %v, want %v", got, want)
	}
}

func TestSumAndScale(t *testing.T) {
	a := buildSmall("a")
	s, err := Sum(nil, a, a)
	if err != nil {
		t.Fatal(err)
	}
	if got := sev(s, "Time", "main/compute", 3); got != 8 {
		t.Errorf("sum = %v, want 8", got)
	}
	sc, err := Scale(a, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Fingerprint() != s.Fingerprint() {
		t.Errorf("Scale(a,2) != Sum(a,a)")
	}
	if sc.Attrs["cube.scale"] != "2" {
		t.Errorf("scale attr missing")
	}
	// Sum(a, Scale(a,-1)) == 0.
	neg, _ := Scale(a, -1, nil)
	zero, err := Sum(nil, a, neg)
	if err != nil {
		t.Fatal(err)
	}
	if zero.NonZeroCount() != 0 {
		t.Errorf("a + (-a) has %d non-zero tuples", zero.NonZeroCount())
	}
}

func TestMergeMetricPreference(t *testing.T) {
	a := buildSmall("a")
	b := buildSmall("b")
	// Same metric in both: values must come from the first operand.
	b.SetSeverity(b.FindMetricByName("Time"), b.FindCallNode("main"), b.Threads()[0], 42)

	m, err := Merge(a, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := sev(m, "Time", "main", 0); got != 0.5 {
		t.Errorf("merge took the metric from the wrong operand: %v", got)
	}
	if !m.Derived || m.Operation != "merge" {
		t.Errorf("provenance wrong")
	}
}

func TestMergeDisjointMetrics(t *testing.T) {
	a := buildSmall("a") // Time tree + Visits
	b := New("b")
	fp := b.NewMetric("PAPI_FP_INS", Occurrences, "")
	mainR := b.NewRegion("main", "app.c", 1, 99)
	root := b.NewCallRoot(b.NewCallSite("", 0, mainR))
	threads := b.SingleThreadedSystem("mach", 2, 4)
	for _, th := range threads {
		b.SetSeverity(fp, root, th, 1000)
	}

	m, err := Merge(a, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.MetricRoots()) != 3 {
		t.Fatalf("merged roots = %d, want 3 (Time, Visits, PAPI_FP_INS)", len(m.MetricRoots()))
	}
	if got := sev(m, "PAPI_FP_INS", "main", 2); got != 1000 {
		t.Errorf("counter data lost: %v", got)
	}
	if got := sev(m, "Time", "main/compute", 1); got != 2 {
		t.Errorf("time data lost: %v", got)
	}
	if err := m.Validate(); err != nil {
		t.Errorf("merge invalid: %v", err)
	}
}

func TestMergeIdempotent(t *testing.T) {
	a := buildSmall("a")
	m, err := Merge(a, a, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Fingerprint() != a.Fingerprint() {
		t.Errorf("Merge(a,a) != a")
	}
}

func TestMergeAllLeftToRight(t *testing.T) {
	a := buildSmall("a")
	b := buildSmall("b")
	c := buildSmall("c")
	b.SetSeverity(b.FindMetricByName("Time"), b.FindCallNode("main"), b.Threads()[0], 100)
	c.SetSeverity(c.FindMetricByName("Time"), c.FindCallNode("main"), c.Threads()[0], 200)
	m, err := MergeAll(nil, a, b, c)
	if err != nil {
		t.Fatal(err)
	}
	if got := sev(m, "Time", "main", 0); got != 0.5 {
		t.Errorf("leftmost operand must win: %v", got)
	}
}

func TestMinMax(t *testing.T) {
	a := buildSmall("a")
	b := buildSmall("b")
	b.SetSeverity(b.FindMetricByName("Time"), b.FindCallNode("main"), b.Threads()[0], 0.1)

	mn, err := Min(nil, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if got := sev(mn, "Time", "main", 0); got != 0.1 {
		t.Errorf("min = %v, want 0.1", got)
	}
	mx, err := Max(nil, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if got := sev(mx, "Time", "main", 0); got != 0.5 {
		t.Errorf("max = %v, want 0.5", got)
	}
}

func TestMinZeroExtension(t *testing.T) {
	// Tuple defined only in a: the zero-extended b value 0 must win the
	// minimum (element-wise semantics on the dense arrays).
	a := newCallExp("a", "main/x")
	b := newCallExp("b", "main")
	a.SetSeverity(a.Metrics()[0], a.FindCallNode("main/x"), a.FindThread(0, 0), 5)
	mn, err := Min(nil, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if got := sev(mn, "Time", "main/x", 0); got != 0 {
		t.Errorf("min with zero-extension = %v, want 0", got)
	}
	mx, err := Max(nil, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if got := sev(mx, "Time", "main/x", 0); got != 5 {
		t.Errorf("max with zero-extension = %v, want 5", got)
	}
}

func TestMinOfNegatives(t *testing.T) {
	// Min over difference experiments must handle negative severities.
	a := buildSmall("a")
	b := buildSmall("b")
	b.SetSeverity(b.FindMetricByName("Time"), b.FindCallNode("main"), b.Threads()[0], 2)
	d, _ := Difference(a, b, nil) // main@0 = -1.5
	mn, err := Min(nil, d, a)
	if err != nil {
		t.Fatal(err)
	}
	if got := sev(mn, "Time", "main", 0); got != -1.5 {
		t.Errorf("min = %v, want -1.5", got)
	}
}

func TestOperatorErrors(t *testing.T) {
	if _, err := Mean(nil); err != ErrNoOperands {
		t.Errorf("Mean(): %v", err)
	}
	if _, err := Sum(nil); err != ErrNoOperands {
		t.Errorf("Sum(): %v", err)
	}
	if _, err := Min(nil); err != ErrNoOperands {
		t.Errorf("Min(): %v", err)
	}
	if _, err := MergeAll(nil); err != ErrNoOperands {
		t.Errorf("MergeAll(): %v", err)
	}
	if _, err := Difference(buildSmall("a"), nil, nil); err == nil {
		t.Errorf("nil operand accepted")
	}
}

func TestClosureComposition(t *testing.T) {
	// The paper's flagship composite: difference of means, then viewed,
	// stored, and operated on again.
	a1, a2 := buildSmall("a1"), buildSmall("a2")
	b1, b2 := buildSmall("b1"), buildSmall("b2")
	b1.SetSeverity(b1.FindMetricByName("Wait"), b1.FindCallNode("main/MPI_Recv"), b1.Threads()[1], 4)
	b2.SetSeverity(b2.FindMetricByName("Wait"), b2.FindCallNode("main/MPI_Recv"), b2.Threads()[1], 6)

	ma, err := Mean(nil, a1, a2)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := Mean(nil, b1, b2)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Difference(ma, mb, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := sev(d, "Wait", "main/MPI_Recv", 1); got != 0.125-5 {
		t.Errorf("difference of means = %v, want %v", got, 0.125-5)
	}
	// And once more: operate on the derived experiment.
	dd, err := Difference(d, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if dd.NonZeroCount() != 0 {
		t.Errorf("Diff(d,d) non-zero")
	}
	if err := dd.Validate(); err != nil {
		t.Errorf("doubly derived experiment invalid: %v", err)
	}
}

func TestStdDev(t *testing.T) {
	a := buildSmall("a")
	b := buildSmall("b")
	c := buildSmall("c")
	// main@rank0: values 0.5, 0.5, 2.0 → mean 1.0, sample var 0.75.
	c.SetSeverity(c.FindMetricByName("Time"), c.FindCallNode("main"), c.Threads()[0], 2.0)
	sd, err := StdDev(nil, a, b, c)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Sqrt(0.75)
	if got := sev(sd, "Time", "main", 0); math.Abs(got-want) > 1e-12 {
		t.Errorf("stddev = %v, want %v", got, want)
	}
	// Identical values across operands → zero (tuple absent).
	if got := sev(sd, "Time", "main/compute", 1); got != 0 {
		t.Errorf("constant tuple stddev = %v, want 0", got)
	}
	if !sd.Derived || sd.Operation != "stddev" {
		t.Errorf("provenance wrong")
	}
	if err := sd.Validate(); err != nil {
		t.Errorf("stddev invalid: %v", err)
	}
	// Zero-extension: tuple present in one of three operands has spread.
	d := newCallExp("d", "main/only")
	e2 := newCallExp("e", "main")
	f := newCallExp("f", "main")
	d.SetSeverity(d.Metrics()[0], d.FindCallNode("main/only"), d.FindThread(0, 0), 3)
	sd2, err := StdDev(nil, d, e2, f)
	if err != nil {
		t.Fatal(err)
	}
	want2 := math.Sqrt(((9 - 9.0/3) / 2)) // values 3,0,0
	if got := sev(sd2, "Time", "main/only", 0); math.Abs(got-want2) > 1e-12 {
		t.Errorf("zero-extended stddev = %v, want %v", got, want2)
	}
	// Errors.
	if _, err := StdDev(nil, a); err == nil {
		t.Errorf("single-operand StdDev accepted")
	}
	if _, err := StdDev(nil); err == nil {
		t.Errorf("no-operand StdDev accepted")
	}
}

func TestDeriveTitleTruncation(t *testing.T) {
	xs := []*Experiment{buildSmall("r1"), buildSmall("r2"), buildSmall("r3"), buildSmall("r4"), buildSmall("r5")}
	m, err := Mean(nil, xs...)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Parents) != 5 {
		t.Errorf("parents = %d", len(m.Parents))
	}
	if want := "mean(r1, ..., r5; 5 operands)"; m.Title != want {
		t.Errorf("title = %q, want %q", m.Title, want)
	}
}

// TestStdDevSystemCollapseRegression pins StdDev's collapse semantics: when
// integration maps several source tuples of one operand onto the same result
// tuple (here the same (rank, thread id) under two system nodes), the
// operand's zero-extended value is their *sum*, and the deviation is taken
// over the per-operand folded values. A former implementation accumulated
// sum and sum-of-squares per source tuple, contributing v1²+v2² instead of
// (v1+v2)² to the sum of squares; for this fixture that yields
// variance (21 − 49/2)/1 = −3.5, clamped to 0 — a silent zero instead of
// the correct √0.5.
func TestStdDevSystemCollapseRegression(t *testing.T) {
	build := func() (*Experiment, *Experiment) {
		a := New("a")
		ma := a.NewMetric("Time", Seconds, "")
		ca := a.NewCallRoot(a.NewCallSite("app", 0, a.NewRegion("main", "app", 0, 0)))
		mach := a.NewMachine("mach")
		// The same (rank 0, thread 0) identifier under two nodes: both
		// source threads integrate onto one result thread.
		t1 := mach.NewNode("n1").NewProcess(0, "p0").NewThread(0, "")
		t2 := mach.NewNode("n2").NewProcess(0, "p0").NewThread(0, "")
		a.Invalidate()
		a.SetSeverity(ma, ca, t1, 1)
		a.SetSeverity(ma, ca, t2, 2)

		b := New("b")
		mb := b.NewMetric("Time", Seconds, "")
		cb := b.NewCallRoot(b.NewCallSite("app", 0, b.NewRegion("main", "app", 0, 0)))
		tb := b.SingleThreadedSystem("mach", 1, 1)[0]
		b.SetSeverity(mb, cb, tb, 4)
		return a, b
	}
	// Folded operand values at the single result tuple: 1+2 = 3 and 4.
	want := math.Sqrt(0.5) // mean 3.5, sample variance ((−.5)²+(.5)²)/1
	for _, engine := range []string{"kernel", "oracle"} {
		a, b := build()
		sd, err := runEngine(engine, "stddev", a, b)
		if err != nil {
			t.Fatal(err)
		}
		if got := sev(sd, "Time", "main", 0); math.Abs(got-want) > 1e-12 {
			t.Errorf("engine %v: collapsed stddev = %v, want %v", engine, got, want)
		}
		if err := sd.Validate(); err != nil {
			t.Errorf("engine %v: result invalid: %v", engine, err)
		}
	}
}
