package core

import (
	"math"
	"testing"
)

// buildRecursiveish builds an experiment where the same region appears at
// several call paths (main calls foo directly and via bar), the
// interesting case for flattening.
func buildMultiPath() *Experiment {
	e := New("mp")
	time := e.NewMetric("Time", Seconds, "")
	mainR := e.NewRegion("main", "app", 0, 0)
	fooR := e.NewRegion("foo", "app", 0, 0)
	barR := e.NewRegion("bar", "app", 0, 0)
	root := e.NewCallRoot(e.NewCallSite("app", 1, mainR))
	foo1 := root.NewChild(e.NewCallSite("app", 2, fooR))
	bar := root.NewChild(e.NewCallSite("app", 3, barR))
	foo2 := bar.NewChild(e.NewCallSite("app", 4, fooR))
	e.Invalidate()
	th := e.SingleThreadedSystem("m", 1, 2)
	for i, t := range th {
		e.SetSeverity(time, root, t, 1)
		e.SetSeverity(time, foo1, t, 2+float64(i))
		e.SetSeverity(time, bar, t, 4)
		e.SetSeverity(time, foo2, t, 8)
	}
	return e
}

func TestFlatten(t *testing.T) {
	e := buildMultiPath()
	f, err := Flatten(e)
	if err != nil {
		t.Fatal(err)
	}
	if !f.Derived || f.Operation != "flatten" {
		t.Errorf("provenance wrong")
	}
	// One trivial tree per region, each a single node.
	if len(f.CallRoots()) != 3 {
		t.Fatalf("flat roots = %d, want 3", len(f.CallRoots()))
	}
	for _, r := range f.CallRoots() {
		if len(r.Children()) != 0 {
			t.Errorf("flat tree for %s not trivial", r.Callee().Name)
		}
	}
	// foo accumulated both call paths: per thread 2+i+8.
	time := f.FindMetricByName("Time")
	foo := f.FindCallNode("foo")
	if got := f.MetricValue(time, foo); got != (2+8)+(3+8) {
		t.Errorf("flattened foo = %v, want 21", got)
	}
	// Grand total preserved.
	if got, want := f.MetricInclusive(time), e.MetricInclusive(e.FindMetricByName("Time")); got != want {
		t.Errorf("flatten changed the total: %v vs %v", got, want)
	}
	if err := f.Validate(); err != nil {
		t.Errorf("flat profile invalid: %v", err)
	}
	// Flatten is idempotent in content.
	ff, err := Flatten(f)
	if err != nil {
		t.Fatal(err)
	}
	if ff.Fingerprint() != f.Fingerprint() {
		t.Errorf("Flatten not idempotent")
	}
	// Original untouched.
	if e.FindCallNode("main/bar/foo") == nil {
		t.Errorf("Flatten mutated its operand")
	}
}

func TestFlattenComposesWithDifference(t *testing.T) {
	a := buildMultiPath()
	b := buildMultiPath()
	b.SetSeverity(b.FindMetricByName("Time"), b.FindCallNode("main/bar/foo"), b.Threads()[0], 10)
	fa, _ := Flatten(a)
	fb, _ := Flatten(b)
	d, err := Difference(fa, fb, nil)
	if err != nil {
		t.Fatal(err)
	}
	foo := d.FindCallNode("foo")
	if got := d.MetricValue(d.FindMetricByName("Time"), foo); got != 8-10 {
		t.Errorf("difference of flat profiles = %v, want -2", got)
	}
}

func TestExtractMetrics(t *testing.T) {
	e := buildSmall("x")
	got, err := ExtractMetrics(e, "Time/Comm")
	if err != nil {
		t.Fatal(err)
	}
	if len(got.MetricRoots()) != 1 || got.MetricRoots()[0].Name != "Comm" {
		t.Fatalf("extracted roots wrong")
	}
	if got.MetricRoots()[0].Parent() != nil {
		t.Errorf("extracted root still parented")
	}
	// Wait survives beneath Comm, Time/Visits severities dropped.
	if got.FindMetricByName("Wait") == nil {
		t.Errorf("subtree child lost")
	}
	if got.MetricInclusive(got.MetricRoots()[0]) != e.MetricInclusive(e.FindMetricByName("Comm")) {
		t.Errorf("extracted severities wrong")
	}
	if err := got.Validate(); err != nil {
		t.Errorf("extract invalid: %v", err)
	}
	// Errors.
	if _, err := ExtractMetrics(e, "Nope"); err == nil {
		t.Errorf("unknown path accepted")
	}
	if _, err := ExtractMetrics(e); err == nil {
		t.Errorf("empty extraction accepted")
	}
	// Original untouched.
	if e.FindMetric("Time/Comm/Wait") == nil {
		t.Errorf("ExtractMetrics mutated its operand")
	}
}

func TestExtractMetricsMultiple(t *testing.T) {
	e := buildSmall("x")
	got, err := ExtractMetrics(e, "Time/Comm", "Visits")
	if err != nil {
		t.Fatal(err)
	}
	if len(got.MetricRoots()) != 2 {
		t.Fatalf("roots = %d", len(got.MetricRoots()))
	}
	// Duplicate paths deduplicate.
	got2, err := ExtractMetrics(e, "Visits", "Visits")
	if err != nil || len(got2.MetricRoots()) != 1 {
		t.Errorf("duplicate extraction wrong: %v", err)
	}
}

func TestExtractCallSubtree(t *testing.T) {
	e := buildMultiPath()
	got, err := ExtractCallSubtree(e, "main/bar")
	if err != nil {
		t.Fatal(err)
	}
	if len(got.CallRoots()) != 1 || got.CallRoots()[0].Callee().Name != "bar" {
		t.Fatalf("extracted call root wrong")
	}
	time := got.FindMetricByName("Time")
	// bar subtree: 4+8 per thread = 24 total.
	if tot := got.MetricInclusive(time); tot != 24 {
		t.Errorf("extracted total = %v, want 24", tot)
	}
	if err := got.Validate(); err != nil {
		t.Errorf("invalid: %v", err)
	}
	if _, err := ExtractCallSubtree(e, "main/zzz"); err == nil {
		t.Errorf("unknown call path accepted")
	}
	// Composition: extract then flatten.
	f, err := Flatten(got)
	if err != nil {
		t.Fatal(err)
	}
	if f.MetricInclusive(f.FindMetricByName("Time")) != 24 {
		t.Errorf("extract+flatten lost severity")
	}
}

func TestFlattenPreservesSystemAndMetrics(t *testing.T) {
	e := buildSmall("x")
	f, err := Flatten(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Threads()) != len(e.Threads()) || len(f.Metrics()) != len(e.Metrics()) {
		t.Errorf("flatten disturbed other dimensions")
	}
	for _, m := range e.Metrics() {
		fm := f.FindMetric(m.Path())
		if fm == nil {
			t.Fatalf("metric %s lost", m.Path())
		}
		if math.Abs(f.MetricTotal(fm)-e.MetricTotal(m)) > 1e-12 {
			t.Errorf("metric %s total changed", m.Path())
		}
	}
}

// TestExtractMetricsOverlappingPaths extracts a metric together with its
// ancestor, in both orders: the ancestor's subtree covers the descendant,
// so each result holds it once, validates, and the two orders agree.
func TestExtractMetricsOverlappingPaths(t *testing.T) {
	e := buildSmall("x")
	for _, paths := range [][]string{
		{"Time/Comm", "Time"},
		{"Time", "Time/Comm"},
		{"Time/Comm/Wait", "Visits", "Time/Comm", "Time/Comm/Wait"},
	} {
		got, err := ExtractMetrics(e, paths...)
		if err != nil {
			t.Fatal(err)
		}
		if err := got.Validate(); err != nil {
			t.Errorf("ExtractMetrics(%q): %v", paths, err)
		}
	}
	a, err := ExtractMetrics(e, "Time/Comm", "Time")
	if err != nil {
		t.Fatal(err)
	}
	b, err := ExtractMetrics(e, "Time", "Time/Comm")
	if err != nil {
		t.Fatal(err)
	}
	if !AlmostEqual(a, b, 0) {
		t.Error("ExtractMetrics depends on the order of overlapping paths")
	}
	if len(a.MetricRoots()) != 1 || a.MetricTotal(a.MetricRoots()[0]) != e.MetricTotal(e.FindMetric("Time")) {
		t.Errorf("extract(Time/Comm, Time) roots = %d, want the Time tree alone", len(a.MetricRoots()))
	}
}
