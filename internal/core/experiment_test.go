package core

import (
	"math"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
)

// buildSmall constructs a compact experiment used by many tests:
//
//	metrics: Time{Comm{Wait}}, Visits
//	calls:   main{compute, MPI_Recv}
//	system:  1 machine, 2 nodes, 4 single-threaded ranks
func buildSmall(title string) *Experiment {
	e := New(title)
	time := e.NewMetric("Time", Seconds, "")
	comm := time.NewChild("Comm", "")
	wait := comm.NewChild("Wait", "")
	e.NewMetric("Visits", Occurrences, "")

	mainR := e.NewRegion("main", "app.c", 1, 99)
	compR := e.NewRegion("compute", "app.c", 10, 20)
	recvR := e.NewRegion("MPI_Recv", "libmpi", 0, 0)
	root := e.NewCallRoot(e.NewCallSite("", 0, mainR))
	comp := root.NewChild(e.NewCallSite("app.c", 12, compR))
	recv := root.NewChild(e.NewCallSite("app.c", 30, recvR))

	threads := e.SingleThreadedSystem("mach", 2, 4)
	for i, th := range threads {
		e.SetSeverity(time, root, th, 0.5)
		e.SetSeverity(time, comp, th, float64(i+1))
		e.SetSeverity(comm, recv, th, 0.25)
		e.SetSeverity(wait, recv, th, 0.125)
	}
	return e
}

func TestEnumerationOrders(t *testing.T) {
	e := buildSmall("t")
	var names []string
	for _, m := range e.Metrics() {
		names = append(names, m.Name)
	}
	if !reflect.DeepEqual(names, []string{"Time", "Comm", "Wait", "Visits"}) {
		t.Errorf("metric order = %v", names)
	}
	var paths []string
	for _, c := range e.CallNodes() {
		paths = append(paths, c.Path())
	}
	if !reflect.DeepEqual(paths, []string{"main", "main/compute", "main/MPI_Recv"}) {
		t.Errorf("call order = %v", paths)
	}
	if len(e.Threads()) != 4 || len(e.Processes()) != 4 {
		t.Errorf("system sizes: %d threads, %d procs", len(e.Threads()), len(e.Processes()))
	}
	// Two nodes, block distribution 2+2.
	nodes := e.Machines()[0].Nodes()
	if len(nodes) != 2 || len(nodes[0].Processes()) != 2 || len(nodes[1].Processes()) != 2 {
		t.Errorf("node distribution wrong")
	}
}

func TestIndexes(t *testing.T) {
	e := buildSmall("t")
	for i, m := range e.Metrics() {
		if j, ok := e.MetricIndex(m); !ok || j != i {
			t.Errorf("MetricIndex(%s) = %d,%v want %d", m.Name, j, ok, i)
		}
	}
	if _, ok := e.MetricIndex(NewMetric("alien", Seconds, "")); ok {
		t.Errorf("foreign metric indexed")
	}
	for i, c := range e.CallNodes() {
		if j, ok := e.CallNodeIndex(c); !ok || j != i {
			t.Errorf("CallNodeIndex wrong at %d", i)
		}
	}
	for i, th := range e.Threads() {
		if j, ok := e.ThreadIndex(th); !ok || j != i {
			t.Errorf("ThreadIndex wrong at %d", i)
		}
	}
}

func TestInvalidateAfterExternalMutation(t *testing.T) {
	e := buildSmall("t")
	n := len(e.Metrics())
	e.MetricRoots()[0].NewChild("Late", "")
	e.Invalidate()
	if len(e.Metrics()) != n+1 {
		t.Errorf("metric added externally not visible after Invalidate")
	}
}

func TestSeverityStore(t *testing.T) {
	e := buildSmall("t")
	m := e.FindMetricByName("Time")
	c := e.FindCallNode("main/compute")
	th := e.Threads()[0]
	if got := e.Severity(m, c, th); got != 1 {
		t.Errorf("Severity = %v, want 1", got)
	}
	e.AddSeverity(m, c, th, 2)
	if got := e.Severity(m, c, th); got != 3 {
		t.Errorf("after Add: %v, want 3", got)
	}
	before := e.NonZeroCount()
	e.SetSeverity(m, c, th, 0)
	if e.NonZeroCount() != before-1 {
		t.Errorf("zero set should delete the tuple")
	}
	e.AddSeverity(m, c, th, 0)
	if e.NonZeroCount() != before-1 {
		t.Errorf("adding zero should not create a tuple")
	}
	e.SetSeverity(m, c, th, 5)
	e.AddSeverity(m, c, th, -5)
	if e.NonZeroCount() != before-1 {
		t.Errorf("add to exactly zero should delete the tuple")
	}
}

func TestAggregations(t *testing.T) {
	e := buildSmall("t")
	time := e.FindMetricByName("Time")
	comm := e.FindMetricByName("Comm")
	wait := e.FindMetricByName("Wait")
	root := e.FindCallNode("main")
	recv := e.FindCallNode("main/MPI_Recv")

	// MetricValue: exclusive metric at exclusive cnode over all threads.
	if got := e.MetricValue(time, root); got != 4*0.5 {
		t.Errorf("MetricValue(time,root) = %v", got)
	}
	// MetricTotal: 0.5*4 (root) + (1+2+3+4) (compute) = 12.
	if got := e.MetricTotal(time); got != 12 {
		t.Errorf("MetricTotal(time) = %v", got)
	}
	// Inclusive adds Comm (1) and Wait (0.5).
	if got := e.MetricInclusive(time); got != 13.5 {
		t.Errorf("MetricInclusive(time) = %v", got)
	}
	if got := e.MetricInclusive(comm); got != 1.5 {
		t.Errorf("MetricInclusive(comm) = %v", got)
	}
	// A collapsed call node sums its pre-order subtree range of byCall:
	// Time at main = 12 (whole call tree).
	byCall, byThread := e.RollUp(time, false, root, true)
	if got := byCall[0] + byCall[1] + byCall[2]; got != 12 {
		t.Errorf("collapsed main = %v", got)
	}
	if byCall, _ := e.RollUp(wait, false, recv, false); byCall[2] != 0.5 {
		t.Errorf("byCall(wait)[recv] = %v", byCall[2])
	}
	// Thread 2 over the whole call tree: 0.5 + 3 = 3.5.
	if got := byThread[2]; got != 3.5 {
		t.Errorf("byThread[2] = %v", got)
	}
}

// callInclusive and threadTotal are the per-node walks RollUp replaced:
// metric m (exclusive) summed over c's call subtree and all threads, and
// over all call paths at thread t.
func callInclusive(e *Experiment, m *Metric, c *CallNode) float64 {
	var s float64
	c.Walk(func(d *CallNode) { s += e.MetricValue(m, d) })
	return s
}

func threadTotal(e *Experiment, m *Metric, t *Thread) float64 {
	var s float64
	for _, c := range e.CallNodes() {
		s += e.Severity(m, c, t)
	}
	return s
}

// TestRollUpMatchesWalks checks RollUp of every single metric against the
// per-node walks, bit for bit, on a difference-like store with rounding
// sums; an unregistered or nil call node selects nothing.
func TestRollUpMatchesWalks(t *testing.T) {
	e := buildSmall("t")
	for i, th := range e.Threads() {
		e.SetSeverity(e.FindMetricByName("Visits"), e.FindCallNode("main/compute"), th, -0.1*float64(i+1))
	}
	root := e.CallRoots()[0]
	for _, m := range e.Metrics() {
		byCall, byThread := e.RollUp(m, false, root, true)
		for i, c := range e.CallNodes() {
			if want := e.MetricValue(m, c); math.Float64bits(byCall[i]) != math.Float64bits(want) {
				t.Errorf("%s: byCall[%s] = %v, want %v", m.Name, c.Path(), byCall[i], want)
			}
		}
		var sum float64
		for _, v := range byCall {
			sum += v
		}
		if want := callInclusive(e, m, root); math.Float64bits(sum) != math.Float64bits(want) {
			t.Errorf("%s: collapsed root = %v, want %v", m.Name, sum, want)
		}
		for i, th := range e.Threads() {
			if want := threadTotal(e, m, th); math.Float64bits(byThread[i]) != math.Float64bits(want) {
				t.Errorf("%s: byThread[%d] = %v, want %v", m.Name, i, byThread[i], want)
			}
		}
		for _, c := range []*CallNode{nil, NewCallNode(root.Site)} {
			if _, byThread := e.RollUp(m, true, c, true); slices.ContainsFunc(byThread, func(v float64) bool { return v != 0 }) {
				t.Errorf("%s: call selection %v is not empty: %v", m.Name, c, byThread)
			}
		}
	}
}

func TestEachSeverityDeterministic(t *testing.T) {
	e := buildSmall("t")
	var a, b []string
	e.EachSeverity(func(m *Metric, c *CallNode, th *Thread, v float64) {
		a = append(a, m.Name+c.Path())
	})
	e.EachSeverity(func(m *Metric, c *CallNode, th *Thread, v float64) {
		b = append(b, m.Name+c.Path())
	})
	if !reflect.DeepEqual(a, b) {
		t.Errorf("EachSeverity order not deterministic")
	}
	if len(a) != e.NonZeroCount() {
		t.Errorf("EachSeverity visited %d tuples, store has %d", len(a), e.NonZeroCount())
	}
}

func TestDenseRoundTrip(t *testing.T) {
	e := buildSmall("t")
	d := e.Dense()
	if len(d.Values) != len(e.Metrics()) || len(d.Values[0]) != len(e.CallNodes()) || len(d.Values[0][0]) != len(e.Threads()) {
		t.Fatalf("dense shape wrong")
	}
	fp := e.Fingerprint()
	if err := e.SetDense(d); err != nil {
		t.Fatalf("SetDense: %v", err)
	}
	if e.Fingerprint() != fp {
		t.Errorf("dense round-trip changed the experiment")
	}
}

func TestSetDenseShapeMismatch(t *testing.T) {
	e := buildSmall("t")
	d := e.Dense()
	other := buildSmall("other")
	other.NewMetric("Extra", Seconds, "")
	if err := other.SetDense(d); err == nil {
		t.Errorf("shape mismatch accepted")
	}
}

func TestFindHelpers(t *testing.T) {
	e := buildSmall("t")
	if e.FindMetric("Time/Comm/Wait") == nil || e.FindMetric("nope") != nil {
		t.Errorf("FindMetric wrong")
	}
	if e.FindMetricByName("Wait") == nil {
		t.Errorf("FindMetricByName wrong")
	}
	if e.FindRegion("compute") == nil || e.FindRegion("nope") != nil {
		t.Errorf("FindRegion wrong")
	}
	if e.FindCallNode("main/MPI_Recv") == nil || e.FindCallNode("main/x") != nil {
		t.Errorf("FindCallNode wrong")
	}
	if e.FindProcess(3) == nil || e.FindProcess(77) != nil {
		t.Errorf("FindProcess wrong")
	}
	if e.FindThread(2, 0) == nil || e.FindThread(2, 1) != nil {
		t.Errorf("FindThread wrong")
	}
}

func TestSingleThreadedSystemShapes(t *testing.T) {
	e := New("s")
	threads := e.SingleThreadedSystem("m", 3, 7) // 3 nodes, ceil(7/3)=3 per node
	if len(threads) != 7 {
		t.Fatalf("threads = %d", len(threads))
	}
	sizes := []int{}
	for _, nd := range e.Machines()[0].Nodes() {
		sizes = append(sizes, len(nd.Processes()))
	}
	if !reflect.DeepEqual(sizes, []int{3, 3, 1}) {
		t.Errorf("node sizes = %v", sizes)
	}
	// Degenerate node count.
	e2 := New("s2")
	e2.SingleThreadedSystem("m", 0, 2)
	if len(e2.Machines()[0].Nodes()) != 1 {
		t.Errorf("zero nodes should clamp to one")
	}
}

func TestAddRootValidation(t *testing.T) {
	e := New("x")
	root := NewMetric("Time", Seconds, "")
	child := root.NewChild("C", "")
	if err := e.AddMetricRoot(child); err == nil {
		t.Errorf("non-root metric accepted as root")
	}
	if err := e.AddMetricRoot(root); err != nil {
		t.Errorf("AddMetricRoot: %v", err)
	}
	croot := NewCallNode(&CallSite{Callee: &Region{Name: "m"}})
	cchild := croot.NewChild(&CallSite{Callee: &Region{Name: "c"}})
	if err := e.AddCallRoot(cchild); err == nil {
		t.Errorf("non-root call node accepted as root")
	}
	if err := e.AddCallRoot(croot); err != nil {
		t.Errorf("AddCallRoot: %v", err)
	}
}

func TestFingerprintDistinguishes(t *testing.T) {
	a := buildSmall("a")
	b := buildSmall("b")
	if a.Fingerprint() != b.Fingerprint() {
		t.Errorf("titles must not affect fingerprints")
	}
	b.SetSeverity(b.FindMetricByName("Time"), b.FindCallNode("main"), b.Threads()[0], 99)
	if a.Fingerprint() == b.Fingerprint() {
		t.Errorf("severity change not reflected in fingerprint")
	}
	if !strings.Contains(a.Fingerprint(), "Time/Comm/Wait") {
		t.Errorf("fingerprint lacks metric paths")
	}
}

// TestConcurrentFirstReads: eight goroutines read one experiment that
// nobody has read yet, so they race to enumerate its metadata and seal
// its severity writes. The experiment's lock makes that safe; run it
// under -race.
func TestConcurrentFirstReads(t *testing.T) {
	// buildSmall plus 2000 call nodes with severities, built through the
	// forests only, so no enumeration is read before the race.
	build := func(title string) *Experiment {
		e := buildSmall(title)
		padCallTree(e, 2000)
		m := e.MetricRoots()[0]
		for i, c := range e.CallRoots()[0].Children() {
			for _, nd := range e.Machines()[0].Nodes() {
				for j, p := range nd.Processes() {
					e.AddSeverity(m, c, p.Threads()[0], float64(i+j)+0.5)
				}
			}
		}
		return e
	}
	ref := build("ref")
	m, c, th := ref.MetricRoots()[0], ref.CallRoots()[0].Children()[0], ref.Threads()[2]
	wantN, wantTotal, wantSev := ref.NonZeroCount(), ref.MetricTotal(m), ref.Severity(m, c, th)

	e := build("fresh")
	m = e.MetricRoots()[0]
	c = e.CallRoots()[0].Children()[0]
	th = e.Machines()[0].Nodes()[1].Processes()[0].Threads()[0]
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for step := 0; step < 5; step++ {
				switch (g + step) % 5 {
				case 0:
					if !AlmostEqual(e, ref, 0) {
						t.Errorf("goroutine %d: experiment differs from its twin", g)
					}
				case 1:
					n := 0
					e.EachSeverity(func(*Metric, *CallNode, *Thread, float64) { n++ })
					if n != wantN {
						t.Errorf("goroutine %d: EachSeverity visited %d tuples, want %d", g, n, wantN)
					}
				case 2:
					if got := e.MetricTotal(m); got != wantTotal {
						t.Errorf("goroutine %d: MetricTotal = %v, want %v", g, got, wantTotal)
					}
				case 3:
					if got := e.Severity(m, c, th); got != wantSev {
						t.Errorf("goroutine %d: Severity = %v, want %v", g, got, wantSev)
					}
				case 4:
					if got := len(e.Metrics()); got != 4 {
						t.Errorf("goroutine %d: %d metrics, want 4", g, got)
					}
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
}
