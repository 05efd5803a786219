package core

import (
	"strings"
	"testing"
)

// metricShape dumps the metric forest paths.
func metricShape(e *Experiment) string {
	var sb strings.Builder
	for _, m := range e.Metrics() {
		sb.WriteString(m.Path())
		sb.WriteByte('\n')
	}
	return sb.String()
}

func callShape(e *Experiment) string {
	var sb strings.Builder
	for _, c := range e.CallNodes() {
		sb.WriteString(c.Path())
		sb.WriteByte('\n')
	}
	return sb.String()
}

func TestIntegrateMetricsOverlap(t *testing.T) {
	a := New("a")
	ta := a.NewMetric("Time", Seconds, "")
	ta.NewChild("MPI", "")
	a.NewMetric("Visits", Occurrences, "")

	b := New("b")
	tb := b.NewMetric("Time", Seconds, "")
	tb.NewChild("MPI", "")
	tb.NewChild("IO", "")
	b.NewMetric("PAPI_FP_INS", Occurrences, "")

	in, err := integrate(nil, a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := "Time\nTime/MPI\nTime/IO\nVisits\nPAPI_FP_INS\n"
	if got := metricShape(in.out); got != want {
		t.Fatalf("merged metrics:\n%s\nwant:\n%s", got, want)
	}
	// Mapping: both Time roots map to the same result metric.
	if in.metricFrom[0][ta] != in.metricFrom[1][tb] {
		t.Errorf("Time roots not shared")
	}
	// Metric sources: Time from operand 0, IO from operand 1.
	src := in.metricSrcs()
	if ti, _ := in.out.MetricIndex(in.metricFrom[0][ta]); src[ti] != 0 {
		t.Errorf("Time source wrong")
	}
	if ii, _ := in.out.MetricIndex(in.out.FindMetricByName("IO")); src[ii] != 1 {
		t.Errorf("IO source wrong")
	}
}

func TestIntegrateMetricsUnitMismatchSeparates(t *testing.T) {
	a := New("a")
	a.NewMetric("X", Seconds, "")
	b := New("b")
	b.NewMetric("X", Occurrences, "")
	in, err := integrate(nil, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(in.out.MetricRoots()) != 2 {
		t.Errorf("metrics with different units merged; roots = %d", len(in.out.MetricRoots()))
	}
	if err := in.out.Validate(); err != nil {
		t.Errorf("integrated metadata invalid: %v", err)
	}
}

// newCallExp builds an experiment with call paths described as
// slash-separated strings.
func newCallExp(title string, paths ...string) *Experiment {
	e := New(title)
	e.NewMetric("Time", Seconds, "")
	regions := map[string]*Region{}
	reg := func(name string) *Region {
		if r, ok := regions[name]; ok {
			return r
		}
		r := e.NewRegion(name, "app", 0, 0)
		regions[name] = r
		return r
	}
	roots := map[string]*CallNode{}
	for _, p := range paths {
		parts := strings.Split(p, "/")
		cur, ok := roots[parts[0]]
		if !ok {
			cur = e.NewCallRoot(e.NewCallSite("app", 0, reg(parts[0])))
			roots[parts[0]] = cur
		}
		for _, part := range parts[1:] {
			next := cur.FindChild(part)
			if next == nil {
				next = cur.NewChild(e.NewCallSite("app", 0, reg(part)))
				e.Invalidate()
			}
			cur = next
		}
	}
	e.SingleThreadedSystem("m", 1, 2)
	return e
}

func TestIntegrateCallTrees(t *testing.T) {
	a := newCallExp("a", "main/foo/leaf", "main/bar")
	b := newCallExp("b", "main/foo/other", "main/baz")
	in, err := integrate(nil, a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := "main\nmain/foo\nmain/foo/leaf\nmain/foo/other\nmain/bar\nmain/baz\n"
	if got := callShape(in.out); got != want {
		t.Fatalf("merged call tree:\n%s\nwant:\n%s", got, want)
	}
	// Regions are interned: exactly one region per name.
	names := map[string]int{}
	for _, r := range in.out.Regions() {
		names[r.Name]++
	}
	for n, c := range names {
		if c != 1 {
			t.Errorf("region %q appears %d times", n, c)
		}
	}
}

func TestIntegrateCallTreesTopDown(t *testing.T) {
	// foo under different parents must not be shared.
	a := newCallExp("a", "main/p/shared")
	b := newCallExp("b", "main/q/shared")
	in, err := integrate(nil, a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := "main\nmain/p\nmain/p/shared\nmain/q\nmain/q/shared\n"
	if got := callShape(in.out); got != want {
		t.Fatalf("top-down call merge violated:\n%s\nwant:\n%s", got, want)
	}
}

func TestIntegrateCallMatchLineMode(t *testing.T) {
	a := newCallExp("a", "main/foo")
	b := newCallExp("b", "main/foo")
	// Give b's call site a different line.
	b.CallRoots()[0].Children()[0].Site.Line = 42

	in, err := integrate(&Options{CallMatch: CallMatchCallee}, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if got := callShape(in.out); got != "main\nmain/foo\n" {
		t.Errorf("callee mode should merge despite line change:\n%s", got)
	}

	in2, err := integrate(&Options{CallMatch: CallMatchCalleeLine}, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if got := callShape(in2.out); got != "main\nmain/foo\nmain/foo\n" {
		t.Errorf("callee+line mode should keep different lines apart:\n%s", got)
	}
}

func systemSignature(e *Experiment) string {
	var sb strings.Builder
	for _, mach := range e.Machines() {
		sb.WriteString(mach.Name + "{")
		for _, nd := range mach.Nodes() {
			sb.WriteString(nd.Name + "[")
			for _, p := range nd.Processes() {
				sb.WriteString(p.String() + ",")
				for _, th := range p.Threads() {
					sb.WriteString(th.String() + ";")
				}
			}
			sb.WriteString("]")
		}
		sb.WriteString("}")
	}
	return sb.String()
}

func TestIntegrateSystemCompatibleCopies(t *testing.T) {
	a := New("a")
	a.NewMetric("T", Seconds, "")
	a.SingleThreadedSystem("alpha", 2, 4)
	b := New("b")
	b.NewMetric("T", Seconds, "")
	b.SingleThreadedSystem("beta", 2, 4)

	in, err := integrate(nil, a, b)
	if err != nil {
		t.Fatal(err)
	}
	// Same partition (2+2) → copy first operand's hierarchy.
	if len(in.out.Machines()) != 1 || in.out.Machines()[0].Name != "alpha" {
		t.Fatalf("expected alpha's hierarchy copied, got %s", systemSignature(in.out))
	}
	if len(in.out.Machines()[0].Nodes()) != 2 {
		t.Errorf("node structure not copied")
	}
}

func TestIntegrateSystemIncompatibleCollapses(t *testing.T) {
	a := New("a")
	a.NewMetric("T", Seconds, "")
	a.SingleThreadedSystem("alpha", 2, 4) // 2+2
	b := New("b")
	b.NewMetric("T", Seconds, "")
	b.SingleThreadedSystem("beta", 1, 4) // 4

	in, err := integrate(nil, a, b)
	if err != nil {
		t.Fatal(err)
	}
	machines := in.out.Machines()
	if len(machines) != 1 || machines[0].Name != "merged machine" {
		t.Fatalf("expected collapse, got %s", systemSignature(in.out))
	}
	if len(machines[0].Nodes()) != 1 {
		t.Errorf("collapse should produce a single node")
	}
	if len(in.out.Processes()) != 4 {
		t.Errorf("union of ranks wrong: %d", len(in.out.Processes()))
	}
}

func TestIntegrateSystemForcedModes(t *testing.T) {
	a := New("a")
	a.NewMetric("T", Seconds, "")
	a.SingleThreadedSystem("alpha", 2, 4)
	b := New("b")
	b.NewMetric("T", Seconds, "")
	b.SingleThreadedSystem("beta", 2, 4)

	in, err := integrate(&Options{System: SystemCollapse, CollapsedMachine: "flat"}, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if in.out.Machines()[0].Name != "flat" {
		t.Errorf("forced collapse ignored; machine = %q", in.out.Machines()[0].Name)
	}

	// Copy-first with extra ranks in the second operand.
	c := New("c")
	c.NewMetric("T", Seconds, "")
	c.SingleThreadedSystem("gamma", 1, 6)
	in2, err := integrate(&Options{System: SystemCopyFirst}, a, c)
	if err != nil {
		t.Fatal(err)
	}
	if len(in2.out.Processes()) != 6 {
		t.Fatalf("union should have 6 ranks, got %d", len(in2.out.Processes()))
	}
	if in2.out.Machines()[0].Name != "alpha" {
		t.Errorf("copy-first should keep alpha")
	}
	// Ranks 4,5 appended to the last node.
	nodes := in2.out.Machines()[0].Nodes()
	last := nodes[len(nodes)-1]
	if len(last.Processes()) != 4 { // 2 original + 2 extra
		t.Errorf("extra ranks not appended to last node: %d", len(last.Processes()))
	}
}

func TestIntegrateThreadUnion(t *testing.T) {
	a := New("a")
	a.NewMetric("T", Seconds, "")
	pa := a.NewMachine("m").NewNode("n").NewProcess(0, "")
	pa.NewThread(0, "")
	pa.NewThread(1, "")

	b := New("b")
	b.NewMetric("T", Seconds, "")
	pb := b.NewMachine("m").NewNode("n").NewProcess(0, "")
	pb.NewThread(0, "")
	pb.NewThread(2, "")

	in, err := integrate(nil, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(in.out.Threads()) != 3 {
		t.Fatalf("thread union = %d, want 3 (ids 0,1,2)", len(in.out.Threads()))
	}
	// Threads matched by (rank, id): thread 0 shared.
	if in.threadFrom[0][pa.Threads()[0]] != in.threadFrom[1][pb.Threads()[0]] {
		t.Errorf("thread (0,0) not shared")
	}
	if in.threadFrom[0][pa.Threads()[1]] == in.threadFrom[1][pb.Threads()[1]] {
		t.Errorf("threads (0,1) and (0,2) wrongly shared")
	}
}

func TestIntegrateErrors(t *testing.T) {
	if _, err := integrate(nil); err != ErrNoOperands {
		t.Errorf("no operands: err = %v", err)
	}
	if _, err := integrate(nil, New("a"), nil); err == nil {
		t.Errorf("nil operand accepted")
	}
}

func TestIntegrateSingleOperand(t *testing.T) {
	a := buildSmall("solo")
	in, err := integrate(nil, a)
	if err != nil {
		t.Fatal(err)
	}
	if metricShape(in.out) != metricShape(a) || callShape(in.out) != callShape(a) {
		t.Errorf("single-operand integration should preserve structure")
	}
	if err := in.out.Validate(); err != nil {
		t.Errorf("integrated output invalid: %v", err)
	}
}
