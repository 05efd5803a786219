package obs

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestStageFeedsAllSinks checks that one begin, one Count and one end
// write the registry, the span and the wide event together.
func TestStageFeedsAllSinks(t *testing.T) {
	reg := NewRegistry()
	SetRegistry(reg)
	defer SetRegistry(nil)
	tr := NewTracer(TracerOptions{SampleRate: 1})
	sink := NewEventSink(4)
	ev := sink.NewEvent("http", "/x")
	root := tr.StartTrace("http /x", "")
	ctx := ContextWithEvent(ContextWithSpan(context.Background(), root), ev)

	st, sctx := Begin(ctx, Parse)
	if SpanFromContext(sctx) != st.Span() || st.Span() == nil {
		t.Fatalf("Begin did not carry the stage span in its context")
	}
	st.Count(XMLReadBytes, 100)
	st.Count(XMLReadBytes, 20)
	time.Sleep(time.Millisecond)
	st.End(errors.New("boom"))
	root.End()
	ev.Emit()

	if got := reg.CounterValue("cube_xml_read_bytes_total"); got != 120 {
		t.Errorf("registry bytes = %d, want 120", got)
	}
	h := reg.Histogram("cube_stage_seconds", DefLatencyBuckets, L("stage", "parse"))
	if h.Count() != 1 || h.Sum() <= 0 {
		t.Errorf("stage histogram count %d sum %g, want one positive observation", h.Count(), h.Sum())
	}
	kids := root.Children()
	if len(kids) != 1 || kids[0].Name() != "cubexml.read" {
		t.Fatalf("root children = %v, want one cubexml.read span", kids)
	}
	attrs := map[string]any{}
	for _, a := range kids[0].Attrs() {
		attrs[a.Key] = a.Value
	}
	if attrs["bytes"] != int64(120) || attrs["error"] != "boom" {
		t.Errorf("span attrs = %v, want bytes 120 and error boom", attrs)
	}
	f := sink.Events()[0]
	if f.XMLReadBytes != 120 || f.ParseMS < 1 || f.ParseMS > f.DurationMS {
		t.Errorf("event xml_read_bytes %d parse_ms %g duration_ms %g", f.XMLReadBytes, f.ParseMS, f.DurationMS)
	}
}

// TestStageSeriesFollowRegistry checks that the series a stage resolved
// in one registry are not reused after the seam moves to another.
func TestStageSeriesFollowRegistry(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	defer SetRegistry(nil)
	for _, reg := range []*Registry{a, b, nil} {
		SetRegistry(reg)
		st := BeginIn(nil, nil, Ops["difference"].StageDef)
		st.Count(Ops["difference"].Calls, 1)
		st.End(nil)
	}
	for _, reg := range []*Registry{a, b} {
		if got := reg.CounterValue("cube_op_invocations_total", L("op", "difference")); got != 1 {
			t.Errorf("invocations = %d, want 1 in each registry", got)
		}
	}
	if ActiveRegistry() != nil {
		t.Errorf("SetRegistry(nil) left a registry installed")
	}
}

// TestLeafStageTimes checks the read-out selfcube builds its call tree
// from: one entry per leaf stage, in pipeline order, nothing created.
func TestLeafStageTimes(t *testing.T) {
	reg := NewRegistry()
	SetRegistry(reg)
	defer SetRegistry(nil)
	for _, d := range []*StageDef{Resolve, StoreGet, Accumulate} {
		st := BeginIn(nil, nil, d)
		st.End(nil)
	}
	var names []string
	got := map[string]StageTime{}
	for _, st := range LeafStageTimes(reg) {
		names = append(names, st.Name)
		got[st.Name] = st
	}
	want := []string{"resolve", "parse", "integrate", "lower", "accumulate", "materialize", "render", "encode", "store"}
	if len(names) != len(want) {
		t.Fatalf("leaf stages = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("leaf stages = %v, want %v", names, want)
		}
	}
	if got["resolve"].Count != 2 || got["accumulate"].Count != 1 || got["parse"].Count != 0 {
		t.Errorf("counts: resolve %d accumulate %d parse %d, want 2 1 0",
			got["resolve"].Count, got["accumulate"].Count, got["parse"].Count)
	}
	if s := reg.find("cube_stage_seconds", []Label{L("stage", "parse")}); s != nil {
		t.Errorf("reading stage times created the parse series")
	}
}

// TestStageNothingInstalledAllocatesNothing pins the disabled path: with
// no registry, tracer or event a stage allocates nothing.
func TestStageNothingInstalledAllocatesNothing(t *testing.T) {
	ctx := context.Background()
	if n := testing.AllocsPerRun(100, func() { stageRoundTrip(ctx) }); n != 0 {
		t.Errorf("stage round trip allocates %v times with nothing installed, want 0", n)
	}
}

func stageRoundTrip(ctx context.Context) {
	st, _ := Begin(ctx, Parse)
	st.Count(XMLReadBytes, 1)
	st.End(nil)
	in := BeginIn(nil, nil, Ops["mean"].StageDef)
	in.Count(Ops["mean"].Calls, 1)
	in.End(nil)
}

// BenchmarkStageNothingInstalled is a stage begin, count and end through
// both entry points with no registry, tracer or event installed: the
// loads of the three seams, no allocation.
//
//	go test -run='^$' -bench=BenchmarkStage -benchmem ./internal/obs
func BenchmarkStageNothingInstalled(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		stageRoundTrip(ctx)
	}
}

// BenchmarkStageRecording is the same round trip recording into a
// registry and a wide event: the series are resolved once, so the
// recording path allocates nothing either.
func BenchmarkStageRecording(b *testing.B) {
	SetRegistry(NewRegistry())
	defer SetRegistry(nil)
	ctx := ContextWithEvent(context.Background(), NewEventSink(1).NewEvent("http", "/x"))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		stageRoundTrip(ctx)
	}
}
