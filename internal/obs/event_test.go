package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestEventSinkRingBounds(t *testing.T) {
	sink := NewEventSink(4)
	for i := 0; i < 10; i++ {
		ev := sink.NewEvent("http", fmt.Sprintf("r%d", i))
		ev.SetStatus(200)
		ev.Emit()
	}
	got := sink.Events()
	if len(got) != 4 {
		t.Fatalf("ring retained %d events, want 4", len(got))
	}
	// Oldest first: the ring keeps the most recent 4 of 10.
	for i, e := range got {
		want := fmt.Sprintf("r%d", 6+i)
		if e.Route != want {
			t.Errorf("event %d route = %q, want %q", i, e.Route, want)
		}
	}
	if sink.Total() != 10 {
		t.Errorf("Total = %d, want 10", sink.Total())
	}
}

func TestEventNilSafety(t *testing.T) {
	// Every mutator and accessor must be a no-op on nil receivers: this is
	// the disabled path every instrumented call site takes.
	var sink *EventSink
	ev := sink.NewEvent("http", "/")
	if ev != nil {
		t.Fatalf("nil sink produced non-nil event")
	}
	ev.SetRequestID("x")
	ev.SetStatus(200)
	ev.SetOp("merge")
	ev.AddOperand("inline", 10)
	st := BeginIn(nil, ev, Parse)
	st.Count(XMLReadBytes, 1)
	st.Count(KernelCompute, int64(time.Millisecond))
	st.End(nil)
	ev.SetAccumulator("dense")
	ev.Emit()
	if f := ev.Fields(); f.Kind != "" {
		t.Errorf("nil event Fields = %+v, want zero", f)
	}
	sink.emit(&EventFields{})
	if sink.Events() != nil || sink.Total() != 0 {
		t.Errorf("nil sink retained events")
	}
	var n int
	n, err := sink.WriteNDJSON(&bytes.Buffer{}, EventFilter{})
	if n != 0 || err != nil {
		t.Errorf("nil sink WriteNDJSON = %d, %v", n, err)
	}
}

func TestEventEmitIdempotent(t *testing.T) {
	sink := NewEventSink(8)
	ev := sink.NewEvent("cli", "cube-diff")
	ev.Emit()
	ev.Emit()
	ev.Emit()
	if got := len(sink.Events()); got != 1 {
		t.Fatalf("double Emit recorded %d events, want 1", got)
	}
}

func TestEventAccumulation(t *testing.T) {
	sink := NewEventSink(8)
	ev := sink.NewEvent("http", "/api/v1/merge")
	ev.SetRequestID("abc123")
	ev.SetMethod("POST")
	ev.SetStatus(200)
	ev.SetOp("merge")
	ev.AddOperand("inline", 100)
	ev.AddOperand("digest", 200)
	ev.AddOperand("digest", 300)
	st := BeginIn(nil, ev, Parse)
	st.Count(XMLReadBytes, 600)
	st.Count(XMLReadElements, 42)
	st.Count(XMLWriteBytes, 250)
	st.Count(ParseCacheHits, 1)
	st.Count(ParseCacheMisses, 2)
	st.Count(StoreGets, 1)
	st.Count(StorePuts, 1)
	st.Count(StorePins, 1)
	st.Count(StoreBytes, 500)
	st.Count(KernelShards, 4)
	st.Count(KernelTuples, 1000)
	st.Count(Ops["merge"].Cells, 512)
	st.Count(KernelCompute, int64(5*time.Millisecond))
	time.Sleep(time.Millisecond)
	st.End(nil)
	ev.SetAccumulator("dense")
	ev.SetResponseBytes(250)
	ev.Emit()

	events := sink.Events()
	if len(events) != 1 {
		t.Fatalf("got %d events, want 1", len(events))
	}
	f := events[0]
	if f.Operands != 3 || f.InlineOperands != 1 || f.DigestOperands != 2 {
		t.Errorf("operands = %d/%d/%d, want 3/1/2", f.Operands, f.InlineOperands, f.DigestOperands)
	}
	if f.OperandBytes != 600 {
		t.Errorf("operand bytes = %d, want 600", f.OperandBytes)
	}
	if f.XMLReadBytes != 600 || f.XMLReadElems != 42 || f.XMLWriteBytes != 250 {
		t.Errorf("xml = %d/%d/%d", f.XMLReadBytes, f.XMLReadElems, f.XMLWriteBytes)
	}
	if f.ParseCacheHits != 1 || f.ParseCacheMisses != 2 {
		t.Errorf("cache = %d hits / %d misses", f.ParseCacheHits, f.ParseCacheMisses)
	}
	if f.StoreGets != 1 || f.StorePuts != 1 || f.StorePins != 1 || f.StoreBytes != 500 {
		t.Errorf("store = %d/%d/%d/%d", f.StoreGets, f.StorePuts, f.StorePins, f.StoreBytes)
	}
	if f.KernelShards != 4 || f.KernelTuples != 1000 || f.KernelCells != 512 || f.Accumulator != "dense" {
		t.Errorf("kernel = %d/%d/%d/%s", f.KernelShards, f.KernelTuples, f.KernelCells, f.Accumulator)
	}
	if f.ComputeMS != 5 {
		t.Errorf("compute_ms = %g, want 5", f.ComputeMS)
	}
	if f.ParseMS < 1 || f.StageMS() != f.ParseMS || f.StageMS() > f.DurationMS {
		t.Errorf("parse_ms = %g, stage sum %g, duration_ms = %g: want parse ≥ 1 ms, the only stage, within the duration",
			f.ParseMS, f.StageMS(), f.DurationMS)
	}
	if err := ValidateEvent(f); err != nil {
		t.Errorf("ValidateEvent: %v", err)
	}
}

func TestEventConcurrentMutation(t *testing.T) {
	// Kernel shards report into one event from many goroutines; the
	// accumulators must not lose updates. Run under -race in make race.
	sink := NewEventSink(8)
	ev := sink.NewEvent("http", "/api/v1/mean")
	st := BeginIn(nil, ev, Accumulate)
	const workers, per = 16, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				st.Count(Ops["mean"].Cells, 1)
				st.Count(KernelCompute, int64(time.Microsecond))
			}
		}()
	}
	wg.Wait()
	st.End(nil)
	ev.Emit()
	f := sink.Events()[0]
	if f.KernelCells != workers*per {
		t.Errorf("kernel cells = %d, want %d", f.KernelCells, workers*per)
	}
	wantMS := float64(workers*per) / 1000
	if f.ComputeMS < wantMS-0.001 || f.ComputeMS > wantMS+0.001 {
		t.Errorf("compute_ms = %g, want %g", f.ComputeMS, wantMS)
	}
}

func TestEventSinkConcurrentEmit(t *testing.T) {
	sink := NewEventSink(64)
	var wg sync.WaitGroup
	const workers, per = 8, 200
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				ev := sink.NewEvent("http", fmt.Sprintf("/w%d", w))
				ev.SetStatus(200)
				ev.Emit()
			}
		}(w)
	}
	wg.Wait()
	if sink.Total() != workers*per {
		t.Errorf("Total = %d, want %d", sink.Total(), workers*per)
	}
	if got := len(sink.Events()); got != 64 {
		t.Errorf("retained %d, want ring cap 64", got)
	}
}

func TestEventNDJSONAndFilter(t *testing.T) {
	sink := NewEventSink(32)
	mk := func(route string, status int, d time.Duration) {
		ev := sink.NewEvent("http", route)
		ev.SetRequestID(NewRequestID())
		ev.SetStatus(status)
		// Backdate via direct field access for a deterministic duration.
		ev.mu.Lock()
		ev.start = ev.start.Add(-d)
		ev.mu.Unlock()
		ev.Emit()
	}
	mk("/api/v1/merge", 200, 1*time.Millisecond)
	mk("/api/v1/merge", 500, 50*time.Millisecond)
	mk("/api/v1/diff", 404, 2*time.Millisecond)
	mk("/api/v1/diff", 200, 100*time.Millisecond)

	cases := []struct {
		name   string
		filter EventFilter
		want   int
	}{
		{"all", EventFilter{}, 4},
		{"route", EventFilter{Route: "/api/v1/merge"}, 2},
		{"status", EventFilter{Status: 404}, 1},
		{"class5xx", EventFilter{StatusClass: 5}, 1},
		{"class4xx", EventFilter{StatusClass: 4}, 1},
		{"minDuration", EventFilter{MinDuration: 40 * time.Millisecond}, 2},
		{"limit", EventFilter{Limit: 3}, 3},
		{"kindMiss", EventFilter{Kind: "cli"}, 0},
		{"combined", EventFilter{Route: "/api/v1/diff", MinDuration: 40 * time.Millisecond}, 1},
	}
	for _, tc := range cases {
		var buf bytes.Buffer
		n, err := sink.WriteNDJSON(&buf, tc.filter)
		if err != nil {
			t.Fatalf("%s: WriteNDJSON: %v", tc.name, err)
		}
		if n != tc.want {
			t.Errorf("%s: wrote %d lines, want %d", tc.name, n, tc.want)
		}
		// Every line must decode and validate against the schema.
		sc := bufio.NewScanner(&buf)
		lines := 0
		for sc.Scan() {
			lines++
			var f EventFields
			if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
				t.Fatalf("%s: line %d: %v", tc.name, lines, err)
			}
			if err := ValidateEvent(&f); err != nil {
				t.Errorf("%s: line %d: %v", tc.name, lines, err)
			}
		}
		if lines != n {
			t.Errorf("%s: reported %d lines, found %d", tc.name, n, lines)
		}
	}
}

func TestEventNDJSONLimitKeepsNewest(t *testing.T) {
	sink := NewEventSink(16)
	for i := 0; i < 6; i++ {
		ev := sink.NewEvent("http", fmt.Sprintf("/r%d", i))
		ev.SetStatus(200)
		ev.Emit()
	}
	var buf bytes.Buffer
	sink.WriteNDJSON(&buf, EventFilter{Limit: 2})
	out := strings.TrimSpace(buf.String())
	lines := strings.Split(out, "\n")
	if len(lines) != 2 || !strings.Contains(lines[0], "/r4") || !strings.Contains(lines[1], "/r5") {
		t.Errorf("Limit=2 kept %q, want the two newest (/r4, /r5)", out)
	}
}

func TestValidateEvent(t *testing.T) {
	now := time.Now().UTC().Format(time.RFC3339Nano)
	ok := func(f EventFields) EventFields { return f }
	cases := []struct {
		name    string
		f       EventFields
		wantErr bool
	}{
		{"http ok", ok(EventFields{Kind: "http", Time: now, Route: "/x", RequestID: "a", Status: 200}), false},
		{"client ok", ok(EventFields{Kind: "client", Time: now, Route: "/experiments/{digest}", RequestID: "a"}), false},
		{"cli ok", ok(EventFields{Kind: "cli", Time: now, Route: "cube-diff"}), false},
		{"store ok", ok(EventFields{Kind: "store", Time: now, StoreEvent: "evict", Digest: "ab"}), false},
		{"bad kind", ok(EventFields{Kind: "nope", Time: now}), true},
		{"no time", ok(EventFields{Kind: "cli", Route: "x"}), true},
		{"bad time", ok(EventFields{Kind: "cli", Route: "x", Time: "yesterday"}), true},
		{"http no route", ok(EventFields{Kind: "http", Time: now, RequestID: "a", Status: 200}), true},
		{"http no reqid", ok(EventFields{Kind: "http", Time: now, Route: "/x", Status: 200}), true},
		{"http bad status", ok(EventFields{Kind: "http", Time: now, Route: "/x", RequestID: "a", Status: 42}), true},
		{"store bad event", ok(EventFields{Kind: "store", Time: now, StoreEvent: "explode"}), true},
		{"negative duration", ok(EventFields{Kind: "cli", Time: now, Route: "x", DurationMS: -1}), true},
	}
	for _, tc := range cases {
		err := ValidateEvent(&tc.f)
		if (err != nil) != tc.wantErr {
			t.Errorf("%s: ValidateEvent = %v, wantErr %v", tc.name, err, tc.wantErr)
		}
	}
	if ValidateEvent(nil) == nil {
		t.Error("ValidateEvent(nil) = nil, want error")
	}
}

func TestActiveEventSinkSeam(t *testing.T) {
	defer SetEventSink(nil)
	if ActiveEventSink() != nil {
		t.Fatal("sink installed at test start")
	}
	if ev := NewEvent("cli", "t"); ev != nil {
		t.Fatal("NewEvent with no sink returned non-nil")
	}
	sink := NewEventSink(4)
	SetEventSink(sink)
	if ActiveEventSink() != sink {
		t.Fatal("ActiveEventSink did not return the installed sink")
	}
	ev := NewEvent("cli", "t")
	if ev == nil {
		t.Fatal("NewEvent with installed sink returned nil")
	}
	ev.Emit()
	if sink.Total() != 1 {
		t.Fatalf("Total = %d, want 1", sink.Total())
	}
	SetEventSink(nil)
	if ActiveEventSink() != nil {
		t.Fatal("SetEventSink(nil) did not clear the seam")
	}
}

func TestContextWithEvent(t *testing.T) {
	sink := NewEventSink(4)
	ev := sink.NewEvent("http", "/x")
	ctx := ContextWithEvent(t.Context(), ev)
	if got := EventFromContext(ctx); got != ev {
		t.Errorf("EventFromContext = %p, want %p", got, ev)
	}
	if got := EventFromContext(t.Context()); got != nil {
		t.Errorf("EventFromContext(empty) = %p, want nil", got)
	}
	// Carrying a nil event is a no-op, not a nil-typed value in the ctx.
	ctx2 := ContextWithEvent(t.Context(), nil)
	if got := EventFromContext(ctx2); got != nil {
		t.Errorf("EventFromContext after nil carry = %p, want nil", got)
	}
}

// TestEventNDJSONOrderAfterWraparound: once the ring has lapped, the
// NDJSON dump must still read oldest-to-newest — the wrap point in the
// backing array must not show as a seam in the output.
func TestEventNDJSONOrderAfterWraparound(t *testing.T) {
	sink := NewEventSink(4)
	for i := 0; i < 11; i++ { // 11 emits into 4 slots: 7 overwrites, seam mid-array
		ev := sink.NewEvent("http", fmt.Sprintf("/r%02d", i))
		ev.SetStatus(200)
		ev.Emit()
	}
	if got := sink.Total(); got != 11 {
		t.Fatalf("Total = %d, want 11 (overwritten events still counted)", got)
	}

	var buf bytes.Buffer
	n, err := sink.WriteNDJSON(&buf, EventFilter{})
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("wrote %d lines, want the 4 retained", n)
	}
	var routes, times []string
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var f EventFields
		if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
			t.Fatal(err)
		}
		routes = append(routes, f.Route)
		times = append(times, f.Time)
	}
	want := []string{"/r07", "/r08", "/r09", "/r10"}
	for i := range want {
		if routes[i] != want[i] {
			t.Fatalf("dump order = %v, want %v (oldest first across the wrap)", routes, want)
		}
	}
	for i := 1; i < len(times); i++ {
		if times[i] < times[i-1] {
			t.Errorf("timestamps go backwards at line %d: %v", i, times)
		}
	}

	// Limit composes with the wrap: the newest two, still in order.
	buf.Reset()
	sink.WriteNDJSON(&buf, EventFilter{Limit: 2})
	out := strings.TrimSpace(buf.String())
	lines := strings.Split(out, "\n")
	if len(lines) != 2 || !strings.Contains(lines[0], "/r09") || !strings.Contains(lines[1], "/r10") {
		t.Errorf("Limit=2 after wrap kept %q, want /r09 then /r10", out)
	}
}
