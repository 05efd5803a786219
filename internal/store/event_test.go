package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"cube/internal/obs"
)

// lifecycleEvents returns the kind "store" events of the given type.
func lifecycleEvents(sink *obs.EventSink, event string) []*obs.EventFields {
	var out []*obs.EventFields
	for _, f := range sink.Events() {
		if f.Kind == "store" && f.StoreEvent == event {
			out = append(out, f)
		}
	}
	return out
}

func TestStoreLifecycleEvents(t *testing.T) {
	sink := useSink(t, 64)
	dir := t.TempDir()
	// Budget admits two 600-byte blobs; the third evicts.
	s := openTest(t, dir, Options{Budget: 1500})

	if got := lifecycleEvents(sink, "recovery"); len(got) != 1 {
		t.Fatalf("recovery events = %d, want 1", len(got))
	}

	a := blob("a", 600)
	b := blob("b", 600)
	c := blob("c", 600)
	if _, _, err := s.Put(a, nil); err != nil {
		t.Fatal(err)
	}
	da := DigestOf(a)
	if _, _, err := s.Put(b, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Put(c, nil); err != nil {
		t.Fatal(err)
	}
	evs := lifecycleEvents(sink, "evict")
	if len(evs) != 1 {
		t.Fatalf("evict events = %d, want 1", len(evs))
	}
	if evs[0].Digest != da.String() {
		t.Errorf("evicted digest = %s, want %s (LRU)", evs[0].Digest, da)
	}
	if err := obs.ValidateEvent(evs[0]); err != nil {
		t.Errorf("evict event invalid: %v", err)
	}
}

func TestStoreQuarantineAndDegradedEvents(t *testing.T) {
	sink := useSink(t, 64)
	dir := t.TempDir()
	ffs := NewFaultFS(nil)
	clock := time.Unix(1000, 0)
	s := openTest(t, dir, Options{
		FS:               ffs,
		FailureThreshold: 1,
		ProbeInterval:    10 * time.Second,
		now:              func() time.Time { return clock },
	})

	// Corrupt a committed blob on disk: the verified read quarantines it.
	data := blob("x", 400)
	d, _, err := s.Put(data, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "blobs", d.String()), []byte("corrupt"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(d); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get of corrupt blob = %v, want ErrNotFound", err)
	}
	qs := lifecycleEvents(sink, "quarantine")
	if len(qs) != 1 || qs[0].Digest != d.String() {
		t.Fatalf("quarantine events = %+v, want one for %s", qs, d)
	}

	// Write failure degrades (threshold 1); the event carries the cause.
	ffs.Inject(&Fault{Op: "sync", Path: ".tmp-", Err: syscall.ENOSPC})
	if _, _, err := s.Put(blob("y", 400), nil); err == nil {
		t.Fatal("Put succeeded with failing fsync")
	}
	enter := lifecycleEvents(sink, "degraded_enter")
	if len(enter) != 1 || !strings.Contains(enter[0].Detail, "write failures") {
		t.Fatalf("degraded_enter events = %+v", enter)
	}

	// Fault clears; a due probe re-arms the store and emits the exit.
	ffs.Clear()
	clock = clock.Add(11 * time.Second)
	if _, _, err := s.Put(blob("y", 400), nil); err != nil {
		t.Fatalf("probe Put after fault cleared: %v", err)
	}
	if exit := lifecycleEvents(sink, "degraded_exit"); len(exit) != 1 {
		t.Fatalf("degraded_exit events = %d, want 1", len(exit))
	}
}

func TestStoreLifecycleFallsBackToActiveSink(t *testing.T) {
	sink := useSink(t, 16)
	s := openTest(t, t.TempDir(), Options{Budget: 500})
	if _, _, err := s.Put(blob("a", 400), nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Put(blob("b", 400), nil); err != nil {
		t.Fatal(err)
	}
	if got := lifecycleEvents(sink, "evict"); len(got) != 1 {
		t.Fatalf("process-wide sink saw %d evict events, want 1", len(got))
	}
}

func TestStoreContextOpsAttributeEvent(t *testing.T) {
	sink := obs.NewEventSink(16)
	s := openTest(t, t.TempDir(), Options{})
	ev := sink.NewEvent("http", "/experiments/{digest}")
	ctx := obs.ContextWithEvent(t.Context(), ev)

	data := blob("z", 300)
	d, created, err := s.PutContext(ctx, data, nil)
	if err != nil || !created {
		t.Fatalf("PutContext: %v created=%v", err, created)
	}
	got, err := s.GetContext(ctx, d)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("GetContext: %v", err)
	}
	f := ev.Fields()
	if f.StorePuts != 1 || f.StoreGets != 1 {
		t.Errorf("store puts/gets = %d/%d, want 1/1", f.StorePuts, f.StoreGets)
	}
	if f.StoreBytes != 600 {
		t.Errorf("store bytes = %d, want 600", f.StoreBytes)
	}
}

func TestStoreContextOpsTraced(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{})
	tr := obs.NewTracer(obs.TracerOptions{SampleRate: 1, RingSize: 4})
	root := tr.StartTrace("request", "req1")
	ctx := obs.ContextWithSpan(t.Context(), root)

	data := blob("w", 200)
	d, _, err := s.PutContext(ctx, data, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.GetContext(ctx, d); err != nil {
		t.Fatal(err)
	}
	root.End()

	traces := tr.Traces()
	if len(traces) != 1 {
		t.Fatalf("traces = %d, want 1", len(traces))
	}
	children := traces[0].Root().Children()
	var names []string
	for _, c := range children {
		names = append(names, c.Name())
	}
	want := []string{"store.put", "store.get"}
	if len(names) != 2 || names[0] != want[0] || names[1] != want[1] {
		t.Fatalf("request children = %v, want %v", names, want)
	}
	for _, c := range children {
		attrs := map[string]any{}
		for _, a := range c.Attrs() {
			attrs[a.Key] = a.Value
		}
		if attrs["bytes"] != int64(200) {
			t.Errorf("%s bytes attr = %v, want 200", c.Name(), attrs["bytes"])
		}
		if _, ok := attrs["verify_seconds"]; !ok {
			t.Errorf("%s missing verify_seconds attr", c.Name())
		}
	}
}

func TestStoreInventory(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{Budget: 10_000})
	a := blob("a", 500)
	b := blob("b", 700)
	da, _, _ := s.Put(a, nil)
	if _, _, err := s.Put(b, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(da); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(DigestOf([]byte("missing"))); !errors.Is(err, ErrNotFound) {
		t.Fatal("expected miss")
	}
	if !s.Pin(da) {
		t.Fatal("pin failed")
	}
	defer s.Unpin(da)

	inv := s.Inventory()
	if inv.Blobs != 2 || inv.Bytes != 1200 {
		t.Errorf("blobs/bytes = %d/%d, want 2/1200", inv.Blobs, inv.Bytes)
	}
	if inv.Budget != 10_000 {
		t.Errorf("budget = %d", inv.Budget)
	}
	if inv.Pressure != 0.12 {
		t.Errorf("pressure = %g, want 0.12", inv.Pressure)
	}
	if inv.PinnedBlobs != 1 || inv.Pins != 1 {
		t.Errorf("pinned = %d/%d, want 1/1", inv.PinnedBlobs, inv.Pins)
	}
	if inv.Puts != 2 || inv.Gets != 1 || inv.GetMisses != 1 {
		t.Errorf("puts/gets/misses = %d/%d/%d, want 2/1/1", inv.Puts, inv.Gets, inv.GetMisses)
	}
	if inv.Degraded {
		t.Error("store reported degraded")
	}
	if inv.Recovery.Intact != 0 {
		t.Errorf("recovery intact = %d", inv.Recovery.Intact)
	}
}

func TestStoreInventoryQuarantineNewestFirst(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{})
	for _, tag := range []string{"one", "two"} {
		d, _, err := s.Put(blob(tag, 100), nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "blobs", d.String()), []byte("bad"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Get(d); !errors.Is(err, ErrNotFound) {
			t.Fatal("corrupt blob served")
		}
	}
	inv := s.Inventory()
	if len(inv.Quarantined) != 2 {
		t.Fatalf("quarantine records = %d, want 2", len(inv.Quarantined))
	}
	if !inv.Quarantined[0].Time.After(inv.Quarantined[1].Time) && inv.Quarantined[0].Time != inv.Quarantined[1].Time {
		t.Errorf("quarantine records not newest-first: %+v", inv.Quarantined)
	}
	for _, q := range inv.Quarantined {
		if q.Reason == "" || q.Name == "" {
			t.Errorf("incomplete quarantine record: %+v", q)
		}
	}
}
