package obs

import (
	"bytes"
	"log/slog"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// sloClock is a settable test clock.
type sloClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *sloClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *sloClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func newSLOClock() *sloClock {
	return &sloClock{t: time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)}
}

func TestSLOTrackerDisabled(t *testing.T) {
	if tr := NewSLOTracker(SLOConfig{}); tr != nil {
		t.Fatal("no objectives should produce a nil tracker")
	}
	var tr *SLOTracker
	tr.Observe("/x", 500, time.Second) // must not panic
	if snap := tr.Snapshot(); len(snap.Routes) != 0 {
		t.Errorf("nil tracker snapshot has routes: %+v", snap)
	}
	if tr.Window() != 0 {
		t.Errorf("nil tracker window = %v", tr.Window())
	}
}

func TestSLOAvailabilityBurn(t *testing.T) {
	clk := newSLOClock()
	tr := NewSLOTracker(SLOConfig{
		Window:             time.Minute,
		AvailabilityTarget: 0.9, // budget: 10% of requests may 5xx
		now:                clk.now,
	})
	// 100 requests, 5 of them 5xx → burn = 5 / (0.1 × 100) = 0.5.
	for i := 0; i < 95; i++ {
		tr.Observe("/op", 200, time.Millisecond)
	}
	for i := 0; i < 5; i++ {
		tr.Observe("/op", 500, time.Millisecond)
	}
	snap := tr.Snapshot()
	if len(snap.Routes) != 1 {
		t.Fatalf("routes = %d, want 1", len(snap.Routes))
	}
	r := snap.Routes[0]
	if r.Total != 100 || r.Errors != 5 {
		t.Errorf("total/errors = %d/%d, want 100/5", r.Total, r.Errors)
	}
	if math.Abs(r.AvailabilityBurn-0.5) > 1e-9 {
		t.Errorf("availability burn = %g, want 0.5", r.AvailabilityBurn)
	}
	if math.Abs(r.BudgetRemaining-0.5) > 1e-9 {
		t.Errorf("budget remaining = %g, want 0.5", r.BudgetRemaining)
	}
}

func TestSLOLatencyBurn(t *testing.T) {
	clk := newSLOClock()
	tr := NewSLOTracker(SLOConfig{
		Window:           time.Minute,
		LatencyThreshold: 100 * time.Millisecond,
		LatencyTarget:    0.9, // budget: 10% of requests may be slow
		now:              clk.now,
	})
	for i := 0; i < 8; i++ {
		tr.Observe("/op", 200, 10*time.Millisecond)
	}
	tr.Observe("/op", 200, 500*time.Millisecond)
	tr.Observe("/op", 200, 500*time.Millisecond)
	// 2 slow of 10 → burn = 2 / (0.1 × 10) = 2.0: budget violated.
	r := tr.Snapshot().Routes[0]
	if r.Slow != 2 {
		t.Errorf("slow = %d, want 2", r.Slow)
	}
	if math.Abs(r.LatencyBurn-2.0) > 1e-9 {
		t.Errorf("latency burn = %g, want 2.0", r.LatencyBurn)
	}
	if r.BudgetRemaining != 0 {
		t.Errorf("budget remaining = %g, want 0 (clamped)", r.BudgetRemaining)
	}
}

func TestSLOWindowExpiry(t *testing.T) {
	clk := newSLOClock()
	tr := NewSLOTracker(SLOConfig{
		Window:             10 * time.Second,
		AvailabilityTarget: 0.9,
		now:                clk.now,
	})
	tr.Observe("/op", 500, time.Millisecond)
	tr.Observe("/op", 500, time.Millisecond)
	if r := tr.Snapshot().Routes[0]; r.Errors != 2 {
		t.Fatalf("errors = %d, want 2", r.Errors)
	}
	// Advance past the window: the errors must age out.
	clk.advance(11 * time.Second)
	tr.Observe("/op", 200, time.Millisecond)
	r := tr.Snapshot().Routes[0]
	if r.Total != 1 || r.Errors != 0 {
		t.Errorf("after expiry total/errors = %d/%d, want 1/0", r.Total, r.Errors)
	}
	if r.AvailabilityBurn != 0 {
		t.Errorf("burn = %g, want 0 after expiry", r.AvailabilityBurn)
	}
}

func TestSLOBucketReclaimOnWrap(t *testing.T) {
	// The ring spans window+1 slots; writing into a slot still holding a
	// stale second (clock jumped a whole multiple of the ring) must
	// retire the stale counts from the aggregates.
	clk := newSLOClock()
	tr := NewSLOTracker(SLOConfig{
		Window:             2 * time.Second, // ring of 3 slots
		AvailabilityTarget: 0.9,
		now:                clk.now,
	})
	tr.Observe("/op", 500, time.Millisecond)
	clk.advance(3 * time.Second) // exactly one full ring revolution
	tr.Observe("/op", 200, time.Millisecond)
	r := tr.Snapshot().Routes[0]
	if r.Total != 1 || r.Errors != 0 {
		t.Errorf("total/errors = %d/%d, want 1/0", r.Total, r.Errors)
	}
}

func TestSLOBudgetExhaustedWarning(t *testing.T) {
	var buf bytes.Buffer
	lg := slog.New(slog.NewTextHandler(&buf, nil))
	clk := newSLOClock()
	tr := NewSLOTracker(SLOConfig{
		Window:             time.Minute,
		AvailabilityTarget: 0.5, // half the requests may fail — easy to blow
		Logger:             lg,
		now:                clk.now,
	})
	tr.Observe("/op", 500, time.Millisecond) // burn = 1/(0.5×1) = 2 → warn
	tr.Observe("/op", 500, time.Millisecond) // still exhausted → no second warn
	out := buf.String()
	if n := strings.Count(out, "slo error budget exhausted"); n != 1 {
		t.Errorf("warned %d times, want exactly 1 per transition:\n%s", n, out)
	}
	if !strings.Contains(out, "objective=availability") || !strings.Contains(out, "route=/op") {
		t.Errorf("warning missing objective/route: %s", out)
	}
	// Recover (errors age out), then fail again: a second transition warns again.
	clk.advance(2 * time.Minute)
	tr.Observe("/op", 200, time.Millisecond)
	tr.Observe("/op", 500, time.Millisecond)
	if n := strings.Count(buf.String(), "slo error budget exhausted"); n != 2 {
		t.Errorf("after recovery+re-burn warned %d times total, want 2", n)
	}
}

func TestSLOMetricsExport(t *testing.T) {
	reg := NewRegistry()
	SetRegistry(reg)
	t.Cleanup(func() { SetRegistry(nil) })
	clk := newSLOClock()
	tr := NewSLOTracker(SLOConfig{
		Window:             time.Minute,
		AvailabilityTarget: 0.9,
		LatencyThreshold:   100 * time.Millisecond,
		LatencyTarget:      0.9,
		now:                clk.now,
	})
	for i := 0; i < 9; i++ {
		tr.Observe("/op", 200, time.Millisecond)
	}
	tr.Observe("/op", 500, 500*time.Millisecond)
	// availability burn = 1/(0.1×10) = 1.0 → 1_000_000 ppm; same for latency.
	if got := reg.Gauge("cube_slo_availability_burn_ppm", L("route", "/op")).Value(); got != 1_000_000 {
		t.Errorf("availability gauge = %d, want 1000000", got)
	}
	if got := reg.Gauge("cube_slo_latency_burn_ppm", L("route", "/op")).Value(); got != 1_000_000 {
		t.Errorf("latency gauge = %d, want 1000000", got)
	}
}

func TestSLOSnapshotShape(t *testing.T) {
	clk := newSLOClock()
	tr := NewSLOTracker(SLOConfig{
		Window:             30 * time.Second,
		AvailabilityTarget: 0.999,
		LatencyThreshold:   250 * time.Millisecond,
		now:                clk.now,
	})
	tr.Observe("/b", 200, time.Millisecond)
	tr.Observe("/a", 200, time.Millisecond)
	snap := tr.Snapshot()
	if snap.Window != "30s" {
		t.Errorf("window = %q", snap.Window)
	}
	if snap.LatencyTarget != 0.99 { // defaulted
		t.Errorf("latency target = %g, want default 0.99", snap.LatencyTarget)
	}
	if snap.LatencyThresholdMS != 250 {
		t.Errorf("latency threshold = %g ms", snap.LatencyThresholdMS)
	}
	if len(snap.Routes) != 2 || snap.Routes[0].Route != "/a" || snap.Routes[1].Route != "/b" {
		t.Errorf("routes not sorted: %+v", snap.Routes)
	}
}

func TestSLOConcurrentObserve(t *testing.T) {
	tr := NewSLOTracker(SLOConfig{
		Window:             time.Minute,
		AvailabilityTarget: 0.99,
		LatencyThreshold:   time.Millisecond,
	})
	var wg sync.WaitGroup
	const workers, per = 8, 500
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				status := 200
				if i%10 == 0 {
					status = 500
				}
				tr.Observe("/op", status, time.Duration(i)*time.Microsecond)
			}
		}(w)
	}
	wg.Wait()
	r := tr.Snapshot().Routes[0]
	if r.Total != workers*per {
		t.Errorf("total = %d, want %d", r.Total, workers*per)
	}
	if r.Errors != workers*per/10 {
		t.Errorf("errors = %d, want %d", r.Errors, workers*per/10)
	}
}
