package obs

import (
	"log/slog"
	"sort"
	"sync"
	"time"
)

// Windowed SLO tracking. The server declares per-route objectives —
// availability ("99.9% of requests succeed") and latency ("99% of
// requests finish under 250ms") — and the tracker maintains, over a
// rolling window, how much of each route's error budget has burned.
// Burn is the standard ratio
//
//	burn = bad / ((1 - target) × total)
//
// so burn < 1 means the route is inside its objective for the window,
// burn = 1 means the budget is exactly spent, and burn > 1 means the
// objective is violated. State lives in per-second buckets per route;
// Observe is O(1) (aggregates are maintained incrementally, expiry
// retires at most the buckets the clock actually passed).

// SLOConfig declares the objectives a tracker enforces.
type SLOConfig struct {
	// Window is the rolling evaluation window. Defaults to 5 minutes.
	Window time.Duration

	// LatencyThreshold is the per-request latency objective; requests at
	// or under it count as fast. Zero disables latency tracking.
	LatencyThreshold time.Duration

	// LatencyTarget is the fraction of requests that must be fast
	// (default 0.99 when latency tracking is enabled).
	LatencyTarget float64

	// AvailabilityTarget is the fraction of requests that must not fail
	// with a 5xx (e.g. 0.999). Zero disables availability tracking.
	AvailabilityTarget float64

	// Logger receives budget-exhausted warnings (one per transition into
	// burn ≥ 1, per route and objective). Nil uses slog.Default.
	Logger *slog.Logger

	// now overrides the clock in tests.
	now func() time.Time
}

// SLOTracker tracks rolling error-budget burn per route.
type SLOTracker struct {
	cfg SLOConfig

	mu     sync.Mutex
	routes map[string]*sloRoute
}

// sloBucket accumulates one second of observations for one route.
type sloBucket struct {
	sec    int64 // unix second this bucket covers; 0 = empty
	total  int64
	errors int64 // 5xx responses
	slow   int64 // responses over LatencyThreshold
}

type sloRoute struct {
	buckets []sloBucket // ring indexed by sec % len
	// Rolling aggregates over the live buckets.
	total, errors, slow int64
	// Budget-exhausted edge detection, per objective.
	availExhausted, latExhausted bool
}

// NewSLOTracker returns a tracker enforcing cfg, or nil when cfg declares
// no objective at all — a nil tracker's methods are no-ops, so callers
// wire it unconditionally.
func NewSLOTracker(cfg SLOConfig) *SLOTracker {
	if cfg.AvailabilityTarget <= 0 && cfg.LatencyThreshold <= 0 {
		return nil
	}
	if cfg.Window <= 0 {
		cfg.Window = 5 * time.Minute
	}
	if cfg.LatencyThreshold > 0 && cfg.LatencyTarget <= 0 {
		cfg.LatencyTarget = 0.99
	}
	// Targets are fractions strictly below 1: a target of 1 leaves a zero
	// budget and burn is undefined; clamp to "five nines" instead.
	if cfg.AvailabilityTarget >= 1 {
		cfg.AvailabilityTarget = 0.99999
	}
	if cfg.LatencyTarget >= 1 {
		cfg.LatencyTarget = 0.99999
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	return &SLOTracker{cfg: cfg, routes: make(map[string]*sloRoute)}
}

// Window returns the tracker's rolling window (0 on a nil tracker).
func (t *SLOTracker) Window() time.Duration {
	if t == nil {
		return 0
	}
	return t.cfg.Window
}

// route returns (creating if needed) the state for one route. Caller
// holds t.mu.
func (t *SLOTracker) route(name string) *sloRoute {
	r := t.routes[name]
	if r == nil {
		// One bucket per second of window, plus one so the bucket being
		// filled never aliases the oldest still-counted bucket.
		n := int(t.cfg.Window/time.Second) + 1
		if n < 2 {
			n = 2
		}
		r = &sloRoute{buckets: make([]sloBucket, n)}
		t.routes[name] = r
	}
	return r
}

// expire retires buckets that have fallen out of the window. Caller
// holds t.mu. now is the current unix second.
func (r *sloRoute) expire(now int64, window int64) {
	oldest := now - window + 1
	for i := range r.buckets {
		b := &r.buckets[i]
		if b.sec != 0 && b.sec < oldest {
			r.total -= b.total
			r.errors -= b.errors
			r.slow -= b.slow
			*b = sloBucket{}
		}
	}
}

// Observe records one completed request against route's objectives.
func (t *SLOTracker) Observe(route string, status int, dur time.Duration) {
	if t == nil {
		return
	}
	now := t.cfg.now()
	sec := now.Unix()
	isErr := status >= 500
	isSlow := t.cfg.LatencyThreshold > 0 && dur > t.cfg.LatencyThreshold

	t.mu.Lock()
	r := t.route(route)
	r.expire(sec, int64(t.cfg.Window/time.Second))
	b := &r.buckets[sec%int64(len(r.buckets))]
	if b.sec != sec {
		// Reclaim a stale slot the expiry pass didn't touch (it can only
		// be outside the window, since the ring spans window+1 seconds).
		r.total -= b.total
		r.errors -= b.errors
		r.slow -= b.slow
		*b = sloBucket{sec: sec}
	}
	b.total++
	r.total++
	if isErr {
		b.errors++
		r.errors++
	}
	if isSlow {
		b.slow++
		r.slow++
	}
	availBurn, latBurn := t.burnsLocked(r)
	availEdge := !r.availExhausted && availBurn >= 1
	latEdge := !r.latExhausted && latBurn >= 1
	r.availExhausted = availBurn >= 1
	r.latExhausted = latBurn >= 1
	t.mu.Unlock()

	t.export(route, availBurn, latBurn)
	if availEdge {
		t.warn(route, "availability", availBurn)
	}
	if latEdge {
		t.warn(route, "latency", latBurn)
	}
}

// burnsLocked computes the route's current burn ratios. Caller holds t.mu.
// A disabled objective reports burn 0; an enabled objective with no
// traffic reports 0 (an empty window cannot be out of budget).
func (t *SLOTracker) burnsLocked(r *sloRoute) (avail, lat float64) {
	if r.total == 0 {
		return 0, 0
	}
	if t.cfg.AvailabilityTarget > 0 {
		avail = float64(r.errors) / ((1 - t.cfg.AvailabilityTarget) * float64(r.total))
	}
	if t.cfg.LatencyThreshold > 0 {
		lat = float64(r.slow) / ((1 - t.cfg.LatencyTarget) * float64(r.total))
	}
	return avail, lat
}

// export publishes burn gauges into the process-wide registry
// (SetRegistry). Burn is exported in parts-per-million so the integer
// gauge keeps precision (1_000_000 = budget exactly spent).
func (t *SLOTracker) export(route string, availBurn, latBurn float64) {
	reg := ActiveRegistry()
	const ppm = 1e6
	if t.cfg.AvailabilityTarget > 0 {
		reg.Gauge("cube_slo_availability_burn_ppm", L("route", route)).Set(int64(availBurn * ppm))
	}
	if t.cfg.LatencyThreshold > 0 {
		reg.Gauge("cube_slo_latency_burn_ppm", L("route", route)).Set(int64(latBurn * ppm))
	}
}

func (t *SLOTracker) warn(route, objective string, burn float64) {
	lg := t.cfg.Logger
	if lg == nil {
		lg = slog.Default()
	}
	lg.Warn("slo error budget exhausted",
		"route", route,
		"objective", objective,
		"burn", burn,
		"window", t.cfg.Window.String(),
	)
}

// SLORouteStatus is one route's standing in the current window.
type SLORouteStatus struct {
	Route string `json:"route"`
	Total int64  `json:"total"`

	// Availability objective (present when configured).
	Errors           int64   `json:"errors"`
	AvailabilityBurn float64 `json:"availability_burn,omitempty"`

	// Latency objective (present when configured).
	Slow        int64   `json:"slow"`
	LatencyBurn float64 `json:"latency_burn,omitempty"`

	// BudgetRemaining is the worse objective's remaining budget fraction:
	// 1 - max(burn); clamped at 0.
	BudgetRemaining float64 `json:"budget_remaining"`
}

// SLOSnapshot is the full tracker state served on /debug/slo.
type SLOSnapshot struct {
	Window             string           `json:"window"`
	AvailabilityTarget float64          `json:"availability_target,omitempty"`
	LatencyThresholdMS float64          `json:"latency_threshold_ms,omitempty"`
	LatencyTarget      float64          `json:"latency_target,omitempty"`
	Routes             []SLORouteStatus `json:"routes"`
}

// Snapshot returns the current per-route standing, routes sorted by name.
func (t *SLOTracker) Snapshot() SLOSnapshot {
	if t == nil {
		return SLOSnapshot{}
	}
	snap := SLOSnapshot{
		Window:             t.cfg.Window.String(),
		AvailabilityTarget: t.cfg.AvailabilityTarget,
		LatencyTarget:      t.cfg.LatencyTarget,
	}
	if t.cfg.LatencyThreshold > 0 {
		snap.LatencyThresholdMS = float64(t.cfg.LatencyThreshold) / float64(time.Millisecond)
	} else {
		snap.LatencyTarget = 0
	}
	sec := t.cfg.now().Unix()

	t.mu.Lock()
	for name, r := range t.routes {
		r.expire(sec, int64(t.cfg.Window/time.Second))
		avail, lat := t.burnsLocked(r)
		worst := avail
		if lat > worst {
			worst = lat
		}
		remaining := 1 - worst
		if remaining < 0 {
			remaining = 0
		}
		snap.Routes = append(snap.Routes, SLORouteStatus{
			Route:            name,
			Total:            r.total,
			Errors:           r.errors,
			AvailabilityBurn: avail,
			Slow:             r.slow,
			LatencyBurn:      lat,
			BudgetRemaining:  remaining,
		})
	}
	t.mu.Unlock()

	sort.Slice(snap.Routes, func(i, j int) bool { return snap.Routes[i].Route < snap.Routes[j].Route })
	return snap
}
