// Package obs is the dependency-free observability layer shared by every
// other package in the module: a named registry of labeled counters,
// gauges, and fixed-bucket histograms (all lock-free on the hot path),
// plus context-propagated request IDs, trace spans, wide events, and the
// pipeline stage table (stage.go) that feeds all three.
//
// The package deliberately has no third-party dependencies and exposes the
// collected state in two wire formats — the Prometheus text exposition
// format and a JSON snapshot (expvar-style) — so the HTTP service, the
// CLIs, and the tests can all report through the same seam. Later
// performance work (sharding, caching, parallel operators) is expected to
// publish its numbers here rather than inventing new side channels.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name=value dimension of a metric series. Series with the
// same metric name but different label values are tracked independently.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// --- metric primitives ---------------------------------------------------------

// Counter is a monotonically increasing integer. The zero value is ready
// to use; a nil *Counter ignores all updates, so disabled instrumentation
// costs one branch.
type Counter struct {
	v atomic.Int64
}

// Inc adds one to the counter.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add increases the counter by n (negative n is ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if c != nil && n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an integer that can go up and down (in-flight requests, queue
// depths). A nil *Gauge ignores all updates.
type Gauge struct {
	v atomic.Int64
}

// Set stores an absolute value.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add moves the gauge by delta (which may be negative).
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Value returns the current gauge reading.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts observations into fixed buckets and tracks their count
// and sum, like a Prometheus histogram: bucket i counts observations
// v <= bounds[i], and one implicit overflow bucket (+Inf) catches the rest.
// All updates are atomic; a nil *Histogram ignores observations. Each
// bucket can additionally hold one exemplar — the trace ID of the most
// recent observation that landed in it — so a latency outlier on a
// dashboard links straight to its trace in /debug/traces.
type Histogram struct {
	bounds    []float64 // sorted upper bounds, exclusive of +Inf
	counts    []atomic.Int64
	exemplars []atomic.Pointer[exemplar] // one slot per bucket, last-write-wins
	count     atomic.Int64
	sum       atomicFloat
}

// exemplar ties one observed value to the trace that produced it.
type exemplar struct {
	traceID string
	value   float64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.observe(v)
}

// ObserveExemplar records one value and, when traceID is non-empty,
// stamps the bucket it lands in with that trace ID. With an empty
// traceID it is exactly Observe, so call sites can pass the (possibly
// empty) ID of whatever span is active without branching.
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	if h == nil {
		return
	}
	i := h.observe(v)
	if traceID != "" {
		h.exemplars[i].Store(&exemplar{traceID: traceID, value: v})
	}
}

// ObserveN records n identical observations of v in one update — the bulk
// path for replaying externally aggregated histograms (the Go runtime's GC
// pause and scheduler latency distributions, gometrics.go) without O(n)
// per-sample loops. n <= 0 is a no-op.
func (h *Histogram) ObserveN(v float64, n int64) {
	if h == nil || n <= 0 {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(n)
	h.count.Add(n)
	h.sum.Add(v * float64(n))
}

func (h *Histogram) observe(v float64) int {
	// Buckets are few (tens); linear scan beats binary search at this size
	// and keeps the code branch-predictable.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	return i
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// atomicFloat is a float64 with atomic add via compare-and-swap on its bits.
type atomicFloat struct {
	bits atomic.Uint64
}

func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (f *atomicFloat) Load() float64 { return math.Float64frombits(f.bits.Load()) }

// Default bucket layouts. Bounds are in seconds (latency), bytes (size),
// and dimensionless multiples (ratio).
var (
	// DefLatencyBuckets spans 100µs to 10s, the plausible range for
	// operator and request latencies on one machine.
	DefLatencyBuckets = []float64{.0001, .00025, .0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}
	// DefSizeBuckets spans 256 B to 256 MiB in powers of four.
	DefSizeBuckets = []float64{256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20, 16 << 20, 64 << 20, 256 << 20}
	// DefRatioBuckets suits expansion/overhead factors that start at 1.
	DefRatioBuckets = []float64{1, 1.1, 1.25, 1.5, 2, 3, 5, 10, 25, 100}
)

// --- registry ------------------------------------------------------------------

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "unknown"
}

// series is one labeled instance of a metric family.
type series struct {
	labels []Label
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family groups all series sharing a metric name.
type family struct {
	name    string
	kind    metricKind
	buckets []float64 // histogram families only
	mu      sync.RWMutex
	series  map[string]*series // canonical label string -> series
}

// Registry is a named collection of metrics. The zero value is not usable;
// call NewRegistry. A nil *Registry is a valid "disabled" registry: every
// lookup returns a nil metric whose updates are no-ops.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// Default is the process-wide registry used when no explicit registry is
// configured (the HTTP service, the CLIs' -stats flag, the typed client).
var Default = NewRegistry()

// validName reports whether name is a legal metric or label name
// ([a-zA-Z_:][a-zA-Z0-9_:]*), mirroring the Prometheus data model.
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// labelKey returns the canonical identity of a label set. Labels are
// sorted, so the caller's argument order never splits a series.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var sb strings.Builder
	for _, l := range labels {
		sb.WriteString(l.Key)
		sb.WriteByte(1)
		sb.WriteString(l.Value)
		sb.WriteByte(2)
	}
	return sb.String()
}

func sortedLabels(labels []Label) []Label {
	if len(labels) < 2 {
		return append([]Label(nil), labels...)
	}
	out := append([]Label(nil), labels...)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// lookup returns the series for (name, labels), creating family and series
// on first use. It panics on invalid names and on kind conflicts — both
// are programming errors, not runtime conditions.
func (r *Registry) lookup(name string, kind metricKind, buckets []float64, labels []Label) *series {
	if r == nil {
		return nil
	}
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validName(l.Key) {
			panic(fmt.Sprintf("obs: metric %s: invalid label name %q", name, l.Key))
		}
	}
	r.mu.RLock()
	f := r.families[name]
	r.mu.RUnlock()
	if f == nil {
		r.mu.Lock()
		if f = r.families[name]; f == nil {
			f = &family{name: name, kind: kind, buckets: append([]float64(nil), buckets...), series: map[string]*series{}}
			r.families[name] = f
		}
		r.mu.Unlock()
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %s registered as %v, requested as %v", name, f.kind, kind))
	}
	ls := sortedLabels(labels)
	key := labelKey(ls)
	f.mu.RLock()
	s := f.series[key]
	f.mu.RUnlock()
	if s != nil {
		return s
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if s = f.series[key]; s != nil {
		return s
	}
	s = &series{labels: ls}
	switch kind {
	case kindCounter:
		s.c = &Counter{}
	case kindGauge:
		s.g = &Gauge{}
	case kindHistogram:
		s.h = newHistogram(f.buckets)
	}
	f.series[key] = s
	return s
}

// find returns the existing series for (name, labels), or nil; unlike
// lookup it never creates one.
func (r *Registry) find(name string, labels []Label) *series {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	f := r.families[name]
	r.mu.RUnlock()
	if f == nil {
		return nil
	}
	key := labelKey(sortedLabels(labels))
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.series[key]
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{
		bounds:    b,
		counts:    make([]atomic.Int64, len(b)+1),
		exemplars: make([]atomic.Pointer[exemplar], len(b)+1),
	}
}

// Counter returns (creating on first use) the counter named name with the
// given labels. The returned pointer is stable and may be cached by hot
// paths. On a nil registry it returns nil, which is safe to update.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	s := r.lookup(name, kindCounter, nil, labels)
	if s == nil {
		return nil
	}
	return s.c
}

// Gauge returns (creating on first use) the gauge named name.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	s := r.lookup(name, kindGauge, nil, labels)
	if s == nil {
		return nil
	}
	return s.g
}

// Histogram returns (creating on first use) the histogram named name with
// the given bucket upper bounds. The bucket layout is fixed by the first
// registration; later calls for the same name reuse it.
func (r *Registry) Histogram(name string, buckets []float64, labels ...Label) *Histogram {
	s := r.lookup(name, kindHistogram, buckets, labels)
	if s == nil {
		return nil
	}
	return s.h
}
