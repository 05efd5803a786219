package obs

import (
	"context"
	"log/slog"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span-based execution tracing. A Tracer produces trees of Spans — one
// tree per traced operation (an HTTP request, a CLI operator run) — with
// head-based sampling, a bounded ring of recent completed traces, and a
// slow-trace log. The package stays dependency-free like the metrics
// layer; exporters (Chrome trace-event JSON and a human-readable tree
// dump) live in traceexport.go.
//
// Concurrency: Spans are safe for concurrent child creation and
// attribute updates (kernel worker shards attach children to one parent
// from many goroutines). A nil *Span and a nil *Tracer are valid
// "disabled" values on which every method is a no-op, so disabled call
// sites pay a nil check and nothing else.

// Attr is one key/value annotation on a span. Values should be strings,
// booleans, integers, or floats so every exporter can render them.
type Attr struct {
	Key   string `json:"key"`
	Value any    `json:"value"`
}

// Span is one timed operation in a trace tree: a name, a start time and
// duration, attributes, and child spans for the operation's parts.
type Span struct {
	name   string
	start  time.Time
	tr     *Trace
	parent *Span

	mu       sync.Mutex
	dur      time.Duration
	ended    bool
	attrs    []Attr
	children []*Span
}

// StartChild opens a sub-span under s. Safe to call concurrently from
// several goroutines (worker shards). On a nil span it returns nil, so
// disabled tracing composes through call chains for free.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{name: name, start: time.Now(), tr: s.tr, parent: s}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// SetAttr records (or overwrites) one attribute. No-op on a nil span.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			s.attrs[i].Value = value
			s.mu.Unlock()
			return
		}
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
}

// addAttr adds n to the int64 attribute key, creating it at n.
func (s *Span) addAttr(key string, n int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			v, _ := s.attrs[i].Value.(int64)
			s.attrs[i].Value = v + n
			return
		}
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: n})
}

// End stops the span. Ending the root span completes the trace: the
// owning tracer decides retention (sampling, slow threshold) and logs
// slow traces. Ending twice, or ending a nil span, is a no-op.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.dur = time.Since(s.start)
	s.mu.Unlock()
	if s.parent == nil && s.tr != nil && s.tr.tracer != nil {
		s.tr.tracer.finish(s.tr)
	}
}

// Name returns the span's name ("" on nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Start returns the span's start time.
func (s *Span) Start() time.Time {
	if s == nil {
		return time.Time{}
	}
	return s.start
}

// Duration returns the span's duration (zero until End).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dur
}

// Attrs returns a copy of the span's attributes.
func (s *Span) Attrs() []Attr {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Attr(nil), s.attrs...)
}

// Children returns the span's children ordered by start time (child
// creation from concurrent shards appends in scheduling order).
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	out := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].start.Before(out[j].start) })
	return out
}

// TraceID returns the ID of the trace the span belongs to ("" on nil).
func (s *Span) TraceID() string {
	if s == nil || s.tr == nil {
		return ""
	}
	return s.tr.id
}

// Trace is one completed (or in-flight) span tree.
type Trace struct {
	id      string
	root    *Span
	start   time.Time
	sampled bool
	tracer  *Tracer
	dur     atomic.Int64 // nanoseconds, set when the root ends
}

// ID returns the trace ID (shared with the request ID when the trace was
// started for an HTTP request).
func (t *Trace) ID() string { return t.id }

// Root returns the root span.
func (t *Trace) Root() *Span { return t.root }

// Start returns the trace's start time.
func (t *Trace) Start() time.Time { return t.start }

// Duration returns the root span's duration (zero while in flight).
func (t *Trace) Duration() time.Duration { return time.Duration(t.dur.Load()) }

// Sampled reports whether the head-based sampling decision admitted the
// trace independently of its duration.
func (t *Trace) Sampled() bool { return t.sampled }

// SpanCount returns the number of spans in the tree.
func (t *Trace) SpanCount() int {
	n := 0
	var walk func(s *Span)
	walk = func(s *Span) {
		n++
		for _, c := range s.Children() {
			walk(c)
		}
	}
	if t.root != nil {
		walk(t.root)
	}
	return n
}

// TracerOptions configure a Tracer.
type TracerOptions struct {
	// SampleRate is the fraction of traces ([0,1]) retained in the ring
	// regardless of duration (head-based sampling). Traces outside the
	// sample are still recorded while in flight — cheaply, the tree is
	// small — so the slow threshold below can rescue them at completion.
	SampleRate float64
	// Slow, when > 0, retains every trace at least this slow even if the
	// sampling decision dropped it, and logs it through Logger with its
	// three hottest spans inline.
	Slow time.Duration
	// RingSize bounds the completed traces kept for inspection
	// (default 64). The oldest trace is evicted first.
	RingSize int
	// Logger receives the slow-trace records; nil disables the slow log.
	Logger *slog.Logger
}

// DefaultTraceRingSize is the ring capacity used when TracerOptions
// leaves RingSize zero.
const DefaultTraceRingSize = 64

// Tracer produces and retains traces. A nil *Tracer is a valid disabled
// tracer: StartTrace returns a nil span.
type Tracer struct {
	opts TracerOptions
	seq  atomic.Uint64

	mu   sync.Mutex
	ring []*Trace // insertion order; wraps at capacity
	next int      // slot the next completed trace overwrites once full
}

// NewTracer returns a tracer with the given options.
func NewTracer(opts TracerOptions) *Tracer {
	if opts.RingSize <= 0 {
		opts.RingSize = DefaultTraceRingSize
	}
	return &Tracer{opts: opts}
}

// sampleIn makes the head-based sampling decision. The generator is a
// splitmix64 walk over an atomic sequence — uniform enough for sampling,
// lock-free, and free of math/rand's global state.
func (t *Tracer) sampleIn() bool {
	r := t.opts.SampleRate
	if r >= 1 {
		return true
	}
	if r <= 0 {
		return false
	}
	x := t.seq.Add(1) * 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return float64(x>>11)/(1<<53) < r
}

// StartTrace opens a new trace rooted at a span named name. id becomes
// the trace ID; an empty id mints a fresh one (NewRequestID). On a nil
// tracer it returns nil.
func (t *Tracer) StartTrace(name, id string) *Span {
	if t == nil {
		return nil
	}
	if id == "" {
		id = NewRequestID()
	}
	tr := &Trace{id: id, start: time.Now(), tracer: t, sampled: t.sampleIn()}
	tr.root = &Span{name: name, start: tr.start, tr: tr}
	return tr.root
}

// finish runs when a trace's root span ends: record the duration, decide
// retention, and emit the slow-trace log record.
func (t *Tracer) finish(tr *Trace) {
	dur := tr.root.Duration()
	tr.dur.Store(int64(dur))
	slow := t.opts.Slow > 0 && dur >= t.opts.Slow
	if tr.sampled || slow {
		t.mu.Lock()
		if len(t.ring) < t.opts.RingSize {
			t.ring = append(t.ring, tr)
		} else {
			t.ring[t.next] = tr
			t.next = (t.next + 1) % len(t.ring)
		}
		t.mu.Unlock()
	}
	if slow && t.opts.Logger != nil {
		hot := HottestSpans(tr.root, 3)
		parts := make([]string, len(hot))
		for i, h := range hot {
			parts[i] = h.Span.Name() + "=" + h.Self.Round(time.Microsecond).String()
		}
		t.opts.Logger.LogAttrs(context.Background(), slog.LevelWarn, "slow trace",
			slog.String("trace_id", tr.id),
			slog.String("root", tr.root.Name()),
			slog.Duration("dur", dur.Round(time.Microsecond)),
			slog.Int("spans", tr.SpanCount()),
			slog.Any("hottest", parts),
		)
	}
}

// Traces returns the retained traces, newest first.
func (t *Tracer) Traces() []*Trace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*Trace, 0, len(t.ring))
	// t.next is the oldest slot once the ring has wrapped; walk backwards
	// from the slot before it.
	for i := 0; i < len(t.ring); i++ {
		out = append(out, t.ring[(t.next+len(t.ring)-1-i)%len(t.ring)])
	}
	return out
}

// Trace returns the retained trace with the given ID, or nil.
func (t *Tracer) Trace(id string) *Trace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	// Newest first, so a reused request ID resolves to the latest trace.
	for i := 0; i < len(t.ring); i++ {
		tr := t.ring[(t.next+len(t.ring)-1-i)%len(t.ring)]
		if tr.id == id {
			return tr
		}
	}
	return nil
}

// HotSpan is one entry of a trace's self-time ranking.
type HotSpan struct {
	Span *Span
	// Self is the span's duration minus its children's — the time spent
	// in the span's own code rather than delegated further down.
	Self time.Duration
}

// HottestSpans ranks the spans under root (inclusive) by self time and
// returns the top n — the inline summary the slow-trace log carries.
func HottestSpans(root *Span, n int) []HotSpan {
	var all []HotSpan
	var walk func(s *Span)
	walk = func(s *Span) {
		self := s.Duration()
		for _, c := range s.Children() {
			self -= c.Duration()
			walk(c)
		}
		if self < 0 {
			self = 0 // overlapping concurrent children
		}
		all = append(all, HotSpan{Span: s, Self: self})
	}
	if root == nil {
		return nil
	}
	walk(root)
	sort.SliceStable(all, func(i, j int) bool { return all[i].Self > all[j].Self })
	if len(all) > n {
		all = all[:n]
	}
	return all
}

// --- process-wide tracer seam ---------------------------------------------------

// The active tracer mirrors the registry seam (SetRegistry): a single
// atomic pointer every layer (operators, codec, client, CLIs) consults
// when no explicit parent span reaches it through a context or Options.
var activeTracer atomic.Pointer[Tracer]

// SetTracer installs t as the process-wide tracer; nil disables tracing
// (the default). Disabled call sites pay one atomic pointer load.
func SetTracer(t *Tracer) {
	if t == nil {
		activeTracer.Store(nil)
		return
	}
	activeTracer.Store(t)
}

// ActiveTracer returns the installed process-wide tracer, or nil.
func ActiveTracer() *Tracer { return activeTracer.Load() }

// --- context propagation --------------------------------------------------------

// ContextWithSpan returns a context carrying s as the current span.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, traceSpanKey, s)
}

// SpanFromContext returns the current span carried by ctx, or nil.
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(traceSpanKey).(*Span)
	return s
}

// StartSpanContext opens a span named name as a child of the span
// carried by ctx; with no span in ctx it opens a new root trace on the
// process-wide tracer (using ctx's request ID as the trace ID); with
// neither it returns (nil, ctx). The returned context carries the new
// span so nested layers chain automatically.
func StartSpanContext(ctx context.Context, name string) (*Span, context.Context) {
	if parent := SpanFromContext(ctx); parent != nil {
		s := parent.StartChild(name)
		return s, ContextWithSpan(ctx, s)
	}
	if t := ActiveTracer(); t != nil {
		s := t.StartTrace(name, SanitizeRequestID(RequestID(ctx)))
		return s, ContextWithSpan(ctx, s)
	}
	return nil, ctx
}
