package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Wide-event telemetry. One canonical structured event is recorded per
// unit of work — an HTTP request, a client call, a CLI invocation, a
// store lifecycle transition — carrying the full resource attribution of
// that unit: who asked, what ran, what it cost (bytes parsed, cells
// combined, cache and store interactions, wall and compute time). Where
// metrics aggregate and traces sample, wide events keep every dimension
// of one request in one record, so "which requests burned the store
// budget last minute" is a filter, not a join.
//
// The collection discipline mirrors the tracer: a process-wide sink seam
// behind an atomic pointer (SetEventSink / ActiveEventSink) plus explicit
// handles (EventSink.NewEvent) for owners like the HTTP service. With no
// sink installed, NewEvent returns nil and every mutator is a nil-check
// no-op, so disabled call sites pay one atomic pointer load. An in-flight
// *Event is safe for concurrent mutation — kernel worker shards report
// into the same event from many goroutines — and lands in a bounded ring
// with NDJSON export (GET /debug/events, cube-diff -events).

// EventFields is the wide-event schema: the JSON object one NDJSON line
// carries. Zero-valued optional fields are omitted from the wire form, so
// an event only shows the dimensions its unit of work actually touched.
// The field-by-field catalog lives in the README's Observability section.
type EventFields struct {
	// Identity.
	Kind      string `json:"kind"`                 // "http" | "client" | "cli" | "store" | "self"
	Time      string `json:"time"`                 // RFC 3339 UTC start of the unit of work, nine fraction digits
	RequestID string `json:"request_id,omitempty"` // X-Request-ID (HTTP, client)
	TraceID   string `json:"trace_id,omitempty"`   // trace ID when the unit was traced
	Route     string `json:"route,omitempty"`      // bounded route label / endpoint / tool name
	Method    string `json:"method,omitempty"`     // HTTP method

	// Outcome.
	Status     int     `json:"status,omitempty"`     // HTTP status (0 for non-HTTP kinds)
	Error      string  `json:"error,omitempty"`      // terminal error, if any
	DurationMS float64 `json:"duration_ms"`          // wall time of the unit
	ComputeMS  float64 `json:"compute_ms,omitempty"` // summed wall time of parallel kernel shards (≥ DurationMS share spent computing)

	// Operands and parsing.
	Op             string `json:"op,omitempty"`              // algebra operator that ran
	Operands       int    `json:"operands,omitempty"`        // operand count
	OperandBytes   int64  `json:"operand_bytes,omitempty"`   // total operand payload bytes
	InlineOperands int    `json:"inline_operands,omitempty"` // operands uploaded in the request body
	DigestOperands int    `json:"digest_operands,omitempty"` // operands resolved from digest: refs
	XMLReadBytes   int64  `json:"xml_read_bytes,omitempty"`
	XMLReadElems   int64  `json:"xml_read_elements,omitempty"`
	XMLWriteBytes  int64  `json:"xml_write_bytes,omitempty"`
	// ColumnarWriteBytes is the columnar response body's size (cubexml.ColumnarType).
	ColumnarWriteBytes int64 `json:"columnar_write_bytes,omitempty"`

	// Cache and store interactions.
	ParseCacheHits   int64 `json:"parse_cache_hits,omitempty"`
	ParseCacheMisses int64 `json:"parse_cache_misses,omitempty"`
	StoreGets        int64 `json:"store_gets,omitempty"`
	StorePuts        int64 `json:"store_puts,omitempty"`
	StorePins        int64 `json:"store_pins,omitempty"`
	StoreBytes       int64 `json:"store_bytes,omitempty"` // bytes read from / written to the store

	// Expression engine (POST /expr).
	ExprNodes     int `json:"expr_nodes,omitempty"`      // unique DAG nodes after CSE
	ExprCSEHits   int `json:"expr_cse_hits,omitempty"`   // subexpression references eliminated by sharing
	ExprCacheHits int `json:"expr_cache_hits,omitempty"` // node results served from the expression-digest cache
	ExprEvaluated int `json:"expr_evaluated,omitempty"`  // operator nodes actually executed

	// Metadata fast paths (integrate) and lowered-block reuse.
	MetaIdentity     int64 `json:"meta_identity,omitempty"`      // integrations served by the identity fast path (all operand digests equal)
	MetaMemoHits     int64 `json:"meta_memo_hits,omitempty"`     // integrations served from the integration memo
	MetaMemoMisses   int64 `json:"meta_memo_misses,omitempty"`   // digest-eligible integrations that missed the memo
	LowerCacheHits   int64 `json:"lower_cache_hits,omitempty"`   // operands served as shared sealed masters
	LowerCacheMisses int64 `json:"lower_cache_misses,omitempty"` // operands that had to be parsed for this request

	// Kernel execution.
	KernelCells  int64  `json:"kernel_cells,omitempty"`  // result severity cells produced
	KernelTuples int64  `json:"kernel_tuples,omitempty"` // operand tuples consumed
	KernelShards int64  `json:"kernel_shards,omitempty"` // worker shards across all plans
	Accumulator  string `json:"accumulator,omitempty"`   // "dense" | "sparse" | "fold"

	// Leaf stage times (stage.go): wall milliseconds per pipeline stage.
	// Leaf stages never nest, so on one event they sum to at most
	// DurationMS; the rest is time no stage covers (HTTP, queuing).
	ResolveMS     float64 `json:"resolve_ms,omitempty"`     // multipart read, hashing, digest: pins and store reads
	ParseMS       float64 `json:"parse_ms,omitempty"`       // XML decode
	IntegrateMS   float64 `json:"integrate_ms,omitempty"`   // metadata integration
	LowerMS       float64 `json:"lower_ms,omitempty"`       // kernel: operand blocks handed over
	AccumulateMS  float64 `json:"accumulate_ms,omitempty"`  // kernel: shards combining operands
	MaterializeMS float64 `json:"materialize_ms,omitempty"` // kernel: result block gathered
	RenderMS      float64 `json:"render_ms,omitempty"`      // text displays (/view, /report, /info)
	EncodeMS      float64 `json:"encode_ms,omitempty"`      // response encode, XML or columnar
	StoreMS       float64 `json:"store_ms,omitempty"`       // durable store writes

	// HTTP response / client call shape.
	ResponseBytes int64 `json:"response_bytes,omitempty"`
	Attempts      int   `json:"attempts,omitempty"` // client HTTP attempts (retries + 1)

	// Store lifecycle events (kind "store").
	StoreEvent string `json:"store_event,omitempty"` // "evict" | "quarantine" | "degraded_enter" | "degraded_exit" | "recovery"
	Digest     string `json:"digest,omitempty"`      // blob the lifecycle event concerns
	Detail     string `json:"detail,omitempty"`      // free-form reason / summary
}

// StageMS returns the sum of the event's leaf stage times.
func (f *EventFields) StageMS() float64 {
	return f.ResolveMS + f.ParseMS + f.IntegrateMS + f.LowerMS + f.AccumulateMS +
		f.MaterializeMS + f.RenderMS + f.EncodeMS + f.StoreMS
}

// storeEventNames are the legal StoreEvent values, shared with ValidateEvent.
var storeEventNames = map[string]bool{
	"evict": true, "quarantine": true, "degraded_enter": true,
	"degraded_exit": true, "recovery": true,
}

// ValidateEvent checks one emitted event against the schema: legal kind,
// the fields every kind must carry, and the kind-specific requirements.
// The obs-smoke CI gate runs every /debug/events line through it.
func ValidateEvent(f *EventFields) error {
	if f == nil {
		return fmt.Errorf("event: nil")
	}
	switch f.Kind {
	case "http", "client", "cli", "store", "self":
	default:
		return fmt.Errorf("event: unknown kind %q", f.Kind)
	}
	if f.Time == "" {
		return fmt.Errorf("event: missing time")
	}
	if _, err := time.Parse(time.RFC3339Nano, f.Time); err != nil {
		return fmt.Errorf("event: bad time %q: %v", f.Time, err)
	}
	if f.DurationMS < 0 {
		return fmt.Errorf("event: negative duration %g", f.DurationMS)
	}
	switch f.Kind {
	case "http":
		if f.Route == "" {
			return fmt.Errorf("event: http event without route")
		}
		if f.RequestID == "" {
			return fmt.Errorf("event: http event without request_id")
		}
		if f.Status < 100 || f.Status > 599 {
			return fmt.Errorf("event: http event with status %d", f.Status)
		}
	case "client":
		if f.Route == "" {
			return fmt.Errorf("event: client event without route (endpoint)")
		}
		if f.RequestID == "" {
			return fmt.Errorf("event: client event without request_id")
		}
	case "cli":
		if f.Route == "" {
			return fmt.Errorf("event: cli event without route (tool)")
		}
	case "store":
		if !storeEventNames[f.StoreEvent] {
			return fmt.Errorf("event: store event with store_event %q", f.StoreEvent)
		}
	case "self":
		// Self-telemetry snapshots (internal/selfcube): route names the
		// operation, e.g. "self.snapshot".
		if f.Route == "" {
			return fmt.Errorf("event: self event without route")
		}
	}
	return nil
}

// EventSink is a bounded ring of completed wide events. Safe for
// concurrent use; the oldest event is overwritten first. A nil *EventSink
// is a valid disabled sink on which every method is a no-op.
type EventSink struct {
	size int

	mu    sync.Mutex
	ring  []*EventFields // insertion order; wraps at capacity
	next  int            // slot the next event overwrites once full
	total atomic.Int64   // events ever emitted, including overwritten ones
}

// DefaultEventRingSize is the ring capacity used when NewEventSink is
// given a non-positive size.
const DefaultEventRingSize = 1024

// NewEventSink returns a sink retaining the most recent size events.
func NewEventSink(size int) *EventSink {
	if size <= 0 {
		size = DefaultEventRingSize
	}
	return &EventSink{size: size}
}

// emit appends one completed event record.
func (k *EventSink) emit(f *EventFields) {
	if k == nil || f == nil {
		return
	}
	k.total.Add(1)
	k.mu.Lock()
	if len(k.ring) < k.size {
		k.ring = append(k.ring, f)
	} else {
		k.ring[k.next] = f
		k.next = (k.next + 1) % len(k.ring)
	}
	k.mu.Unlock()
}

// Total reports how many events were ever emitted into the sink,
// including those the ring has since overwritten.
func (k *EventSink) Total() int64 {
	if k == nil {
		return 0
	}
	return k.total.Load()
}

// Events returns the retained events, oldest first (chronological — the
// natural order for a flight recorder dump).
func (k *EventSink) Events() []*EventFields {
	if k == nil {
		return nil
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	out := make([]*EventFields, 0, len(k.ring))
	for i := 0; i < len(k.ring); i++ {
		out = append(out, k.ring[(k.next+i)%len(k.ring)])
	}
	return out
}

// EventFilter selects events for export. Zero fields match everything.
type EventFilter struct {
	Kind        string        // exact kind
	Route       string        // exact route label
	Status      int           // exact status code
	StatusClass int           // status class: 4 matches 4xx, 5 matches 5xx
	MinDuration time.Duration // events at least this slow
	Limit       int           // at most this many events (most recent win); 0 = all
}

// Match reports whether f admits e.
func (f EventFilter) Match(e *EventFields) bool {
	if e == nil {
		return false
	}
	if f.Kind != "" && e.Kind != f.Kind {
		return false
	}
	if f.Route != "" && e.Route != f.Route {
		return false
	}
	if f.Status != 0 && e.Status != f.Status {
		return false
	}
	if f.StatusClass != 0 && e.Status/100 != f.StatusClass {
		return false
	}
	if f.MinDuration > 0 && e.DurationMS < float64(f.MinDuration)/float64(time.Millisecond) {
		return false
	}
	return true
}

// WriteNDJSON writes the retained events matching f to w as NDJSON (one
// JSON object per line), oldest first, and reports how many lines it
// wrote. With Limit > 0 only the most recent matching events are written.
func (k *EventSink) WriteNDJSON(w io.Writer, f EventFilter) (int, error) {
	events := k.Events()
	matched := events[:0:0]
	for _, e := range events {
		if f.Match(e) {
			matched = append(matched, e)
		}
	}
	if f.Limit > 0 && len(matched) > f.Limit {
		matched = matched[len(matched)-f.Limit:]
	}
	enc := json.NewEncoder(w)
	for i, e := range matched {
		if err := enc.Encode(e); err != nil {
			return i, err
		}
	}
	return len(matched), nil
}

// --- process-wide sink seam -----------------------------------------------------

// The active sink mirrors the tracer seam: one atomic pointer consulted
// by every layer that emits events outside a request (the store's
// lifecycle events, self-snapshots, the typed client). The HTTP service
// installs its sink here so the whole process shares one flight recorder.
var activeEventSink atomic.Pointer[EventSink]

// SetEventSink installs k as the process-wide event sink; nil disables
// wide events (the default). Disabled call sites pay one atomic load.
func SetEventSink(k *EventSink) {
	if k == nil {
		activeEventSink.Store(nil)
		return
	}
	activeEventSink.Store(k)
}

// ActiveEventSink returns the installed process-wide sink, or nil.
func ActiveEventSink() *EventSink { return activeEventSink.Load() }

// --- the in-flight event --------------------------------------------------------

// Event is one wide event being accumulated. Mutators are safe for
// concurrent use and all are no-ops on a nil *Event, so disabled
// telemetry composes through call chains exactly like a nil *Span. The
// counted fields and stage times are atomic slots that stages fill
// (Stage.Count, Stage.End) — kernel shards report into one event from
// many goroutines without a lock.
type Event struct {
	sink  *EventSink
	start time.Time
	n     [maxEventSlots]atomic.Int64

	mu      sync.Mutex
	f       EventFields
	emitted bool
}

// eventTimeLayout is RFC 3339 with a fixed nine-digit fraction, so event
// times sort as strings; time.RFC3339Nano parses it.
const eventTimeLayout = "2006-01-02T15:04:05.000000000Z07:00"

// NewEvent begins a wide event destined for k. A nil sink returns a nil
// event, on which every method is a no-op.
func (k *EventSink) NewEvent(kind, route string) *Event {
	if k == nil {
		return nil
	}
	now := time.Now()
	return &Event{
		sink:  k,
		start: now,
		f:     EventFields{Kind: kind, Route: route, Time: now.UTC().Format(eventTimeLayout)},
	}
}

// NewEvent begins a wide event on the process-wide sink (one atomic load;
// nil when no sink is installed).
func NewEvent(kind, route string) *Event { return ActiveEventSink().NewEvent(kind, route) }

// Emit finalizes the event — stamping the wall duration — and appends it
// to its sink. Emitting twice, or emitting a nil event, is a no-op, so an
// owner may emit defensively on every exit path.
func (e *Event) Emit() {
	if e == nil {
		return
	}
	e.mu.Lock()
	if e.emitted {
		e.mu.Unlock()
		return
	}
	e.emitted = true
	e.f.DurationMS = float64(time.Since(e.start)) / float64(time.Millisecond)
	f := e.f // copy under the lock; the ring holds an immutable record
	e.mu.Unlock()
	f.fill(&e.n)
	e.sink.emit(&f)
}

// Fields returns a snapshot of the event's current fields (tests and the
// CLI exporter; the wall duration is only stamped by Emit).
func (e *Event) Fields() EventFields {
	if e == nil {
		return EventFields{}
	}
	e.mu.Lock()
	f := e.f
	e.mu.Unlock()
	f.fill(&e.n)
	return f
}

// set runs fn under the event's lock; the no-op nil check lives here so
// every mutator below stays one line.
func (e *Event) set(fn func(*EventFields)) {
	if e == nil {
		return
	}
	e.mu.Lock()
	fn(&e.f)
	e.mu.Unlock()
}

// SetRequestID stamps the request ID (and, by the server's convention,
// the trace ID — they are the same identifier for HTTP requests).
func (e *Event) SetRequestID(id string) { e.set(func(f *EventFields) { f.RequestID = id }) }

// SetTraceID stamps the trace ID when it differs from the request ID.
func (e *Event) SetTraceID(id string) { e.set(func(f *EventFields) { f.TraceID = id }) }

// SetMethod records the HTTP method.
func (e *Event) SetMethod(m string) { e.set(func(f *EventFields) { f.Method = m }) }

// SetStatus records the final HTTP status.
func (e *Event) SetStatus(code int) { e.set(func(f *EventFields) { f.Status = code }) }

// SetError records the unit's terminal error.
func (e *Event) SetError(msg string) { e.set(func(f *EventFields) { f.Error = msg }) }

// SetOp records the algebra operator that served the unit of work.
func (e *Event) SetOp(op string) { e.set(func(f *EventFields) { f.Op = op }) }

// SetResponseBytes records the response body size.
func (e *Event) SetResponseBytes(n int64) { e.set(func(f *EventFields) { f.ResponseBytes = n }) }

// SetAttempts records how many HTTP attempts a client call took.
func (e *Event) SetAttempts(n int) { e.set(func(f *EventFields) { f.Attempts = n }) }

// AddOperand attributes one operand to the event. source is "inline"
// (uploaded in the request body) or "digest" (resolved from the store).
func (e *Event) AddOperand(source string, bytes int64) {
	e.set(func(f *EventFields) {
		f.Operands++
		f.OperandBytes += bytes
		switch source {
		case "digest":
			f.DigestOperands++
		default:
			f.InlineOperands++
		}
	})
}

// SetExprStats records what one expression evaluation did: unique DAG
// nodes after CSE, eliminated subexpression references, result-cache
// hits, and operator nodes actually executed.
func (e *Event) SetExprStats(nodes, cseHits, cacheHits, evaluated int) {
	e.set(func(f *EventFields) {
		f.ExprNodes = nodes
		f.ExprCSEHits = cseHits
		f.ExprCacheHits = cacheHits
		f.ExprEvaluated = evaluated
	})
}

// SetAccumulator records the kernel accumulator choice ("dense",
// "sparse", or "fold").
func (e *Event) SetAccumulator(a string) { e.set(func(f *EventFields) { f.Accumulator = a }) }

// SetStoreLifecycle stamps the store-lifecycle fields of a kind "store"
// event: which transition, which blob (may be empty), and why.
func (e *Event) SetStoreLifecycle(event, digest, detail string) {
	e.set(func(f *EventFields) {
		f.StoreEvent = event
		f.Digest = digest
		f.Detail = detail
	})
}

// --- context propagation --------------------------------------------------------

// ContextWithEvent returns a context carrying e as the current wide event,
// so lower layers (codec, cache, store access) attribute their work to it.
func ContextWithEvent(ctx context.Context, e *Event) context.Context {
	if e == nil {
		return ctx
	}
	return context.WithValue(ctx, eventKey, e)
}

// EventFromContext returns the wide event carried by ctx, or nil.
func EventFromContext(ctx context.Context) *Event {
	if ctx == nil {
		return nil
	}
	e, _ := ctx.Value(eventKey).(*Event)
	return e
}
