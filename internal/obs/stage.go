package obs

import (
	"context"
	"reflect"
	"strings"
	"sync/atomic"
	"time"
)

// Pipeline stages. Every stage of the request pipeline is declared once,
// in the table below: its span name, its one duration histogram series,
// and — for a leaf stage — the wide-event field its time feeds. Each
// quantity a stage counts is declared with the registry series, the
// wide-event field and the span attribute it feeds. A call site makes one
// call to begin a stage, one Count per quantity and one call to end it;
// those calls write the registry, the trace span and the wide event
// together, so the three sinks cannot drift apart.
//
// The leaf stages — resolve, parse, integrate, lower, accumulate,
// materialize, render, encode and store — never nest: on one unit of work
// their times sum to at most its duration_ms. Non-leaf stages (an
// operator invocation, the parse cache, an expression node) carry a span
// and a histogram but no event time, because leaf stages run inside them.
//
// Stage times reach the registry and the wide event on every request,
// sampled or not; a span opens only when the request is traced. With no
// registry, tracer or event installed, a stage costs the loads of those
// three seams and allocates nothing.

// seriesDecl is one registry series the stage table feeds.
type seriesDecl struct {
	name    string
	kind    metricKind
	buckets []float64
	labels  []Label
	id      int // slot in resolved.s
}

// decls holds every declared series by id; it is complete once package
// initialisation is done.
var decls []*seriesDecl

func declare(name string, kind metricKind, buckets []float64, labels ...Label) *seriesDecl {
	d := &seriesDecl{name: name, kind: kind, buckets: buckets, labels: labels, id: len(decls)}
	decls = append(decls, d)
	return d
}

// maxEventSlots bounds the wide-event fields stages fill; slot 0 is none.
const maxEventSlots = 32

// slotField holds, per event slot, the index of the EventFields field it
// fills; eventSlots finds a slot by the field's JSON name.
var (
	slotField  = []int{-1}
	eventSlots = map[string]int{}
)

// eventField returns the slot of the wide-event field with JSON name name
// ("" for none). An int64 field receives the count; a float64 field is a
// time in milliseconds, counted in nanoseconds.
func eventField(name string) int {
	if name == "" {
		return 0
	}
	if i, ok := eventSlots[name]; ok {
		return i
	}
	t := reflect.TypeOf(EventFields{})
	for j := 0; j < t.NumField(); j++ {
		if tag, _, _ := strings.Cut(t.Field(j).Tag.Get("json"), ","); tag == name {
			slotField = append(slotField, j)
			eventSlots[name] = len(slotField) - 1
			if len(slotField) > maxEventSlots {
				panic("obs: more than maxEventSlots wide-event fields")
			}
			return len(slotField) - 1
		}
	}
	panic("obs: no wide-event field " + name)
}

// fill copies the event's slots into f.
func (f *EventFields) fill(n *[maxEventSlots]atomic.Int64) {
	v := reflect.ValueOf(f).Elem()
	for i, j := range slotField[1:] {
		x := n[i+1].Load()
		if fv := v.Field(j); fv.Kind() == reflect.Float64 {
			fv.SetFloat(float64(x) / float64(time.Millisecond))
		} else {
			fv.SetInt(x)
		}
	}
}

// StageDef declares one pipeline stage.
type StageDef struct {
	name    string      // leaf stage name, or the span name of a non-leaf stage
	span    string      // span name; "" opens no span
	seconds *seriesDecl // the stage's one duration histogram
	field   int         // leaf stages: the wide-event slot of its time
	root    bool        // BeginIn opens a root trace when there is no parent span
}

// Quantity declares one quantity a stage counts: the registry series it
// feeds (a counter, or a histogram for Observe), the wide-event slot it
// feeds and the span attribute it sums into. Any of them may be absent.
type Quantity struct {
	series *seriesDecl
	field  int
	attr   string
}

func stage(name, span, family string, labels ...Label) *StageDef {
	return &StageDef{name: name, span: span, seconds: declare(family, kindHistogram, DefLatencyBuckets, labels...)}
}

// leaves lists the leaf stages in declaration order.
var leaves []*StageDef

// leaf declares a leaf stage whose time feeds the wide-event field
// <name>_ms; two declarations may share a name (the server's resolve and
// the store's read).
func leaf(name, span, family string) *StageDef {
	d := stage(name, span, family, L("stage", name))
	d.field = eventField(name + "_ms")
	leaves = append(leaves, d)
	return d
}

// counter declares a counted quantity feeding the registry counter name
// (if not "") and the wide-event field event (if not "").
func counter(event, name string, labels ...Label) *Quantity {
	q := &Quantity{field: eventField(event)}
	if name != "" {
		q.series = declare(name, kindCounter, nil, labels...)
	}
	return q
}

// spanned makes q also sum into the span attribute key.
func spanned(key string, q *Quantity) *Quantity {
	q.attr = key
	return q
}

// The stage table. The kernel stages record into
// cube_kernel_stage_seconds{stage}, operators (Ops) into
// cube_op_duration_seconds{op}, and every other stage into
// cube_stage_seconds{stage}.
var (
	Resolve     = leaf("resolve", "", "cube_stage_seconds") // multipart read, hashing, digest: pins (server)
	StoreGet    = leaf("resolve", "store.get", "cube_stage_seconds")
	Parse       = leaf("parse", "cubexml.read", "cube_stage_seconds")
	Integrate   = leaf("integrate", "integrate", "cube_stage_seconds")
	Lower       = leaf("lower", "lower", "cube_kernel_stage_seconds") // one operand's sealed block
	Accumulate  = leaf("accumulate", "", "cube_kernel_stage_seconds") // shard spans hang off the op span
	Materialize = leaf("materialize", "materialize", "cube_kernel_stage_seconds")
	Render      = leaf("render", "", "cube_stage_seconds") // /view, /report and /info displays
	Encode      = leaf("encode", "cubexml.write", "cube_stage_seconds")
	Store       = leaf("store", "store.put", "cube_stage_seconds")

	ParseCache = stage("cubexml.cache", "cubexml.cache", "cube_stage_seconds", L("stage", "cubexml.cache"))
	ExprPlan   = stage("expr.plan", "expr.plan", "cube_stage_seconds", L("stage", "expr.plan"))
	ExprNode   = stage("expr.node", "expr.node", "cube_stage_seconds", L("stage", "expr.node"))
)

// Quantities, grouped by the stage that counts them. The store's
// inventory counters (evictions, quarantines, put errors, misses, mode
// transitions) have no stage and record straight into ActiveRegistry.
var (
	XMLReads           = counter("", "cube_xml_reads_total") // Parse
	XMLReadErrors      = counter("", "cube_xml_read_errors_total")
	XMLReadBytes       = spanned("bytes", counter("xml_read_bytes", "cube_xml_read_bytes_total"))
	XMLReadElements    = spanned("elements", counter("xml_read_elements", "cube_xml_read_elements_total"))
	XMLLimitRejections = counter("", "cube_xml_limit_rejections_total")
	XMLWrites          = counter("", "cube_xml_writes_total") // Encode
	XMLWriteBytes      = spanned("bytes", counter("xml_write_bytes", "cube_xml_write_bytes_total"))
	// Columnar response bodies count in the same families, labelled.
	ColumnarWrites     = counter("", "cube_xml_writes_total", L("format", "columnar"))
	ColumnarWriteBytes = spanned("bytes", counter("columnar_write_bytes", "cube_xml_write_bytes_total", L("format", "columnar")))
	ParseCacheHits     = counter("parse_cache_hits", "cube_parse_cache_hits_total") // ParseCache
	ParseCacheMisses   = counter("parse_cache_misses", "cube_parse_cache_misses_total")
	LowerCacheHits     = counter("lower_cache_hits", "cube_lower_cache_hits_total")
	LowerCacheMisses   = counter("lower_cache_misses", "cube_lower_cache_misses_total")
	// StorePuts counts every successful Put, an already-stored blob too,
	// so it is not the store's cube_store_put_total (new blobs only).
	StorePins      = counter("store_pins", "") // Resolve, StoreGet, Store
	StoreGets      = counter("store_gets", "cube_store_get_hits_total")
	StorePuts      = counter("store_puts", "")
	StoreBytes     = spanned("bytes", counter("store_bytes", ""))
	IntegrateCalls = counter("", "cube_integrate_invocations_total") // Integrate
	// IntegrateInputNodes and IntegrateOutputNodes are indexed by
	// dimension: metric, call node, thread.
	IntegrateInputNodes  = dims("cube_integrate_input_nodes_total")
	IntegrateOutputNodes = dims("cube_integrate_output_nodes_total")
	FastpathIdentity     = counter("meta_identity", "cube_meta_fastpath_total", L("kind", "identity"))
	FastpathMemo         = counter("meta_memo_hits", "cube_meta_fastpath_total", L("kind", "memo"))
	FastpathMiss         = counter("meta_memo_misses", "cube_meta_fastpath_total", L("kind", "miss"))
	MemoHits             = counter("", "cube_meta_memo_hits_total")
	MemoMisses           = counter("", "cube_meta_memo_misses_total")
	KernelTuples         = counter("kernel_tuples", "cube_kernel_tuples_total") // Lower
	KernelCalls          = counter("", "cube_kernel_invocations_total")         // Accumulate
	KernelShards         = counter("kernel_shards", "cube_kernel_shards_total")
	// KernelCompute is shard wall time in nanoseconds, summed across
	// parallel shards.
	KernelCompute = counter("compute_ms", "")
)

func dims(name string) [3]*Quantity {
	return [3]*Quantity{counter("", name, L("dim", "metric")), counter("", name, L("dim", "callnode")), counter("", name, L("dim", "thread"))}
}

// OpStage declares one algebra operator's invocation stage (span
// op.<name>, cube_op_duration_seconds{op}) and the quantities it counts,
// all labelled with the operator.
type OpStage struct {
	*StageDef
	Calls    *Quantity // successful invocations
	Errors   *Quantity // failed invocations
	Cells    *Quantity // result severity cells
	ZeroFill *Quantity // histogram: zero-extension expansion ratio
}

// Ops holds the operator stages by operator name.
var Ops = func() map[string]*OpStage {
	ops := map[string]*OpStage{}
	for _, name := range []string{"difference", "mean", "sum", "scale", "merge", "min", "max", "stddev"} {
		op := L("op", name)
		d := stage("op."+name, "op."+name, "cube_op_duration_seconds", op)
		d.root = true
		ops[name] = &OpStage{
			StageDef: d,
			Calls:    counter("", "cube_op_invocations_total", op),
			Errors:   counter("", "cube_op_errors_total", op),
			Cells:    counter("kernel_cells", "cube_op_cells_total", op),
			ZeroFill: &Quantity{series: declare("cube_op_zero_fill_ratio", kindHistogram, DefRatioBuckets, op)},
		}
	}
	return ops
}()

// --- the registry seam -------------------------------------------------------------

// resolved is the stage table's series in one registry, each looked up on
// first use and kept, so recording never pays the registry's labelled
// lookup again.
type resolved struct {
	reg *Registry
	s   []atomic.Pointer[series]
}

func (r *resolved) get(d *seriesDecl) *series {
	if s := r.s[d.id].Load(); s != nil {
		return s
	}
	s := r.reg.lookup(d.name, d.kind, d.buckets, d.labels)
	r.s[d.id].Store(s)
	return s
}

var activeSeries atomic.Pointer[resolved]

// SetRegistry installs reg as the process-wide registry the stage table
// records into; nil disables stage metrics (the default). Like the tracer
// and event-sink seams, it is shared by every layer: the algebra, the
// codec, the store and the server.
func SetRegistry(reg *Registry) {
	if reg == nil {
		activeSeries.Store(nil)
		return
	}
	activeSeries.Store(&resolved{reg: reg, s: make([]atomic.Pointer[series], len(decls))})
}

// ActiveRegistry returns the installed process-wide registry, or nil.
func ActiveRegistry() *Registry {
	if r := activeSeries.Load(); r != nil {
		return r.reg
	}
	return nil
}

// --- stages ----------------------------------------------------------------------

// Stage is one running stage. It is a value: beginning a stage allocates
// nothing beyond the span a traced request opens.
type Stage struct {
	d     *StageDef
	r     *resolved
	span  *Span
	ev    *Event
	start time.Time
}

// Begin starts stage d for the unit of work carried by ctx: its span is a
// child of ctx's span (a root on the process tracer when ctx has none),
// and its time and counts go to ctx's wide event. The returned context
// carries the stage's span, so nested stages chain under it.
func Begin(ctx context.Context, d *StageDef) (Stage, context.Context) {
	st := Stage{d: d, r: activeSeries.Load(), ev: EventFromContext(ctx)}
	if d.span != "" {
		st.span, ctx = StartSpanContext(ctx, d.span)
	}
	st.begin()
	return st, ctx
}

// BeginIn starts stage d under the parent span and attributes it to ev,
// for layers that take no context (the algebra carries both in
// core.Options). A stage opens a span only under a non-nil parent, except
// an operator stage, which opens a root trace on the process tracer.
func BeginIn(parent *Span, ev *Event, d *StageDef) Stage {
	st := Stage{d: d, r: activeSeries.Load(), ev: ev}
	if d.span != "" {
		if parent != nil {
			st.span = parent.StartChild(d.span)
		} else if t := ActiveTracer(); d.root && t != nil {
			st.span = t.StartTrace(d.span, "")
		}
	}
	st.begin()
	return st
}

func (s *Stage) begin() {
	if s.On() {
		s.start = time.Now()
	}
}

// On reports whether anything records the stage: a registry, a span or a
// wide event. Call sites use it to skip computing what only telemetry
// reads.
func (s *Stage) On() bool { return s.r != nil || s.span != nil || s.ev != nil }

// Span returns the stage's span, nil when the unit of work is untraced.
func (s *Stage) Span() *Span { return s.span }

// Event returns the wide event the stage attributes to, or nil.
func (s *Stage) Event() *Event { return s.ev }

// Count adds n to quantity q: to its registry counter, its wide-event
// field and its span attribute.
func (s *Stage) Count(q *Quantity, n int64) {
	if s.ev != nil && q.field != 0 {
		s.ev.n[q.field].Add(n)
	}
	if s.r != nil && q.series != nil {
		s.r.get(q.series).c.Add(n)
	}
	if s.span != nil && q.attr != "" {
		s.span.addAttr(q.attr, n)
	}
}

// Observe records v into histogram quantity q.
func (s *Stage) Observe(q *Quantity, v float64) {
	if s.r != nil {
		s.r.get(q.series).h.Observe(v)
	}
}

// End finishes the stage: it observes the duration histogram (with the
// trace ID as exemplar), adds a leaf stage's time to the wide event, and
// ends the span, annotated with err when the stage failed.
func (s *Stage) End(err error) {
	if !s.On() {
		return
	}
	d := time.Since(s.start)
	if s.r != nil {
		s.r.get(s.d.seconds).h.ObserveExemplar(d.Seconds(), s.span.TraceID())
	}
	if s.ev != nil && s.d.field != 0 {
		s.ev.n[s.d.field].Add(int64(d))
	}
	if s.span != nil {
		if err != nil {
			s.span.SetAttr("error", err.Error())
		}
		s.span.End()
	}
}

// StageTime is one leaf stage's total over the life of a registry.
type StageTime struct {
	Name    string
	Seconds float64 // summed wall time
	Count   int64   // times the stage ran
}

// LeafStageTimes reads the leaf stages' duration series from reg, in
// pipeline order, without creating series that were never observed.
func LeafStageTimes(reg *Registry) []StageTime {
	var out []StageTime
	for i, d := range leaves {
		if i > 0 && leaves[i-1].name == d.name {
			continue // a second declaration of the same stage
		}
		st := StageTime{Name: d.name}
		if s := reg.find(d.seconds.name, d.seconds.labels); s != nil && s.h != nil {
			st.Seconds, st.Count = s.h.Sum(), s.h.Count()
		}
		out = append(out, st)
	}
	return out
}
