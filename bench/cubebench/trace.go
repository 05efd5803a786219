package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"cube/internal/core"
	"cube/internal/cubexml"
	"cube/internal/expr"
	"cube/internal/server"
	"cube/internal/store"
)

// span is one timed interval recorded by the benchmark itself.
type span struct {
	name, cat  string
	start, end time.Time
	parent     int // index of the parent span, -1 for a root
	reqID      string
	lane       int
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	mu    sync.Mutex
	spans []span
}

func (r *recorder) start(name, cat string, parent int, reqID string, lane int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{name: name, cat: cat, start: time.Now(), parent: parent, reqID: reqID, lane: lane})
	return len(r.spans) - 1
}

func (r *recorder) end(i int) {
	r.mu.Lock()
	r.spans[i].end = time.Now()
	r.mu.Unlock()
}

// selfTimes returns each span's duration minus the time its children
// cover (children of one span never overlap here: a client runs its calls
// one after the other, and replay is sequential).
func (r *recorder) selfTimes() []time.Duration {
	self := make([]time.Duration, len(r.spans))
	for i, s := range r.spans {
		self[i] += s.end.Sub(s.start)
		if s.parent >= 0 {
			self[s.parent] -= s.end.Sub(s.start)
		}
	}
	return self
}

// writeChrome writes the recorders' spans as one Chrome trace-event
// document, loadable in Perfetto or chrome://tracing: one process per
// recorder (named by names), lane 0 the in-process replay, lane n > 0
// client n-1's window traffic.
func writeChrome(w io.Writer, recs []*recorder, names []string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat,omitempty"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	events := []event{}
	for p, r := range recs {
		events = append(events, event{Name: "process_name", Ph: "M", PID: p + 1, Args: map[string]any{"name": names[p]}})
		var base time.Time
		for i, s := range r.spans {
			if i == 0 || s.start.Before(base) {
				base = s.start
			}
		}
		for _, s := range r.spans {
			args := map[string]any{"request_id": s.reqID}
			if s.parent >= 0 {
				args["parent"] = r.spans[s.parent].name
			}
			events = append(events, event{Name: s.name, Cat: s.cat, Ph: "X", TS: us(s.start.Sub(base)),
				Dur: us(s.end.Sub(s.start)), PID: p + 1, TID: s.lane, Args: args})
		}
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}

// layerCats are the span categories replay attributes time to; each is
// reported as the per-layer metric <cat>_ms.
var layerCats = []string{
	"client.encode", "store.put", "cubexml.read", "expr.plan", "expr.eval",
	"core.call", "display.render", "cubexml.write", "client.decode",
}

// replayer re-runs logged ops in-process, one at a time, calling the same
// public functions the server pipeline calls and spanning each call. Its
// state follows the server's: a content digest the server already parsed
// is a parse-cache hit and costs no parse, and the expression engine has
// the server's default cache budget and sees the same request sequence.
type replayer struct {
	s       *suite
	rec     *recorder
	st      *store.Store
	engine  *expr.Engine
	opts    *core.Options
	read    cubexml.ReadOptions
	limits  expr.Limits
	masters map[string]*core.Experiment // parsed, compacted, by content digest
	inline  map[int]string              // digest of the client's encoding of a document
	own     copies
}

func newReplayer(s *suite, rec *recorder, storeDir string) (*replayer, error) {
	cfg := server.DefaultConfig()
	st, err := store.Open(storeDir, store.Options{})
	if err != nil {
		return nil, err
	}
	rp := &replayer{s: s, rec: rec, st: st, opts: serverOptions(),
		engine:  expr.NewEngine(expr.Config{CacheBytes: cfg.ExprCacheBytes}),
		read:    cubexml.ReadOptions{Limits: cfg.XML, Engine: cfg.ReadEngine},
		limits:  expr.Limits{MaxNodes: cfg.MaxExprNodes, MaxDepth: cfg.MaxExprDepth},
		masters: map[string]*core.Experiment{}, inline: map[int]string{}, own: copies{}}
	for _, i := range s.stored {
		rp.masters[s.docs[i].digest] = s.docs[i].exp
	}
	return rp, nil
}

// upload returns the bytes the client sends for document i (a fresh title
// for upload-diff runs), encoded under a client.encode span when traced.
func (rp *replayer) upload(o op, i int, parent int) ([]byte, error) {
	e := rp.own.get(rp.s, i)
	if o.Kind == "upload-diff" {
		e.Title = uploadTitle(o)
	}
	var buf bytes.Buffer
	err := rp.span(parent, "cubexml.Write", "client.encode", func() error { return cubexml.Write(&buf, e) })
	return buf.Bytes(), err
}

// span times fn as a child of parent; parent < 0 means untimed.
func (rp *replayer) span(parent int, name, cat string, fn func() error) error {
	if parent < 0 {
		return fn()
	}
	i := rp.rec.start(name, cat, parent, rp.rec.spans[parent].reqID, 0)
	defer rp.rec.end(i)
	return fn()
}

// parse returns the master for bytes the server received, parsing them
// (a parse-cache miss) only if the server had not seen them before.
func (rp *replayer) parse(data []byte, parent int) (*core.Experiment, error) {
	d := digestOf(data)
	if m, ok := rp.masters[d]; ok {
		return m, nil
	}
	var m *core.Experiment
	err := rp.span(parent, "cubexml.ReadBytes", "cubexml.read", func() (err error) {
		m, err = cubexml.ReadBytes(context.Background(), data, rp.read)
		if err == nil {
			m.CompactSeverities()
		}
		return err
	})
	if err == nil {
		rp.masters[d] = m
	}
	return m, err
}

// warm advances the replay state past an op without timing it: the
// digests it sent become seen, and expressions pass through the engine
// so its cache holds what the server's holds.
func (rp *replayer) warm(o op) error {
	switch o.Kind {
	case "expr":
		_, err := rp.replay(o, -1)
		return err
	case "view", "prune", "flatten", "extract":
		if _, ok := rp.inline[o.Args[0]]; ok {
			return nil
		}
		data, err := rp.upload(o, o.Args[0], -1)
		if err != nil {
			return err
		}
		rp.inline[o.Args[0]] = digestOf(data)
		_, err = rp.parse(data, -1)
		return err
	}
	return nil // digest ops and unique uploads leave nothing later ops reuse
}

// replay re-runs one op; parent is its root span, or -1 to run untimed.
func (rp *replayer) replay(o op, parent int) (res *core.Experiment, err error) {
	var text string
	switch o.Kind {
	case "difference", "mean", "merge":
		xs := make([]*core.Experiment, len(o.Args))
		for i, a := range o.Args {
			xs[i] = rp.masters[rp.s.docs[a].digest]
		}
		err = rp.span(parent, "core."+o.Kind, "core.call", func() (err error) {
			res, err = callCore(o.Kind, rp.opts, xs)
			return err
		})
	case "expr":
		var plan *expr.Plan
		err = rp.span(parent, "expr.Parse+Plan", "expr.plan", func() error {
			ex, err := expr.Parse([]byte(o.Expr), rp.limits)
			if err == nil {
				plan, err = ex.Plan(nil)
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		resolve := func(_ context.Context, leaf expr.Leaf) (*core.Experiment, error) {
			if m, ok := rp.masters[leaf.Digest]; ok {
				return m, nil
			}
			return nil, fmt.Errorf("leaf %s was never stored", leaf)
		}
		err = rp.span(parent, "expr.Eval", "expr.eval", func() (err error) {
			res, _, err = rp.engine.Eval(context.Background(), plan, rp.opts, resolve)
			return err
		})
	case "view", "prune", "flatten", "extract":
		var data []byte
		var m *core.Experiment
		if data, err = rp.upload(o, o.Args[0], parent); err == nil {
			m, err = rp.parse(data, parent)
		}
		if err != nil {
			return nil, err
		}
		if o.Kind == "view" {
			err = rp.span(parent, "display.RenderString", "display.render", func() (err error) {
				text, err = render(m)
				return err
			})
		} else {
			err = rp.span(parent, "core."+o.Kind, "core.call", func() (err error) {
				res, err = callCore(o.Kind, rp.opts, []*core.Experiment{m})
				return err
			})
		}
	case "upload-diff":
		var data []byte
		var run *core.Experiment
		if data, err = rp.upload(o, o.Args[0], parent); err == nil {
			run, err = rp.parse(data, parent)
		}
		if err != nil {
			return nil, err
		}
		delete(rp.masters, digestOf(data)) // a unique upload is never referenced again
		d := store.DigestOf(data)
		err = rp.span(parent, "store.PutContext", "store.put", func() error {
			_, _, err := rp.st.PutContext(context.Background(), data, &d)
			return err
		})
		if err == nil {
			base := rp.masters[rp.s.docs[o.Args[1]].digest]
			err = rp.span(parent, "core.Difference", "core.call", func() (err error) {
				res, err = core.Difference(run, base, rp.opts)
				return err
			})
		}
	default:
		return nil, fmt.Errorf("unknown op kind %q", o.Kind)
	}
	if err != nil || parent < 0 || text != "" {
		return res, err
	}
	// The response leg: the server encodes the result, the client decodes it.
	var buf bytes.Buffer
	if err := rp.span(parent, "cubexml.Write", "cubexml.write", func() error { return cubexml.Write(&buf, res) }); err != nil {
		return nil, err
	}
	err = rp.span(parent, "cubexml.ReadBytes", "client.decode", func() error {
		_, err := cubexml.ReadBytes(context.Background(), buf.Bytes(), cubexml.ReadOptions{})
		return err
	})
	return res, err
}

// traceLayers replays the first n ops of the traced window after warming
// the replay state with everything the server saw before them, and
// returns the mean self-time of each layer per replayed op in ms, plus
// server.unattributed_ms: the client-observed op time not covered by any
// replayed layer.
func traceLayers(rp *replayer, before []result, window []result, n int) (map[string]float64, error) {
	for _, r := range before {
		if err := rp.warm(r.op); err != nil {
			return nil, fmt.Errorf("warming replay with %s: %w", r.op.Key, err)
		}
	}
	if n > len(window) {
		n = len(window)
	}
	if n == 0 {
		return nil, fmt.Errorf("no ops to replay")
	}
	var clientMS float64
	for _, r := range window[:n] {
		root := rp.rec.start("replay."+r.op.Kind, "replay", -1, requestID(r.op), 0)
		_, err := rp.replay(r.op, root)
		rp.rec.end(root)
		if err != nil {
			return nil, fmt.Errorf("replaying %s: %w", r.op.Key, err)
		}
		clientMS += float64(r.dur) / float64(time.Millisecond)
	}
	self := rp.rec.selfTimes()
	out := map[string]float64{}
	var layersMS float64
	for i, s := range rp.rec.spans {
		if s.lane != 0 || s.parent < 0 {
			continue
		}
		ms := float64(self[i]) / float64(time.Millisecond)
		out[s.cat+"_ms"] += ms / float64(n)
		layersMS += ms
	}
	for _, c := range layerCats {
		out[c+"_ms"] += 0 // every layer is reported, bypassed ones as 0
	}
	out["server.unattributed_ms"] = (clientMS - layersMS) / float64(n)
	return out, nil
}
