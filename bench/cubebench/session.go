package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cube/client"
	"cube/internal/core"
	"cube/internal/obs"
)

// opTimeout bounds one op; an op that takes longer counts as failed.
const opTimeout = 10 * time.Second

// response is what an op returns to its user: a derived experiment, or
// the text of a view.
type response struct {
	exp  *core.Experiment
	text string
}

// session is one closed-loop client: it sends its next op only after the
// previous one completed, over one keep-alive connection of the shared
// transport.
type session struct {
	s   *suite
	c   *client.Client
	id  int
	rng *rand.Rand
	seq int
	due []op // the rest of the current round
	own copies
	rec *recorder // nil outside the traced window
}

func newSessions(s *suite, url string, seed int64, n int) ([]*session, *http.Client) {
	hc := &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     n,
		MaxIdleConnsPerHost: n,
		DisableCompression:  true,
	}}
	// No retries: a refusal is a failed op, not extra latency.
	c := client.New(url, client.WithHTTPClient(hc), client.WithMaxRetries(0), client.WithMetrics(nil))
	out := make([]*session, n)
	for i := range out {
		out[i] = &session{s: s, c: c, id: i, rng: rand.New(rand.NewSource(seed*1000 + int64(i))),
			own: copies{}}
	}
	return out, hc
}

// nextOp takes the client's next op from its current round, and draws and
// shuffles a new round when that one is done.
func (ss *session) nextOp() op {
	if len(ss.due) == 0 {
		ss.due = ss.s.round(ss.rng, ss.id)
		ss.rng.Shuffle(len(ss.due), func(i, j int) { ss.due[i], ss.due[j] = ss.due[j], ss.due[i] })
	}
	o := ss.due[0]
	ss.due = ss.due[1:]
	return ss.stamp(o)
}

func (ss *session) stamp(o op) op {
	o.Client, o.Seq = ss.id, ss.seq
	ss.seq++
	return o
}

// copies are one uploader's private clones of the documents it encodes,
// so no experiment is encoded by two goroutines.
type copies map[int]*core.Experiment

func (c copies) get(s *suite, i int) *core.Experiment {
	e, ok := c[i]
	if !ok {
		e = s.docs[i].exp.Clone()
		c[i] = e
	}
	return e
}

func (ss *session) doc(i int) *core.Experiment { return ss.own.get(ss.s, i) }

// uploadTitle names the fresh run an upload-diff op PUTs: the title is
// the only difference between uploads, so every upload is new bytes with
// the same expected result.
func uploadTitle(o op) string { return fmt.Sprintf("ci run client %d op %d", o.Client, o.Seq) }

// requestID is the X-Request-ID all calls of one traced op carry.
func requestID(o op) string { return fmt.Sprintf("cubebench-%d-%d", o.Client, o.Seq) }

// do performs the op's HTTP calls through the client.
func (ss *session) do(ctx context.Context, o op) (response, error) {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	var root int
	if ss.rec != nil {
		ctx = obs.WithRequestID(ctx, requestID(o))
		root = ss.rec.start("op."+o.Kind, "op", -1, requestID(o), ss.id+1)
		defer ss.rec.end(root)
	}
	call := func(name string, fn func() error) error {
		if ss.rec == nil {
			return fn()
		}
		sp := ss.rec.start("client."+name, "client", root, requestID(o), ss.id+1)
		defer ss.rec.end(sp)
		return fn()
	}
	var r response
	var err error
	switch o.Kind {
	case "difference", "mean", "merge":
		digests := make([]string, len(o.Args))
		for i, a := range o.Args {
			digests[i] = ss.s.docs[a].digest
		}
		err = call("OpByDigest", func() (err error) {
			r.exp, err = ss.c.OpByDigest(ctx, o.Kind, nil, digests...)
			return err
		})
	case "expr":
		err = call("ExprRaw", func() (err error) {
			r.exp, _, err = ss.c.ExprRaw(ctx, []byte(o.Expr), nil)
			return err
		})
	case "view":
		err = call("View", func() (err error) {
			r.text, err = ss.c.View(ctx, ss.doc(o.Args[0]), &client.ViewOptions{Mode: "percent"})
			return err
		})
	case "prune":
		err = call("Prune", func() (err error) {
			r.exp, err = ss.c.Prune(ctx, ss.doc(o.Args[0]), pruneMetric, pruneThreshold)
			return err
		})
	case "flatten":
		err = call("Flatten", func() (err error) {
			r.exp, err = ss.c.Flatten(ctx, ss.doc(o.Args[0]))
			return err
		})
	case "extract":
		err = call("Extract", func() (err error) {
			r.exp, err = ss.c.Extract(ctx, ss.doc(o.Args[0]), extractMetric)
			return err
		})
	case "upload-diff":
		run := ss.doc(o.Args[0])
		run.Title = uploadTitle(o)
		var digest string
		err = call("Put", func() (err error) {
			digest, err = ss.c.Put(ctx, run)
			return err
		})
		if err == nil {
			err = call("DifferenceByDigest", func() (err error) {
				r.exp, err = ss.c.DifferenceByDigest(ctx, digest, ss.s.docs[o.Args[1]].digest, nil)
				return err
			})
		}
	default:
		err = fmt.Errorf("unknown op kind %q", o.Kind)
	}
	return r, err
}

// result is one attempted op.
type result struct {
	op    op
	start time.Time
	dur   time.Duration
	err   error
}

// phase is a stretch of closed-loop load: every op attempted, ordered by
// start time (the order the server received them).
type phase struct {
	results    []result
	start, end time.Time
}

func (p *phase) failed() int {
	n := 0
	for _, r := range p.results {
		if r.err != nil {
			n++
		}
	}
	return n
}

// latenciesMS returns the latencies of the successful ops, sorted.
func (p *phase) latenciesMS() []float64 {
	var out []float64
	for _, r := range p.results {
		if r.err == nil {
			out = append(out, float64(r.dur)/float64(time.Millisecond))
		}
	}
	sort.Float64s(out)
	return out
}

// run runs one op and checks its response; full selects the complete
// comparison instead of the O(1) counts.
func (ss *session) run(ctx context.Context, o op, full bool) result {
	t0 := time.Now()
	resp, err := ss.do(ctx, o)
	dur := time.Since(t0)
	if err == nil {
		err = check(ss.s.expect[o.Key], resp, full)
	}
	if err != nil {
		err = fmt.Errorf("%s %s: %w", o.Kind, o.Key, err)
	}
	return result{op: o, start: t0, dur: dur, err: err}
}

// load drives every session in a closed loop for d, and past d until
// minOps ops have succeeded or 3d has passed: on a slow host the window
// grows rather than leaving p95 with too few samples. Ops already sent
// when time runs out complete and count.
func load(ctx context.Context, sessions []*session, d time.Duration, minOps int) *phase {
	p := &phase{start: time.Now()}
	deadline, limit := p.start.Add(d), p.start.Add(3*d)
	var succeeded atomic.Int64
	more := func() bool {
		now := time.Now()
		return ctx.Err() == nil && now.Before(limit) &&
			(now.Before(deadline) || succeeded.Load() < int64(minOps))
	}
	per := make([][]result, len(sessions))
	var wg sync.WaitGroup
	for i, ss := range sessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for more() {
				r := ss.run(ctx, ss.nextOp(), false)
				if r.err == nil {
					succeeded.Add(1)
				}
				per[i] = append(per[i], r)
			}
		}()
	}
	wg.Wait()
	p.end = time.Now()
	for _, rs := range per {
		p.results = append(p.results, rs...)
	}
	sort.SliceStable(p.results, func(a, b int) bool { return p.results[a].start.Before(p.results[b].start) })
	return p
}

// verifyAll sends one op of every expected class and compares each
// response in full.
func verifyAll(ctx context.Context, ss *session) *phase {
	p := &phase{}
	for _, o := range ss.s.verify {
		p.results = append(p.results, ss.run(ctx, ss.stamp(o), true))
	}
	return p
}
