package main

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"cube/client"
	"cube/internal/core"
	"cube/internal/cubexml"
	"cube/internal/server"
	"cube/internal/store"
)

// requestLog returns a workload's input digests and the first n ops of
// every client, each with the digests of the documents it sends.
func requestLog(t *testing.T, w workload, seed int64, n int) (digests, ops []string) {
	t.Helper()
	s, err := w.build(seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range s.docs {
		digests = append(digests, d.digest)
	}
	sessions, _ := newSessions(s, "http://127.0.0.1:1", seed, w.clients)
	for i := 0; i < n; i++ {
		for _, ss := range sessions {
			o := ss.nextOp()
			b, err := json.Marshal(o)
			if err != nil {
				t.Fatal(err)
			}
			entry := string(b)
			for _, a := range o.Args {
				entry += " " + s.docs[a].digest
			}
			ops = append(ops, entry)
		}
	}
	return digests, ops
}

func TestSeedFixesInputsAndRequests(t *testing.T) {
	for _, w := range workloads {
		d1, log1 := requestLog(t, w, 1, 40)
		d1again, log1again := requestLog(t, w, 1, 40)
		d2, log2 := requestLog(t, w, 2, 40)
		if !reflect.DeepEqual(d1, d1again) || !reflect.DeepEqual(log1, log1again) {
			t.Errorf("%s: seed 1 generated different inputs or requests on a second build", w.name)
		}
		if reflect.DeepEqual(d1, d2) || reflect.DeepEqual(log1, log2) {
			t.Errorf("%s: seeds 1 and 2 generated the same inputs or requests", w.name)
		}
	}
}

// Inside the window a series-expr stddev is checked against the tuple
// count of one subset, so every subset must keep it. At seed 11, two runs
// drawn from overlapping value ranges once had a tuple whose standard
// deviation cancelled to 0.
func TestStddevKeepsCountOnEveryPair(t *testing.T) {
	s, err := buildSeriesExpr(11)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.computeExpected(); err != nil {
		t.Fatal(err)
	}
	want := s.expect["stddev"].tuples
	for i := 0; i < seriesPerVer; i++ {
		for j := i + 1; j < seriesPerVer; j++ {
			r, err := core.StdDev(serverOptions(), s.docs[i].exp, s.docs[j].exp)
			if err != nil {
				t.Fatal(err)
			}
			if got := r.NonZeroCount(); got != want {
				t.Errorf("stddev of runs %d and %d has %d tuples, the window checks for %d", i, j, got, want)
			}
		}
	}
}

// tamper passes requests to h and corrupts every successful operator
// response: a view grows by a byte, an experiment loses one tuple.
func tamper(t *testing.T, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		if rec.Code == http.StatusOK && r.Method == http.MethodPost {
			if r.URL.Path == "/view" {
				body = append(body, 'x')
			} else {
				e, err := cubexml.ReadBytes(context.Background(), body, cubexml.ReadOptions{})
				if err != nil {
					t.Errorf("decoding %s response: %v", r.URL.Path, err)
					return
				}
				ts := tuples(e)
				e.SetSeverity(ts[0].m, ts[0].c, ts[0].th, 0)
				var buf strings.Builder
				if err := cubexml.Write(&buf, e); err != nil {
					t.Error(err)
					return
				}
				body = []byte(buf.String())
			}
		}
		for k, v := range rec.Header() {
			if k != "Content-Length" {
				w.Header()[k] = v
			}
		}
		w.WriteHeader(rec.Code)
		w.Write(body)
	})
}

func TestTamperedResponsesFail(t *testing.T) {
	s, err := buildPaper(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.computeExpected(); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := server.DefaultConfig()
	cfg.Store = st
	cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	h := server.NewHandler(cfg)

	const d = 200 * time.Millisecond
	run := func(h http.Handler, minOps int) *phase {
		srv := httptest.NewServer(h)
		defer srv.Close()
		c := client.New(srv.URL, client.WithMaxRetries(0), client.WithMetrics(nil))
		for _, i := range s.stored {
			if _, err := c.PutBytes(context.Background(), s.docs[i].bytes); err != nil {
				t.Fatal(err)
			}
		}
		sessions, hc := newSessions(s, srv.URL, 1, 1)
		defer hc.CloseIdleConnections()
		return load(context.Background(), sessions, d, minOps)
	}
	p := run(h, 0)
	if len(p.results) == 0 || p.failed() != 0 {
		t.Fatalf("honest server: %d of %d ops failed", p.failed(), len(p.results))
	}
	if got := p.end.Sub(p.start); got >= 2*d {
		t.Errorf("a window with no op floor lasted %v, want about %v", got, d)
	}
	// An op floor the window cannot reach stretches it to three times its length.
	if got := run(h, 1<<20); got.end.Sub(got.start) < 3*d || got.end.Sub(got.start) >= 5*d {
		t.Errorf("a window short of its op floor lasted %v, want 3 × %v", got.end.Sub(got.start), d)
	}
	if p := run(tamper(t, h), 0); len(p.results) == 0 || p.failed() != len(p.results) {
		t.Errorf("tampering server: %d of %d ops failed, want all", p.failed(), len(p.results))
	}

	// A changed value keeps the counts: only the full comparison sees it.
	want := s.expect["merge"]
	got := want.exp.Clone()
	for _, x := range tuples(got) {
		got.SetSeverity(x.m, x.c, x.th, x.v+1)
	}
	if err := check(want, response{exp: got}, false); err != nil {
		t.Errorf("count check rejected equal counts: %v", err)
	}
	if err := check(want, response{exp: got}, true); err == nil {
		t.Error("full check accepted changed values")
	}
}

// The catalog the program reports and BENCHMARK.json must agree.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, want)
	}
	same := func(kind string, got []metric, defs []metricDef, bounded bool) {
		if len(got) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program %d", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better || (g.Bound != nil) != bounded ||
				(bounded && *g.Bound != d.bound) {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", kind, i, g, d)
			}
		}
	}
	same("end_to_end", b.EndToEnd, e2eDefs, true)
	same("per_layer", b.PerLayer, layerDefs, false)
}
