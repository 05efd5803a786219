package server

// End-to-end tests of POST /expr: DAG evaluation over digest and inline
// leaves, CSE observed through metrics and wide events, result-cache
// replay, and the error mapping.

import (
	"bytes"
	"fmt"
	"io"
	"mime"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"cube/internal/core"
	"cube/internal/cubexml"
	"cube/internal/obs"
	"cube/internal/store"
)

// postExprJSON sends an expression as a bare application/json body.
func postExprJSON(t *testing.T, srv *httptest.Server, src string) *http.Response {
	t.Helper()
	resp, err := http.Post(srv.URL+"/expr", "application/json", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// postExprMultipart sends an expression field plus ordered operand files
// (literal documents or digest references).
func postExprMultipart(t *testing.T, srv *httptest.Server, src string, parts ...operandPart) *http.Response {
	t.Helper()
	var body bytes.Buffer
	mw := multipart.NewWriter(&body)
	if err := mw.WriteField("expr", src); err != nil {
		t.Fatal(err)
	}
	for i, p := range parts {
		fw, err := mw.CreateFormFile("operand", fmt.Sprintf("op%d.cube", i))
		if err != nil {
			t.Fatal(err)
		}
		if p.digest != "" {
			io.WriteString(fw, "digest:"+p.digest)
		} else {
			fw.Write(p.literal)
		}
	}
	mw.Close()
	resp, err := http.Post(srv.URL+"/expr", mw.FormDataContentType(), &body)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeExpResponse(t *testing.T, resp *http.Response) *core.Experiment {
	t.Helper()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, readAll(t, resp))
	}
	e, err := cubexml.Read(strings.NewReader(readAll(t, resp)))
	if err != nil {
		t.Fatalf("response not a cube document: %v", err)
	}
	return e
}

// The acceptance scenario over the wire: a DAG whose shared subexpression
// appears twice runs it once (observed via cube_op_invocations_total, the
// expr metrics, and the request's wide event), the result matches the
// sequential composition, and the replayed DAG is a pure cache hit.
func TestExprEndpointCSEAndReplay(t *testing.T) {
	a := buildExp("a", 0.25)
	b := buildExp("b", 0)
	// Computed before the server exists: core instrumentation is
	// process-global, so running these after newStoreServer would count
	// the local operators into the server's registry.
	d, _ := core.Difference(a, b, nil)
	sc, _ := core.Scale(d, 2, nil)
	want, _ := core.Mean(nil, d, sc)

	reg := obs.NewRegistry()
	cfg := quietConfig()
	cfg.Metrics = reg
	cfg.Events = obs.NewEventSink(64)
	srv, _ := newStoreServer(t, cfg, store.Options{})

	docA, docB := encodeExp(t, a), encodeExp(t, b)
	digA, digB := store.DigestOf(docA).String(), store.DigestOf(docB).String()
	for dig, doc := range map[string][]byte{digA: docA, digB: docB} {
		resp := putExperiment(t, srv, dig, doc, "")
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("PUT %s: status %d", dig, resp.StatusCode)
		}
		resp.Body.Close()
	}

	src := fmt.Sprintf(`{"op":"mean","args":[
		{"op":"difference","args":[{"ref":"digest:%s"},{"ref":"digest:%s"}]},
		{"op":"scale","factor":2,"args":[{"op":"difference","args":[{"ref":"digest:%s"},{"ref":"digest:%s"}]}]}]}`,
		digA, digB, digA, digB)

	resp := postExprJSON(t, srv, src)
	if got := resp.Header.Get("X-Cube-Expr-Cse-Hits"); got != "1" {
		t.Errorf("X-Cube-Expr-Cse-Hits = %q, want 1", got)
	}
	if got := resp.Header.Get("X-Cube-Expr-Cache"); got != "miss" {
		t.Errorf("first request X-Cube-Expr-Cache = %q, want miss", got)
	}
	got := decodeExpResponse(t, resp)
	if got.Fingerprint() != want.Fingerprint() {
		t.Error("/expr result differs from sequential composition")
	}

	// The duplicated difference ran exactly once server-side.
	if v := reg.CounterValue("cube_op_invocations_total", obs.L("op", "difference")); v != 1 {
		t.Errorf("difference ran %d times, want 1 (CSE)", v)
	}
	if v := reg.CounterValue("cube_expr_cse_hits_total"); v != 1 {
		t.Errorf("cube_expr_cse_hits_total = %d, want 1", v)
	}
	evalAfterFirst := reg.CounterValue("cube_expr_eval_nodes_total")
	if evalAfterFirst != 3 {
		t.Errorf("cube_expr_eval_nodes_total = %d, want 3", evalAfterFirst)
	}

	// Replay the identical DAG: answered from the expression-digest cache
	// without running any operator.
	resp2 := postExprJSON(t, srv, src)
	if got := resp2.Header.Get("X-Cube-Expr-Cache"); got != "hit" {
		t.Errorf("replay X-Cube-Expr-Cache = %q, want hit", got)
	}
	got2 := decodeExpResponse(t, resp2)
	if got2.Fingerprint() != want.Fingerprint() {
		t.Error("replayed result differs")
	}
	if v := reg.CounterValue("cube_expr_eval_nodes_total"); v != evalAfterFirst {
		t.Errorf("replay evaluated %d extra nodes", v-evalAfterFirst)
	}
	if v := reg.CounterValue("cube_op_invocations_total", obs.L("op", "difference")); v != 1 {
		t.Errorf("replay re-ran difference (%d invocations)", v)
	}
	if v := reg.CounterValue("cube_expr_cache_hits_total"); v < 1 {
		t.Errorf("cube_expr_cache_hits_total = %d, want >= 1", v)
	}

	// The wide events carry the same story: first request CSE-shared and
	// evaluated, replay cached.
	var first, replay *obs.EventFields
	for _, ev := range cfg.Events.Events() {
		if ev.Route != "/expr" {
			continue
		}
		if first == nil {
			first = ev
		} else {
			replay = ev
		}
	}
	if first == nil || replay == nil {
		t.Fatal("expected two /expr wide events")
	}
	if first.ExprCSEHits != 1 || first.ExprEvaluated != 3 || first.ExprNodes != 5 {
		t.Errorf("first event: nodes=%d cse=%d evaluated=%d, want 5/1/3",
			first.ExprNodes, first.ExprCSEHits, first.ExprEvaluated)
	}
	if replay.ExprEvaluated != 0 || replay.ExprCacheHits != 1 {
		t.Errorf("replay event: evaluated=%d cache_hits=%d, want 0/1", replay.ExprEvaluated, replay.ExprCacheHits)
	}
	if first.Op != "mean" {
		t.Errorf("event op = %q, want mean (the root operator)", first.Op)
	}
}

// Inline multipart operands evaluate without any store, and a digest-ref
// operand part behaves like a digest leaf.
func TestExprMultipartInlineOperands(t *testing.T) {
	srv := newTestServer(t) // no store configured
	a := buildExp("a", 0.5)
	b := buildExp("b", 0)
	src := `{"op":"difference","args":[{"ref":"operand:0"},{"ref":"operand:1"}]}`
	resp := postExprMultipart(t, srv, src,
		operandPart{literal: encodeExp(t, a)}, operandPart{literal: encodeExp(t, b)})
	got := decodeExpResponse(t, resp)
	want, _ := core.Difference(a, b, nil)
	if got.Fingerprint() != want.Fingerprint() {
		t.Error("inline-operand /expr result differs from local operator")
	}
}

// An inline operand whose bytes match a stored digest leaf shares one
// node: the parse and the severities agree regardless of leaf spelling.
func TestExprMixedLeavesUnify(t *testing.T) {
	srv, _ := newStoreServer(t, nil, store.Options{})
	a := buildExp("a", 0.25)
	doc := encodeExp(t, a)
	dig := store.DigestOf(doc).String()
	resp := putExperiment(t, srv, dig, doc, "")
	resp.Body.Close()

	// sum(digest-leaf, inline-operand-with-same-bytes) == sum(a, a).
	src := fmt.Sprintf(`{"op":"sum","args":[{"ref":"digest:%s"},{"ref":"operand:0"}]}`, dig)
	got := decodeExpResponse(t, postExprMultipart(t, srv, src, operandPart{literal: doc}))
	want, _ := core.Sum(nil, a, a)
	if got.Fingerprint() != want.Fingerprint() {
		t.Error("mixed digest/inline leaves produced a wrong result")
	}
}

func TestExprErrorMapping(t *testing.T) {
	cfg := quietConfig()
	cfg.MaxExprNodes = 8
	srv, _ := newStoreServer(t, cfg, store.Options{})
	missing := strings.Repeat("ab", 32)

	cases := []struct {
		name string
		src  string
		want int
	}{
		{"bad json", `{`, http.StatusBadRequest},
		{"unknown op", `{"op":"nope","args":[{"ref":"operand:0"}]}`, http.StatusBadRequest},
		{"operand out of range", `{"op":"flatten","args":[{"ref":"operand:3"}]}`, http.StatusBadRequest},
		{"missing digest", fmt.Sprintf(`{"op":"flatten","args":[{"ref":"digest:%s"}]}`, missing), http.StatusNotFound},
		{"node cap", `{"op":"mean","args":[` + strings.Repeat(`{"op":"flatten","args":[`, 8) +
			`{"ref":"operand:0"}` + strings.Repeat(`]}`, 8) + `]}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		resp := postExprJSON(t, srv, c.src)
		if resp.StatusCode != c.want {
			t.Errorf("%s: status %d, want %d (%s)", c.name, resp.StatusCode, c.want, readAll(t, resp))
			continue
		}
		resp.Body.Close()
	}

	// Multipart with no "expr" field.
	var body bytes.Buffer
	mw := multipart.NewWriter(&body)
	fw, _ := mw.CreateFormFile("operand", "op0.cube")
	fw.Write(encodeExp(t, buildExp("a", 0)))
	mw.Close()
	resp, err := http.Post(srv.URL+"/expr", mw.FormDataContentType(), &body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf(`missing "expr" field: status %d, want 400`, resp.StatusCode)
	}
	resp.Body.Close()
}

// A batched request evaluates several roots over one shared DAG in one
// round trip: the response is multipart/mixed with one CUBE XML part per
// root, the shared difference runs once, and repeated operands are served
// from the shared lowered blocks (cube_lower_cache_hits_total).
func TestExprMultiRoot(t *testing.T) {
	a := buildExp("a", 0.25)
	b := buildExp("b", 0)
	d, _ := core.Difference(a, b, nil)
	sc, _ := core.Scale(d, 2, nil)

	reg := obs.NewRegistry()
	cfg := quietConfig()
	cfg.Metrics = reg
	cfg.Events = obs.NewEventSink(64)
	srv, _ := newStoreServer(t, cfg, store.Options{})

	docA, docB := encodeExp(t, a), encodeExp(t, b)
	digA, digB := store.DigestOf(docA).String(), store.DigestOf(docB).String()
	for dig, doc := range map[string][]byte{digA: docA, digB: docB} {
		resp := putExperiment(t, srv, dig, doc, "")
		resp.Body.Close()
	}

	src := fmt.Sprintf(`{"defs":{"d":{"op":"difference","args":[{"ref":"digest:%s"},{"ref":"digest:%s"}]}},
		"roots":[{"ref":"def:d"},{"op":"scale","factor":2,"args":[{"ref":"def:d"}]}]}`, digA, digB)

	resp := postExprJSON(t, srv, src)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, readAll(t, resp))
	}
	if got := resp.Header.Get("X-Cube-Expr-Roots"); got != "2" {
		t.Errorf("X-Cube-Expr-Roots = %q, want 2", got)
	}
	mt, params, err := mime.ParseMediaType(resp.Header.Get("Content-Type"))
	if err != nil || mt != "multipart/mixed" {
		t.Fatalf("Content-Type = %q, want multipart/mixed", resp.Header.Get("Content-Type"))
	}
	mr := multipart.NewReader(resp.Body, params["boundary"])
	var parts []*core.Experiment
	for {
		p, err := mr.NextPart()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		e, err := cubexml.Read(p)
		if err != nil {
			t.Fatalf("part %d not a cube document: %v", len(parts), err)
		}
		parts = append(parts, e)
	}
	resp.Body.Close()
	if len(parts) != 2 {
		t.Fatalf("got %d parts, want 2", len(parts))
	}
	if parts[0].Fingerprint() != d.Fingerprint() {
		t.Error("root 0 differs from the sequential difference")
	}
	if parts[1].Fingerprint() != sc.Fingerprint() {
		t.Error("root 1 differs from the sequential scale")
	}
	// The def shared by both roots ran exactly once.
	if v := reg.CounterValue("cube_op_invocations_total", obs.L("op", "difference")); v != 1 {
		t.Errorf("difference ran %d times, want 1 (shared across roots)", v)
	}
}

// Repeated POST /expr over the same operand content reuses the parse
// cache's lowered columnar blocks without copying them: the first request
// populates (a lower-cache miss per leaf resolution), repeats hit.
func TestExprLowerCacheReuse(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := quietConfig()
	cfg.Metrics = reg
	cfg.Events = obs.NewEventSink(64)
	srv, _ := newStoreServer(t, cfg, store.Options{})

	a := buildExp("a", 0.5)
	b := buildExp("b", 0)
	want, _ := core.Difference(a, b, nil)
	src := `{"op":"difference","args":[{"ref":"operand:0"},{"ref":"operand:1"}]}`
	parts := []operandPart{{literal: encodeExp(t, a)}, {literal: encodeExp(t, b)}}

	got := decodeExpResponse(t, postExprMultipart(t, srv, src, parts...))
	if got.Fingerprint() != want.Fingerprint() {
		t.Error("first /expr result differs from local operator")
	}
	if v := reg.CounterValue("cube_lower_cache_hits_total"); v != 0 {
		t.Errorf("first request counted %d lower-cache hits, want 0", v)
	}
	misses := reg.CounterValue("cube_lower_cache_misses_total")
	if misses != 2 {
		t.Errorf("first request counted %d lower-cache misses, want 2", misses)
	}

	// Same operand bytes again — different expression, so the result
	// cache cannot answer and the leaves must resolve again.
	src2 := `{"op":"sum","args":[{"ref":"operand:0"},{"ref":"operand:1"}]}`
	want2, _ := core.Sum(nil, a, b)
	got2 := decodeExpResponse(t, postExprMultipart(t, srv, src2, parts...))
	if got2.Fingerprint() != want2.Fingerprint() {
		t.Error("second /expr result differs from local operator")
	}
	if v := reg.CounterValue("cube_lower_cache_hits_total"); v != 2 {
		t.Errorf("repeat request counted %d lower-cache hits, want 2", v)
	}
	if v := reg.CounterValue("cube_lower_cache_misses_total"); v != misses {
		t.Errorf("repeat request added %d lower-cache misses, want 0", v-misses)
	}

	// The wide events carry the same split.
	var evs []*obs.EventFields
	for _, ev := range cfg.Events.Events() {
		if ev.Route == "/expr" {
			evs = append(evs, ev)
		}
	}
	if len(evs) != 2 {
		t.Fatalf("expected 2 /expr wide events, got %d", len(evs))
	}
	if evs[0].LowerCacheMisses != 2 || evs[0].LowerCacheHits != 0 {
		t.Errorf("first event: lower_cache hits=%d misses=%d, want 0/2",
			evs[0].LowerCacheHits, evs[0].LowerCacheMisses)
	}
	if evs[1].LowerCacheHits != 2 || evs[1].LowerCacheMisses != 0 {
		t.Errorf("repeat event: lower_cache hits=%d misses=%d, want 2/0",
			evs[1].LowerCacheHits, evs[1].LowerCacheMisses)
	}
}

// A bare digest leaf round-trips the stored experiment through the
// evaluation path (closure at the degenerate end).
func TestExprBareLeaf(t *testing.T) {
	srv, _ := newStoreServer(t, nil, store.Options{})
	a := buildExp("a", 0.125)
	doc := encodeExp(t, a)
	dig := store.DigestOf(doc).String()
	resp := putExperiment(t, srv, dig, doc, "")
	resp.Body.Close()
	got := decodeExpResponse(t, postExprJSON(t, srv, fmt.Sprintf(`{"ref":"digest:%s"}`, dig)))
	if got.Fingerprint() != a.Fingerprint() {
		t.Error("bare digest leaf did not round-trip the stored experiment")
	}
}

// TestDomainErrorIs413: an operand or result domain too large for the
// severity store's packed keys is a size violation, answered 413 like
// the other size guards rather than a 500.
func TestDomainErrorIs413(t *testing.T) {
	s := &service{}
	rec := httptest.NewRecorder()
	err := fmt.Errorf("expr: applying sum: %w", &core.DomainError{Metrics: 1 << 22, CallNodes: 1 << 21, Threads: 1 << 21})
	s.exprError(rec, httptest.NewRequest(http.MethodPost, "/op/sum", nil), err, http.StatusUnprocessableEntity)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", rec.Code)
	}
}
