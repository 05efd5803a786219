package server

import (
	"bytes"
	"io"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"cube/internal/core"
	"cube/internal/cubexml"
)

// buildExp creates a small experiment; extraWait perturbs it.
func buildExp(title string, extraWait float64) *core.Experiment {
	e := core.New(title)
	time := e.NewMetric("Time", core.Seconds, "")
	wait := time.NewChild("Wait", "")
	mainR := e.NewRegion("main", "app", 0, 0)
	root := e.NewCallRoot(e.NewCallSite("", 0, mainR))
	sub := root.NewChild(e.NewCallSite("app", 4, e.NewRegion("sub", "app", 0, 0)))
	for _, th := range e.SingleThreadedSystem("m", 1, 2) {
		e.SetSeverity(time, root, th, 1)
		e.SetSeverity(time, sub, th, 0.02)
		e.SetSeverity(wait, root, th, 0.5+extraWait)
	}
	return e
}

// post sends experiments as multipart operands and returns the response.
func post(t *testing.T, srv *httptest.Server, path string, exps ...*core.Experiment) *http.Response {
	t.Helper()
	return postAccept(t, srv, path, "", exps...)
}

// postAccept is post with an Accept header (none when accept is "").
func postAccept(t *testing.T, srv *httptest.Server, path, accept string, exps ...*core.Experiment) *http.Response {
	t.Helper()
	var body bytes.Buffer
	mw := multipart.NewWriter(&body)
	for i, e := range exps {
		fw, err := mw.CreateFormFile("operand", "op"+string(rune('0'+i))+".cube")
		if err != nil {
			t.Fatal(err)
		}
		if err := cubexml.Write(fw, e); err != nil {
			t.Fatal(err)
		}
	}
	mw.Close()
	return send(t, srv.URL+path, mw.FormDataContentType(), accept, body.Bytes())
}

// send POSTs body with an Accept header (none when accept is "").
func send(t *testing.T, url, contentType, accept string, body []byte) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", contentType)
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// newTestServer serves the real handler with request logging silenced.
func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(NewHandler(quietConfig()))
	t.Cleanup(srv.Close)
	return srv
}

func TestHealthz(t *testing.T) {
	srv := newTestServer(t)
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	readAll(t, resp)
}

func TestDifferenceEndpoint(t *testing.T) {
	srv := newTestServer(t)
	a := buildExp("a", 0.25)
	b := buildExp("b", 0)
	resp := post(t, srv, "/op/difference", a, b)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, readAll(t, resp))
	}
	got, err := cubexml.Read(strings.NewReader(readAll(t, resp)))
	if err != nil {
		t.Fatalf("response not a cube document: %v", err)
	}
	want, _ := core.Difference(a, b, nil)
	if got.Fingerprint() != want.Fingerprint() {
		t.Errorf("service result differs from local operator")
	}
	if !got.Derived || got.Operation != "difference" {
		t.Errorf("provenance lost over the wire")
	}
}

func TestMeanAndComposition(t *testing.T) {
	srv := newTestServer(t)
	runs := []*core.Experiment{buildExp("r1", 0.1), buildExp("r2", 0.2), buildExp("r3", 0.3)}
	resp := post(t, srv, "/op/mean", runs...)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mean status %d", resp.StatusCode)
	}
	mean, err := cubexml.Read(strings.NewReader(readAll(t, resp)))
	if err != nil {
		t.Fatal(err)
	}
	// Closure: the derived result feeds straight back into the service.
	resp2 := post(t, srv, "/op/difference", mean, buildExp("base", 0))
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("composed difference status %d: %s", resp2.StatusCode, readAll(t, resp2))
	}
	if _, err := cubexml.Read(strings.NewReader(readAll(t, resp2))); err != nil {
		t.Fatalf("composed result unreadable: %v", err)
	}
}

func TestUnaryEndpoints(t *testing.T) {
	srv := newTestServer(t)
	e := buildExp("x", 0)

	resp := post(t, srv, "/op/flatten", e)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("flatten status %d", resp.StatusCode)
	}
	flat, err := cubexml.Read(strings.NewReader(readAll(t, resp)))
	if err != nil || flat.Operation != "flatten" {
		t.Errorf("flatten result wrong: %v %v", err, flat)
	}

	resp = post(t, srv, "/op/extract?metric=Time/Wait", e)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("extract status %d: %s", resp.StatusCode, readAll(t, resp))
	}
	ex, err := cubexml.Read(strings.NewReader(readAll(t, resp)))
	if err != nil || len(ex.MetricRoots()) != 1 || ex.MetricRoots()[0].Name != "Wait" {
		t.Errorf("extract result wrong")
	}

	resp = post(t, srv, "/op/prune?metric=Time&threshold=0.5", e)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prune status %d: %s", resp.StatusCode, readAll(t, resp))
	}
	pr, err := cubexml.Read(strings.NewReader(readAll(t, resp)))
	if err != nil || pr.Operation != "prune" {
		t.Errorf("prune result wrong")
	}
}

func TestViewEndpoint(t *testing.T) {
	srv := newTestServer(t)
	resp := post(t, srv, "/view?metric=Wait&mode=percent", buildExp("v", 0))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	out := readAll(t, resp)
	for _, want := range []string{"Metric tree", "Call tree", "Wait", "%"} {
		if !strings.Contains(out, want) {
			t.Errorf("view lacks %q:\n%s", want, out)
		}
	}
	// Flat view.
	resp = post(t, srv, "/view?flat=1", buildExp("v", 0))
	if !strings.Contains(readAll(t, resp), "flatten") {
		t.Errorf("flat view missing flatten provenance")
	}
	// Hotspot ranking.
	resp = post(t, srv, "/view?metric=Time&top=3", buildExp("v", 0))
	out = readAll(t, resp)
	if !strings.Contains(out, "top 3 severities") && !strings.Contains(out, "top 2 severities") {
		t.Errorf("hotspot listing missing:\n%s", out)
	}
	resp = post(t, srv, "/view?top=banana", buildExp("v", 0))
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad top accepted: %d", resp.StatusCode)
	}
	readAll(t, resp)
}

// TestViewWithoutCallTree views an experiment that has a system tree but no
// call tree: the call selection is empty, not a 500.
func TestViewWithoutCallTree(t *testing.T) {
	srv := newTestServer(t)
	e := core.New("no calls")
	e.NewMetric("Time", core.Seconds, "")
	e.SingleThreadedSystem("m", 1, 2)
	for _, path := range []string{"/view", "/view?mode=percent&top=3", "/report", "/info"} {
		resp := post(t, srv, path, e)
		out := readAll(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, resp.StatusCode, out)
		}
		if strings.HasPrefix(path, "/view") && !strings.Contains(out, "System tree (no call path selected)") {
			t.Errorf("%s lacks the empty system tree:\n%s", path, out)
		}
	}
}

func TestReportEndpoint(t *testing.T) {
	srv := newTestServer(t)
	resp := post(t, srv, "/report?metric=Wait", buildExp("r", 0))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/html") {
		t.Errorf("content type %q", ct)
	}
	out := readAll(t, resp)
	for _, want := range []string{"<!DOCTYPE html>", "Metric tree", "Hotspots"} {
		if !strings.Contains(out, want) {
			t.Errorf("report lacks %q", want)
		}
	}
	resp = post(t, srv, "/report?metric=Nope", buildExp("r", 0))
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown metric status %d", resp.StatusCode)
	}
	readAll(t, resp)
	resp = post(t, srv, "/report", buildExp("a", 0), buildExp("b", 0))
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("two-operand report status %d", resp.StatusCode)
	}
	readAll(t, resp)
}

func TestInfoEndpoint(t *testing.T) {
	srv := newTestServer(t)
	resp := post(t, srv, "/info", buildExp("a", 0), buildExp("b", 0))
	out := readAll(t, resp)
	for _, want := range []string{`"a"`, `"b"`, "similarity"} {
		if !strings.Contains(out, want) {
			t.Errorf("info lacks %q:\n%s", want, out)
		}
	}
}

func TestErrorResponses(t *testing.T) {
	srv := newTestServer(t)
	e := buildExp("x", 0)

	// Unknown op.
	resp := post(t, srv, "/op/transmogrify", e)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown op status %d", resp.StatusCode)
	}
	readAll(t, resp)
	// Wrong operand count.
	resp = post(t, srv, "/op/difference", e)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("single-operand difference status %d", resp.StatusCode)
	}
	readAll(t, resp)
	// Bad options.
	resp = post(t, srv, "/op/merge?system=bogus", e, e)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad option status %d", resp.StatusCode)
	}
	readAll(t, resp)
	// No operands.
	body := strings.NewReader("")
	r, err := http.Post(srv.URL+"/op/mean", "multipart/form-data; boundary=x", body)
	if err != nil {
		t.Fatal(err)
	}
	if r.StatusCode != http.StatusBadRequest {
		t.Errorf("empty request status %d", r.StatusCode)
	}
	r.Body.Close()
	// Corrupt operand.
	var mb bytes.Buffer
	mw := multipart.NewWriter(&mb)
	fw, _ := mw.CreateFormFile("operand", "bad.cube")
	fw.Write([]byte("not xml"))
	mw.Close()
	r2, err := http.Post(srv.URL+"/op/flatten", mw.FormDataContentType(), &mb)
	if err != nil {
		t.Fatal(err)
	}
	if r2.StatusCode != http.StatusBadRequest {
		t.Errorf("corrupt operand status %d", r2.StatusCode)
	}
	r2.Body.Close()
	// Bad prune threshold.
	resp = post(t, srv, "/op/prune?metric=Time&threshold=banana", e)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad threshold status %d", resp.StatusCode)
	}
	readAll(t, resp)
	// Unknown view metric.
	resp = post(t, srv, "/view?metric=Nope", e)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown view metric status %d", resp.StatusCode)
	}
	readAll(t, resp)
	// /op/{op} is the one-node expression the operator table builds from
	// the path and query: the table's parameter checks are its 400s, the
	// operator's own failures its 422s.
	for _, c := range []struct {
		path string
		want int
	}{
		{"/op/Difference", http.StatusNotFound}, // names match the table exactly
		{"/op/scale", http.StatusBadRequest},
		{"/op/scale?factor=banana", http.StatusBadRequest},
		{"/op/scale?factor=NaN", http.StatusBadRequest},
		{"/op/prune?threshold=0.5", http.StatusBadRequest},
		{"/op/prune?metric=Nope&threshold=0.5", http.StatusUnprocessableEntity},
		{"/op/extract", http.StatusBadRequest},
	} {
		resp = post(t, srv, c.path, e)
		if body := readAll(t, resp); resp.StatusCode != c.want {
			t.Errorf("%s: status %d, want %d (%s)", c.path, resp.StatusCode, c.want, body)
		}
	}
	resp = post(t, srv, "/op/scale?factor=2", e)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scale status %d: %s", resp.StatusCode, readAll(t, resp))
	}
	got, err := cubexml.Read(strings.NewReader(readAll(t, resp)))
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Scale(e, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !core.AlmostEqual(got, want, 1e-12) || got.Operation != "scale" {
		t.Errorf("/op/scale?factor=2 differs from core.Scale")
	}
}

// TestDefaultHandler smoke-tests the zero-config entry point.
func TestDefaultHandler(t *testing.T) {
	srv := httptest.NewServer(Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	readAll(t, resp)
}

// TestOperandCountErrors checks the arity guard of every operator and
// endpoint: wrong counts must be 400 with a usable message, never 500.
func TestOperandCountErrors(t *testing.T) {
	srv := newTestServer(t)
	e := buildExp("x", 0)
	cases := []struct {
		path     string
		operands int
	}{
		{"/op/difference", 1},
		{"/op/difference", 3},
		{"/op/flatten", 2},
		{"/op/extract?metric=Time", 2},
		{"/op/prune?metric=Time&threshold=0.5", 2},
		{"/op/scale?factor=2", 2},
		{"/op/stddev", 1},
		{"/view", 2},
		{"/report", 2},
		{"/info", 3},
	}
	for _, c := range cases {
		exps := make([]*core.Experiment, c.operands)
		for i := range exps {
			exps[i] = e
		}
		resp := post(t, srv, c.path, exps...)
		body := readAll(t, resp)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s with %d operands: status %d, want 400 (%s)", c.path, c.operands, resp.StatusCode, body)
		}
	}
	// The n-ary operators accept any positive count, including one;
	// stddev needs two.
	for _, op := range []string{"merge", "mean", "sum", "min", "max"} {
		resp := post(t, srv, "/op/"+op, e)
		body := readAll(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("unary %s: status %d (%s)", op, resp.StatusCode, body)
		}
	}
	resp := post(t, srv, "/op/stddev", e, buildExp("y", 0.5))
	if body := readAll(t, resp); resp.StatusCode != http.StatusOK {
		t.Errorf("stddev of 2: status %d (%s)", resp.StatusCode, body)
	}
}

func TestBadViewMode(t *testing.T) {
	srv := newTestServer(t)
	resp := post(t, srv, "/view?mode=banana", buildExp("v", 0))
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad mode status %d, want 400", resp.StatusCode)
	}
	readAll(t, resp)
}

func TestBadCallmatchEveryOp(t *testing.T) {
	srv := newTestServer(t)
	e := buildExp("x", 0)
	for _, op := range []string{"difference", "merge", "mean", "sum", "min", "max"} {
		resp := post(t, srv, "/op/"+op+"?callmatch=bogus", e, e)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s with bad callmatch: status %d, want 400", op, resp.StatusCode)
		}
		readAll(t, resp)
	}
}
