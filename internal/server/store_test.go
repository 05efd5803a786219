package server

// End-to-end tests of the experiment-store routes: PUT/GET/HEAD
// /experiments/{digest}, digest-referenced operands, degraded-mode
// serving, probe-route limiter exemption, and -digest-strict.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"cube/internal/obs"
	"cube/internal/store"
)

// newStoreServer serves the real handler over a real store in a temp dir.
func newStoreServer(t *testing.T, cfg *Config, opts store.Options) (*httptest.Server, *store.Store) {
	t.Helper()
	if cfg == nil {
		cfg = quietConfig()
	}
	// As cube-server does, install the seams before the store opens so
	// its recovery scan records into them (NewHandler installs them too).
	if cfg.Metrics != nil {
		obs.SetRegistry(cfg.Metrics)
	}
	if cfg.Events != nil {
		obs.SetEventSink(cfg.Events)
	}
	st, err := store.Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Store = st
	srv := httptest.NewServer(NewHandler(cfg))
	t.Cleanup(srv.Close)
	return srv, st
}

// putExperiment PUTs doc under digest with an optional Content-Digest
// header value ("" omits it).
func putExperiment(t *testing.T, srv *httptest.Server, digest string, doc []byte, contentDigest string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, srv.URL+"/experiments/"+digest, bytes.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if contentDigest != "" {
		req.Header.Set("Content-Digest", contentDigest)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// operandPart is one multipart operand: either literal document bytes or
// a digest reference.
type operandPart struct {
	literal []byte
	digest  string
}

// postParts POSTs a mix of literal and digest-reference operands,
// preserving order.
func postParts(t *testing.T, srv *httptest.Server, path string, parts ...operandPart) *http.Response {
	t.Helper()
	var body bytes.Buffer
	mw := multipart.NewWriter(&body)
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
	resp, err := http.Post(srv.URL+path, mw.FormDataContentType(), &body)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestExperimentPutGetHead(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := quietConfig()
	cfg.Metrics = reg
	srv, st := newStoreServer(t, cfg, store.Options{})
	doc := encodeExp(t, buildExp("stored", 0))
	d := store.DigestOf(doc)

	// First PUT commits: 201, created=true.
	resp := putExperiment(t, srv, d.String(), doc, digestOf(doc))
	var res struct {
		Digest  string `json:"digest"`
		Bytes   int64  `json:"bytes"`
		Created bool   `json:"created"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || !res.Created || res.Digest != d.String() || res.Bytes != int64(len(doc)) {
		t.Fatalf("first PUT: status %d, result %+v", resp.StatusCode, res)
	}

	// Re-PUT is an idempotent cheap 200.
	resp = putExperiment(t, srv, d.String(), doc, "")
	if readAll(t, resp); resp.StatusCode != http.StatusOK {
		t.Fatalf("re-PUT status = %d, want 200", resp.StatusCode)
	}
	if st.Len() != 1 {
		t.Fatalf("store holds %d blobs, want 1", st.Len())
	}

	// GET round-trips the exact bytes with a Content-Digest header.
	resp, err := http.Get(srv.URL + "/experiments/" + d.String())
	if err != nil {
		t.Fatal(err)
	}
	got := readAll(t, resp)
	if resp.StatusCode != http.StatusOK || got != string(doc) {
		t.Fatalf("GET: status %d, %d bytes, want the %d stored bytes", resp.StatusCode, len(got), len(doc))
	}
	if cd := resp.Header.Get("Content-Digest"); cd != digestOf(doc) {
		t.Errorf("GET Content-Digest = %q, want %q", cd, digestOf(doc))
	}

	// HEAD reports existence and size without a body.
	resp, err = http.Head(srv.URL + "/experiments/" + d.String())
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.ContentLength != int64(len(doc)) {
		t.Fatalf("HEAD: status %d, length %d, want 200/%d", resp.StatusCode, resp.ContentLength, len(doc))
	}

	// Missing digest: 404 on GET and HEAD.
	absent := store.DigestOf([]byte("absent")).String()
	for _, method := range []string{http.MethodGet, http.MethodHead} {
		req, _ := http.NewRequest(method, srv.URL+"/experiments/"+absent, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s missing: status %d, want 404", method, resp.StatusCode)
		}
	}

	// A malformed digest in the URL is a 400, not a store lookup.
	resp = putExperiment(t, srv, "not-a-digest", doc, "")
	if readAll(t, resp); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad digest PUT status = %d, want 400", resp.StatusCode)
	}
}

func TestExperimentPutRejectsCorruptAndInvalid(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := quietConfig()
	cfg.Metrics = reg
	srv, st := newStoreServer(t, cfg, store.Options{})
	doc := encodeExp(t, buildExp("real", 0))

	// Body does not hash to the URL digest: 400, counted, not stored.
	wrong := store.DigestOf([]byte("something else")).String()
	resp := putExperiment(t, srv, wrong, doc, "")
	if body := readAll(t, resp); resp.StatusCode != http.StatusBadRequest || !strings.Contains(body, "hashes to") {
		t.Fatalf("corrupt PUT: status %d body %q, want 400 naming both digests", resp.StatusCode, body)
	}
	if got := counter(reg, "cube_digest_mismatch_total"); got != 1 {
		t.Errorf("mismatch counter = %d, want 1", got)
	}

	// Bytes that hash correctly but are not a CUBE document: 422, not stored.
	junk := []byte("<html>not a cube file</html>")
	resp = putExperiment(t, srv, store.DigestOf(junk).String(), junk, "")
	if readAll(t, resp); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("junk PUT status = %d, want 422", resp.StatusCode)
	}
	if st.Len() != 0 {
		t.Errorf("store holds %d blobs after rejected uploads, want 0", st.Len())
	}
}

// TestOpByDigestRoundTrip is the acceptance path: store two experiments,
// run a non-commutative operator on digest references — including mixed
// with a literal operand — and get byte-identical results to the
// all-literal request.
func TestOpByDigestRoundTrip(t *testing.T) {
	srv, _ := newStoreServer(t, nil, store.Options{})
	a := encodeExp(t, buildExp("exp", 0.5))
	b := encodeExp(t, buildExp("exp", 0))
	da, db := store.DigestOf(a), store.DigestOf(b)
	for _, doc := range [][]byte{a, b} {
		resp := putExperiment(t, srv, store.DigestOf(doc).String(), doc, "")
		if readAll(t, resp); resp.StatusCode != http.StatusCreated {
			t.Fatalf("PUT status = %d", resp.StatusCode)
		}
	}

	resp := postParts(t, srv, "/op/difference", operandPart{literal: a}, operandPart{literal: b})
	wantBody := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("literal difference status = %d: %s", resp.StatusCode, wantBody)
	}

	cases := []struct {
		name  string
		parts []operandPart
	}{
		{"both-refs", []operandPart{{digest: da.String()}, {digest: db.String()}}},
		{"ref-then-literal", []operandPart{{digest: da.String()}, {literal: b}}},
		{"literal-then-ref", []operandPart{{literal: a}, {digest: db.String()}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := postParts(t, srv, "/op/difference", tc.parts...)
			body := readAll(t, resp)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", resp.StatusCode, body)
			}
			if body != wantBody {
				t.Error("digest-referenced result differs from the all-literal result")
			}
		})
	}

	// Operand order must survive reference resolution: difference is
	// anti-symmetric, so swapping the refs must change the answer.
	resp = postParts(t, srv, "/op/difference", operandPart{digest: db.String()}, operandPart{digest: da.String()})
	if body := readAll(t, resp); resp.StatusCode != http.StatusOK {
		t.Fatalf("swapped refs status %d", resp.StatusCode)
	} else if body == wantBody {
		t.Error("difference(b,a) equals difference(a,b): operand order was lost")
	}
}

func TestOpByDigestMissingIs404(t *testing.T) {
	srv, _ := newStoreServer(t, nil, store.Options{})
	absent := store.DigestOf([]byte("never uploaded")).String()
	resp := postParts(t, srv, "/op/flatten", operandPart{digest: absent})
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
	if !strings.Contains(body, absent) || !strings.Contains(body, "PUT /experiments/") {
		t.Errorf("404 body %q should name the digest and the upload route", body)
	}
}

func TestDigestRefWithoutStoreIsClientError(t *testing.T) {
	srv := newTestServer(t) // no store configured
	resp := postParts(t, srv, "/op/flatten", operandPart{digest: store.DigestOf([]byte("x")).String()})
	if readAll(t, resp); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400 when no store is configured", resp.StatusCode)
	}
}

// TestDegradedModeEndToEnd is the acceptance scenario: the disk fills up
// (injected ENOSPC), uploads start answering 503 + Retry-After while
// operations on already-stored experiments keep succeeding and /readyz
// names the degraded component; when the fault clears, the next due write
// probe re-arms uploads.
func TestDegradedModeEndToEnd(t *testing.T) {
	ffs := store.NewFaultFS(nil)
	reg := obs.NewRegistry()
	cfg := quietConfig()
	cfg.Metrics = reg
	cfg.RetryAfter = 2 * time.Second
	srv, st := newStoreServer(t, cfg, store.Options{
		FS:               ffs,
		FailureThreshold: 1,
		ProbeInterval:    time.Second,
	})

	stored := encodeExp(t, buildExp("stored", 0))
	ds := store.DigestOf(stored)
	resp := putExperiment(t, srv, ds.String(), stored, "")
	if readAll(t, resp); resp.StatusCode != http.StatusCreated {
		t.Fatalf("seed PUT status = %d", resp.StatusCode)
	}

	// The disk fills: the first failed write trips the threshold-1 store
	// into degraded mode (a 500 for that request)...
	ffs.Inject(&store.Fault{Op: "sync", Path: ".tmp-", Err: syscall.ENOSPC})
	fresh := encodeExp(t, buildExp("fresh", 0.25))
	df := store.DigestOf(fresh)
	resp = putExperiment(t, srv, df.String(), fresh, "")
	if readAll(t, resp); resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("tripping PUT status = %d, want 500", resp.StatusCode)
	}
	if deg, _ := st.Degraded(); !deg {
		t.Fatal("store not degraded after the write failure")
	}

	// ...and every upload inside the probe interval fails fast with 503 +
	// Retry-After.
	resp = putExperiment(t, srv, df.String(), fresh, "")
	if body := readAll(t, resp); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("degraded PUT status = %d (%s), want 503", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Errorf("degraded PUT Retry-After = %q, want \"2\"", ra)
	}

	// Reads and digest-referenced compute keep serving.
	resp = postParts(t, srv, "/op/flatten", operandPart{digest: ds.String()})
	if readAll(t, resp); resp.StatusCode != http.StatusOK {
		t.Errorf("degraded op-by-digest status = %d, want 200", resp.StatusCode)
	}
	resp, err := http.Get(srv.URL + "/experiments/" + ds.String())
	if err != nil {
		t.Fatal(err)
	}
	if readAll(t, resp); resp.StatusCode != http.StatusOK {
		t.Errorf("degraded GET status = %d, want 200", resp.StatusCode)
	}

	// /readyz names the degraded component; /healthz stays green (a
	// read-only store is not a reason to restart the process).
	resp, err = http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var ready map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&ready); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable ||
		ready["status"] != "degraded" || ready["component"] != "experiment-store" || ready["mode"] != "read-only" {
		t.Errorf("degraded /readyz: status %d body %v", resp.StatusCode, ready)
	}
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if readAll(t, resp); resp.StatusCode != http.StatusOK {
		t.Errorf("degraded /healthz status = %d, want 200", resp.StatusCode)
	}

	// The fault clears; once the probe interval elapses, the next upload
	// doubles as the probe, succeeds, and re-arms writes.
	ffs.Clear()
	time.Sleep(1100 * time.Millisecond)
	resp = putExperiment(t, srv, df.String(), fresh, "")
	if body := readAll(t, resp); resp.StatusCode != http.StatusCreated {
		t.Fatalf("re-armed PUT status = %d (%s), want 201", resp.StatusCode, body)
	}
	if deg, _ := st.Degraded(); deg {
		t.Fatal("store still degraded after a successful probe")
	}
	resp, err = http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	if readAll(t, resp); resp.StatusCode != http.StatusOK {
		t.Errorf("re-armed /readyz status = %d, want 200", resp.StatusCode)
	}
}

// TestProbesBypassLimiter: liveness and readiness must answer even when
// every concurrency slot is held — a probe that 429s under load gets the
// replica killed or drained exactly when it is busiest.
func TestProbesBypassLimiter(t *testing.T) {
	cfg := quietConfig()
	cfg.MaxConcurrent = 1
	s := &service{cfg: cfg}
	entered := make(chan struct{})
	release := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("/slow", func(w http.ResponseWriter, r *http.Request) {
		entered <- struct{}{}
		<-release
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, "ok") })
	mux.HandleFunc("/readyz", s.handleReadyz)
	srv := httptest.NewServer(s.wrap(mux))
	defer srv.Close()

	done := make(chan struct{})
	go func() {
		resp, err := http.Get(srv.URL + "/slow")
		if err == nil {
			resp.Body.Close()
		}
		close(done)
	}()
	<-entered // the only slot is now held
	defer func() { close(release); <-done }()

	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if readAll(t, resp); resp.StatusCode != http.StatusOK {
			t.Errorf("%s under saturation: status %d, want 200", path, resp.StatusCode)
		}
	}
	// A normal route is still limited.
	resp, err := http.Get(srv.URL + "/slow")
	if err != nil {
		t.Fatal(err)
	}
	if readAll(t, resp); resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("saturated /slow status = %d, want 429", resp.StatusCode)
	}
}

// TestDigestStrict: -digest-strict upgrades a Content-Digest mismatch
// from a logged anomaly to a 400 rejection, on both the multipart operand
// path and the store upload path.
func TestDigestStrict(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := quietConfig()
	cfg.Metrics = reg
	cfg.DigestStrict = true
	srv, st := newStoreServer(t, cfg, store.Options{})
	doc := encodeExp(t, buildExp("strict", 0))
	badDigest := digestOf([]byte("other bytes"))

	resp := postWithDigest(t, srv, "/op/flatten", doc, badDigest)
	if body := readAll(t, resp); resp.StatusCode != http.StatusBadRequest || !strings.Contains(body, "Content-Digest") {
		t.Errorf("strict multipart mismatch: status %d body %q, want 400", resp.StatusCode, body)
	}

	// PUT with a correct URL digest but a mismatching Content-Digest
	// header: the header is corrupt, strict mode refuses.
	resp = putExperiment(t, srv, store.DigestOf(doc).String(), doc, badDigest)
	if readAll(t, resp); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("strict PUT mismatch status = %d, want 400", resp.StatusCode)
	}
	if st.Len() != 0 {
		t.Errorf("store holds %d blobs after strict rejections, want 0", st.Len())
	}
	if got := counter(reg, "cube_digest_mismatch_total"); got != 2 {
		t.Errorf("mismatch counter = %d, want 2", got)
	}

	// A matching digest still sails through in strict mode.
	resp = postWithDigest(t, srv, "/op/flatten", doc, digestOf(doc))
	if readAll(t, resp); resp.StatusCode != http.StatusOK {
		t.Errorf("strict matching digest status = %d, want 200", resp.StatusCode)
	}
}

// TestDigestLeafServedFromParseCache pins the parse-cache-first resolve:
// a digest leaf whose master is cached is answered without reading the
// blob — even after the blob was corrupted on disk — and its event reports
// the store's recorded size. Once the master leaves the parse cache, the
// next resolve reads the blob, quarantines it and answers 404, as any
// read of a corrupt blob does.
func TestDigestLeafServedFromParseCache(t *testing.T) {
	a := encodeExp(t, buildExp("a", 0.5))
	b := encodeExp(t, buildExp("b-with-a-longer-title", 0.25))
	da := store.DigestOf(a)
	dir := t.TempDir()
	ffs := store.NewFaultFS(nil)
	reg := obs.NewRegistry()
	st, err := store.Open(dir, store.Options{FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	sink := obs.NewEventSink(16)
	cfg := quietConfig()
	cfg.Metrics = reg
	cfg.Events = sink
	cfg.Store = st
	// Room for one cached master: the upload of b evicts a's.
	cfg.ParseCacheBytes = int64(len(b)) + 1
	srv := httptest.NewServer(NewHandler(cfg))
	defer srv.Close()

	resp := putExperiment(t, srv, da.String(), a, "")
	if readAll(t, resp); resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT status = %d", resp.StatusCode)
	}
	// The upload parsed a, so the master is cached from verified bytes.
	opens, emitted := ffs.Calls("open"), sink.Total()
	resp = postParts(t, srv, "/op/flatten", operandPart{digest: da.String()})
	want := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first resolve status %d: %s", resp.StatusCode, want)
	}
	events := waitEvents(t, sink, emitted+1)
	if f := events[len(events)-1]; f.StoreGets != 0 || f.StorePins != 1 || f.OperandBytes != int64(len(a)) {
		t.Errorf("event store_gets %d, store_pins %d, operand_bytes %d; want 0, 1 and the stored size %d",
			f.StoreGets, f.StorePins, f.OperandBytes, len(a))
	}

	// Corrupt the committed blob through the filesystem seam.
	f, err := ffs.Create(filepath.Join(dir, "blobs", da.String()))
	if err != nil {
		t.Fatal(err)
	}
	f.Write(bytes.Repeat([]byte("x"), len(a)))
	f.Close()

	resp = postParts(t, srv, "/op/flatten", operandPart{digest: da.String()})
	if body := readAll(t, resp); resp.StatusCode != http.StatusOK || body != want {
		t.Fatalf("cached resolve after corruption: status %d, same body %v", resp.StatusCode, body == want)
	}
	if got := ffs.Calls("open"); got != opens {
		t.Errorf("cached resolves opened %d files, want none", got-opens)
	}
	if got := reg.CounterValue("cube_store_get_hits_total"); got != 0 {
		t.Errorf("store reads = %d, want 0 while the master is cached", got)
	}

	// Evict a's master; the next resolve must read, verify, quarantine.
	resp = putExperiment(t, srv, store.DigestOf(b).String(), b, "")
	if readAll(t, resp); resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT b status = %d", resp.StatusCode)
	}
	resp = postParts(t, srv, "/op/flatten", operandPart{digest: da.String()})
	if body := readAll(t, resp); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("resolve of the corrupt blob after eviction: status %d (%s), want 404", resp.StatusCode, body)
	}
	if got := reg.CounterValue("cube_store_quarantined_total"); got != 1 {
		t.Errorf("quarantined = %d, want 1", got)
	}
	if _, ok := st.Stat(da); ok {
		t.Error("the corrupt blob is still indexed")
	}
	quarantined, err := os.ReadDir(filepath.Join(dir, "quarantine"))
	if err != nil || len(quarantined) != 1 {
		t.Errorf("quarantine holds %d files (%v), want 1", len(quarantined), err)
	}
}

// TestPinnedCachedBlobIsNotEvicted: a blob that is only ever pinned and
// answered from the parse cache is still a recent use, so budget pressure
// evicts a blob nobody asked for instead.
func TestPinnedCachedBlobIsNotEvicted(t *testing.T) {
	docs := [][]byte{
		encodeExp(t, buildExp("hot", 0.5)),
		encodeExp(t, buildExp("cold", 0.25)),
		encodeExp(t, buildExp("new", 0.125)),
	}
	var total int64
	for _, d := range docs {
		total += int64(len(d))
	}
	reg := obs.NewRegistry()
	cfg := quietConfig()
	cfg.Metrics = reg
	// The third blob fits only after one of the first two is evicted.
	srv, st := newStoreServer(t, cfg, store.Options{Budget: total - 1})
	put := func(doc []byte) {
		t.Helper()
		resp := putExperiment(t, srv, store.DigestOf(doc).String(), doc, "")
		if readAll(t, resp); resp.StatusCode != http.StatusCreated {
			t.Fatalf("PUT status = %d", resp.StatusCode)
		}
	}
	hot, cold := store.DigestOf(docs[0]), store.DigestOf(docs[1])
	put(docs[0])
	put(docs[1]) // cold is now the most recently used blob
	resp := postParts(t, srv, "/op/flatten", operandPart{digest: hot.String()})
	if body := readAll(t, resp); resp.StatusCode != http.StatusOK {
		t.Fatalf("resolve status %d: %s", resp.StatusCode, body)
	}
	if got := reg.CounterValue("cube_store_get_hits_total"); got != 0 {
		t.Fatalf("store reads = %d, want 0: the upload cached hot's master", got)
	}
	put(docs[2])
	if _, ok := st.Stat(hot); !ok {
		t.Error("the pinned, cache-served blob was evicted")
	}
	if _, ok := st.Stat(cold); ok {
		t.Error("the least recently used blob survived; something else was evicted")
	}
}

// TestReopenedStoreRecoveryIsServed pins the order cube-server relies on:
// with the registry and the sink installed before the store opens, the
// recovery scan of a directory that already holds a blob shows on the
// handler's /metrics and /debug/events.
func TestReopenedStoreRecoveryIsServed(t *testing.T) {
	dir := t.TempDir()
	first, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := first.Put(encodeExp(t, buildExp("kept", 0.5)), nil); err != nil {
		t.Fatal(err)
	}

	cfg := quietConfig()
	cfg.Debug = true
	cfg.Metrics = obs.NewRegistry()
	cfg.Events = obs.NewEventSink(16)
	obs.SetRegistry(cfg.Metrics)
	obs.SetEventSink(cfg.Events)
	t.Cleanup(func() { obs.SetRegistry(nil); obs.SetEventSink(nil) })
	if cfg.Store, err = store.Open(dir, store.Options{}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(cfg))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if body := readAll(t, resp); !strings.Contains(body, "\ncube_store_recovered_blobs_total 1\n") {
		t.Errorf("/metrics lacks cube_store_recovered_blobs_total 1:\n%s", body)
	}
	resp, err = http.Get(srv.URL + "/debug/events?kind=store")
	if err != nil {
		t.Fatal(err)
	}
	if body := readAll(t, resp); !strings.Contains(body, `"store_event":"recovery"`) {
		t.Errorf("/debug/events?kind=store lacks the recovery event: %s", body)
	}
}
