package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/base64"
	"fmt"
	"log/slog"
	"math/rand"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"cube/internal/core"
	"cube/internal/cubexml"
	"cube/internal/obs"
	"cube/internal/store"
)

func encodeExp(t testing.TB, e *core.Experiment) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := cubexml.Write(&buf, e); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func counter(reg *obs.Registry, name string) int64 { return reg.Counter(name).Value() }

// newTestParseCache is newParseCache with reg installed as the
// process-wide registry, where its counters and gauges land.
func newTestParseCache(t testing.TB, budget int64, lim cubexml.Limits, engine cubexml.ReadEngine, reg *obs.Registry) *parseCache {
	obs.SetRegistry(reg)
	t.Cleanup(func() { obs.SetRegistry(nil) })
	return newParseCache(budget, lim, engine)
}

func TestParseCacheHitMiss(t *testing.T) {
	reg := obs.NewRegistry()
	pc := newTestParseCache(t, 1<<20, cubexml.DefaultLimits, cubexml.EngineAuto, reg)
	want := buildExp("cached", 0)
	data := encodeExp(t, want)
	d := store.DigestOf(data)

	first, err := pc.shared(context.Background(), d, bytesLoader(data))
	if err != nil {
		t.Fatal(err)
	}
	second, err := pc.shared(context.Background(), d, bytesLoader(data))
	if err != nil {
		t.Fatal(err)
	}
	if got := counter(reg, "cube_parse_cache_misses_total"); got != 1 {
		t.Errorf("misses = %d, want 1", got)
	}
	if got := counter(reg, "cube_parse_cache_hits_total"); got != 1 {
		t.Errorf("hits = %d, want 1", got)
	}
	if first != second {
		t.Error("a hit did not share the cached master")
	}
	if first.Fingerprint() != want.Fingerprint() {
		t.Error("cached experiment differs from the original")
	}
	// Clones are private: mutating one must not leak into the master.
	clone := first.Clone()
	m, c, th := clone.Metrics()[0], clone.CallNodes()[0], clone.Threads()[0]
	clone.SetSeverity(m, c, th, 1e9)
	third, err := pc.shared(context.Background(), d, bytesLoader(data))
	if err != nil {
		t.Fatal(err)
	}
	if third.Fingerprint() != want.Fingerprint() {
		t.Error("mutating a clone of a cache result changed the master")
	}
}

// startFlight runs a parse-cache flight for key whose result the test
// controls: it returns once the flight is registered, and the flight
// finishes with (e, err) when release is closed.
func startFlight(pc *parseCache, key store.Digest, e *core.Experiment, err error) (release chan struct{}, done chan struct{}) {
	started := make(chan struct{})
	release, done = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		pc.lru.Do(key, func() (parsed, int64, error) {
			close(started)
			<-release
			return parsed{e: e}, 1, err
		})
	}()
	<-started
	return release, done
}

func TestParseCacheSingleflightWait(t *testing.T) {
	reg := obs.NewRegistry()
	pc := newTestParseCache(t, 1<<20, cubexml.DefaultLimits, cubexml.EngineAuto, reg)
	want := buildExp("inflight", 0)
	data := encodeExp(t, want)

	// Hold a flight open, then resolve it while a lookup is blocked on
	// it: deterministic coverage of the wait path.
	master, err := cubexml.ReadBytes(context.Background(), data, cubexml.ReadOptions{Limits: cubexml.DefaultLimits})
	if err != nil {
		t.Fatal(err)
	}
	master.CompactSeverities()
	release, done := startFlight(pc, store.DigestOf(data), master, nil)
	go func() {
		time.Sleep(10 * time.Millisecond)
		close(release)
	}()
	got, err := pc.shared(context.Background(), store.DigestOf(data), bytesLoader(data))
	if err != nil {
		t.Fatal(err)
	}
	<-done
	if got.Fingerprint() != want.Fingerprint() {
		t.Error("waiter got a different experiment")
	}
	if hits := counter(reg, "cube_parse_cache_hits_total"); hits != 1 {
		t.Errorf("hits = %d, want 1 (waiter counts as hit)", hits)
	}
	if misses := counter(reg, "cube_parse_cache_misses_total"); misses != 0 {
		t.Errorf("misses = %d, want 0", misses)
	}

	// And the error side: waiters share the leader's failure.
	badKey := store.DigestOf([]byte("bad"))
	wantErr := fmt.Errorf("boom")
	release, done = startFlight(pc, badKey, nil, wantErr)
	go func() {
		time.Sleep(10 * time.Millisecond)
		close(release)
	}()
	if _, err := pc.shared(context.Background(), badKey, bytesLoader([]byte("bad"))); err != wantErr {
		t.Errorf("waiter error = %v, want shared %v", err, wantErr)
	}
	<-done
}

func TestParseCacheEviction(t *testing.T) {
	reg := obs.NewRegistry()
	docs := [][]byte{
		encodeExp(t, buildExp("a", 0)),
		encodeExp(t, buildExp("b", 0.25)),
		encodeExp(t, buildExp("c", 0.5)),
	}
	budget := int64(len(docs[0])+len(docs[1])) + 16 // room for two, not three
	pc := newTestParseCache(t, budget, cubexml.DefaultLimits, cubexml.EngineAuto, reg)
	for _, d := range docs {
		if _, err := pc.shared(context.Background(), store.DigestOf(d), bytesLoader(d)); err != nil {
			t.Fatal(err)
		}
	}
	if got := counter(reg, "cube_parse_cache_evictions_total"); got != 1 {
		t.Errorf("evictions = %d, want 1", got)
	}
	if pc.lru.Bytes() > budget {
		t.Errorf("cache holds %d bytes, budget %d", pc.lru.Bytes(), budget)
	}
	if got := reg.Gauge("cube_parse_cache_bytes").Value(); int64(got) != pc.lru.Bytes() {
		t.Errorf("bytes gauge = %v, want %d", got, pc.lru.Bytes())
	}
	// docs[0] was least recently used, so it went first.
	if _, ok := pc.lru.Get(store.DigestOf(docs[0])); ok {
		t.Error("LRU entry survived eviction")
	}
	if _, ok := pc.lru.Get(store.DigestOf(docs[2])); !ok {
		t.Error("most recent entry was evicted")
	}
	// Re-fetching the evicted operand is a miss again.
	if _, err := pc.shared(context.Background(), store.DigestOf(docs[0]), bytesLoader(docs[0])); err != nil {
		t.Fatal(err)
	}
	if got := counter(reg, "cube_parse_cache_misses_total"); got != 4 {
		t.Errorf("misses = %d, want 4", got)
	}
}

func TestParseCacheOversizedNotCached(t *testing.T) {
	reg := obs.NewRegistry()
	data := encodeExp(t, buildExp("big", 0))
	pc := newTestParseCache(t, int64(len(data))-1, cubexml.DefaultLimits, cubexml.EngineAuto, reg)
	for i := 0; i < 2; i++ {
		if _, err := pc.shared(context.Background(), store.DigestOf(data), bytesLoader(data)); err != nil {
			t.Fatal(err)
		}
	}
	if got := counter(reg, "cube_parse_cache_misses_total"); got != 2 {
		t.Errorf("misses = %d, want 2 (oversized operand must not be cached)", got)
	}
	if pc.lru.Len() != 0 || pc.lru.Bytes() != 0 {
		t.Errorf("oversized operand was cached: %d entries, %d bytes", pc.lru.Len(), pc.lru.Bytes())
	}
}

// TestParseCacheErrorReachesAllWaiters: when the flight leader's parse
// fails, every concurrent waiter on that flight — not just one — must
// receive the same error and a nil experiment, and the failure must leave
// no cache entry behind.
func TestParseCacheErrorReachesAllWaiters(t *testing.T) {
	reg := obs.NewRegistry()
	pc := newTestParseCache(t, 1<<20, cubexml.DefaultLimits, cubexml.EngineAuto, reg)
	bad := []byte("not xml at all")
	key := store.DigestOf(bad)

	// Hold the flight open so every lookup below is guaranteed to take
	// the waiter path before the leader "fails".
	wantErr := fmt.Errorf("leader parse exploded")
	release, done := startFlight(pc, key, nil, wantErr)

	const waiters = 16
	type result struct {
		e   *core.Experiment
		err error
	}
	results := make(chan result, waiters)
	var started sync.WaitGroup
	started.Add(waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			started.Done()
			e, err := pc.shared(context.Background(), key, bytesLoader(bad))
			results <- result{e, err}
		}()
	}
	started.Wait()
	time.Sleep(5 * time.Millisecond) // let the goroutines reach the flight
	close(release)
	<-done

	for i := 0; i < waiters; i++ {
		r := <-results
		if r.err != wantErr {
			t.Fatalf("waiter %d error = %v, want the shared %v", i, r.err, wantErr)
		}
		if r.e != nil {
			t.Fatalf("waiter %d got a non-nil experiment alongside the error", i)
		}
	}
	if entries, bytes := pc.lru.Len(), pc.lru.Bytes(); entries != 0 || bytes != 0 {
		t.Errorf("failed parse left %d entries / %d bytes in the cache", entries, bytes)
	}
	if hits := counter(reg, "cube_parse_cache_hits_total"); hits != 0 {
		t.Errorf("hits = %d, want 0 (error waiters must not count as hits)", hits)
	}
}

func TestParseCacheParseErrorNotCached(t *testing.T) {
	reg := obs.NewRegistry()
	pc := newTestParseCache(t, 1<<20, cubexml.DefaultLimits, cubexml.EngineAuto, reg)
	bad := []byte("<cube this is not XML")
	var lastErr error
	for i := 0; i < 2; i++ {
		if _, lastErr = pc.shared(context.Background(), store.DigestOf(bad), bytesLoader(bad)); lastErr == nil {
			t.Fatal("cache parsed garbage")
		}
	}
	if got := counter(reg, "cube_parse_cache_misses_total"); got != 2 {
		t.Errorf("misses = %d, want 2 (errors must not be cached)", got)
	}
	want, err := cubexml.ReadBytes(context.Background(), bad, cubexml.ReadOptions{Limits: cubexml.DefaultLimits})
	if want != nil || err == nil || lastErr.Error() != err.Error() {
		t.Errorf("cache error = %v, direct parse error = %v", lastErr, err)
	}
}

// TestParseCacheConcurrentMixed hammers a small cache from many goroutines
// with more distinct operands than the budget holds, so hits, misses,
// singleflight waits, and evictions all interleave. Run under -race this
// is the cache's data-race check; the invariants below catch lost updates.
func TestParseCacheConcurrentMixed(t *testing.T) {
	reg := obs.NewRegistry()
	var docs [][]byte
	var prints []string
	for i := 0; i < 6; i++ {
		e := buildExp(fmt.Sprintf("exp-%d", i), float64(i)/8)
		docs = append(docs, encodeExp(t, e))
		prints = append(prints, e.Fingerprint())
	}
	budget := int64(len(docs[0])) * 5 / 2 // holds ~2 of 6 operands
	pc := newTestParseCache(t, budget, cubexml.DefaultLimits, cubexml.EngineAuto, reg)

	const workers, iters = 16, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < iters; i++ {
				k := r.Intn(len(docs))
				e, err := pc.shared(context.Background(), store.DigestOf(docs[k]), bytesLoader(docs[k]))
				if err != nil {
					t.Errorf("shared: %v", err)
					return
				}
				if e.Fingerprint() != prints[k] {
					t.Errorf("operand %d: wrong experiment from cache", k)
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()

	hits := counter(reg, "cube_parse_cache_hits_total")
	misses := counter(reg, "cube_parse_cache_misses_total")
	if hits+misses != workers*iters {
		t.Errorf("hits %d + misses %d != %d requests", hits, misses, workers*iters)
	}
	if misses < int64(len(docs)) {
		t.Errorf("misses = %d, want at least one per distinct operand (%d)", misses, len(docs))
	}
	if pc.lru.Bytes() > budget {
		t.Errorf("cache exceeded budget: %d > %d", pc.lru.Bytes(), budget)
	}
}

// postWithDigest uploads one operand with an explicit Content-Digest part
// header, mimicking the bundled client.
func postWithDigest(t *testing.T, srv *httptest.Server, path string, data []byte, digest string) *http.Response {
	t.Helper()
	var body bytes.Buffer
	mw := multipart.NewWriter(&body)
	h := make(map[string][]string)
	h["Content-Disposition"] = []string{`form-data; name="operand"; filename="op.cube"`}
	h["Content-Type"] = []string{"application/octet-stream"}
	if digest != "" {
		h["Content-Digest"] = []string{digest}
	}
	fw, err := mw.CreatePart(h)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Write(data); err != nil {
		t.Fatal(err)
	}
	mw.Close()
	resp, err := http.Post(srv.URL+path, mw.FormDataContentType(), &body)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func digestOf(data []byte) string {
	sum := sha256.Sum256(data)
	return "sha-256=:" + base64.StdEncoding.EncodeToString(sum[:]) + ":"
}

func TestHandlerCacheAndDigest(t *testing.T) {
	reg := obs.NewRegistry()
	var logBuf bytes.Buffer
	var logMu sync.Mutex
	cfg := quietConfig()
	cfg.Metrics = reg
	cfg.Logger = slog.New(slog.NewTextHandler(writerFunc(func(p []byte) (int, error) {
		logMu.Lock()
		defer logMu.Unlock()
		return logBuf.Write(p)
	}), nil))
	srv := httptest.NewServer(NewHandler(cfg))
	defer srv.Close()

	data := encodeExp(t, buildExp("handler", 0))

	// Correct digest: accepted, no mismatch, first request is a miss.
	resp := postWithDigest(t, srv, "/info", data, digestOf(data))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, readAll(t, resp))
	}
	resp.Body.Close()
	if got := counter(reg, "cube_parse_cache_misses_total"); got != 1 {
		t.Errorf("misses = %d, want 1", got)
	}
	if got := counter(reg, "cube_digest_mismatch_total"); got != 0 {
		t.Errorf("digest mismatches = %d, want 0", got)
	}

	// Same bytes again: served from cache.
	resp = postWithDigest(t, srv, "/info", data, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	resp.Body.Close()
	if got := counter(reg, "cube_parse_cache_hits_total"); got != 1 {
		t.Errorf("hits = %d, want 1", got)
	}

	// Wrong digest: trust but verify — processed anyway, counted, logged.
	resp = postWithDigest(t, srv, "/info", data, digestOf([]byte("other bytes")))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status after mismatch %d", resp.StatusCode)
	}
	resp.Body.Close()
	if got := counter(reg, "cube_digest_mismatch_total"); got != 1 {
		t.Errorf("digest mismatches = %d, want 1", got)
	}
	logMu.Lock()
	logged := logBuf.String()
	logMu.Unlock()
	if !strings.Contains(logged, "content digest mismatch") {
		t.Errorf("mismatch not logged:\n%s", logged)
	}

	// Unparseable digest header: ignored, not a mismatch.
	resp = postWithDigest(t, srv, "/info", data, "sha-256=:!!!not base64!!!:")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status after bad header %d", resp.StatusCode)
	}
	resp.Body.Close()
	if got := counter(reg, "cube_digest_mismatch_total"); got != 1 {
		t.Errorf("digest mismatches = %d, want still 1", got)
	}
}

func TestHandlerCacheDisabled(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := quietConfig()
	cfg.Metrics = reg
	cfg.ParseCacheBytes = 0
	srv := httptest.NewServer(NewHandler(cfg))
	defer srv.Close()

	data := encodeExp(t, buildExp("nocache", 0))
	for i := 0; i < 2; i++ {
		resp := postWithDigest(t, srv, "/info", data, "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		resp.Body.Close()
	}
	if got := counter(reg, "cube_parse_cache_hits_total") + counter(reg, "cube_parse_cache_misses_total"); got != 0 {
		t.Errorf("cache counters moved with cache disabled: %d", got)
	}
}

func TestParseContentDigest(t *testing.T) {
	sum := sha256.Sum256([]byte("payload"))
	good := "sha-256=:" + base64.StdEncoding.EncodeToString(sum[:]) + ":"
	cases := []struct {
		header string
		ok     bool
	}{
		{good, true},
		{"SHA-256=:" + base64.StdEncoding.EncodeToString(sum[:]) + ":", true},
		{"sha-512=:AAAA:, " + good, true},
		{good + ", sha-512=:AAAA:", true},
		{"", false},
		{"sha-512=:AAAA:", false},
		{"sha-256=AAAA", false},
		{"sha-256=:notbase64!!!:", false},
		{"sha-256=::", false},
		{"sha-256=:" + base64.StdEncoding.EncodeToString([]byte("short")) + ":", false},
	}
	for _, tc := range cases {
		got, ok := parseContentDigest(tc.header)
		if ok != tc.ok {
			t.Errorf("parseContentDigest(%q) ok = %v, want %v", tc.header, ok, tc.ok)
		}
		if ok && got != sum {
			t.Errorf("parseContentDigest(%q) wrong digest", tc.header)
		}
	}
}

// BenchmarkParseCacheHit measures serving a repeated operand from the
// cache. The final counter check proves every benchmark iteration was a
// hit — i.e. the operand was parsed exactly once, so no per-op
// allocation is a parse allocation.
func BenchmarkParseCacheHit(b *testing.B) {
	reg := obs.NewRegistry()
	pc := newTestParseCache(b, 1<<24, cubexml.DefaultLimits, cubexml.EngineAuto, reg)
	data := encodeExp(b, buildExp("bench", 0))
	d := store.DigestOf(data)
	if _, err := pc.shared(context.Background(), d, bytesLoader(data)); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pc.shared(context.Background(), d, bytesLoader(data)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if misses := counter(reg, "cube_parse_cache_misses_total"); misses != 1 {
		b.Fatalf("misses = %d, want 1: benchmark measured parses, not hits", misses)
	}
	if hits := counter(reg, "cube_parse_cache_hits_total"); hits != int64(b.N) {
		b.Fatalf("hits = %d, want %d", hits, b.N)
	}
}

func BenchmarkParseCacheMiss(b *testing.B) {
	pc := newParseCache(0, cubexml.DefaultLimits, cubexml.EngineAuto) // nothing cacheable
	data := encodeExp(b, buildExp("bench", 0))
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pc.shared(context.Background(), store.DigestOf(data), bytesLoader(data)); err != nil {
			b.Fatal(err)
		}
	}
}
