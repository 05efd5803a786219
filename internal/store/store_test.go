package store

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"cube/internal/obs"
)

func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

func openTest(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	if opts.Logger == nil {
		opts.Logger = quietLogger()
	}
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s
}

// useRegistry installs a fresh registry as the process-wide one for the
// rest of the test and returns it.
func useRegistry(t *testing.T) *obs.Registry {
	reg := obs.NewRegistry()
	obs.SetRegistry(reg)
	t.Cleanup(func() { obs.SetRegistry(nil) })
	return reg
}

// useSink installs a fresh event sink of n events as the process-wide one
// for the rest of the test and returns it.
func useSink(t *testing.T, n int) *obs.EventSink {
	sink := obs.NewEventSink(n)
	obs.SetEventSink(sink)
	t.Cleanup(func() { obs.SetEventSink(nil) })
	return sink
}

func blob(tag string, n int) []byte {
	b := bytes.Repeat([]byte(tag), n/len(tag)+1)
	return b[:n]
}

func TestParseDigest(t *testing.T) {
	d := DigestOf([]byte("payload"))
	got, ok := ParseDigest(d.String())
	if !ok || got != d {
		t.Fatalf("ParseDigest(%s) = %v, %v", d, got, ok)
	}
	for _, bad := range []string{"", "xyz", d.String()[:63], d.String() + "0", "G" + d.String()[1:]} {
		if _, ok := ParseDigest(bad); ok {
			t.Errorf("ParseDigest(%q) accepted", bad)
		}
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	dir := t.TempDir()
	reg := useRegistry(t)
	s := openTest(t, dir, Options{})

	data := blob("a", 1000)
	d, created, err := s.Put(data, nil)
	if err != nil || !created {
		t.Fatalf("Put: created=%v err=%v", created, err)
	}
	if d != DigestOf(data) {
		t.Fatal("Put returned the wrong digest")
	}
	// Idempotent: the same bytes are not rewritten.
	if _, created, err = s.Put(data, nil); err != nil || created {
		t.Fatalf("repeat Put: created=%v err=%v, want false, nil", created, err)
	}
	if size, ok := s.Stat(d); !ok || size != 1000 {
		t.Fatalf("Stat = %d, %v", size, ok)
	}
	got, err := s.Get(d)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("Get: %v (equal=%v)", err, bytes.Equal(got, data))
	}
	if _, err := s.Get(DigestOf([]byte("absent"))); !errors.Is(err, ErrNotFound) {
		t.Fatalf("absent Get err = %v, want ErrNotFound", err)
	}
	// A declared digest that does not match the bytes is rejected.
	wrong := DigestOf([]byte("other"))
	if _, _, err := s.Put(data, &wrong); !errors.Is(err, ErrDigestMismatch) {
		t.Fatalf("mismatched Put err = %v, want ErrDigestMismatch", err)
	}
	if hits := reg.Counter("cube_store_get_hits_total").Value(); hits != 1 {
		t.Errorf("get hits = %d, want 1", hits)
	}

	// The blob survives a restart.
	s2 := openTest(t, dir, Options{})
	if s2.Recovery.Intact != 1 || s2.Recovery.Quarantined != 0 {
		t.Fatalf("recovery = %+v, want 1 intact", s2.Recovery)
	}
	got, err = s2.Get(d)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("Get after reopen: %v", err)
	}
}

func TestEvictionLRUAndPinning(t *testing.T) {
	dir := t.TempDir()
	reg := useRegistry(t)
	s := openTest(t, dir, Options{Budget: 2500})

	a, b, c := blob("a", 1000), blob("b", 1000), blob("c", 1000)
	da, _, _ := s.Put(a, nil)
	db, _, _ := s.Put(b, nil)
	if _, _, err := s.Put(c, nil); err != nil {
		t.Fatal(err)
	}
	// a was least recently used and is gone; b and c remain.
	if _, ok := s.Stat(da); ok {
		t.Error("LRU blob survived eviction")
	}
	if _, ok := s.Stat(db); !ok {
		t.Error("recent blob was evicted")
	}
	if ev := reg.Counter("cube_store_evictions_total").Value(); ev != 1 {
		t.Errorf("evictions = %d, want 1", ev)
	}
	if s.Bytes() > 2500 {
		t.Errorf("store holds %d bytes over the 2500 budget", s.Bytes())
	}

	// Pin b: the next Put must evict c (LRU order says b, but it is in
	// use by an in-flight request).
	if !s.Pin(db) {
		t.Fatal("Pin(b) failed")
	}
	dd, _, err := s.Put(blob("d", 1000), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Stat(db); !ok {
		t.Error("pinned blob was evicted")
	}
	if _, ok := s.Stat(DigestOf(c)); ok {
		t.Error("unpinned blob survived while a pinned one should have been skipped")
	}

	// Everything pinned: the budget cannot be met, the store degrades.
	s.Pin(dd)
	_, _, err = s.Put(blob("e", 1000), nil)
	if !errors.Is(err, ErrDegraded) {
		t.Fatalf("Put with all blobs pinned: err = %v, want ErrDegraded", err)
	}
	if deg, why := s.Degraded(); !deg || why == "" {
		t.Fatalf("store not degraded after budget breach (%v, %q)", deg, why)
	}
	// Reads still serve while degraded.
	if got, err := s.Get(db); err != nil || !bytes.Equal(got, b) {
		t.Fatalf("degraded Get: %v", err)
	}
	// Unpinning frees the budget; the next probe re-arms writes.
	s.Unpin(db)
	s.Unpin(dd)
	s.mu.Lock()
	s.lastProbe = s.lastProbe.Add(-2 * s.probe) // make the probe due now
	s.mu.Unlock()
	if _, created, err := s.Put(blob("e", 1000), nil); err != nil || !created {
		t.Fatalf("Put after unpin: created=%v err=%v", created, err)
	}
	if deg, _ := s.Degraded(); deg {
		t.Error("store still degraded after a successful probe")
	}
}

func TestOversizedBlobRejectedWithoutDegrading(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{Budget: 100})
	_, _, err := s.Put(blob("x", 200), nil)
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
	if deg, _ := s.Degraded(); deg {
		t.Error("an oversized client upload degraded the store")
	}
}

func TestGetQuarantinesCorruptBlob(t *testing.T) {
	dir := t.TempDir()
	reg := useRegistry(t)
	s := openTest(t, dir, Options{})
	data := blob("q", 500)
	d, _, err := s.Put(data, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the committed file behind the store's back (bit rot).
	path := filepath.Join(dir, "blobs", d.String())
	if err := os.WriteFile(path, blob("X", 500), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(d); !errors.Is(err, ErrNotFound) {
		t.Fatalf("corrupt Get err = %v, want ErrNotFound (never corrupt bytes)", err)
	}
	if _, ok := s.Stat(d); ok {
		t.Error("corrupt blob still indexed")
	}
	if got := reg.Counter("cube_store_quarantined_total").Value(); got != 1 {
		t.Errorf("quarantined = %d, want 1", got)
	}
	quarantined, err := os.ReadDir(filepath.Join(dir, "quarantine"))
	if err != nil || len(quarantined) != 1 {
		t.Fatalf("quarantine dir: %v entries, err %v (corrupt blobs are kept, not deleted)", len(quarantined), err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("corrupt blob still present under its committed name")
	}
}

func TestRecoveryQuarantinesCorruptAndPartialFiles(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{})
	good := blob("good", 400)
	dg, _, err := s.Put(good, nil)
	if err != nil {
		t.Fatal(err)
	}
	bad := blob("bad", 400)
	db, _, err := s.Put(bad, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt one committed blob and plant a leftover temp file and a
	// foreign file, then "restart".
	blobs := filepath.Join(dir, "blobs")
	if err := os.WriteFile(filepath.Join(blobs, db.String()), blob("EVIL", 400), 0o644); err != nil {
		t.Fatal(err)
	}
	os.WriteFile(filepath.Join(blobs, ".tmp-deadbeef-7"), blob("partial", 100), 0o644)
	os.WriteFile(filepath.Join(blobs, "README"), []byte("not a blob"), 0o644)

	reg := useRegistry(t)
	s2 := openTest(t, dir, Options{})
	if s2.Recovery.Intact != 1 || s2.Recovery.Quarantined != 3 {
		t.Fatalf("recovery = %+v, want 1 intact / 3 quarantined", s2.Recovery)
	}
	if got, err := s2.Get(dg); err != nil || !bytes.Equal(got, good) {
		t.Fatalf("intact blob lost in recovery: %v", err)
	}
	if _, err := s2.Get(db); !errors.Is(err, ErrNotFound) {
		t.Fatalf("corrupt blob served after recovery: %v", err)
	}
	if got := reg.Counter("cube_store_quarantined_total").Value(); got != 3 {
		t.Errorf("quarantined counter = %d, want 3", got)
	}
	ents, _ := os.ReadDir(filepath.Join(dir, "quarantine"))
	if len(ents) != 3 {
		t.Errorf("quarantine holds %d files, want 3", len(ents))
	}
}

func TestRecoveryEvictsDownToBudget(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{})
	for i := 0; i < 4; i++ {
		if _, _, err := s.Put(blob(fmt.Sprintf("blob%d", i), 1000), nil); err != nil {
			t.Fatal(err)
		}
	}
	// Reopen with a smaller budget: the scan must evict down to it.
	s2 := openTest(t, dir, Options{Budget: 2500})
	if s2.Recovery.Evicted != 2 {
		t.Fatalf("recovery evicted %d, want 2 (%+v)", s2.Recovery.Evicted, s2.Recovery)
	}
	if s2.Bytes() > 2500 || s2.Len() != 2 {
		t.Fatalf("post-recovery store: %d blobs, %d bytes", s2.Len(), s2.Bytes())
	}
}

// TestConcurrentPutGet hammers the store from many goroutines under a
// small budget so puts, gets, evictions, and verification interleave;
// run under -race this is the store's data-race check. The invariant:
// every Get returns either the exact original bytes or ErrNotFound.
func TestConcurrentPutGet(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{Budget: 5000})
	var docs [][]byte
	var digests []Digest
	for i := 0; i < 8; i++ {
		d := blob(fmt.Sprintf("doc%d", i), 900+i)
		docs = append(docs, d)
		digests = append(digests, DigestOf(d))
	}
	const workers, iters = 8, 40
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < iters; i++ {
				k := r.Intn(len(docs))
				if r.Intn(2) == 0 {
					// ErrDegraded is legal here: transient read pins can
					// momentarily make every blob unevictable.
					if _, _, err := s.Put(docs[k], nil); err != nil && !errors.Is(err, ErrDegraded) {
						t.Errorf("Put: %v", err)
						return
					}
					continue
				}
				got, err := s.Get(digests[k])
				switch {
				case err == nil:
					if !bytes.Equal(got, docs[k]) {
						t.Errorf("Get(%d) returned corrupt bytes", k)
						return
					}
				case errors.Is(err, ErrNotFound): // evicted: fine
				default:
					t.Errorf("Get: %v", err)
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
	if s.Bytes() > 5000 {
		t.Errorf("store exceeded its budget: %d bytes", s.Bytes())
	}
}
