package store

// Fault-injection tests, modeled on internal/server's fault suite: each
// declares exactly which filesystem call fails (or tears, or crashes the
// process), runs the workload, and asserts the documented behavior — the
// crash-safety property, quarantine discipline, and degraded-mode entry,
// serving, and re-arming.

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"cube/internal/obs"
)

// TestCrashRecoveryProperty is the acceptance property: for a crash
// injected at every point of the write path, a restarted store either
// serves the blob intact (its digest verifies) or reports it absent — it
// never serves corrupt bytes. Partial on-disk leftovers land in
// quarantine, never under a committed name.
func TestCrashRecoveryProperty(t *testing.T) {
	data := blob("crashy", 2048)
	d := DigestOf(data)
	cases := []struct {
		name  string
		fault *Fault
		// committedOK: the blob may legitimately survive the crash (the
		// fault fired after the rename reached the disk).
		committedOK bool
	}{
		{"before-temp-write", &Fault{Op: "create", Path: ".tmp-", Err: syscall.EIO, Crash: true}, false},
		{"mid-write-torn", &Fault{Op: "write", Path: ".tmp-", Torn: 700, Err: syscall.EIO, Crash: true}, false},
		{"before-fsync", &Fault{Op: "sync", Path: ".tmp-", Err: syscall.EIO, Crash: true}, false},
		{"before-rename", &Fault{Op: "rename", Path: d.String(), Err: syscall.EIO, Crash: true}, false},
		{"before-dir-fsync", &Fault{Op: "syncdir", Err: syscall.EIO, Crash: true}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			ffs := NewFaultFS(nil)
			s := openTest(t, dir, Options{FS: ffs})
			ffs.Inject(tc.fault)
			if _, _, err := s.Put(data, nil); err == nil {
				t.Fatal("Put succeeded through an injected crash")
			}

			// "Restart": a fresh store over the same directory with a
			// healthy filesystem runs the recovery scan.
			reg := useRegistry(t)
			s2 := openTest(t, dir, Options{})
			got, err := s2.Get(d)
			switch {
			case err == nil:
				if !tc.committedOK {
					t.Errorf("blob served although the crash preceded commit")
				}
				if !bytes.Equal(got, data) {
					t.Fatalf("restarted store served CORRUPT bytes")
				}
			case errors.Is(err, ErrNotFound): // absent: always acceptable
			default:
				t.Fatalf("Get after restart: %v", err)
			}

			// No partial file may survive under a committed name, and any
			// leftover temp file must be in quarantine and counted.
			blobs, _ := os.ReadDir(filepath.Join(dir, "blobs"))
			for _, de := range blobs {
				if _, ok := ParseDigest(de.Name()); !ok {
					t.Errorf("uncommitted file %q survived recovery in blobs/", de.Name())
				}
			}
			quarantined, _ := os.ReadDir(filepath.Join(dir, "quarantine"))
			if want := int64(len(quarantined)); reg.Counter("cube_store_quarantined_total").Value() != want {
				t.Errorf("quarantine counter = %d, dir holds %d",
					reg.Counter("cube_store_quarantined_total").Value(), want)
			}
			if s2.Recovery.Quarantined != len(quarantined) {
				t.Errorf("Recovery.Quarantined = %d, dir holds %d", s2.Recovery.Quarantined, len(quarantined))
			}

			// The restarted store accepts the blob again and serves it.
			if _, _, err := s2.Put(data, nil); err != nil {
				t.Fatalf("Put after recovery: %v", err)
			}
			if got, err := s2.Get(d); err != nil || !bytes.Equal(got, data) {
				t.Fatalf("Get after re-Put: %v", err)
			}
		})
	}
}

// TestTornWriteLeavesEvidence pins down the torn-write case in detail:
// the truncated temp file must land in quarantine with its partial bytes
// preserved.
func TestTornWriteLeavesEvidence(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(nil)
	s := openTest(t, dir, Options{FS: ffs})
	data := blob("torn", 4096)
	ffs.Inject(&Fault{Op: "write", Path: ".tmp-", Torn: 1234, Err: syscall.EIO, Crash: true})
	if _, _, err := s.Put(data, nil); err == nil {
		t.Fatal("torn Put succeeded")
	}
	s2 := openTest(t, dir, Options{})
	if s2.Recovery.Quarantined != 1 || s2.Recovery.Intact != 0 {
		t.Fatalf("recovery = %+v, want exactly the torn temp file quarantined", s2.Recovery)
	}
	ents, err := os.ReadDir(filepath.Join(dir, "quarantine"))
	if err != nil || len(ents) != 1 {
		t.Fatalf("quarantine: %d entries, err %v", len(ents), err)
	}
	qb, err := os.ReadFile(filepath.Join(dir, "quarantine", ents[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	if len(qb) != 1234 || !bytes.Equal(qb, data[:1234]) {
		t.Errorf("quarantined evidence is %d bytes, want the 1234-byte torn prefix", len(qb))
	}
}

// TestSustainedWriteFailuresDegrade: ENOSPC on every fsync flips the
// store into degraded read-only mode after the failure threshold; reads
// keep serving; once the fault clears, the next due write probe re-arms
// the store. Mode transitions are counted.
func TestSustainedWriteFailuresDegrade(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(nil)
	reg := useRegistry(t)
	clock := time.Unix(1000, 0)
	s := openTest(t, dir, Options{
		FS:               ffs,
		FailureThreshold: 2,
		ProbeInterval:    10 * time.Second,
		now:              func() time.Time { return clock },
	})
	stored := blob("stored", 600)
	ds, _, err := s.Put(stored, nil)
	if err != nil {
		t.Fatal(err)
	}

	// The disk fills up: every further write fails at fsync.
	ffs.Inject(&Fault{Op: "sync", Path: ".tmp-", Err: syscall.ENOSPC})
	fresh := blob("fresh", 600)
	for i := 0; i < 2; i++ {
		if _, _, err := s.Put(fresh, nil); err == nil {
			t.Fatal("Put succeeded on a full disk")
		}
		clock = clock.Add(time.Second)
	}
	if deg, why := s.Degraded(); !deg || why == "" {
		t.Fatalf("store not degraded after %d write failures", 2)
	}
	// Inside the probe interval, Put fails fast without touching the disk.
	creates := ffs.Calls("create")
	if _, _, err := s.Put(fresh, nil); !errors.Is(err, ErrDegraded) {
		t.Fatalf("degraded Put err = %v, want ErrDegraded", err)
	}
	if ffs.Calls("create") != creates {
		t.Error("degraded fast-fail Put still touched the disk")
	}
	// Reads keep serving throughout.
	if got, err := s.Get(ds); err != nil || !bytes.Equal(got, stored) {
		t.Fatalf("degraded Get: %v", err)
	}

	// Fault persists: a due probe fails and the store stays degraded.
	clock = clock.Add(11 * time.Second)
	if _, _, err := s.Put(fresh, nil); errors.Is(err, ErrDegraded) || err == nil {
		t.Fatalf("due probe err = %v, want the underlying write error", err)
	}
	if deg, _ := s.Degraded(); !deg {
		t.Fatal("store re-armed although the probe failed")
	}

	// Fault clears: the next due probe succeeds and re-arms writes.
	ffs.Clear()
	clock = clock.Add(11 * time.Second)
	df, created, err := s.Put(fresh, nil)
	if err != nil || !created {
		t.Fatalf("probe after fault cleared: created=%v err=%v", created, err)
	}
	if deg, _ := s.Degraded(); deg {
		t.Fatal("store still degraded after a successful probe")
	}
	if got, err := s.Get(df); err != nil || !bytes.Equal(got, fresh) {
		t.Fatalf("Get after re-arm: %v", err)
	}
	if got := reg.Gauge("cube_store_degraded").Value(); got != 0 {
		t.Errorf("degraded gauge = %d, want 0", got)
	}
	for mode, want := range map[string]int64{"degraded": 1, "ok": 1} {
		if got := reg.Counter("cube_store_mode_transitions_total", obs.L("to", mode)).Value(); got != want {
			t.Errorf("transitions to %s = %d, want %d", mode, got, want)
		}
	}
}

// TestBelowThresholdFailuresDoNotDegrade: isolated write errors are
// retried territory, not a mode flip.
func TestBelowThresholdFailuresDoNotDegrade(t *testing.T) {
	ffs := NewFaultFS(nil)
	s := openTest(t, t.TempDir(), Options{FS: ffs, FailureThreshold: 3})
	ffs.Inject(&Fault{Op: "sync", Path: ".tmp-", Err: syscall.ENOSPC, Remaining: 2})
	data := blob("flaky", 300)
	for i := 0; i < 2; i++ {
		if _, _, err := s.Put(data, nil); err == nil {
			t.Fatal("Put succeeded through the fault")
		}
	}
	if deg, _ := s.Degraded(); deg {
		t.Fatal("two failures degraded a threshold-3 store")
	}
	// The third attempt succeeds (fault exhausted) and resets the count.
	if _, created, err := s.Put(data, nil); err != nil || !created {
		t.Fatalf("Put after transient fault: created=%v err=%v", created, err)
	}
}

// TestReadErrorQuarantines: an EIO mid-read on a committed blob must not
// surface corrupt or partial bytes — the blob is quarantined and the
// read reports not-found.
func TestReadErrorQuarantines(t *testing.T) {
	ffs := NewFaultFS(nil)
	reg := useRegistry(t)
	s := openTest(t, t.TempDir(), Options{FS: ffs})
	d, _, err := s.Put(blob("sick", 800), nil)
	if err != nil {
		t.Fatal(err)
	}
	ffs.Inject(&Fault{Op: "read", Path: d.String(), Err: syscall.EIO, Remaining: 1})
	if _, err := s.Get(d); !errors.Is(err, ErrNotFound) {
		t.Fatalf("EIO Get err = %v, want ErrNotFound", err)
	}
	if _, ok := s.Stat(d); ok {
		t.Error("unreadable blob still indexed")
	}
	if got := reg.Counter("cube_store_quarantined_total").Value(); got != 1 {
		t.Errorf("quarantined = %d, want 1", got)
	}
}
