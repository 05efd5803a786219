// Package store is a disk-backed content-addressed experiment store:
// blobs (CUBE XML documents) are named by the SHA-256 of their bytes,
// written crash-safely, verified against their digest on every read, and
// bounded by an LRU byte budget. It is the state layer under the server's
// /experiments routes and digest-referenced operands — operands cross the
// wire once and are referenced by digest afterwards.
//
// Robustness properties, in order of importance:
//
//   - Crash safety. A blob is committed by: temp file in the blob
//     directory → write → fsync → atomic rename to its digest name →
//     fsync of the directory. A crash at any point leaves either the
//     committed blob or no blob — never a half-written file under a
//     committed name.
//   - Corruption quarantine. Every read re-hashes the bytes; a mismatch
//     (bit rot, torn write that slipped through, operator error) moves
//     the file into quarantine/ — never deleted, never served — and the
//     read reports not-found. The startup recovery scan applies the same
//     rule to every file it finds, including leftover temp files.
//   - Degraded read-only mode. Sustained write failures (a full or dying
//     disk) or an unsatisfiable byte budget flip the store to read-only:
//     Put fails fast with ErrDegraded while Get/Stat keep serving, and
//     periodic write probes re-arm the store when the fault clears.
//
// All filesystem access goes through the FS seam (fs.go) so every one of
// those paths is deterministically testable with FaultFS (faultfs.go).
package store

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"path/filepath"
	"sync"
	"time"

	"cube/internal/obs"
)

// Sentinel errors returned by Put/Get. They are wrapped with context;
// test with errors.Is.
var (
	// ErrNotFound: the digest is not in the store (including blobs that
	// failed verification and were quarantined).
	ErrNotFound = errors.New("store: experiment not found")
	// ErrDegraded: the store is in read-only mode; retry later.
	ErrDegraded = errors.New("store: degraded (read-only) mode")
	// ErrTooLarge: the blob alone exceeds the whole byte budget.
	ErrTooLarge = errors.New("store: blob exceeds the store budget")
	// ErrDigestMismatch: the caller-supplied digest does not match the
	// bytes (a Put integrity violation — the upload is rejected).
	ErrDigestMismatch = errors.New("store: content does not match digest")
)

// Digest is a SHA-256 content address.
type Digest [sha256.Size]byte

// DigestOf returns the content address of data.
func DigestOf(data []byte) Digest { return sha256.Sum256(data) }

// String renders the digest as lowercase hex (the on-disk blob name and
// the wire format in /experiments/{digest} and digest: operand refs).
func (d Digest) String() string { return hex.EncodeToString(d[:]) }

// ParseDigest parses a 64-char hex digest.
func ParseDigest(s string) (Digest, bool) {
	var d Digest
	if len(s) != hex.EncodedLen(sha256.Size) {
		return d, false
	}
	if _, err := hex.Decode(d[:], []byte(s)); err != nil {
		return d, false
	}
	return d, true
}

// Options configures Open. The zero value is usable: OS filesystem,
// unlimited budget, no logging, default failure thresholds.
//
// The store records its counters and gauges (see the README metric
// catalog) into the process-wide registry (obs.SetRegistry) and its kind
// "store" wide events — evictions, quarantines, degraded-mode enter/exit
// and the recovery scan — into the process-wide sink (obs.SetEventSink).
// Both are looked up at each record, so install them before Open for the
// recovery scan to be seen.
type Options struct {
	// FS is the filesystem seam; nil means the real OS filesystem.
	FS FS
	// Budget bounds the total committed blob bytes; least-recently-used
	// unpinned blobs are evicted to stay under it. 0 means unlimited.
	Budget int64
	// Logger receives recovery-scan, quarantine, and mode-transition
	// reports. nil disables logging.
	Logger *slog.Logger
	// FailureThreshold is how many consecutive Put write failures flip
	// the store into degraded mode (default 3; a budget breach degrades
	// immediately regardless).
	FailureThreshold int
	// ProbeInterval is how often a degraded store lets a Put through as
	// a write probe to test whether the fault has cleared (default 5s).
	ProbeInterval time.Duration

	// now overrides the clock in tests.
	now func() time.Time
}

// RecoveryStats summarizes what the startup recovery scan found.
type RecoveryStats struct {
	Intact      int   // blobs that verified and were re-indexed
	IntactBytes int64 // their total size
	Quarantined int   // corrupt blobs, leftover temp files, foreign files
	Evicted     int   // intact blobs evicted to fit the budget
}

// Store is a content-addressed blob store rooted at one directory. It is
// safe for concurrent use.
type Store struct {
	dir       string // root; blobs live in dir/blobs, casualties in dir/quarantine
	blobDir   string
	quarDir   string
	fs        FS
	budget    int64
	logger    *slog.Logger
	threshold int
	probe     time.Duration
	now       func() time.Time

	// Recovery reports what Open's scan found; read-only afterwards.
	Recovery RecoveryStats

	mu            sync.Mutex
	entries       map[Digest]*entry
	lru           *list.List // of *entry; front = most recently used
	bytes         int64      // committed blob bytes
	reserved      int64      // bytes of in-flight Puts, held against the budget
	seq           int64      // unique suffix for temp and quarantine names
	writeFailures int        // consecutive Put write failures
	degraded      bool
	degradedWhy   string
	lastProbe     time.Time

	// Lifetime operation counters and the bounded quarantine log, for
	// Inventory (the /debug/store introspection endpoint).
	puts, gets, getMisses, evictions int64
	quarantines                      []QuarantineRecord
}

// QuarantineRecord is one quarantined file, kept (bounded) for
// introspection; the file itself sits in quarantine/ as evidence.
type QuarantineRecord struct {
	Name   string    `json:"name"`   // blob-directory name the file had
	Reason string    `json:"reason"` // why it was quarantined
	Time   time.Time `json:"time"`
}

// maxQuarantineRecords bounds the in-memory quarantine log; the ring
// keeps the most recent records (the directory holds the full history).
const maxQuarantineRecords = 64

type entry struct {
	d    Digest
	size int64
	pins int // >0 blocks eviction: the blob is in use by a request
	el   *list.Element
}

// Open opens (creating if needed) the store rooted at dir and runs the
// recovery scan: every file under dir/blobs is re-hashed; intact blobs
// are re-indexed, and corrupt blobs, partial temp files, and foreign
// files are quarantined. Open fails only if the directories cannot be
// created or listed — individual bad blobs never prevent startup.
func Open(dir string, opts Options) (*Store, error) {
	s := &Store{
		dir:       dir,
		blobDir:   filepath.Join(dir, "blobs"),
		quarDir:   filepath.Join(dir, "quarantine"),
		fs:        opts.FS,
		budget:    opts.Budget,
		logger:    opts.Logger,
		threshold: opts.FailureThreshold,
		probe:     opts.ProbeInterval,
		now:       opts.now,
		entries:   map[Digest]*entry{},
		lru:       list.New(),
	}
	if s.fs == nil {
		s.fs = OSFS{}
	}
	if s.threshold <= 0 {
		s.threshold = 3
	}
	if s.probe <= 0 {
		s.probe = 5 * time.Second
	}
	if s.now == nil {
		s.now = time.Now
	}
	for _, d := range []string{s.blobDir, s.quarDir} {
		if err := s.fs.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("store: creating %s: %w", d, err)
		}
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	return s, nil
}

// recover re-indexes dir/blobs: verify every file against its name,
// quarantine everything that does not hold, then evict down to the
// budget. Runs before the store is shared, so no locking.
func (s *Store) recover() error {
	ents, err := s.fs.ReadDir(s.blobDir)
	if err != nil {
		return fmt.Errorf("store: scanning %s: %w", s.blobDir, err)
	}
	for _, de := range ents {
		name := de.Name()
		if de.IsDir() {
			continue
		}
		d, ok := ParseDigest(name)
		if !ok {
			// Leftover temp file (crash mid-Put) or a foreign file:
			// either way a partial write we must not trust.
			s.quarantineLocked(name, "not a committed blob")
			s.Recovery.Quarantined++
			continue
		}
		data, rerr := s.readFile(filepath.Join(s.blobDir, name))
		if rerr != nil || DigestOf(data) != d {
			why := "digest mismatch"
			if rerr != nil {
				why = rerr.Error()
			}
			s.quarantineLocked(name, why)
			s.Recovery.Quarantined++
			continue
		}
		s.insertLocked(d, int64(len(data)))
		s.Recovery.Intact++
		s.Recovery.IntactBytes += int64(len(data))
	}
	// The surviving set may exceed the budget (it may have been lowered
	// since the blobs were written); evict in directory order — no access
	// history survives a restart.
	for s.budget > 0 && s.bytes > s.budget {
		if !s.evictOneLocked(nil) {
			break
		}
		s.Recovery.Evicted++
	}
	obs.ActiveRegistry().Counter("cube_store_recovered_blobs_total").Add(int64(s.Recovery.Intact))
	s.publishGauges()
	s.emitLifecycle("recovery", "", fmt.Sprintf(
		"%d intact (%d bytes), %d quarantined, %d evicted",
		s.Recovery.Intact, s.Recovery.IntactBytes, s.Recovery.Quarantined, s.Recovery.Evicted))
	if s.logger != nil {
		s.logger.Info("experiment store recovered",
			slog.String("dir", s.dir),
			slog.Int("intact", s.Recovery.Intact),
			slog.Int64("bytes", s.Recovery.IntactBytes),
			slog.Int("quarantined", s.Recovery.Quarantined),
			slog.Int("evicted", s.Recovery.Evicted))
	}
	return nil
}

// publishGauges pushes the size gauges; callers hold s.mu (or own the
// store exclusively, during recovery).
func (s *Store) publishGauges() {
	reg := obs.ActiveRegistry()
	reg.Gauge("cube_store_blobs").Set(int64(len(s.entries)))
	reg.Gauge("cube_store_bytes").Set(s.bytes)
}

// emitLifecycle reports one store lifecycle transition as a kind "store"
// wide event to the process-wide sink (one atomic load; a no-op when none
// is installed).
func (s *Store) emitLifecycle(event, digest, detail string) {
	ev := obs.NewEvent("store", "")
	ev.SetStoreLifecycle(event, digest, detail)
	ev.Emit()
}

func (s *Store) blobPath(d Digest) string { return filepath.Join(s.blobDir, d.String()) }

// readFile reads one file through the FS seam.
func (s *Store) readFile(path string) ([]byte, error) {
	f, err := s.fs.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return io.ReadAll(f)
}

// quarantineLocked moves one blob-directory file into quarantine/ under a
// unique name. The file is never deleted — it is evidence — and never
// served again. Callers must already have dropped it from the index.
func (s *Store) quarantineLocked(name, why string) {
	s.seq++
	dst := filepath.Join(s.quarDir, fmt.Sprintf("%s.%d.%d", name, s.now().UnixNano(), s.seq))
	err := s.fs.Rename(filepath.Join(s.blobDir, name), dst)
	obs.ActiveRegistry().Counter("cube_store_quarantined_total").Inc()
	s.quarantines = append(s.quarantines, QuarantineRecord{Name: name, Reason: why, Time: s.now()})
	if len(s.quarantines) > maxQuarantineRecords {
		s.quarantines = s.quarantines[len(s.quarantines)-maxQuarantineRecords:]
	}
	s.emitLifecycle("quarantine", name, why)
	if s.logger != nil {
		s.logger.Error("experiment store quarantined a blob",
			slog.String("blob", name),
			slog.String("reason", why),
			slog.String("quarantine", dst),
			slog.Any("rename_err", err))
	}
}

// insertLocked adds a committed blob to the index (idempotent).
func (s *Store) insertLocked(d Digest, size int64) *entry {
	if e, ok := s.entries[d]; ok {
		s.lru.MoveToFront(e.el)
		return e
	}
	e := &entry{d: d, size: size}
	e.el = s.lru.PushFront(e)
	s.entries[d] = e
	s.bytes += size
	s.publishGauges()
	return e
}

// dropLocked removes an entry from the index (the file is handled by the
// caller: evicted files are removed, corrupt ones quarantined).
func (s *Store) dropLocked(e *entry) {
	s.lru.Remove(e.el)
	delete(s.entries, e.d)
	s.bytes -= e.size
	s.publishGauges()
}

// evictOneLocked drops the least-recently-used unpinned blob and removes
// its file, tracing the eviction as a "store.evict" child of sp (the Put
// that caused the pressure) when traced. Reports false when nothing is
// evictable (all pinned/empty).
func (s *Store) evictOneLocked(sp *obs.Span) bool {
	for el := s.lru.Back(); el != nil; el = el.Prev() {
		e := el.Value.(*entry)
		if e.pins > 0 {
			continue
		}
		esp := sp.StartChild("store.evict")
		s.dropLocked(e)
		obs.ActiveRegistry().Counter("cube_store_evictions_total").Inc()
		s.evictions++
		if err := s.fs.Remove(s.blobPath(e.d)); err != nil && s.logger != nil {
			// The entry is already unindexed, so the blob is not served
			// either way; the next recovery scan re-adopts the file.
			s.logger.Error("experiment store failed to remove evicted blob",
				slog.String("digest", e.d.String()), slog.Any("err", err))
		}
		s.emitLifecycle("evict", e.d.String(), fmt.Sprintf("%d bytes under budget pressure", e.size))
		if esp != nil {
			esp.SetAttr("digest", e.d.String())
			esp.SetAttr("bytes", e.size)
			esp.End()
		}
		return true
	}
	return false
}

// setDegradedLocked flips the store's mode, logging and counting the
// transition exactly once per flip.
func (s *Store) setDegradedLocked(degraded bool, why string) {
	if s.degraded == degraded {
		return
	}
	s.degraded, s.degradedWhy = degraded, why
	mode := "ok"
	event := "degraded_exit"
	if degraded {
		mode = "degraded"
		event = "degraded_enter"
	}
	s.emitLifecycle(event, "", why)
	v := int64(0)
	if degraded {
		v = 1
	}
	reg := obs.ActiveRegistry()
	reg.Gauge("cube_store_degraded").Set(v)
	reg.Counter("cube_store_mode_transitions_total", obs.L("to", mode)).Inc()
	if s.logger != nil {
		s.logger.Warn("experiment store mode transition",
			slog.String("to", mode), slog.String("reason", why))
	}
}

// Degraded reports whether the store is in read-only mode and why.
func (s *Store) Degraded() (bool, string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.degraded, s.degradedWhy
}

// Len and Bytes report the committed index size.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

func (s *Store) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// Stat reports whether d is committed and its size, without touching the
// LRU order or the disk.
func (s *Store) Stat(d Digest) (int64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[d]; ok {
		return e.size, true
	}
	return 0, false
}

// Pin marks d as in use by an in-flight request: a pinned blob is never
// evicted, whatever the budget pressure. A pin is a use, so it also makes
// d the most recently used blob: a blob whose reads a cache above the
// store answers is still only ever pinned, and must not age out while it
// is hot. Reports false if d is absent. Every successful Pin must be
// paired with an Unpin.
func (s *Store) Pin(d Digest) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[d]
	if !ok {
		return false
	}
	e.pins++
	s.lru.MoveToFront(e.el)
	return true
}

// Unpin releases one Pin of d.
func (s *Store) Unpin(d Digest) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[d]; ok && e.pins > 0 {
		e.pins--
	}
}

// Put commits data under its content address. It reports the digest and
// whether the blob is new (false: it was already committed — Put is
// idempotent and the existing blob is simply touched). want, if non-nil,
// is the digest the caller believes the bytes have; a mismatch is
// rejected with ErrDigestMismatch before anything touches the disk.
//
// Failure modes: ErrDegraded (read-only mode; retry later), ErrTooLarge
// (blob alone exceeds the budget), or the underlying write error — which
// counts toward the sustained-failure threshold that flips the store into
// degraded mode.
func (s *Store) Put(data []byte, want *Digest) (Digest, bool, error) {
	return s.PutContext(context.Background(), data, want)
}

// PutContext is Put carrying a context for observability: the commit is
// one store stage (span "store.put", child of the span in ctx) annotated
// with the blob size and the digest-verification time; evictions it
// forces appear as "store.evict" children, and the wide event in ctx (if
// any) is credited with the write.
func (s *Store) PutContext(ctx context.Context, data []byte, want *Digest) (Digest, bool, error) {
	st, _ := obs.Begin(ctx, obs.Store)
	vstart := time.Now()
	d := DigestOf(data)
	sp := st.Span()
	if sp != nil {
		sp.SetAttr("verify_seconds", time.Since(vstart).Seconds())
	}
	dig, created, err := s.put(sp, d, data, want)
	if sp != nil {
		sp.SetAttr("digest", dig.String())
		sp.SetAttr("created", created)
	}
	if err == nil {
		st.Count(obs.StorePuts, 1)
		st.Count(obs.StoreBytes, int64(len(data)))
	}
	st.End(err)
	return dig, created, err
}

func (s *Store) put(sp *obs.Span, d Digest, data []byte, want *Digest) (Digest, bool, error) {
	if want != nil && *want != d {
		return d, false, fmt.Errorf("%w: bytes hash to %s, caller claimed %s", ErrDigestMismatch, d, want)
	}
	size := int64(len(data))

	s.mu.Lock()
	if e, ok := s.entries[d]; ok {
		s.lru.MoveToFront(e.el)
		s.mu.Unlock()
		return d, false, nil
	}
	if s.budget > 0 && size > s.budget {
		s.mu.Unlock()
		obs.ActiveRegistry().Counter("cube_store_put_errors_total").Inc()
		return d, false, fmt.Errorf("%w: %d bytes against a %d byte budget", ErrTooLarge, size, s.budget)
	}
	if s.degraded {
		// Probe at most once per interval: the Put below doubles as the
		// write probe, and success re-arms the store.
		if s.now().Sub(s.lastProbe) < s.probe {
			why := s.degradedWhy
			s.mu.Unlock()
			return d, false, fmt.Errorf("%w: %s", ErrDegraded, why)
		}
		s.lastProbe = s.now()
	}
	// Reserve the bytes against the budget before writing so concurrent
	// Puts cannot collectively overshoot it.
	for s.budget > 0 && s.bytes+s.reserved+size > s.budget {
		if !s.evictOneLocked(sp) {
			s.setDegradedLocked(true, fmt.Sprintf(
				"budget breached: %d committed + %d in-flight + %d new bytes exceed %d and every blob is pinned",
				s.bytes, s.reserved, size, s.budget))
			s.lastProbe = s.now()
			s.mu.Unlock()
			obs.ActiveRegistry().Counter("cube_store_put_errors_total").Inc()
			return d, false, fmt.Errorf("%w: budget breached with all blobs pinned", ErrDegraded)
		}
	}
	s.reserved += size
	s.seq++
	tmp := filepath.Join(s.blobDir, fmt.Sprintf(".tmp-%s-%d", d, s.seq))
	s.mu.Unlock()

	err := s.writeBlob(tmp, s.blobPath(d), data)

	s.mu.Lock()
	defer s.mu.Unlock()
	s.reserved -= size
	if err != nil {
		obs.ActiveRegistry().Counter("cube_store_put_errors_total").Inc()
		s.writeFailures++
		if s.writeFailures >= s.threshold {
			s.setDegradedLocked(true, fmt.Sprintf("%d consecutive write failures, last: %v", s.writeFailures, err))
			s.lastProbe = s.now()
		} else if s.degraded {
			// A failed probe: stay degraded, refresh the reason.
			s.degradedWhy = fmt.Sprintf("write probe failed: %v", err)
		}
		return d, false, fmt.Errorf("store: writing blob %s: %w", d, err)
	}
	s.writeFailures = 0
	s.setDegradedLocked(false, "")
	s.insertLocked(d, size)
	s.puts++
	// New blobs only; obs.StorePuts also counts an already-stored blob.
	obs.ActiveRegistry().Counter("cube_store_put_total").Inc()
	return d, true, nil
}

// writeBlob runs the crash-safety protocol: temp file in the blob
// directory → write → fsync → close → atomic rename to the digest name →
// fsync of the directory. Any failure leaves at worst a temp file, which
// the next recovery scan quarantines; the committed name only ever
// appears with fully durable bytes behind it.
func (s *Store) writeBlob(tmp, final string, data []byte) error {
	f, err := s.fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("create temp: %w", err)
	}
	cleanup := func() { s.fs.Remove(tmp) } // best effort; recovery catches leftovers
	if _, err := f.Write(data); err != nil {
		f.Close()
		cleanup()
		return fmt.Errorf("write: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		cleanup()
		return fmt.Errorf("fsync: %w", err)
	}
	if err := f.Close(); err != nil {
		cleanup()
		return fmt.Errorf("close: %w", err)
	}
	if err := s.fs.Rename(tmp, final); err != nil {
		cleanup()
		return fmt.Errorf("rename: %w", err)
	}
	if err := s.fs.SyncDir(s.blobDir); err != nil {
		// The rename happened but its durability is unknown; report the
		// failure (the caller must not assume the blob survives a crash).
		// The file itself is intact, so if it does survive, the recovery
		// scan re-indexes it — both outcomes are safe.
		return fmt.Errorf("fsync dir: %w", err)
	}
	return nil
}

// Get returns the committed bytes of d. Every read is verified: the bytes
// are re-hashed, and on a mismatch the blob is quarantined and the read
// reports ErrNotFound — corrupt bytes are never served.
func (s *Store) Get(d Digest) ([]byte, error) {
	return s.GetContext(context.Background(), d)
}

// GetContext is Get carrying a context for observability: the read is
// a resolve stage (span "store.get", child of the span in ctx) annotated
// with the blob size and the verification time, and the wide event in ctx
// (if any) is credited with the read.
func (s *Store) GetContext(ctx context.Context, d Digest) ([]byte, error) {
	st, _ := obs.Begin(ctx, obs.StoreGet)
	data, verify, err := s.get(d)
	if sp := st.Span(); sp != nil {
		sp.SetAttr("digest", d.String())
		sp.SetAttr("verify_seconds", verify.Seconds())
	}
	if err == nil {
		st.Count(obs.StoreGets, 1)
		st.Count(obs.StoreBytes, int64(len(data)))
	}
	st.End(err)
	return data, err
}

func (s *Store) get(d Digest) ([]byte, time.Duration, error) {
	s.mu.Lock()
	e, ok := s.entries[d]
	if !ok {
		s.getMisses++
		s.mu.Unlock()
		obs.ActiveRegistry().Counter("cube_store_get_misses_total").Inc()
		return nil, 0, fmt.Errorf("%w: %s", ErrNotFound, d)
	}
	s.lru.MoveToFront(e.el)
	e.pins++ // transient pin: the file must not be evicted mid-read
	s.mu.Unlock()

	data, err := s.readFile(s.blobPath(d))
	vstart := time.Now()
	verified := err == nil && DigestOf(data) == d
	verify := time.Since(vstart)

	s.mu.Lock()
	defer s.mu.Unlock()
	e.pins--
	if !verified {
		// Corrupt or unreadable under a committed name: quarantine and
		// fall through to not-found. Re-check the index first — a
		// concurrent Get may have already quarantined it.
		if _, still := s.entries[d]; still {
			s.dropLocked(e)
			why := "digest mismatch on read"
			if err != nil {
				why = err.Error()
			}
			s.quarantineLocked(d.String(), why)
		}
		s.getMisses++
		obs.ActiveRegistry().Counter("cube_store_get_misses_total").Inc()
		return nil, verify, fmt.Errorf("%w: %s (failed verification)", ErrNotFound, d)
	}
	s.gets++ // GetContext counts the hit as obs.StoreGets
	return data, verify, nil
}

// Inventory is the store's introspection snapshot, served by the
// server's /debug/store endpoint.
type Inventory struct {
	Blobs       int     `json:"blobs"`
	Bytes       int64   `json:"bytes"`
	Budget      int64   `json:"budget"`   // 0 = unlimited
	Reserved    int64   `json:"reserved"` // in-flight Put bytes held against the budget
	Pressure    float64 `json:"pressure"` // (bytes+reserved)/budget; 0 when unlimited
	PinnedBlobs int     `json:"pinned_blobs"`
	Pins        int     `json:"pins"` // total pin count across blobs

	Degraded       bool   `json:"degraded"`
	DegradedReason string `json:"degraded_reason,omitempty"`

	Puts      int64 `json:"puts"`
	Gets      int64 `json:"gets"`
	GetMisses int64 `json:"get_misses"`
	Evictions int64 `json:"evictions"`

	Quarantined []QuarantineRecord `json:"quarantined"` // most recent first
	Recovery    RecoveryStats      `json:"recovery"`
}

// Inventory reports the store's current state: index size and budget
// pressure, pin and degraded status, lifetime operation counts, the
// bounded quarantine log (most recent first), and what the startup
// recovery scan found.
func (s *Store) Inventory() Inventory {
	s.mu.Lock()
	defer s.mu.Unlock()
	inv := Inventory{
		Blobs:          len(s.entries),
		Bytes:          s.bytes,
		Budget:         s.budget,
		Reserved:       s.reserved,
		Degraded:       s.degraded,
		DegradedReason: s.degradedWhy,
		Puts:           s.puts,
		Gets:           s.gets,
		GetMisses:      s.getMisses,
		Evictions:      s.evictions,
		Recovery:       s.Recovery,
	}
	if s.budget > 0 {
		inv.Pressure = float64(s.bytes+s.reserved) / float64(s.budget)
	}
	for _, e := range s.entries {
		if e.pins > 0 {
			inv.PinnedBlobs++
			inv.Pins += e.pins
		}
	}
	inv.Quarantined = make([]QuarantineRecord, len(s.quarantines))
	for i, q := range s.quarantines {
		inv.Quarantined[len(s.quarantines)-1-i] = q
	}
	return inv
}
