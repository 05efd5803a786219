package selfcube

import (
	"bytes"
	"context"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"cube/internal/cubexml"
	"cube/internal/obs"
	"cube/internal/store"
)

// DefaultKeep is how many self-snapshot runs stay pinned in the store when
// SnapshotterConfig.Keep is zero.
const DefaultKeep = 32

// Run is one committed self-snapshot: a member of the process's run series.
type Run struct {
	Seq    uint64 `json:"seq"`
	Title  string `json:"title"`
	Digest string `json:"digest"`
	Bytes  int64  `json:"bytes"`
	Time   string `json:"time"` // RFC 3339, UTC
}

// SnapshotterConfig configures a Snapshotter.
type SnapshotterConfig struct {
	Collector *Collector
	Store     *store.Store
	// Interval between snapshots for Loop. Zero disables the loop (manual
	// Snapshot calls still work — tests and POST /debug/self/snapshot).
	Interval time.Duration
	// Keep bounds the run series: older runs beyond Keep are unpinned and
	// forgotten (the store may then evict them). Zero means DefaultKeep.
	Keep   int
	Logger *slog.Logger
}

// Snapshotter periodically materialises self-telemetry experiments and
// commits them to the store under a monotonic run series, keeping the
// newest Keep runs pinned so clients can always diff recent history.
type Snapshotter struct {
	cfg SnapshotterConfig

	mu   sync.Mutex
	seq  uint64
	runs []Run // oldest first, at most cfg.Keep entries
}

// NewSnapshotter validates cfg and returns a snapshotter. Collector and
// Store are required.
func NewSnapshotter(cfg SnapshotterConfig) (*Snapshotter, error) {
	if cfg.Collector == nil {
		return nil, fmt.Errorf("selfcube: snapshotter requires a collector")
	}
	if cfg.Store == nil {
		return nil, fmt.Errorf("selfcube: snapshotter requires a store")
	}
	if cfg.Keep == 0 {
		cfg.Keep = DefaultKeep
	}
	if cfg.Keep < 0 {
		return nil, fmt.Errorf("selfcube: negative keep %d", cfg.Keep)
	}
	if cfg.Interval < 0 {
		return nil, fmt.Errorf("selfcube: negative interval %v", cfg.Interval)
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	return &Snapshotter{cfg: cfg}, nil
}

// Snapshot collects one experiment, writes it as CUBE XML, commits the
// blob to the store, and pins it into the run series. It returns the new
// run. Concurrent calls serialise; each gets its own sequence number.
func (s *Snapshotter) Snapshot(ctx context.Context) (Run, error) {
	ev := obs.NewEvent("self", "self.snapshot")
	defer ev.Emit()

	s.mu.Lock()
	defer s.mu.Unlock()
	seq := s.seq + 1

	start := time.Now()
	run, err := s.snapshotLocked(obs.ContextWithEvent(ctx, ev), seq, start)
	reg := obs.ActiveRegistry()
	reg.Histogram("cube_self_snapshot_duration_seconds", obs.DefLatencyBuckets).Observe(time.Since(start).Seconds())
	if err != nil {
		reg.Counter("cube_self_snapshot_errors_total").Inc()
		ev.SetError(err.Error())
		s.cfg.Logger.Warn("self snapshot failed", slog.Uint64("seq", seq), slog.Any("err", err))
		return Run{}, err
	}
	reg.Counter("cube_self_snapshots_total").Inc()
	reg.Gauge("cube_self_series_runs").Set(int64(len(s.runs)))
	reg.Gauge("cube_self_snapshot_bytes").Set(run.Bytes)
	s.seq = seq
	s.cfg.Logger.Info("self snapshot",
		slog.Uint64("seq", run.Seq),
		slog.String("digest", run.Digest),
		slog.Int64("bytes", run.Bytes),
	)
	return run, nil
}

// snapshotLocked is Snapshot minus the bookkeeping; the caller holds s.mu.
func (s *Snapshotter) snapshotLocked(ctx context.Context, seq uint64, at time.Time) (Run, error) {
	e, err := s.cfg.Collector.Collect(seq, at)
	if err != nil {
		return Run{}, err
	}
	var buf bytes.Buffer
	if err := cubexml.WriteContext(ctx, &buf, e); err != nil {
		return Run{}, fmt.Errorf("selfcube: encode snapshot: %w", err)
	}
	d, _, err := s.cfg.Store.PutContext(ctx, buf.Bytes(), nil)
	if err != nil {
		return Run{}, fmt.Errorf("selfcube: store snapshot: %w", err)
	}
	s.cfg.Store.Pin(d)
	run := Run{
		Seq:    seq,
		Title:  e.Title,
		Digest: d.String(),
		Bytes:  int64(buf.Len()),
		Time:   at.UTC().Format(time.RFC3339Nano),
	}
	s.runs = append(s.runs, run)
	// Rotate: unpin runs past the retention bound. The store may now evict
	// them under budget pressure, but does not have to — a diff against a
	// just-rotated run keeps working until space is actually needed.
	for len(s.runs) > s.cfg.Keep {
		old := s.runs[0]
		s.runs = s.runs[1:]
		if d, ok := store.ParseDigest(old.Digest); ok {
			s.cfg.Store.Unpin(d)
		}
	}
	return run, nil
}

// Runs returns the retained run series, oldest first.
func (s *Snapshotter) Runs() []Run {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Run(nil), s.runs...)
}

// Latest returns the newest run, if any.
func (s *Snapshotter) Latest() (Run, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.runs) == 0 {
		return Run{}, false
	}
	return s.runs[len(s.runs)-1], true
}

// Loop snapshots every cfg.Interval until ctx is cancelled. Errors are
// logged (and counted) but do not stop the loop: a degraded store heals,
// and the series resumes. A zero interval returns immediately.
func (s *Snapshotter) Loop(ctx context.Context) {
	if s.cfg.Interval <= 0 {
		return
	}
	t := time.NewTicker(s.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			_, _ = s.Snapshot(ctx)
		}
	}
}
