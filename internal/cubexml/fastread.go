package cubexml

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"cube/internal/core"
	"cube/internal/obs"
)

// The fast read path. The document is buffered once (pooled), mapped by
// the byte lexer in scan.go, and then split: metadata decodes through the
// existing validated encoding/xml pipeline with the severity sections
// spliced out of the stream, while the severity rows — the bulk of any
// real file — are parsed in parallel straight out of the buffer into the
// packed-key columnar store via core.SeverityIngest, one goroutine per
// <matrix>, bounded by GOMAXPROCS. No intermediate severity map, no xml
// tokens, no per-value string allocations.
//
// The engine switch mirrors the kernel layer's Auto|Kernel|Legacy split:
// the legacy decoder stays the executable specification, EngineAuto (the
// default everywhere) must be observationally identical to it — same
// experiments, same errors, same Limits accounting — and the equivalence
// property tests in fastread_test.go hold the two to that.

// ReadEngine selects the parser implementation.
type ReadEngine int

const (
	// EngineAuto runs the fast scanner and falls back silently to the
	// legacy decoder for documents outside the fast-path subset. This is
	// the default used by Read, ReadLimited, and friends.
	EngineAuto ReadEngine = iota
	// EngineFast runs the fast scanner and reports an error instead of
	// falling back; tests and benchmarks use it to assert the fast path
	// actually engaged.
	EngineFast
	// EngineLegacy is the original encoding/xml pipeline, kept as the
	// reference implementation the equivalence properties compare against.
	EngineLegacy
)

// ParseReadEngine parses a -read-engine flag value.
func ParseReadEngine(s string) (ReadEngine, error) {
	switch s {
	case "", "auto":
		return EngineAuto, nil
	case "fast":
		return EngineFast, nil
	case "legacy":
		return EngineLegacy, nil
	}
	return 0, fmt.Errorf("cubexml: unknown read engine %q (want auto, fast, or legacy)", s)
}

func (e ReadEngine) String() string {
	switch e {
	case EngineAuto:
		return "auto"
	case EngineFast:
		return "fast"
	case EngineLegacy:
		return "legacy"
	}
	return fmt.Sprintf("ReadEngine(%d)", int(e))
}

// ReadOptions bundles the knobs of a parse. The zero value means no
// structural limits and the auto engine.
type ReadOptions struct {
	Limits Limits     // structural caps; zero fields disable the checks
	Engine ReadEngine // parser selection; EngineAuto by default
	// XMLOnly makes ReadBytes refuse columnar bodies: the service's
	// uploads and its store hold CUBE XML only.
	XMLOnly bool
}

// ReadWith parses a CUBE XML document from r under the given options,
// as one parse stage (span "cubexml.read").
func ReadWith(ctx context.Context, r io.Reader, opts ReadOptions) (*core.Experiment, error) {
	st, _ := obs.Begin(ctx, obs.Parse)
	e, err := readFast(r, nil, opts, &st, fastDecode, readLimited)
	endRead(&st, err)
	return e, err
}

// ReadBytes parses a complete document held in memory: CUBE XML, or a
// columnar body (ColumnarType), which its magic line tells apart — no XML
// document starts with it. Callers that already own the bytes (the
// server's parse cache) skip the buffering copy this way.
func ReadBytes(ctx context.Context, data []byte, opts ReadOptions) (*core.Experiment, error) {
	st, _ := obs.Begin(ctx, obs.Parse)
	var e *core.Experiment
	var err error
	if !opts.XMLOnly && bytes.HasPrefix(data, []byte(columnarMagic)) {
		e, err = readColumnar(data, opts, &st)
	} else {
		e, err = readFast(nil, data, opts, &st, fastDecode, readLimited)
	}
	endRead(&st, err)
	return e, err
}

// endRead ends a parse stage, counting its outcome: a completed parse, a
// document rejected by Limits, or a failed parse (syntax, validation,
// reader failure).
func endRead(st *obs.Stage, err error) {
	switch {
	case err == nil:
		st.Count(obs.XMLReads, 1)
	case errors.Is(err, ErrLimit):
		st.Count(obs.XMLLimitRejections, 1)
	case err != errBail:
		st.Count(obs.XMLReadErrors, 1)
	}
	st.End(err)
}

// readBufPool recycles the document buffers of the fast path; parses of
// similar-sized files stop paying the io.ReadAll growth dance.
var readBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 64<<10); return &b }}

// readFast is the fast read path: it buffers r (unless the document is
// already in data), scans it, and decodes it with fast. A document
// outside the fast-path subset is re-read through the full legacy
// pipeline, so it gets the canonical result and the canonical error
// text; EngineLegacy goes there directly. A parse the fast path completes
// counts its bytes — and its elements when a limit scan ran — exactly as
// the legacy pipeline does.
func readFast[T any](r io.Reader, data []byte, opts ReadOptions, st *obs.Stage,
	fast func([]byte, *scanResult) (T, error), legacy func(io.Reader, Limits, *obs.Stage) (T, error)) (T, error) {
	var zero T
	if opts.Engine == EngineLegacy {
		if r == nil {
			r = bytes.NewReader(data)
		}
		return legacy(r, opts.Limits, st)
	}
	if r != nil {
		bp := readBufPool.Get().(*[]byte)
		var err error
		data, err = readAllInto((*bp)[:0], r)
		*bp = data[:0]
		defer readBufPool.Put(bp)
		if err != nil {
			// The same wrapping the legacy token scan gives reader failures.
			return zero, fmt.Errorf("cubexml: decode: %w", err)
		}
	}
	lim := opts.Limits
	res, err := scanDoc(data, lim)
	if errors.Is(err, ErrLimit) {
		st.Count(obs.XMLReadElements, int64(res.elements))
		return zero, err
	}
	if err == nil {
		out, err := fast(data, &res)
		if !errors.Is(err, errBail) {
			if lim.MaxElements > 0 || lim.MaxDepth > 0 {
				st.Count(obs.XMLReadElements, int64(res.elements))
			}
			st.Count(obs.XMLReadBytes, int64(len(data)))
			return out, err
		}
	}
	if opts.Engine == EngineFast {
		return zero, errBail
	}
	return legacy(bytes.NewReader(data), lim, st)
}

// readAllInto is io.ReadAll appending into a caller-owned buffer.
func readAllInto(buf []byte, r io.Reader) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// metaReader returns a reader over the document with the severity
// sections spliced out, feeding the metadata decoder exactly the elements
// it will interpret.
func metaReader(data []byte, res *scanResult) io.Reader {
	segs := make([]io.Reader, 0, len(res.sevRanges)+1)
	prev := 0
	for _, rg := range res.sevRanges {
		segs = append(segs, bytes.NewReader(data[prev:rg[0]]))
		prev = rg[1]
	}
	segs = append(segs, bytes.NewReader(data[prev:res.rootEnd]))
	return io.MultiReader(segs...)
}

// sevChunk is one matrix's parsed severity tuples.
type sevChunk struct {
	mi     int // metric enumeration index
	keys   []uint64
	vals   []float64
	sorted bool
	err    error
}

func fastDecode(data []byte, res *scanResult) (*core.Experiment, error) {
	e, metricByID, cnodeByID, err := buildMeta(metaReader(data, res))
	if err != nil {
		// Metadata errors bail so the legacy pipeline derives the
		// canonical message (decoder line numbers included) from the
		// unspliced document.
		return nil, errBail
	}

	// XML ids → enumeration indices. The metadata builder guarantees the
	// id maps are injective, so distinct ids mean distinct indices.
	nT := len(e.Threads())
	miByID := make(map[int]int, len(metricByID))
	{
		idx := make(map[*core.Metric]int, len(metricByID))
		for i, m := range e.Metrics() {
			idx[m] = i
		}
		for id, m := range metricByID {
			miByID[id] = idx[m]
		}
	}
	ciByID := make(map[int]int, len(cnodeByID))
	{
		idx := make(map[*core.CallNode]int, len(cnodeByID))
		for i, c := range e.CallNodes() {
			idx[c] = i
		}
		for id, c := range cnodeByID {
			ciByID[id] = idx[c]
		}
	}

	ing, err := e.NewSeverityIngest()
	if err != nil {
		return nil, err
	}
	chunks := make([]sevChunk, len(res.matrices))
	parseMatrices(data, res.matrices, chunks, miByID, ciByID, nT, ing)

	// First failing matrix in document order wins, matching the legacy
	// decoder's sequential walk. chunks is still in document order here.
	for i := range chunks {
		if err := chunks[i].err; err != nil {
			if errors.Is(err, errBail) {
				return nil, errBail
			}
			return nil, err
		}
	}

	// Matrices appear in the file in arbitrary metric order; the packed
	// key's most-significant component is the metric index, so ordering
	// chunks by it makes the concatenation globally sorted whenever each
	// chunk is internally sorted — Commit then skips the radix sort.
	sort.Slice(chunks, func(a, b int) bool { return chunks[a].mi < chunks[b].mi })
	total := 0
	allSorted := true
	for i := range chunks {
		total += len(chunks[i].keys)
		allSorted = allSorted && chunks[i].sorted
	}
	keys := make([]uint64, 0, total)
	vals := make([]float64, 0, total)
	for i := range chunks {
		keys = append(keys, chunks[i].keys...)
		vals = append(vals, chunks[i].vals...)
	}
	ing.Commit(keys, vals, allSorted)

	if err := e.Validate(); err != nil {
		return nil, fmt.Errorf("cubexml: file describes an invalid experiment: %w", err)
	}
	return e, nil
}

// parseMatrices fans the matrices out over up to GOMAXPROCS workers. Each
// matrix parses independently into its own chunk, so the only shared
// state is the read-only input and the result slot per matrix.
func parseMatrices(data []byte, ms []matrixShape, chunks []sevChunk, miByID, ciByID map[int]int, nT int, ing *core.SeverityIngest) {
	workers := runtime.GOMAXPROCS(0)
	if workers > len(ms) {
		workers = len(ms)
	}
	if workers <= 1 {
		var spans [][2]int
		for i := range ms {
			chunks[i] = parseMatrix(data, &ms[i], miByID, ciByID, nT, ing, &spans)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var spans [][2]int // worker-local field-span scratch
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ms) {
					return
				}
				chunks[i] = parseMatrix(data, &ms[i], miByID, ciByID, nT, ing, &spans)
			}
		}()
	}
	wg.Wait()
}

// parseMatrix converts one matrix's rows into packed (key, value) pairs.
// Error messages are byte-identical to the legacy severity loop; rows
// whose semantics the fast path cannot reproduce (duplicate cnode ids —
// last-write-wins in the legacy store) report errBail.
func parseMatrix(data []byte, m *matrixShape, miByID, ciByID map[int]int, nT int, ing *core.SeverityIngest, spanScratch *[][2]int) sevChunk {
	mi, ok := miByID[m.metricID]
	if !ok {
		return sevChunk{err: fmt.Errorf("cubexml: severity matrix references unknown metric id %d", m.metricID)}
	}
	if dupRows(m.rows) {
		return sevChunk{err: errBail}
	}
	keys := make([]uint64, 0, len(m.rows)*nT)
	vals := make([]float64, 0, len(m.rows)*nT)
	sorted := true
	var lastKey uint64
	spans := *spanScratch
	for _, row := range m.rows {
		ci, ok := ciByID[row.cnode]
		if !ok {
			return sevChunk{err: fmt.Errorf("cubexml: severity row references unknown call node id %d", row.cnode)}
		}
		text := data[row.textStart:row.textEnd]
		var bail bool
		spans, bail = splitFields(text, spans[:0])
		if bail {
			*spanScratch = spans
			return sevChunk{err: errBail}
		}
		if len(spans) != nT {
			*spanScratch = spans
			return sevChunk{err: fmt.Errorf("cubexml: severity row for metric %d cnode %d has %d values, want %d (one per thread)",
				m.metricID, row.cnode, len(spans), nT)}
		}
		rowKey := ing.RowKey(mi, ci)
		for ti, f := range spans {
			fb := text[f[0]:f[1]]
			v, err := parseFloat(fb)
			if err != nil {
				*spanScratch = spans
				return sevChunk{err: fmt.Errorf("cubexml: bad severity value %q: %w", fb, err)}
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				*spanScratch = spans
				return sevChunk{err: fmt.Errorf("cubexml: non-finite severity %q for metric %d, call node %d, thread %d",
					fb, m.metricID, row.cnode, ti)}
			}
			if v == 0 {
				continue // absent tuples read back as zero; SetSeverity(0) deletes
			}
			k := rowKey + uint64(ti)
			if len(keys) > 0 && k <= lastKey {
				sorted = false
			}
			lastKey = k
			keys = append(keys, k)
			vals = append(vals, v)
		}
	}
	*spanScratch = spans
	return sevChunk{mi: mi, keys: keys, vals: vals, sorted: sorted}
}

// splitFields records the [start, end) spans of the whitespace-separated
// fields of text, reproducing strings.Fields over the character data the
// decoder would have produced. bail is true for bytes the decoder treats
// specially (entities), rejects (control characters), or whose whitespace
// classification needs unicode (anything non-ASCII) — those documents go
// to the legacy pipeline.
func splitFields(text []byte, spans [][2]int) (_ [][2]int, bail bool) {
	start := -1
	for i := 0; i < len(text); i++ {
		c := text[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			if start >= 0 {
				spans = append(spans, [2]int{start, i})
				start = -1
			}
		case c == '&' || c >= 0x80 || c < 0x20:
			return spans, true
		default:
			if start < 0 {
				start = i
			}
		}
	}
	if start >= 0 {
		spans = append(spans, [2]int{start, len(text)})
	}
	return spans, false
}

// dupRows reports whether any cnode id repeats within one matrix. The
// common case — rows emitted in ascending cnode order — is decided with
// one comparison pass and no allocation.
func dupRows(rows []rowShape) bool {
	ascending := true
	for i := 1; i < len(rows); i++ {
		if rows[i].cnode <= rows[i-1].cnode {
			ascending = false
			break
		}
	}
	if ascending {
		return false
	}
	seen := make(map[int]struct{}, len(rows))
	for _, r := range rows {
		if _, dup := seen[r.cnode]; dup {
			return true
		}
		seen[r.cnode] = struct{}{}
	}
	return false
}

// --- Metadata-only reads ---------------------------------------------------------

// Info summarises a CUBE document without building its severity store:
// the metadata experiment plus streamed severity statistics. After a
// legacy fallback Experiment also carries the severities; the Info fields
// are authoritative either way.
type Info struct {
	// Experiment holds the document's metadata (metric forest, program
	// and system dimensions, topology, provenance).
	Experiment *core.Experiment
	// NonZero counts the non-zero severity tuples in the document.
	NonZero int
	// MetricTotal sums each metric's severity matrix; metrics without a
	// matrix are absent (read as 0).
	MetricTotal map[*core.Metric]float64
}

// ReadInfo reads the document's metadata and severity statistics without
// materialising the severity store — the cheap path for summaries over
// huge files (cube-info).
func ReadInfo(ctx context.Context, r io.Reader, opts ReadOptions) (*Info, error) {
	st, _ := obs.Begin(ctx, obs.Parse)
	if sp := st.Span(); sp != nil {
		sp.SetAttr("mode", "info")
	}
	info, err := readFast(r, nil, opts, &st, infoDecode, func(r io.Reader, lim Limits, st *obs.Stage) (*Info, error) {
		e, err := readLimited(r, lim, st)
		if err != nil {
			return nil, err
		}
		return infoFromExperiment(e), nil
	})
	endRead(&st, err)
	return info, err
}

// infoDecode streams the severity statistics with the same error
// semantics (messages and ordering) as a full decode.
func infoDecode(data []byte, res *scanResult) (*Info, error) {
	e, metricByID, cnodeByID, err := buildMeta(metaReader(data, res))
	if err != nil {
		return nil, errBail
	}
	nT := len(e.Threads())
	info := &Info{Experiment: e, MetricTotal: make(map[*core.Metric]float64, len(res.matrices))}
	var spans [][2]int
	for i := range res.matrices {
		m := &res.matrices[i]
		met, ok := metricByID[m.metricID]
		if !ok {
			return nil, fmt.Errorf("cubexml: severity matrix references unknown metric id %d", m.metricID)
		}
		if dupRows(m.rows) {
			return nil, errBail
		}
		total := 0.0
		for _, row := range m.rows {
			if _, ok := cnodeByID[row.cnode]; !ok {
				return nil, fmt.Errorf("cubexml: severity row references unknown call node id %d", row.cnode)
			}
			text := data[row.textStart:row.textEnd]
			var bail bool
			spans, bail = splitFields(text, spans[:0])
			if bail {
				return nil, errBail
			}
			if len(spans) != nT {
				return nil, fmt.Errorf("cubexml: severity row for metric %d cnode %d has %d values, want %d (one per thread)",
					m.metricID, row.cnode, len(spans), nT)
			}
			for ti, f := range spans {
				fb := text[f[0]:f[1]]
				v, err := parseFloat(fb)
				if err != nil {
					return nil, fmt.Errorf("cubexml: bad severity value %q: %w", fb, err)
				}
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return nil, fmt.Errorf("cubexml: non-finite severity %q for metric %d, call node %d, thread %d",
						fb, m.metricID, row.cnode, ti)
				}
				if v != 0 {
					info.NonZero++
					total += v
				}
			}
		}
		info.MetricTotal[met] = total
	}
	if err := e.Validate(); err != nil {
		return nil, fmt.Errorf("cubexml: file describes an invalid experiment: %w", err)
	}
	return info, nil
}

// infoFromExperiment derives the statistics from a fully parsed
// experiment (legacy engine or fallback).
func infoFromExperiment(e *core.Experiment) *Info {
	info := &Info{Experiment: e, NonZero: e.NonZeroCount(), MetricTotal: map[*core.Metric]float64{}}
	e.EachSeverity(func(m *core.Metric, c *core.CallNode, t *core.Thread, v float64) {
		info.MetricTotal[m] += v
	})
	return info
}
