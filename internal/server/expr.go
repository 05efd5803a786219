package server

// POST /expr — the expression endpoint: one request evaluates a whole
// algebra DAG server-side instead of one operator per round-trip.
//
// Body forms:
//
//	application/json
//	    the expression document itself; leaves must be digest refs
//	multipart/form-data
//	    field "expr" carries the document; ordered "operand" files carry
//	    inline operands addressed as `operand:<index>` (a file whose body
//	    is `digest:<sha256>` behaves like a digest leaf, as on /op)
//
// The document is a node tree — `{"op":"mean","args":[...]}` with
// `{"ref":"digest:<sha256>"}` / `{"ref":"operand:<i>"}` leaves — or
// `{"defs":{...},"expr":{...}}` naming shared subexpressions (see
// internal/expr). `{"defs":{...},"roots":[...]}` evaluates several
// expressions over one shared DAG in a single request; the response is
// then multipart/mixed with one CUBE XML part per root, in order, plus an
// X-Cube-Expr-Roots count header. Query params callmatch= and system=
// select integration options exactly as on /op/{op}.
//
// Identical subtrees are evaluated once (CSE), evaluated subexpressions
// land in a byte-budgeted expression-digest result cache, and identical
// concurrent requests share one evaluation. The response carries
// X-Cube-Expr-Nodes, X-Cube-Expr-Cse-Hits, and X-Cube-Expr-Cache
// (hit|miss) headers so callers — and the expr-smoke gate — can observe
// the sharing without scraping /metrics.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"mime/multipart"
	"net/http"
	"net/textproto"
	"strconv"
	"strings"

	"cube/internal/core"
	"cube/internal/cubexml"
	"cube/internal/expr"
	"cube/internal/obs"
	"cube/internal/store"
)

// exprOperand is one inline multipart operand of an expression request:
// either literal CUBE XML bytes or a digest reference, both reduced to
// the content digest the planner keys leaves by.
type exprOperand struct {
	data   []byte // literal bytes; nil for a digest reference
	digest store.Digest
	isRef  bool
}

func (s *service) handleExpr(w http.ResponseWriter, r *http.Request) {
	opts, err := options(r)
	if err != nil {
		httpError(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	opts.Trace = obs.SpanFromContext(r.Context())
	ev := obs.EventFromContext(r.Context())
	opts.Event = ev

	st, _ := obs.Begin(r.Context(), obs.Resolve)
	src, operands, err := s.readExprBody(r)
	st.End(err)
	if err != nil {
		s.exprError(w, r, err, http.StatusBadRequest)
		return
	}

	// Parse, validate, and canonicalize as the expr.plan stage: the
	// plan's node count, CSE hits, and depth are the span attributes that
	// explain the evaluation that follows.
	st, _ = obs.Begin(r.Context(), obs.ExprPlan)
	plan, err := s.planExpr(src, operands)
	if sp := st.Span(); sp != nil && err == nil {
		sp.SetAttr("nodes", len(plan.Nodes))
		sp.SetAttr("cse_hits", plan.CSEHits)
		sp.SetAttr("depth", plan.Depth)
	}
	st.End(err)
	if err != nil {
		s.exprError(w, r, err, http.StatusBadRequest)
		return
	}

	// Every digest leaf is pinned when it resolves and stays pinned until
	// evaluation is over, so budget-pressure eviction cannot pull an
	// operand out from under the running expression.
	var pinned []store.Digest
	defer s.unpin(&pinned)
	resolve := s.exprResolver(operands, &pinned)
	var results []*core.Experiment
	var stats expr.Stats
	if len(plan.Roots) > 1 {
		results, stats, err = s.expr.EvalMulti(r.Context(), plan, opts, resolve)
	} else {
		results = make([]*core.Experiment, 1)
		results[0], stats, err = s.expr.Eval(r.Context(), plan, opts, resolve)
	}
	if err != nil {
		if r.Context().Err() == nil { // else the timeout middleware already answered
			s.exprError(w, r, err, http.StatusUnprocessableEntity)
		}
		return
	}
	ev.SetOp(plan.Root.Op())
	ev.SetExprStats(stats.Nodes, stats.CSEHits, stats.CacheHits, stats.Evaluated)
	s.exprHeaders(w, stats)
	if ctxDone(w, r) {
		return
	}
	if len(results) > 1 {
		w.Header().Set("X-Cube-Expr-Roots", strconv.Itoa(len(results)))
		s.writeExperimentParts(w, r, results)
	} else {
		s.writeExperiment(w, r, results[0])
	}
}

// exprHeaders stamps the evaluation-stat response headers shared by the
// single-root and batched forms of POST /expr.
func (s *service) exprHeaders(w http.ResponseWriter, stats expr.Stats) {
	w.Header().Set("X-Cube-Expr-Nodes", strconv.Itoa(stats.Nodes))
	w.Header().Set("X-Cube-Expr-Cse-Hits", strconv.Itoa(stats.CSEHits))
	cacheState := "miss"
	if stats.RootCached {
		cacheState = "hit"
	}
	w.Header().Set("X-Cube-Expr-Cache", cacheState)
}

// writeExperimentParts answers a batched expression with a multipart/mixed
// body carrying one document per root, in root order, each in the
// negotiated format. Like writeExperiment, every document is encoded
// before the first response byte, so encoding failures become a clean 500
// rather than a truncated multipart stream.
func (s *service) writeExperimentParts(w http.ResponseWriter, r *http.Request, results []*core.Experiment) {
	f := responseFormat(r)
	parts := make([][]byte, len(results))
	size := 0
	for i, e := range results {
		var err error
		if parts[i], err = cubexml.Encode(r.Context(), e, f); err != nil {
			s.logError(r.Context(), "encoding result experiment",
				slog.String("title", e.Title), slog.Any("err", err))
			httpError(w, r, http.StatusInternalServerError, "encoding root %d: %v", i, err)
			return
		}
		size += len(parts[i])
	}
	hdr := textproto.MIMEHeader{"Content-Type": {f.ContentType()}}
	// Per part, the boundary line (60-byte boundary) and the Content-Type
	// header take under 128 bytes besides the type itself.
	body := bytes.NewBuffer(make([]byte, 0, size+len(parts)*(128+len(f.ContentType()))+128))
	mw := multipart.NewWriter(body)
	for _, part := range parts {
		pw, err := mw.CreatePart(hdr)
		if err != nil {
			httpError(w, r, http.StatusInternalServerError, "assembling multipart response: %v", err)
			return
		}
		pw.Write(part)
	}
	mw.Close()
	w.Header().Set("Content-Type", "multipart/mixed; boundary="+mw.Boundary())
	writeBody(w, body.Bytes())
}

// planExpr parses and canonicalizes the expression document against the
// request's inline operands.
func (s *service) planExpr(src []byte, operands []exprOperand) (*expr.Plan, error) {
	ex, err := expr.Parse(src, expr.Limits{MaxNodes: s.cfg.MaxExprNodes, MaxDepth: s.cfg.MaxExprDepth})
	if err != nil {
		return nil, err
	}
	if m := ex.MaxOperandRef(); m >= len(operands) {
		return nil, fmt.Errorf("expression references operand:%d but the request carries %d operand file(s)", m, len(operands))
	}
	return ex.Plan(func(i int) ([sha256.Size]byte, error) {
		return [sha256.Size]byte(operands[i].digest), nil
	})
}

// exprResolver supplies leaf experiments to the evaluation engine and the
// operand routes: inline operands parse through the content-addressed
// parse cache, and digest leaves resolve through it too, reading the
// store only on a miss (pinned into *pinned for the caller to release).
// Both come back as the cache's shared masters: operators never mutate
// operands, so a repeat request over the same content digest reuses the
// cached master's sealed severity block outright instead of copying it
// (counted as cube_lower_cache_hits_total).
func (s *service) exprResolver(operands []exprOperand, pinned *[]store.Digest) expr.Resolver {
	return func(ctx context.Context, leaf expr.Leaf) (*core.Experiment, error) {
		switch leaf.Kind {
		case expr.LeafOperand:
			op := operands[leaf.Operand]
			if op.isRef {
				return s.resolveDigestLeaf(ctx, op.digest, pinned)
			}
			return s.sharedExperiment(ctx, op.digest, op.data)
		case expr.LeafDigest:
			d, ok := store.ParseDigest(leaf.Digest)
			if !ok {
				return nil, fmt.Errorf("bad digest ref %q", leaf.Digest)
			}
			return s.resolveDigestLeaf(ctx, d, pinned)
		default:
			return nil, fmt.Errorf("unknown leaf kind %d", leaf.Kind)
		}
	}
}

// resolveDigestLeaf turns a digest reference into a parsed experiment:
// pin (recorded in *pinned; the caller unpins), then ask the parse cache,
// which is keyed by the same content digest. Only a miss reads and
// verifies the blob, inside the cache's flight, so concurrent misses read
// it once. A cached master was parsed from bytes that were verified when
// they were read (or uploaded), so serving it keeps the store's guarantee
// that corrupt bytes are never served; a blob corrupted on disk since is
// quarantined by the first read after its master leaves the cache. A
// cache-answered leaf reports the store's recorded blob size as its
// operand bytes.
func (s *service) resolveDigestLeaf(ctx context.Context, d store.Digest, pinned *[]store.Digest) (*core.Experiment, error) {
	st := s.cfg.Store
	if st == nil {
		return nil, fmt.Errorf("digest reference %s but no experiment store is configured", d)
	}
	pin, _ := obs.Begin(ctx, obs.Resolve)
	if !st.Pin(d) {
		err := &storeMissError{digest: d.String()}
		pin.End(err)
		return nil, err
	}
	*pinned = append(*pinned, d)
	pin.Count(obs.StorePins, 1)
	pin.End(nil)
	size := int64(-1)
	read := func() ([]byte, error) {
		data, err := st.GetContext(ctx, d)
		if errors.Is(err, store.ErrNotFound) {
			return nil, &storeMissError{digest: d.String()}
		}
		if err == nil {
			size = int64(len(data))
		}
		return data, err
	}
	var e *core.Experiment
	var err error
	if s.cache != nil {
		e, err = s.cache.shared(ctx, d, read)
	} else if data, rerr := read(); rerr != nil {
		err = rerr
	} else {
		e, err = cubexml.ReadBytes(ctx, data, cubexml.ReadOptions{Limits: s.cfg.XML, Engine: s.cfg.ReadEngine, XMLOnly: true})
	}
	if err == nil && size < 0 {
		size, _ = st.Stat(d) // pinned, so still indexed
	}
	if size >= 0 {
		obs.EventFromContext(ctx).AddOperand("digest", size)
		statsFrom(ctx).add(size)
	}
	return e, err
}

// sharedExperiment parses inline operand bytes, whose content digest is
// d, through the parse cache when it is enabled. The result is read-only.
func (s *service) sharedExperiment(ctx context.Context, d store.Digest, data []byte) (*core.Experiment, error) {
	if s.cache != nil {
		return s.cache.shared(ctx, d, bytesLoader(data))
	}
	return cubexml.ReadBytes(ctx, data, cubexml.ReadOptions{Limits: s.cfg.XML, Engine: s.cfg.ReadEngine, XMLOnly: true})
}

// unpin releases the store pins a request's resolution took.
func (s *service) unpin(pinned *[]store.Digest) {
	for _, d := range *pinned {
		s.cfg.Store.Unpin(d)
	}
}

// resolveOperands reads the request's ordered "operand" parts and
// resolves each exactly as an expression leaf. The experiments are the
// parse cache's shared masters: callers only read them. Store pins are held until every operand has resolved.
func (s *service) resolveOperands(r *http.Request) ([]*core.Experiment, error) {
	st, _ := obs.Begin(r.Context(), obs.Resolve)
	parts, err := s.readOperandForm(r)
	st.End(err)
	if err != nil {
		return nil, err
	}
	if len(parts) == 0 {
		return nil, errors.New(`no "operand" files in request`)
	}
	var pinned []store.Digest
	defer s.unpin(&pinned)
	resolve := s.exprResolver(parts, &pinned)
	out := make([]*core.Experiment, len(parts))
	for i := range parts {
		if out[i], err = resolve(r.Context(), expr.Leaf{Kind: expr.LeafOperand, Operand: i}); err != nil {
			return nil, fmt.Errorf("operand %d: %w", i, err)
		}
	}
	return out, nil
}

// readOperandForm reads a multipart form of ordered "operand" parts.
func (s *service) readOperandForm(r *http.Request) ([]exprOperand, error) {
	if err := r.ParseMultipartForm(8 << 20); err != nil {
		return nil, fmt.Errorf("parsing multipart form: %w", err)
	}
	return s.readOperandParts(r)
}

// readExprBody extracts the expression document and the inline operands
// from the request: a bare application/json body, or a multipart form
// with an "expr" field plus ordered "operand" files.
func (s *service) readExprBody(r *http.Request) ([]byte, []exprOperand, error) {
	ct := r.Header.Get("Content-Type")
	if strings.HasPrefix(ct, "application/json") || ct == "" {
		src, err := io.ReadAll(r.Body)
		if err != nil {
			return nil, nil, fmt.Errorf("reading expression body: %w", err)
		}
		return src, nil, nil
	}
	if err := r.ParseMultipartForm(8 << 20); err != nil {
		return nil, nil, fmt.Errorf("parsing multipart form: %w (POST /expr takes application/json or multipart/form-data)", err)
	}
	var src []byte
	switch {
	case len(r.MultipartForm.Value["expr"]) > 0:
		src = []byte(r.MultipartForm.Value["expr"][0])
	case len(r.MultipartForm.File["expr"]) > 0:
		f, err := r.MultipartForm.File["expr"][0].Open()
		if err != nil {
			return nil, nil, fmt.Errorf(`"expr" part: %w`, err)
		}
		src, err = io.ReadAll(f)
		f.Close()
		if err != nil {
			return nil, nil, fmt.Errorf(`"expr" part: %w`, err)
		}
	default:
		return nil, nil, fmt.Errorf(`no "expr" field in multipart request`)
	}
	operands, err := s.readOperandParts(r)
	return src, operands, err
}

// readOperandParts reads the parsed multipart form's ordered "operand"
// parts, enforcing the operand-count and per-file-byte caps and checking
// each inline part's Content-Digest header. A part whose body is
// `digest:<sha256>` becomes a digest reference; every other part is kept
// as literal bytes under their content digest.
func (s *service) readOperandParts(r *http.Request) ([]exprOperand, error) {
	files := r.MultipartForm.File["operand"]
	if s.cfg.MaxOperands > 0 && len(files) > s.cfg.MaxOperands {
		return nil, fmt.Errorf("%w: %d operands exceed the limit of %d", errTooLarge, len(files), s.cfg.MaxOperands)
	}
	stats := statsFrom(r.Context())
	ev := obs.EventFromContext(r.Context())
	operands := make([]exprOperand, 0, len(files))
	for i, fh := range files {
		if err := r.Context().Err(); err != nil {
			return nil, err
		}
		if s.cfg.MaxFileBytes > 0 && fh.Size > s.cfg.MaxFileBytes {
			return nil, fmt.Errorf("%w: operand %d is %d bytes (per-file limit %d)", errTooLarge, i, fh.Size, s.cfg.MaxFileBytes)
		}
		f, err := fh.Open()
		if err != nil {
			return nil, fmt.Errorf("operand %d: %w", i, err)
		}
		data, err := io.ReadAll(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("operand %d: %w", i, err)
		}
		if len(data) <= digestRefPeek {
			if d, ok := parseDigestRef(data); ok {
				operands = append(operands, exprOperand{digest: d, isRef: true})
				continue
			}
		}
		d := store.DigestOf(data)
		if err := s.verifyDigest(r.Context(), fmt.Sprintf("operand %d (%s)", i, fh.Filename),
			fh.Header.Get("Content-Digest"), d, len(data)); err != nil {
			return nil, err
		}
		stats.add(int64(len(data)))
		ev.AddOperand("inline", int64(len(data)))
		operands = append(operands, exprOperand{data: data, digest: d})
	}
	return operands, nil
}

// exprError maps an expression or operand error onto a status: 400 for
// structural expression errors, 404 for an unknown /op operator or a
// digest the store does not hold, 413 for size-guard violations and
// domains too large for the severity store (core.DomainError),
// otherwise the phase default (400 while reading the request, 422 once
// evaluation started).
func (s *service) exprError(w http.ResponseWriter, r *http.Request, err error, fallback int) {
	if r.Context().Err() != nil {
		return // the timeout middleware already answered
	}
	code := fallback
	var pe *expr.ParseError
	var miss *storeMissError
	var mbe *http.MaxBytesError
	var de *core.DomainError
	switch {
	case errors.As(err, &pe):
		code = http.StatusBadRequest
	case errors.As(err, &miss), errors.Is(err, expr.ErrUnknownOp):
		code = http.StatusNotFound
	case errors.As(err, &mbe), errors.Is(err, errTooLarge), errors.Is(err, cubexml.ErrLimit),
		errors.As(err, &de), strings.Contains(err.Error(), "request body too large"):
		code = http.StatusRequestEntityTooLarge
	}
	httpError(w, r, code, "%v", err)
}
