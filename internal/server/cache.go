package server

import (
	"context"
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"strings"

	"cube/internal/core"
	"cube/internal/cubexml"
	"cube/internal/lru"
	"cube/internal/obs"
	"cube/internal/store"
)

// parseCache is the server's content-addressed experiment cache: operand
// bytes are keyed by their SHA-256, and a repeated operand is answered with
// the cached parse instead of another trip through the XML decoder.
// Typical algebra workflows resubmit the same experiments many times
// (a - b, then mean(a, c), then a view of a), so the same bytes arrive over
// and over.
//
// Masters in the cache are sealed (core.Experiment.CompactSeverities)
// before anyone sees them and handed out shared: a sealed experiment is
// immutable under reads, operators never mutate operands, and the
// display and report code only reads. Concurrent
// misses on the same key load and parse once; the rest wait and share the
// result or the error. The cache holds at most budget bytes of operand
// input, evicting least-recently-used entries; an operand larger than the
// whole budget is parsed but never cached. Input bytes over-charge an
// entry: a decoded master occupies about two thirds of its XML (a
// 32×128×32 run: 1.12 MB of XML, 0.75 MB of heap). Charging resident
// bytes instead would let the same budget hold about 1.5× more masters,
// so the budget is kept on the safe side.
type parseCache struct {
	limits cubexml.Limits
	engine cubexml.ReadEngine
	lru    *lru.Cache[store.Digest, parsed]
}

// parsed is one cached master.
type parsed struct {
	e *core.Experiment
	// meta is e's metadata digest, recorded at ingest so sealed-block
	// reuse across requests is keyed by (content digest, metadata digest)
	// without re-walking the forests on every request.
	meta [sha256.Size]byte
}

// newParseCache returns a parse cache holding at most budget bytes of
// operand input; its size and evictions are published by the LRU, its hits
// and misses through the stage table (obs.ParseCache).
func newParseCache(budget int64, lim cubexml.Limits, engine cubexml.ReadEngine) *parseCache {
	return &parseCache{
		limits: lim,
		engine: engine,
		lru:    lru.New[store.Digest, parsed](budget, "cube_parse_cache"),
	}
}

// bytesLoader supplies operand bytes the caller already holds.
func bytesLoader(data []byte) func() ([]byte, error) {
	return func() ([]byte, error) { return data, nil }
}

// shared returns the cached master for content digest d — zero-copy reuse
// of its sealed severity block. load supplies the bytes on a miss. The
// caller must treat the result as strictly read-only.
func (pc *parseCache) shared(ctx context.Context, d store.Digest, load func() ([]byte, error)) (*core.Experiment, error) {
	ent, err := pc.lookup(ctx, d, load, true)
	return ent.e, err
}

// lookup returns the cached master for content digest d, as one
// parse-cache stage. On a miss it calls load for the bytes and parses
// them; a hit never calls load. An operand lookup also counts
// lowered-block reuse: a repeat request over the same content digest
// serves the master's columnar block outright instead of copying it, and
// the first parse, which necessarily builds the block, is the miss that
// populates the cache. A "wait" shared another request's parse, which is
// a hit from this request's cost perspective.
func (pc *parseCache) lookup(ctx context.Context, d store.Digest, load func() ([]byte, error), operand bool) (parsed, error) {
	st, _ := obs.Begin(ctx, obs.ParseCache)
	var data []byte
	ent, outcome, err := pc.lru.Do(d, func() (parsed, int64, error) {
		var err error
		if data, err = load(); err != nil {
			return parsed{}, 0, err
		}
		st.Count(obs.ParseCacheMisses, 1)
		master, err := cubexml.ReadBytes(ctx, data, cubexml.ReadOptions{Limits: pc.limits, Engine: pc.engine, XMLOnly: true})
		if err != nil {
			return parsed{}, 0, err
		}
		// Seal the severities and record the metadata digest before the
		// master becomes visible to anyone: from here on, every consumer
		// only ever reads it.
		master.CompactSeverities()
		return parsed{e: master, meta: master.MetaDigest()}, int64(len(data)), nil
	})
	hit := outcome != lru.Miss
	if err == nil {
		if hit {
			st.Count(obs.ParseCacheHits, 1)
		}
		if operand && hit {
			st.Count(obs.LowerCacheHits, 1)
		} else if operand {
			st.Count(obs.LowerCacheMisses, 1)
		}
	}
	if sp := st.Span(); sp != nil {
		sp.SetAttr("outcome", outcome.String())
		sp.SetAttr("bytes", int64(len(data))) // 0 unless this call loaded them
		if err == nil {
			sp.SetAttr("meta", hex.EncodeToString(ent.meta[:6]))
		}
	}
	st.End(err)
	return ent, err
}

// parseContentDigest extracts the sha-256 digest from an RFC 9530
// Content-Digest header value ("sha-256=:BASE64:", possibly one of a
// comma-separated list). ok is false when the header carries no sha-256
// entry or it does not decode.
func parseContentDigest(header string) (digest [sha256.Size]byte, ok bool) {
	for _, part := range strings.Split(header, ",") {
		alg, val, found := strings.Cut(strings.TrimSpace(part), "=")
		if !found || !strings.EqualFold(strings.TrimSpace(alg), "sha-256") {
			continue
		}
		val = strings.TrimSpace(val)
		if len(val) < 2 || val[0] != ':' || val[len(val)-1] != ':' {
			return digest, false
		}
		raw, err := base64.StdEncoding.DecodeString(val[1 : len(val)-1])
		if err != nil || len(raw) != sha256.Size {
			return digest, false
		}
		copy(digest[:], raw)
		return digest, true
	}
	return digest, false
}
