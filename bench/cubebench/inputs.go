package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"

	"cube/internal/core"
	"cube/internal/cubexml"
)

// doc is one input document: the CUBE XML bytes the server receives, and
// those bytes parsed the way the server parses them (compacted, as its
// parse cache keeps masters), from which expected results are computed.
type doc struct {
	name   string
	bytes  []byte
	digest string // sha-256 hex of bytes
	exp    *core.Experiment
}

func newDoc(name string, e *core.Experiment) (*doc, error) {
	var buf bytes.Buffer
	if err := cubexml.Write(&buf, e); err != nil {
		return nil, fmt.Errorf("encoding %s: %w", name, err)
	}
	parsed, err := cubexml.ReadBytes(context.Background(), buf.Bytes(), cubexml.ReadOptions{})
	if err != nil {
		return nil, fmt.Errorf("parsing %s: %w", name, err)
	}
	parsed.CompactSeverities()
	return &doc{name: name, bytes: buf.Bytes(), digest: digestOf(buf.Bytes()), exp: parsed}, nil
}

func digestOf(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// shape is the size of a synthetic experiment: metrics × call paths ×
// threads.
type shape struct{ metrics, cnodes, threads int }

// synth builds a synthetic experiment. Metrics and call paths form binary
// trees under "Time" and "main"; threads are single-threaded processes on
// four nodes. Version 1 renames every fourth leaf region of version 0, the
// kind of change a new code version makes, so the two versions' call trees
// differ in a fixed share of paths and integrating them cannot take the
// identical-metadata fast path. The support is fixed ((m+c+t) % 3 == 0),
// so every experiment of one version and shape has the same tuple count.
// Values are drawn from rng in [1+10·band, 9+10·band), so runs of distinct
// bands differ by at least 2 in every tuple. With overlapping ranges, two
// nearly equal values made a standard deviation cancel to 0 and drop the
// tuple, and the tuple count every response is checked against no longer
// held.
func synth(title string, sz shape, version, band int, rng *rand.Rand) *core.Experiment {
	e := core.New(title)
	ms := []*core.Metric{e.NewMetric("Time", core.Seconds, "")}
	for i := 1; i < sz.metrics; i++ {
		ms = append(ms, ms[(i-1)/2].NewChild(fmt.Sprintf("m%d", i), ""))
	}
	cs := []*core.CallNode{e.NewCallRoot(e.NewCallSite("app", 0, e.NewRegion("main", "app", 0, 0)))}
	for i := 1; i < sz.cnodes; i++ {
		name := fmt.Sprintf("f%d", i)
		if version == 1 && i >= sz.cnodes/2 && i%4 == 3 {
			name += "_v1"
		}
		cs = append(cs, cs[(i-1)/2].NewChild(e.NewCallSite("app", i, e.NewRegion(name, "app", i, 0))))
	}
	e.Invalidate()
	ths := e.SingleThreadedSystem("node", 4, sz.threads)
	for mi, m := range ms {
		for ci, c := range cs {
			for ti, th := range ths {
				if (mi+ci+ti)%3 == 0 {
					e.SetSeverity(m, c, th, float64(1+10*band)+8*rng.Float64())
				}
			}
		}
	}
	return e
}

// subset draws k distinct elements of pool in ascending pool order.
func subset(rng *rand.Rand, pool []int, k int) []int {
	perm := rng.Perm(len(pool))[:k]
	out := make([]int, 0, k)
	for i := range pool {
		for _, p := range perm {
			if p == i {
				out = append(out, pool[i])
			}
		}
	}
	return out
}
