package expr

import (
	"crypto/sha256"
	"strconv"

	"cube/internal/core"
)

// resultKey is the cache key: the canonical expression digest plus a
// fingerprint of the evaluation options that shape the result (call-path
// matching, system integration, engine). Workers is deliberately not part
// of the fingerprint: results are identical for every worker count.
type resultKey struct {
	node [sha256.Size]byte
	opts string
}

// optsFingerprint renders the result-shaping options. Engine is included
// conservatively: kernel and legacy results are asserted equal by the
// property suite, but keeping their cache lines separate means a cached
// result always came from the engine the caller asked for.
func optsFingerprint(o *core.Options) string {
	if o == nil {
		o = &core.Options{}
	}
	return "cm=" + strconv.Itoa(int(o.CallMatch)) + ";sys=" + strconv.Itoa(int(o.System)) +
		";machine=" + o.CollapsedMachine + ";engine=" + strconv.Itoa(int(o.Engine))
}

// estimateSize approximates an experiment's resident bytes for the cache
// budget: the columnar severity store (one uint64 key + one float64 value
// per tuple) plus a flat per-metadata-node charge for the metric, call,
// and system forests. It is an estimate — the budget bounds order of
// magnitude, not bytes — but it is monotone in the quantities that
// actually dominate memory.
func estimateSize(e *core.Experiment) int64 {
	const (
		perTuple = 16  // packed key + value
		perNode  = 160 // tree node, names, pointers (amortized)
		base     = 1024
	)
	return base +
		perTuple*int64(e.NonZeroCount()) +
		perNode*int64(len(e.Metrics())+len(e.CallNodes())+len(e.Threads()))
}
