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

// optsFingerprint renders the result-shaping options.
func optsFingerprint(o *core.Options) string {
	if o == nil {
		o = &core.Options{}
	}
	return "cm=" + strconv.Itoa(int(o.CallMatch)) + ";sys=" + strconv.Itoa(int(o.System)) +
		";machine=" + o.CollapsedMachine
}
