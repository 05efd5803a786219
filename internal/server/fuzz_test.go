package server

import (
	"testing"

	"cube/internal/store"
)

// FuzzParseDigestRef feeds operand-part bodies to the digest-reference
// recognizer. It must never panic, and a reference it accepts must be the
// canonical `digest:<hex>` form of the digest it returns, give or take
// whitespace and hex case.
func FuzzParseDigestRef(f *testing.F) {
	d := store.DigestOf([]byte("seed")).String()
	for _, s := range []string{
		"digest:" + d,
		"  digest: " + d + "\n",
		"digest:" + d[:63],
		"digest:" + d + "00",
		"DIGEST:" + d,
		"<cube version=\"cube-go-1.0\"></cube>",
		"",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		got, ok := parseDigestRef(b)
		if !ok {
			return
		}
		again, ok := parseDigestRef([]byte(digestRefPrefix + got.String()))
		if !ok || again != got {
			t.Fatalf("accepted %q as %s, which does not round-trip", b, got)
		}
	})
}

// FuzzParseContentDigest feeds Content-Digest header values to the
// parser. It must never panic, and a digest it extracts must round-trip
// through the header form the server itself sends.
func FuzzParseContentDigest(f *testing.F) {
	d := store.DigestOf([]byte("seed"))
	for _, s := range []string{
		contentDigestHeader(d),
		"sha-512=:AAAA:, " + contentDigestHeader(d),
		"SHA-256=:" + contentDigestHeader(d)[len("sha-256=:"):],
		"sha-256=AAAA",
		"sha-256=::",
		"sha-256=:!!!:",
		"",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, header string) {
		got, ok := parseContentDigest(header)
		if !ok {
			return
		}
		again, ok := parseContentDigest(contentDigestHeader(store.Digest(got)))
		if !ok || again != got {
			t.Fatalf("parsed %q, which does not round-trip", header)
		}
	})
}
