package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync/atomic"
	"time"
)

// Request IDs travel in the context so every layer — middleware, handlers,
// operand parsing, log lines, error bodies — can stamp its output with the
// identity of the request it serves.

type ctxKey int

const (
	requestIDKey ctxKey = iota
	traceSpanKey
	eventKey
)

var reqSeq atomic.Uint64

// NewRequestID returns a fresh 16-hex-digit request ID. IDs come from
// crypto/rand; if that fails (it practically cannot), a time+sequence
// fallback keeps IDs unique within the process.
func NewRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("%08x%08x", time.Now().UnixNano()&0xffffffff, reqSeq.Add(1))
	}
	return hex.EncodeToString(b[:])
}

// WithRequestID returns a context carrying the request ID.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey, id)
}

// RequestID returns the request ID carried by ctx, or "" if none is set.
func RequestID(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey).(string)
	return id
}

// SanitizeRequestID validates a caller-supplied request/trace ID: at most
// 64 characters drawn from [a-zA-Z0-9._-]. Anything else returns "" so
// the caller mints a fresh ID instead of propagating hostile input into
// logs, response headers, and trace lookups. Both the server middleware
// and the retrying client route IDs through here so a request keeps one
// stable identity across hops and retry attempts.
func SanitizeRequestID(id string) string {
	if id == "" || len(id) > 64 {
		return ""
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '-' || c == '_' || c == '.':
		default:
			return ""
		}
	}
	return id
}
