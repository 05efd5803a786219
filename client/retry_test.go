package client

// Regression tests for the Retry-After parser (both RFC 9110 forms), for
// Stat's handling of a HEAD response that omits Content-Length, and for
// response bodies that end early or declare the wrong length.

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func respWithRetryAfter(v string) *http.Response {
	h := make(http.Header)
	if v != "" {
		h.Set("Retry-After", v)
	}
	return &http.Response{Header: h}
}

func TestRetryAfterSeconds(t *testing.T) {
	cases := []struct {
		header string
		want   time.Duration
	}{
		{"", -1}, // absent: caller falls back to backoff
		{"0", 0}, // retry now (still backed off by the caller)
		{"5", 5 * time.Second},
		{"-3", -1},   // negative seconds are not a valid form
		{"soon", -1}, // garbage
	}
	for _, c := range cases {
		if got := retryAfter(respWithRetryAfter(c.header)); got != c.want {
			t.Errorf("retryAfter(%q) = %v, want %v", c.header, got, c.want)
		}
	}
}

// The HTTP-date form: a date in the past means "retry immediately" (0,
// never negative), a future date yields the remaining wait.
func TestRetryAfterHTTPDate(t *testing.T) {
	past := time.Now().Add(-time.Hour).UTC().Format(http.TimeFormat)
	if got := retryAfter(respWithRetryAfter(past)); got != 0 {
		t.Errorf("past HTTP-date: retryAfter = %v, want 0 (retry now)", got)
	}
	future := time.Now().Add(time.Hour).UTC().Format(http.TimeFormat)
	got := retryAfter(respWithRetryAfter(future))
	if got <= 59*time.Minute || got > time.Hour {
		t.Errorf("future HTTP-date: retryAfter = %v, want ~1h", got)
	}
}

// A 2xx HEAD whose Content-Length is absent must not report size 0 as
// truth: the blob exists but its size is unknown.
func TestStatUnknownSize(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodHead {
			http.Error(w, "want HEAD", http.StatusMethodNotAllowed)
			return
		}
		w.WriteHeader(http.StatusOK) // no Content-Length header
	}))
	defer srv.Close()
	c := fastClient(srv.URL)
	_, err := c.Stat(context.Background(), strings.Repeat("a", 64))
	if !errors.Is(err, ErrUnknownSize) {
		t.Fatalf("Stat without Content-Length: err = %v, want ErrUnknownSize", err)
	}
	if errors.Is(err, ErrNotStored) {
		t.Error("unknown size must not masquerade as absence")
	}
}

// A body cut short of its Content-Length is a transient failure: the
// client retries and returns the complete body.
func TestTruncatedBodyRetried(t *testing.T) {
	var attempts atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if attempts.Add(1) == 1 {
			w.Header().Set("Content-Length", "100")
			io.WriteString(w, "short")
			w.(http.Flusher).Flush()    // the status line and part of the body go out
			panic(http.ErrAbortHandler) // then the connection drops mid-body
		}
		io.WriteString(w, "complete")
	}))
	defer srv.Close()
	data, err := fastClient(srv.URL).do(context.Background(), http.MethodGet, "/x", "", nil)
	if err != nil || string(data) != "complete" || attempts.Load() != 2 {
		t.Fatalf("got %q, %v after %d attempts; want the complete body on attempt 2", data, err, attempts.Load())
	}
}

// readBody trusts Content-Length only to size its buffer: a missing, short
// or long declaration still yields exactly the bytes that arrived.
func TestReadBodyLengthMismatch(t *testing.T) {
	body := strings.Repeat("x", 5000)
	for _, declared := range []int64{-1, 0, 10, 4999, 5000, 5001, 1 << 40} {
		resp := &http.Response{ContentLength: declared, Body: io.NopCloser(strings.NewReader(body))}
		got, err := readBody(resp)
		if err != nil || string(got) != body {
			t.Errorf("Content-Length %d: %d bytes, %v", declared, len(got), err)
		}
	}
}
