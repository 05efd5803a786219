// Package client is a typed Go client for the cube-server HTTP service.
// It covers every endpoint, carries a context through every call, and
// retries transient failures — transport errors, 429 (saturated server),
// and 5xx responses — with exponential backoff, jitter, and respect for
// the server's Retry-After hint.
//
// Retrying POSTs is safe here by construction: every operator endpoint is
// a pure function of its uploaded operands (the algebra has no server-side
// state), so the client treats all requests as idempotent. Permanent
// errors (4xx other than 429) are returned immediately as *StatusError.
package client

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/base64"
	"fmt"
	"io"
	"math/rand"
	"mime/multipart"
	"net/http"
	"net/textproto"
	"net/url"
	"strconv"
	"strings"
	"time"

	"cube"
	"cube/internal/cubexml"
	"cube/internal/obs"
)

// Client talks to one cube-server. The zero value is not usable; call New.
// A Client is safe for concurrent use.
//
// Every client records its traffic into an obs registry (obs.Default
// unless WithMetrics overrides it):
//
//	cube_client_attempts_total{endpoint}           HTTP attempts, incl. retries
//	cube_client_retries_total{endpoint}            attempts beyond the first
//	cube_client_errors_total{endpoint}             calls that gave up
//	cube_client_backoff_seconds{endpoint}          time slept between attempts
//	cube_client_request_duration_seconds{endpoint} whole-call latency, retries included
type Client struct {
	base       string
	hc         *http.Client
	maxRetries int
	baseDelay  time.Duration
	maxDelay   time.Duration
	reg        *obs.Registry
}

// Option customises a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (timeouts,
// transports, test doubles).
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithMaxRetries sets how many times a failed request is retried
// (default 4; 0 disables retrying).
func WithMaxRetries(n int) Option { return func(c *Client) { c.maxRetries = n } }

// WithBackoff sets the base and cap of the exponential backoff schedule
// (defaults 100ms and 5s). The actual delay for attempt k is drawn
// uniformly from [d/2, d] with d = min(base<<k, max), unless the server
// sent Retry-After, which wins.
func WithBackoff(base, max time.Duration) Option {
	return func(c *Client) { c.baseDelay, c.maxDelay = base, max }
}

// WithMetrics directs the client's telemetry into reg instead of
// obs.Default; nil disables it.
func WithMetrics(reg *obs.Registry) Option { return func(c *Client) { c.reg = reg } }

// New returns a client for the service at baseURL (e.g. "http://host:7654").
func New(baseURL string, opts ...Option) *Client {
	c := &Client{
		base:       strings.TrimRight(baseURL, "/"),
		hc:         http.DefaultClient,
		maxRetries: 4,
		baseDelay:  100 * time.Millisecond,
		maxDelay:   5 * time.Second,
		reg:        obs.Default,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// StatusError is a non-200 response from the server.
type StatusError struct {
	Code int
	Body string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("server returned %d: %s", e.Code, strings.TrimSpace(e.Body))
}

func retryableStatus(code int) bool {
	return code == http.StatusTooManyRequests || code >= 500
}

// retryAfter parses the Retry-After header; -1 means absent/unparseable.
func retryAfter(resp *http.Response) time.Duration {
	v := resp.Header.Get("Retry-After")
	if v == "" {
		return -1
	}
	if secs, err := strconv.Atoi(v); err == nil && secs >= 0 {
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(v); err == nil {
		if d := time.Until(t); d > 0 {
			return d
		}
		return 0
	}
	return -1
}

// backoff returns the sleep before retry number attempt (0-based):
// exponential with a cap, jittered into [d/2, d] to avoid thundering herds.
func (c *Client) backoff(attempt int) time.Duration {
	d := c.baseDelay
	for i := 0; i < attempt && d < c.maxDelay; i++ {
		d *= 2
	}
	if d > c.maxDelay || d <= 0 {
		d = c.maxDelay
	}
	half := d / 2
	if half <= 0 {
		return d
	}
	return half + time.Duration(rand.Int63n(int64(half)+1))
}

// endpointLabel bounds the metric cardinality of a request path: the
// query string is stripped and content-addressed paths are bucketed by
// route, so the label set is the fixed route space.
func endpointLabel(path string) string {
	if i := strings.IndexByte(path, '?'); i >= 0 {
		path = path[:i]
	}
	if strings.HasPrefix(path, "/experiments/") {
		return "/experiments/{digest}"
	}
	return path
}

// do performs one HTTP call with the retry policy. body may be nil (GET);
// it is replayed from memory on each attempt.
//
// Every call carries an X-Request-ID — a sanitized caller-supplied ID from
// the context, or a freshly minted one — held stable across retries, so all
// attempts of one logical call correlate to a single server-side trace.
// When a tracer is active (obs.SetTracer, or a caller span on ctx) the call
// records a span tree: one span per attempt plus one per backoff sleep.
func (c *Client) do(ctx context.Context, method, path, contentType string, body []byte) ([]byte, error) {
	data, _, _, err := c.doFull(ctx, method, path, contentType, body, nil)
	return data, err
}

// doFull is do with the raw response exposed: the store routes need the
// response status (201 vs 200 on PUT) and headers (Content-Digest,
// Content-Length on HEAD), and send extra request headers of their own.
// Any 2xx status is success.
func (c *Client) doFull(ctx context.Context, method, path, contentType string, body []byte, extra http.Header) (result []byte, hdr http.Header, status int, callErr error) {
	id := obs.SanitizeRequestID(obs.RequestID(ctx))
	if id == "" {
		id = obs.NewRequestID()
		ctx = obs.WithRequestID(ctx, id)
	}
	sp, ctx := obs.StartSpanContext(ctx, "client."+endpointLabel(path))
	sp.SetAttr("method", method)
	ep := obs.L("endpoint", endpointLabel(path))
	// One wide event per logical call (kind "client"), attempts included —
	// nil (one atomic load) unless a sink is installed (obs.SetEventSink,
	// the CLIs' -events flag).
	ev := obs.NewEvent("client", endpointLabel(path))
	ev.SetRequestID(id)
	ev.SetMethod(method)
	attempts := 0
	start := time.Now()
	defer func() {
		c.reg.Histogram("cube_client_request_duration_seconds", obs.DefLatencyBuckets, ep).
			ObserveExemplar(time.Since(start).Seconds(), sp.TraceID())
		if callErr != nil {
			c.reg.Counter("cube_client_errors_total", ep).Inc()
			sp.SetAttr("error", true)
			ev.SetError(callErr.Error())
		}
		sp.End()
		ev.SetStatus(status)
		ev.SetResponseBytes(int64(len(result)))
		ev.SetAttempts(attempts)
		ev.Emit()
	}()
	var last error
	for attempt := 0; ; attempt++ {
		attempts = attempt + 1
		c.reg.Counter("cube_client_attempts_total", ep).Inc()
		if attempt > 0 {
			c.reg.Counter("cube_client_retries_total", ep).Inc()
		}
		var br io.Reader
		if body != nil {
			br = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.base+path, br)
		if err != nil {
			return nil, nil, 0, err
		}
		req.Header.Set("X-Request-ID", id)
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		for k, vs := range extra {
			req.Header[k] = vs
		}
		asp := sp.StartChild("attempt")
		asp.SetAttr("attempt", attempt)
		delay := time.Duration(-1)
		resp, err := c.hc.Do(req)
		if err != nil {
			if ctx.Err() != nil {
				asp.SetAttr("error", ctx.Err().Error())
				asp.End()
				return nil, nil, 0, ctx.Err()
			}
			last = err // transport error: retryable
			asp.SetAttr("error", err.Error())
			asp.End()
		} else {
			asp.SetAttr("status", resp.StatusCode)
			data, rerr := readBody(resp)
			resp.Body.Close()
			asp.End()
			switch {
			case rerr != nil:
				last = rerr // truncated response: retryable
			case resp.StatusCode >= 200 && resp.StatusCode < 300:
				return data, resp.Header, resp.StatusCode, nil
			default:
				serr := &StatusError{Code: resp.StatusCode, Body: string(data)}
				if !retryableStatus(resp.StatusCode) {
					return nil, resp.Header, resp.StatusCode, serr
				}
				last = serr
				delay = retryAfter(resp)
			}
		}
		if attempt >= c.maxRetries {
			return nil, nil, 0, fmt.Errorf("giving up after %d attempts: %w", attempt+1, last)
		}
		if delay <= 0 {
			// No Retry-After guidance (or "retry now"): back off anyway
			// so a saturated server is not hammered in a tight loop.
			delay = c.backoff(attempt)
		}
		c.reg.Histogram("cube_client_backoff_seconds", obs.DefLatencyBuckets, ep).
			Observe(delay.Seconds())
		bsp := sp.StartChild("backoff")
		bsp.SetAttr("delay_ms", float64(delay)/float64(time.Millisecond))
		t := time.NewTimer(delay)
		select {
		case <-ctx.Done():
			t.Stop()
			bsp.End()
			return nil, nil, 0, ctx.Err()
		case <-t.C:
			bsp.End()
		}
	}
}

// maxPresize caps the buffer readBody allocates on the word of
// Content-Length alone; a larger body grows as it arrives.
const maxPresize = 64 << 20

// readBody reads a response body into one buffer sized from its
// Content-Length, growing only when the length is absent or wrong. A
// truncated body is an error, which the retry loop treats as transient.
func readBody(resp *http.Response) ([]byte, error) {
	var buf bytes.Buffer
	if n := resp.ContentLength; n > 0 && n <= maxPresize {
		buf.Grow(int(n) + bytes.MinRead) // ReadFrom wants MinRead spare bytes to read EOF
	}
	_, err := buf.ReadFrom(resp.Body)
	return buf.Bytes(), err
}

// acceptColumnar asks operator and expression routes for the columnar
// body; XML, the server's default, decodes as well.
var acceptColumnar = http.Header{"Accept": {cubexml.ColumnarType + ", application/xml;q=0.5"}}

// decodeExperiment decodes a computed experiment in whichever encoding
// the server sent. The body itself tells XML and columnar apart, so a
// proxy that rewrites bodies or their Content-Type cannot make it
// misread one as the other.
func decodeExperiment(data []byte) (*cube.Experiment, error) {
	return cubexml.ReadBytes(context.Background(), data, cubexml.ReadOptions{Limits: cubexml.DefaultLimits})
}

// marshalOperands builds the multipart body once so retries can replay it.
// Each operand part carries a Content-Digest header (RFC 9530, sha-256
// over the part body) so the server can detect corruption in transit.
func marshalOperands(exps []*cube.Experiment) (contentType string, body []byte, err error) {
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	var part bytes.Buffer
	for i, e := range exps {
		part.Reset()
		if err := cube.Write(&part, e); err != nil {
			return "", nil, fmt.Errorf("encoding operand %d: %w", i, err)
		}
		sum := sha256.Sum256(part.Bytes())
		h := make(textproto.MIMEHeader)
		h.Set("Content-Disposition",
			fmt.Sprintf(`form-data; name="operand"; filename="operand-%d.cube"`, i))
		h.Set("Content-Type", "application/octet-stream")
		h.Set("Content-Digest", "sha-256=:"+base64.StdEncoding.EncodeToString(sum[:])+":")
		fw, err := mw.CreatePart(h)
		if err != nil {
			return "", nil, err
		}
		if _, err := fw.Write(part.Bytes()); err != nil {
			return "", nil, err
		}
	}
	if err := mw.Close(); err != nil {
		return "", nil, err
	}
	return mw.FormDataContentType(), buf.Bytes(), nil
}

func (c *Client) postOperands(ctx context.Context, path string, exps ...*cube.Experiment) ([]byte, error) {
	ct, body, err := marshalOperands(exps)
	if err != nil {
		return nil, err
	}
	return c.do(ctx, http.MethodPost, path, ct, body)
}

// postOp sends a multipart operand body to an operator route and decodes
// the derived experiment.
func (c *Client) postOp(ctx context.Context, name, path, ct string, body []byte) (*cube.Experiment, error) {
	data, _, _, err := c.doFull(ctx, http.MethodPost, path, ct, body, acceptColumnar)
	if err != nil {
		return nil, err
	}
	e, err := decodeExperiment(data)
	if err != nil {
		return nil, fmt.Errorf("decoding %s result: %w", name, err)
	}
	return e, nil
}

// Healthz checks that the server is up and answering.
func (c *Client) Healthz(ctx context.Context) error {
	_, err := c.do(ctx, http.MethodGet, "/healthz", "", nil)
	return err
}

// OpOptions carries the metadata-integration options shared by the
// operator endpoints; zero values mean the server defaults
// (callmatch=callee, system=auto).
type OpOptions struct {
	CallMatch string // "callee" or "callee+line"
	System    string // "auto", "collapse", or "copy-first"
}

func (o *OpOptions) query() url.Values {
	q := url.Values{}
	if o != nil {
		if o.CallMatch != "" {
			q.Set("callmatch", o.CallMatch)
		}
		if o.System != "" {
			q.Set("system", o.System)
		}
	}
	return q
}

func encodeQuery(q url.Values) string {
	if len(q) == 0 {
		return ""
	}
	return "?" + q.Encode()
}

// Op invokes POST /op/{name} with the given operands and decodes the
// derived experiment. The typed wrappers below cover the known operators.
func (c *Client) Op(ctx context.Context, name string, opts *OpOptions, operands ...*cube.Experiment) (*cube.Experiment, error) {
	return c.op(ctx, name, opts.query(), operands...)
}

func (c *Client) op(ctx context.Context, name string, q url.Values, operands ...*cube.Experiment) (*cube.Experiment, error) {
	ct, body, err := marshalOperands(operands)
	if err != nil {
		return nil, err
	}
	return c.postOp(ctx, name, "/op/"+url.PathEscape(name)+encodeQuery(q), ct, body)
}

// Difference computes a − b remotely.
func (c *Client) Difference(ctx context.Context, a, b *cube.Experiment, opts *OpOptions) (*cube.Experiment, error) {
	return c.Op(ctx, "difference", opts, a, b)
}

// Merge integrates any number of experiments (first operand wins shared metrics).
func (c *Client) Merge(ctx context.Context, opts *OpOptions, operands ...*cube.Experiment) (*cube.Experiment, error) {
	return c.Op(ctx, "merge", opts, operands...)
}

// Mean averages the operands element-wise.
func (c *Client) Mean(ctx context.Context, opts *OpOptions, operands ...*cube.Experiment) (*cube.Experiment, error) {
	return c.Op(ctx, "mean", opts, operands...)
}

// Sum adds the operands element-wise.
func (c *Client) Sum(ctx context.Context, opts *OpOptions, operands ...*cube.Experiment) (*cube.Experiment, error) {
	return c.Op(ctx, "sum", opts, operands...)
}

// Min takes the element-wise minimum of the operands.
func (c *Client) Min(ctx context.Context, opts *OpOptions, operands ...*cube.Experiment) (*cube.Experiment, error) {
	return c.Op(ctx, "min", opts, operands...)
}

// Max takes the element-wise maximum of the operands.
func (c *Client) Max(ctx context.Context, opts *OpOptions, operands ...*cube.Experiment) (*cube.Experiment, error) {
	return c.Op(ctx, "max", opts, operands...)
}

// Flatten converts e into its flat profile.
func (c *Client) Flatten(ctx context.Context, e *cube.Experiment) (*cube.Experiment, error) {
	return c.Op(ctx, "flatten", nil, e)
}

// Extract keeps only the named metric subtrees of e.
func (c *Client) Extract(ctx context.Context, e *cube.Experiment, metrics ...string) (*cube.Experiment, error) {
	q := url.Values{}
	for _, m := range metrics {
		q.Add("metric", m)
	}
	return c.op(ctx, "extract", q, e)
}

// Prune removes call subtrees contributing less than threshold of the
// metric's total.
func (c *Client) Prune(ctx context.Context, e *cube.Experiment, metric string, threshold float64) (*cube.Experiment, error) {
	q := url.Values{}
	q.Set("metric", metric)
	q.Set("threshold", strconv.FormatFloat(threshold, 'g', -1, 64))
	return c.op(ctx, "prune", q, e)
}

// ViewOptions selects what POST /view renders.
type ViewOptions struct {
	Metric string // metric path or name; empty selects the first root
	Mode   string // "absolute" (default) or "percent"
	Flat   bool   // render the flat profile
	Top    int    // >0 appends the top-N hotspot listing
}

// View renders the text-mode three-tree display of e remotely.
func (c *Client) View(ctx context.Context, e *cube.Experiment, opts *ViewOptions) (string, error) {
	q := url.Values{}
	if opts != nil {
		if opts.Metric != "" {
			q.Set("metric", opts.Metric)
		}
		if opts.Mode != "" {
			q.Set("mode", opts.Mode)
		}
		if opts.Flat {
			q.Set("flat", "1")
		}
		if opts.Top > 0 {
			q.Set("top", strconv.Itoa(opts.Top))
		}
	}
	data, err := c.postOperands(ctx, "/view"+encodeQuery(q), e)
	return string(data), err
}

// Info summarises one experiment, or structurally compares two.
func (c *Client) Info(ctx context.Context, operands ...*cube.Experiment) (string, error) {
	data, err := c.postOperands(ctx, "/info", operands...)
	return string(data), err
}

// Report renders the self-contained HTML report of e; metric may be empty.
func (c *Client) Report(ctx context.Context, e *cube.Experiment, metric string) ([]byte, error) {
	q := url.Values{}
	if metric != "" {
		q.Set("metric", metric)
	}
	return c.postOperands(ctx, "/report"+encodeQuery(q), e)
}
