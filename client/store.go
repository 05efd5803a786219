package client

// The experiment-store client: upload an experiment once, then hand any
// operator endpoint a digest reference instead of re-uploading megabytes
// of XML. All calls share the package's retry, tracing, and metrics
// plumbing (do/doFull in client.go).

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"errors"
	"fmt"
	"mime/multipart"
	"net/http"
	"net/textproto"
	"net/url"
	"strconv"
	"strings"

	"cube"
)

// ErrNotStored reports a digest the server's experiment store does not
// hold; Put the experiment and retry.
var ErrNotStored = errors.New("experiment is not in the server store")

// ErrUnknownSize reports a HEAD response whose Content-Length was absent
// or unparseable: the experiment exists, but the server did not say how
// big it is. Callers that only probe existence can treat this as success.
var ErrUnknownSize = errors.New("stored experiment size unknown")

// Put encodes e to CUBE XML and commits it to the server's experiment
// store under its content address, returning the SHA-256 digest (64 hex
// chars) to use in ...ByDigest calls. The route is idempotent: putting
// the same experiment twice is a cheap no-op on the server.
func (c *Client) Put(ctx context.Context, e *cube.Experiment) (string, error) {
	var buf bytes.Buffer
	if err := cube.Write(&buf, e); err != nil {
		return "", fmt.Errorf("encoding experiment: %w", err)
	}
	return c.PutBytes(ctx, buf.Bytes())
}

// PutBytes commits an already-encoded CUBE XML document to the server's
// experiment store and returns its digest. The request names the digest
// in the URL and carries a Content-Digest header, so corruption anywhere
// in transit is rejected by the server rather than stored.
func (c *Client) PutBytes(ctx context.Context, doc []byte) (string, error) {
	sum := sha256.Sum256(doc)
	digest := hex.EncodeToString(sum[:])
	hdr := make(http.Header)
	hdr.Set("Content-Digest", contentDigest(sum))
	_, _, _, err := c.doFull(ctx, http.MethodPut, "/experiments/"+digest,
		"application/xml", doc, hdr)
	if err != nil {
		return "", err
	}
	return digest, nil
}

// Stat reports the stored size of the digest, or ErrNotStored.
func (c *Client) Stat(ctx context.Context, digest string) (int64, error) {
	_, hdr, _, err := c.doFull(ctx, http.MethodHead, "/experiments/"+url.PathEscape(digest), "", nil, nil)
	if err != nil {
		var serr *StatusError
		if errors.As(err, &serr) && serr.Code == http.StatusNotFound {
			return 0, fmt.Errorf("%s: %w", digest, ErrNotStored)
		}
		return 0, err
	}
	v := hdr.Get("Content-Length")
	size, perr := strconv.ParseInt(v, 10, 64)
	if perr != nil || size < 0 {
		// The blob exists (2xx), the server just failed to describe it —
		// distinguish that from absence instead of reporting size 0.
		return 0, fmt.Errorf("%s: Content-Length %q: %w", digest, v, ErrUnknownSize)
	}
	return size, nil
}

// Fetch retrieves the stored experiment, verifies the received bytes
// against the digest end-to-end (the server verifies on read too; this
// catches the transit leg), and decodes it.
func (c *Client) Fetch(ctx context.Context, digest string) (*cube.Experiment, error) {
	data, _, _, err := c.doFull(ctx, http.MethodGet, "/experiments/"+url.PathEscape(digest), "", nil, nil)
	if err != nil {
		var serr *StatusError
		if errors.As(err, &serr) && serr.Code == http.StatusNotFound {
			return nil, fmt.Errorf("%s: %w", digest, ErrNotStored)
		}
		return nil, err
	}
	sum := sha256.Sum256(data)
	if hex.EncodeToString(sum[:]) != strings.ToLower(digest) {
		return nil, fmt.Errorf("fetched bytes hash to %x, want %s: corrupt in transit", sum, digest)
	}
	e, err := cube.Read(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("decoding experiment %s: %w", digest, err)
	}
	return e, nil
}

// contentDigest renders an RFC 9530 Content-Digest header value.
func contentDigest(sum [sha256.Size]byte) string {
	return "sha-256=:" + base64.StdEncoding.EncodeToString(sum[:]) + ":"
}

// marshalDigestRefs builds a multipart body whose operand parts are
// digest references instead of document bytes.
func marshalDigestRefs(digests []string) (contentType string, body []byte, err error) {
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	for i, d := range digests {
		if len(d) != 2*sha256.Size || strings.Trim(strings.ToLower(d), "0123456789abcdef") != "" {
			return "", nil, fmt.Errorf("operand %d: %q is not a sha-256 hex digest", i, d)
		}
		h := make(textproto.MIMEHeader)
		h.Set("Content-Disposition",
			fmt.Sprintf(`form-data; name="operand"; filename="operand-%d.ref"`, i))
		h.Set("Content-Type", "text/plain")
		fw, err := mw.CreatePart(h)
		if err != nil {
			return "", nil, err
		}
		if _, err := fw.Write([]byte("digest:" + strings.ToLower(d))); err != nil {
			return "", nil, err
		}
	}
	if err := mw.Close(); err != nil {
		return "", nil, err
	}
	return mw.FormDataContentType(), buf.Bytes(), nil
}

// OpByDigest invokes POST /op/{name} with stored operands referenced by
// digest (from Put). A 404 means a referenced experiment is not in the
// store — wrapped as ErrNotStored so callers can Put and retry.
func (c *Client) OpByDigest(ctx context.Context, name string, opts *OpOptions, digests ...string) (*cube.Experiment, error) {
	ct, body, err := marshalDigestRefs(digests)
	if err != nil {
		return nil, err
	}
	e, err := c.postOp(ctx, name, "/op/"+url.PathEscape(name)+encodeQuery(opts.query()), ct, body)
	var serr *StatusError
	if errors.As(err, &serr) && serr.Code == http.StatusNotFound {
		return nil, fmt.Errorf("%w: %s", ErrNotStored, strings.TrimSpace(serr.Body))
	}
	return e, err
}

// DifferenceByDigest computes a − b from stored experiments.
func (c *Client) DifferenceByDigest(ctx context.Context, a, b string, opts *OpOptions) (*cube.Experiment, error) {
	return c.OpByDigest(ctx, "difference", opts, a, b)
}

// MergeByDigest integrates stored experiments (first operand wins shared metrics).
func (c *Client) MergeByDigest(ctx context.Context, opts *OpOptions, digests ...string) (*cube.Experiment, error) {
	return c.OpByDigest(ctx, "merge", opts, digests...)
}

// MeanByDigest averages stored experiments element-wise.
func (c *Client) MeanByDigest(ctx context.Context, opts *OpOptions, digests ...string) (*cube.Experiment, error) {
	return c.OpByDigest(ctx, "mean", opts, digests...)
}

// SumByDigest adds stored experiments element-wise.
func (c *Client) SumByDigest(ctx context.Context, opts *OpOptions, digests ...string) (*cube.Experiment, error) {
	return c.OpByDigest(ctx, "sum", opts, digests...)
}

// MinByDigest takes the element-wise minimum of stored experiments.
func (c *Client) MinByDigest(ctx context.Context, opts *OpOptions, digests ...string) (*cube.Experiment, error) {
	return c.OpByDigest(ctx, "min", opts, digests...)
}

// MaxByDigest takes the element-wise maximum of stored experiments.
func (c *Client) MaxByDigest(ctx context.Context, opts *OpOptions, digests ...string) (*cube.Experiment, error) {
	return c.OpByDigest(ctx, "max", opts, digests...)
}
