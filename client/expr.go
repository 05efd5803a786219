package client

// The expression client: build an algebra DAG locally and evaluate it
// server-side in one POST /expr round trip. The server shares identical
// subexpressions (they evaluate once) and answers repeated expressions
// from its expression-digest result cache, so a DAG that references the
// same stored experiments as yesterday's is nearly free.
//
//	d := client.DifferenceExpr(client.DigestRef(before), client.DigestRef(after))
//	e, err := c.Expr(ctx, client.MeanExpr(d, client.ScaleExpr(d, 2)), nil)

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"mime/multipart"
	"net/http"
	"net/textproto"
	"strconv"
	"strings"

	"cube"
)

// ExprNode is one node of an expression DAG: an operator over child
// nodes, or a leaf referencing a stored digest or an inline operand.
// Nodes are plain values — share a node between two parents and the
// server evaluates it once. Build leaves with DigestRef/OperandRef and
// operators with the *Expr constructors; the zero value is not usable.
type ExprNode struct {
	op        string
	args      []*ExprNode
	ref       string
	metric    string
	threshold *float64
	factor    *float64
	metrics   []string
}

// DigestRef references an experiment committed to the server store (the
// 64-hex digest from Put).
func DigestRef(digest string) *ExprNode {
	return &ExprNode{ref: "digest:" + strings.ToLower(digest)}
}

// OperandRef references the i-th inline experiment passed to Expr.
func OperandRef(i int) *ExprNode {
	return &ExprNode{ref: fmt.Sprintf("operand:%d", i)}
}

// OpExpr builds an operator node for any server-known operator name; the
// typed constructors below cover the fixed operator set.
func OpExpr(name string, args ...*ExprNode) *ExprNode {
	return &ExprNode{op: name, args: args}
}

// DifferenceExpr is a − b.
func DifferenceExpr(a, b *ExprNode) *ExprNode { return OpExpr("difference", a, b) }

// MergeExpr integrates the operands (first operand wins shared metrics).
func MergeExpr(args ...*ExprNode) *ExprNode { return OpExpr("merge", args...) }

// MeanExpr averages the operands element-wise.
func MeanExpr(args ...*ExprNode) *ExprNode { return OpExpr("mean", args...) }

// SumExpr adds the operands element-wise.
func SumExpr(args ...*ExprNode) *ExprNode { return OpExpr("sum", args...) }

// MinExpr takes the element-wise minimum.
func MinExpr(args ...*ExprNode) *ExprNode { return OpExpr("min", args...) }

// MaxExpr takes the element-wise maximum.
func MaxExpr(args ...*ExprNode) *ExprNode { return OpExpr("max", args...) }

// StdDevExpr is the element-wise sample standard deviation.
func StdDevExpr(args ...*ExprNode) *ExprNode { return OpExpr("stddev", args...) }

// FlattenExpr converts x into its flat profile.
func FlattenExpr(x *ExprNode) *ExprNode { return OpExpr("flatten", x) }

// ExtractExpr keeps only the named metric subtrees of x.
func ExtractExpr(x *ExprNode, metrics ...string) *ExprNode {
	return &ExprNode{op: "extract", args: []*ExprNode{x}, metrics: metrics}
}

// PruneExpr removes call subtrees contributing less than threshold of the
// metric's total.
func PruneExpr(x *ExprNode, metric string, threshold float64) *ExprNode {
	return &ExprNode{op: "prune", args: []*ExprNode{x}, metric: metric, threshold: &threshold}
}

// ScaleExpr multiplies every severity of x by factor.
func ScaleExpr(x *ExprNode, factor float64) *ExprNode {
	return &ExprNode{op: "scale", args: []*ExprNode{x}, factor: &factor}
}

// exprWire is the POST /expr JSON node shape (internal/expr's wireNode).
type exprWire struct {
	Op        string      `json:"op,omitempty"`
	Args      []*exprWire `json:"args,omitempty"`
	Ref       string      `json:"ref,omitempty"`
	Metric    string      `json:"metric,omitempty"`
	Threshold *float64    `json:"threshold,omitempty"`
	Factor    *float64    `json:"factor,omitempty"`
	Metrics   []string    `json:"metrics,omitempty"`
}

// marshalExpr encodes the DAG rooted at n. Shared nodes are emitted once
// as named defs and referenced as def:<name>, preserving the DAG shape on
// the wire (and with it, linear document size for diamond-heavy graphs).
func marshalExpr(n *ExprNode) ([]byte, error) {
	defs, outs, err := marshalRoots([]*ExprNode{n})
	if err != nil {
		return nil, err
	}
	if len(defs) == 0 {
		return json.Marshal(outs[0])
	}
	return json.Marshal(struct {
		Defs map[string]*exprWire `json:"defs"`
		Expr *exprWire            `json:"expr"`
	}{defs, outs[0]})
}

// marshalExprMulti encodes several roots over one shared DAG as the
// batched `{"defs":{...},"roots":[...]}` request form.
func marshalExprMulti(roots []*ExprNode) ([]byte, error) {
	if len(roots) == 0 {
		return nil, errors.New("no root expressions")
	}
	defs, outs, err := marshalRoots(roots)
	if err != nil {
		return nil, err
	}
	if len(defs) == 0 {
		return json.Marshal(struct {
			Roots []*exprWire `json:"roots"`
		}{outs})
	}
	return json.Marshal(struct {
		Defs  map[string]*exprWire `json:"defs"`
		Roots []*exprWire          `json:"roots"`
	}{defs, outs})
}

// marshalRoots wires a set of root DAGs into one shared defs namespace:
// an operator node with several parents is emitted once as a named def
// and referenced as def:<name> everywhere else, so the wire document
// stays linear in the DAG size even for diamond-heavy graphs.
func marshalRoots(rootNodes []*ExprNode) (map[string]*exprWire, []*exprWire, error) {
	// First pass: count parents per node to find the shared ones. A node
	// that appears under several roots counts once per occurrence, so
	// cross-root sharing hoists exactly like within-root sharing.
	parents := map[*ExprNode]int{}
	isRoot := map[*ExprNode]bool{}
	var count func(x *ExprNode)
	count = func(x *ExprNode) {
		if x == nil {
			return // wire() reports the nil child with a real error
		}
		parents[x]++
		if parents[x] > 1 {
			return
		}
		for _, a := range x.args {
			count(a)
		}
	}
	for _, n := range rootNodes {
		if n == nil {
			return nil, nil, errors.New("nil expression")
		}
		isRoot[n] = true
		count(n)
	}

	defs := map[string]*exprWire{}
	names := map[*ExprNode]string{}
	var wire func(x *ExprNode) (*exprWire, error)
	wire = func(x *ExprNode) (*exprWire, error) {
		if x == nil {
			return nil, errors.New("nil expression node")
		}
		if name, ok := names[x]; ok {
			return &exprWire{Ref: "def:" + name}, nil
		}
		w := &exprWire{Op: x.op, Ref: x.ref, Metric: x.metric,
			Threshold: x.threshold, Factor: x.factor, Metrics: x.metrics}
		for _, a := range x.args {
			cw, err := wire(a)
			if err != nil {
				return nil, err
			}
			w.Args = append(w.Args, cw)
		}
		// Hoist shared operator nodes (but not roots, and not bare
		// leaves — the server unifies leaves by content anyway).
		if !isRoot[x] && x.op != "" && parents[x] > 1 {
			name := fmt.Sprintf("n%d", len(defs))
			defs[name] = w
			names[x] = name
			return &exprWire{Ref: "def:" + name}, nil
		}
		return w, nil
	}
	outs := make([]*exprWire, len(rootNodes))
	for i, n := range rootNodes {
		w, err := wire(n)
		if err != nil {
			return nil, nil, err
		}
		outs[i] = w
	}
	return defs, outs, nil
}

// ExprStats is the server's evaluation summary, echoed in response
// headers: how many unique nodes the DAG had after sharing, how many
// duplicate subtrees were eliminated, and whether the whole answer came
// from the expression-digest result cache.
type ExprStats struct {
	Nodes   int
	CSEHits int
	Cached  bool
}

// Expr evaluates the DAG rooted at root on the server and decodes the
// derived experiment. Leaves reference stored experiments (DigestRef) or
// the inline operands (OperandRef indexes into inline). opts carries the
// usual metadata-integration options.
func (c *Client) Expr(ctx context.Context, root *ExprNode, opts *OpOptions, inline ...*cube.Experiment) (*cube.Experiment, error) {
	e, _, err := c.ExprStats(ctx, root, opts, inline...)
	return e, err
}

// ExprStats is Expr with the server's evaluation summary exposed.
func (c *Client) ExprStats(ctx context.Context, root *ExprNode, opts *OpOptions, inline ...*cube.Experiment) (*cube.Experiment, ExprStats, error) {
	doc, err := marshalExpr(root)
	if err != nil {
		return nil, ExprStats{}, err
	}
	return c.ExprRaw(ctx, doc, opts, inline...)
}

// ExprRaw evaluates an already-marshalled expression document (the JSON
// the /expr endpoint accepts) — for callers like cube-expr that hold the
// document as text rather than as an ExprNode DAG.
func (c *Client) ExprRaw(ctx context.Context, doc []byte, opts *OpOptions, inline ...*cube.Experiment) (*cube.Experiment, ExprStats, error) {
	data, _, st, err := c.exprPost(ctx, doc, opts, inline)
	if err != nil {
		return nil, st, err
	}
	res, err := decodeExperiment(data)
	if err != nil {
		return nil, st, fmt.Errorf("decoding expression result: %w", err)
	}
	return res, st, nil
}

// ExprMulti evaluates several root expressions over one shared DAG in a
// single POST /expr round trip and returns one experiment per root, in
// root order. A subexpression shared between roots — or one root nested
// inside another — is evaluated once on the server.
func (c *Client) ExprMulti(ctx context.Context, roots []*ExprNode, opts *OpOptions, inline ...*cube.Experiment) ([]*cube.Experiment, ExprStats, error) {
	doc, err := marshalExprMulti(roots)
	if err != nil {
		return nil, ExprStats{}, err
	}
	return c.ExprMultiRaw(ctx, doc, opts, inline...)
}

// ExprMultiRaw evaluates an already-marshalled batched expression
// document (`{"roots":[...]}`), decoding the server's multipart/mixed
// response into one experiment per root. A single-root batch comes back
// as a plain XML body (the server only switches to multipart for two or
// more roots) and decodes to a one-element slice.
func (c *Client) ExprMultiRaw(ctx context.Context, doc []byte, opts *OpOptions, inline ...*cube.Experiment) ([]*cube.Experiment, ExprStats, error) {
	data, hdr, st, err := c.exprPost(ctx, doc, opts, inline)
	if err != nil {
		return nil, st, err
	}
	mt, params, err := mime.ParseMediaType(hdr.Get("Content-Type"))
	if err != nil || !strings.HasPrefix(mt, "multipart/") {
		e, err := decodeExperiment(data)
		if err != nil {
			return nil, st, fmt.Errorf("decoding expression result: %w", err)
		}
		return []*cube.Experiment{e}, st, nil
	}
	mr := multipart.NewReader(bytes.NewReader(data), params["boundary"])
	var outs []*cube.Experiment
	for {
		p, err := mr.NextPart()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, st, fmt.Errorf("reading multipart response: %w", err)
		}
		part, err := io.ReadAll(p)
		if err != nil {
			return nil, st, fmt.Errorf("reading multipart response: %w", err)
		}
		e, err := decodeExperiment(part)
		if err != nil {
			return nil, st, fmt.Errorf("decoding root %d: %w", len(outs), err)
		}
		outs = append(outs, e)
	}
	if want := hdr.Get("X-Cube-Expr-Roots"); want != "" && want != strconv.Itoa(len(outs)) {
		return nil, st, fmt.Errorf("response carries %d parts but X-Cube-Expr-Roots says %s", len(outs), want)
	}
	return outs, st, nil
}

// exprPost is the shared POST /expr transport of ExprRaw and
// ExprMultiRaw: choose the body form, send, and decode the stat headers.
func (c *Client) exprPost(ctx context.Context, doc []byte, opts *OpOptions, inline []*cube.Experiment) ([]byte, http.Header, ExprStats, error) {
	path := "/expr" + encodeQuery(opts.query())
	var err error
	var ct string
	var body []byte
	if len(inline) == 0 {
		ct, body = "application/json", doc
	} else if ct, body, err = marshalExprForm(doc, inline); err != nil {
		return nil, nil, ExprStats{}, err
	}
	data, hdr, _, err := c.doFull(ctx, http.MethodPost, path, ct, body, acceptColumnar)
	if err != nil {
		var serr *StatusError
		if errors.As(err, &serr) && serr.Code == http.StatusNotFound {
			return nil, nil, ExprStats{}, fmt.Errorf("%w: %s", ErrNotStored, strings.TrimSpace(serr.Body))
		}
		return nil, nil, ExprStats{}, err
	}
	var st ExprStats
	fmt.Sscan(hdr.Get("X-Cube-Expr-Nodes"), &st.Nodes)
	fmt.Sscan(hdr.Get("X-Cube-Expr-Cse-Hits"), &st.CSEHits)
	st.Cached = hdr.Get("X-Cube-Expr-Cache") == "hit"
	return data, hdr, st, nil
}

// marshalExprForm builds the multipart body: the expression document in
// the "expr" field plus one digest-guarded operand part per inline
// experiment, in OperandRef order.
func marshalExprForm(doc []byte, inline []*cube.Experiment) (contentType string, body []byte, err error) {
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	if err := mw.WriteField("expr", string(doc)); err != nil {
		return "", nil, err
	}
	var part bytes.Buffer
	for i, e := range inline {
		part.Reset()
		if err := cube.Write(&part, e); err != nil {
			return "", nil, fmt.Errorf("encoding inline operand %d: %w", i, err)
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
