// Package expr implements the server-side expression engine: whole
// algebra DAGs — compositions the paper's closure property makes legal —
// parsed from a JSON wire form, validated, canonicalized, deduplicated
// (common-subexpression elimination), and evaluated once per distinct
// subexpression over operands resolved from the content-addressed store
// or the request body.
//
// The wire form is a tree of nodes:
//
//	{"op": "Mean", "args": [
//	    {"op": "Difference", "args": [{"ref": "digest:<a>"}, {"ref": "digest:<b>"}]},
//	    {"op": "Difference", "args": [{"ref": "digest:<a>"}, {"ref": "digest:<c>"}]}]}
//
// Leaves reference stored experiments (`digest:<sha256>`) or inline
// multipart operands of the carrying request (`operand:<index>`). A
// request may also name subexpressions once and reference them many
// times (`{"defs": {"d": {...}}, "expr": {"op":"Mean","args":[{"ref":"def:d"}, ...]}}`);
// defs are a convenience spelling — structurally identical subtrees are
// shared whether or not they were written as defs, because sharing is
// decided by canonical content digest, not by name.
//
// Canonicalization assigns every node a digest over (operator, parameters,
// child digests), sorting the child digests of commutative operators so
// Mean(a,b) and Mean(b,a) share one node. Operand order is canonicalized
// only where the algebra guarantees order-invariance (mean, sum, min, max,
// stddev); merge keeps its operand order because its metric-ownership rule
// — the first operand providing a metric wins — is order-sensitive, and
// difference, prune, extract, and scale are inherently positional. This is
// the rewrite set whose correctness follows directly from the commutativity
// of the underlying element-wise arithmetic (cf. the multi-query
// optimization literature on the Analyze operator in PAPERS.md: shared
// sub-plans must be semantics-preserving rewrites).
package expr

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/url"
	"sort"
	"strconv"
	"strings"

	"cube/internal/core"
)

// Limits bounds the expression structures the parser accepts; both are
// denial-of-service guards, not semantic restrictions.
type Limits struct {
	// MaxNodes caps the number of node objects in the wire form
	// (defs bodies included). 0 means DefaultLimits.MaxNodes.
	MaxNodes int
	// MaxDepth caps the operator nesting depth of the expanded DAG
	// (a leaf has depth 1). 0 means DefaultLimits.MaxDepth.
	MaxDepth int
}

// DefaultLimits are generous for human-written and tool-generated
// expressions while keeping hostile payloads cheap to reject.
var DefaultLimits = Limits{MaxNodes: 1024, MaxDepth: 64}

func (l Limits) orDefault() Limits {
	if l.MaxNodes <= 0 {
		l.MaxNodes = DefaultLimits.MaxNodes
	}
	if l.MaxDepth <= 0 {
		l.MaxDepth = DefaultLimits.MaxDepth
	}
	return l
}

// opSpec describes one operator of the algebra: its wire name, arity,
// parameters, whether operand order is canonicalized, and how it runs.
type opSpec struct {
	name        string
	minArgs     int
	maxArgs     int  // 0 = unbounded
	commutative bool // operand order canonicalized (element-wise order-invariant)
	needsMetric bool // prune
	needsThresh bool // prune
	needsFactor bool // scale
	takesNames  bool // extract
	apply       applyFunc
}

// applyFunc runs an operator node over its evaluated operands.
type applyFunc func(n *Node, opts *core.Options, x []*core.Experiment) (*core.Experiment, error)

// nary adapts an n-ary core operator to applyFunc.
func nary(f func(*core.Options, ...*core.Experiment) (*core.Experiment, error)) applyFunc {
	return func(_ *Node, opts *core.Options, x []*core.Experiment) (*core.Experiment, error) {
		return f(opts, x...)
	}
}

// ops is the operator table, keyed by lower-cased wire name. It drives the
// parser, the canonicalizer, evaluation, and POST /op/{op} (OpNode).
var ops = map[string]*opSpec{
	"difference": {name: "difference", minArgs: 2, maxArgs: 2,
		apply: func(_ *Node, opts *core.Options, x []*core.Experiment) (*core.Experiment, error) {
			return core.Difference(x[0], x[1], opts)
		}},
	"merge":  {name: "merge", minArgs: 1, apply: nary(core.MergeAll)},
	"mean":   {name: "mean", minArgs: 1, commutative: true, apply: nary(core.Mean)},
	"sum":    {name: "sum", minArgs: 1, commutative: true, apply: nary(core.Sum)},
	"min":    {name: "min", minArgs: 1, commutative: true, apply: nary(core.Min)},
	"max":    {name: "max", minArgs: 1, commutative: true, apply: nary(core.Max)},
	"stddev": {name: "stddev", minArgs: 2, commutative: true, apply: nary(core.StdDev)},
	"flatten": {name: "flatten", minArgs: 1, maxArgs: 1,
		apply: func(_ *Node, _ *core.Options, x []*core.Experiment) (*core.Experiment, error) {
			return core.Flatten(x[0])
		}},
	"extract": {name: "extract", minArgs: 1, maxArgs: 1, takesNames: true,
		apply: func(n *Node, _ *core.Options, x []*core.Experiment) (*core.Experiment, error) {
			return core.ExtractMetrics(x[0], n.Metrics...)
		}},
	"prune": {name: "prune", minArgs: 1, maxArgs: 1, needsMetric: true, needsThresh: true,
		apply: func(n *Node, _ *core.Options, x []*core.Experiment) (*core.Experiment, error) {
			return core.Prune(x[0], n.Metric, n.Threshold)
		}},
	"scale": {name: "scale", minArgs: 1, maxArgs: 1, needsFactor: true,
		apply: func(n *Node, opts *core.Options, x []*core.Experiment) (*core.Experiment, error) {
			return core.Scale(x[0], n.Factor, opts)
		}},
}

// ErrUnknownOp is OpNode's error for an operator name the table lacks.
var ErrUnknownOp = errors.New("unknown operation")

// OpNode maps POST /op/{name} onto the one-node expression it denotes:
// the operator applied to `operand:0` … `operand:<n-1>`, with parameters
// from the query — metric and threshold for prune, repeated metric for
// extract, factor for scale; other operators ignore the query. The node
// passes the parser's own validation, so /op and /expr accept the same
// nodes. The name must match the table exactly (no case folding).
func OpNode(name string, q url.Values, n int) (*Node, error) {
	spec, ok := ops[name]
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrUnknownOp, name)
	}
	w := &wireNode{Op: name, Args: make([]*wireNode, n)}
	for i := range w.Args {
		w.Args[i] = &wireNode{Ref: "operand:" + strconv.Itoa(i)}
	}
	number := func(param string) (*float64, error) {
		if _, ok := q[param]; !ok {
			return nil, nil
		}
		v, err := strconv.ParseFloat(q.Get(param), 64)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, parseErrf("bad %s %q: want a finite number", param, q.Get(param))
		}
		return &v, nil
	}
	var err error
	switch {
	case spec.needsMetric || spec.needsThresh:
		w.Metric = q.Get("metric")
		w.Threshold, err = number("threshold")
	case spec.needsFactor:
		w.Factor, err = number("factor")
	case spec.takesNames:
		w.Metrics = q["metric"]
	}
	if err != nil {
		return nil, err
	}
	p := &parser{lim: Limits{MaxNodes: n + 1}.orDefault(), maxOp: -1}
	return p.build(w)
}

// wireNode is the JSON shape of one expression node.
type wireNode struct {
	Op   string      `json:"op,omitempty"`
	Args []*wireNode `json:"args,omitempty"`
	Ref  string      `json:"ref,omitempty"`

	// Operator parameters.
	Metric    string   `json:"metric,omitempty"`    // prune
	Threshold *float64 `json:"threshold,omitempty"` // prune
	Factor    *float64 `json:"factor,omitempty"`    // scale
	Metrics   []string `json:"metrics,omitempty"`   // extract
}

// wireRequest is the JSON shape of a whole request: a bare node, a node
// plus named definitions it may reference as `def:<name>`, or a batch of
// root nodes (`{"roots": [...]}`') evaluated over one shared DAG.
type wireRequest struct {
	Defs  map[string]*wireNode `json:"defs,omitempty"`
	Expr  *wireNode            `json:"expr,omitempty"`
	Roots []*wireNode          `json:"roots,omitempty"`
	wireNode
}

// LeafKind distinguishes the two operand sources of a leaf.
type LeafKind int

const (
	// LeafDigest references a stored experiment by content address.
	LeafDigest LeafKind = iota
	// LeafOperand references an inline multipart operand by index.
	LeafOperand
)

// Leaf identifies one operand source of the expression.
type Leaf struct {
	Kind    LeafKind
	Digest  string // sha-256 hex, for LeafDigest
	Operand int    // operand index, for LeafOperand
}

func (l Leaf) String() string {
	if l.Kind == LeafDigest {
		return "digest:" + l.Digest
	}
	return "operand:" + strconv.Itoa(l.Operand)
}

// Node is one node of the parsed expression DAG. Leaves have Spec == nil;
// interior nodes carry their operator spec and parameters. After Plan,
// structurally identical nodes are one *Node and Key is the canonical
// content digest.
type Node struct {
	Spec *opSpec
	Args []*Node
	Leaf Leaf // valid when Spec == nil

	// Parameters (by operator).
	Metric    string
	Threshold float64
	Factor    float64
	Metrics   []string

	// Key is the canonical digest: sha-256 over the operator, its
	// parameters, and the (order-canonicalized) child keys; for leaves,
	// over the operand's own content digest. Two nodes with equal keys
	// compute equal experiments.
	Key [sha256.Size]byte

	depth int
}

// Op returns the node's operator name, or the leaf reference.
func (n *Node) Op() string {
	if n.Spec == nil {
		return n.Leaf.String()
	}
	return n.Spec.name
}

// Apply runs the node's operator over its evaluated operands, in order.
// Operators never mutate their operands.
func (n *Node) Apply(opts *core.Options, operands []*core.Experiment) (*core.Experiment, error) {
	return n.Spec.apply(n, opts, operands)
}

// KeyString is the hex form of the canonical digest.
func (n *Node) KeyString() string { return hex.EncodeToString(n.Key[:]) }

// Expr is a parsed (but not yet canonicalized) expression — one root, or
// several roots sharing one definition scope and one evaluation DAG.
type Expr struct {
	roots     []*Node
	wireNodes int // node objects in the wire form, defs included
	maxOp     int // largest inline operand index referenced, -1 if none
}

// NumRoots reports how many root expressions the request carried (1 for
// the single-expression forms).
func (e *Expr) NumRoots() int { return len(e.roots) }

// MaxOperandRef returns the largest `operand:<i>` index the expression
// references, or -1 when it references none — the carrying request must
// supply at least MaxOperandRef+1 inline operands.
func (e *Expr) MaxOperandRef() int { return e.maxOp }

// WireNodes reports how many node objects the wire form carried.
func (e *Expr) WireNodes() int { return e.wireNodes }

// ParseError is a structural or semantic error in the expression; the
// server maps it to 400.
type ParseError struct{ msg string }

func (e *ParseError) Error() string { return "expr: " + e.msg }

func parseErrf(format string, args ...any) error {
	return &ParseError{fmt.Sprintf(format, args...)}
}

// Parse decodes and validates the wire JSON: known operators, arity,
// parameter presence, well-formed leaf references, def-cycle rejection,
// and the node/depth caps.
func Parse(data []byte, lim Limits) (*Expr, error) {
	lim = lim.orDefault()
	var req wireRequest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, parseErrf("bad JSON: %v", err)
	}
	var wireRoots []*wireNode
	switch {
	case len(req.Roots) > 0:
		if req.Expr != nil || req.Op != "" || req.Ref != "" {
			return nil, parseErrf(`request mixes "roots" with "expr" or top-level node fields`)
		}
		wireRoots = req.Roots
	case req.Expr != nil:
		if req.Op != "" || req.Ref != "" {
			return nil, parseErrf(`request mixes "expr" with top-level node fields`)
		}
		wireRoots = []*wireNode{req.Expr}
	default:
		// Bare-node form: the top-level object is itself the expression.
		if req.Op == "" && req.Ref == "" {
			return nil, parseErrf(`request carries neither "expr", "roots", nor a top-level node`)
		}
		wireRoots = []*wireNode{&req.wireNode}
	}
	p := &parser{lim: lim, defs: req.Defs, resolving: map[string]bool{}, built: map[string]*Node{}, maxOp: -1}
	roots := make([]*Node, len(wireRoots))
	for i, w := range wireRoots {
		n, err := p.build(w)
		if err != nil {
			return nil, err
		}
		if d := n.depth; d > lim.MaxDepth {
			return nil, parseErrf("expression depth %d exceeds the limit of %d", d, lim.MaxDepth)
		}
		roots[i] = n
	}
	return &Expr{roots: roots, wireNodes: p.count, maxOp: p.maxOp}, nil
}

type parser struct {
	lim       Limits
	defs      map[string]*wireNode
	resolving map[string]bool  // defs on the current resolution path (cycle detection)
	built     map[string]*Node // defs already resolved, shared by pointer
	count     int
	maxOp     int
}

// build validates one wire node and its subtree. Resolved defs are shared
// by pointer, so a def referenced many times costs one traversal and the
// expanded structure is a DAG, not an exponentially copied tree.
func (p *parser) build(w *wireNode) (*Node, error) {
	if w == nil {
		return nil, parseErrf("null node")
	}
	p.count++
	if p.count > p.lim.MaxNodes {
		return nil, parseErrf("expression exceeds the limit of %d nodes", p.lim.MaxNodes)
	}
	if w.Ref != "" {
		if w.Op != "" || len(w.Args) > 0 {
			return nil, parseErrf("node mixes ref %q with an operator", w.Ref)
		}
		return p.buildRef(w.Ref)
	}
	if w.Op == "" {
		return nil, parseErrf(`node has neither "op" nor "ref"`)
	}
	spec, ok := ops[strings.ToLower(w.Op)]
	if !ok {
		return nil, parseErrf("unknown operator %q", w.Op)
	}
	if len(w.Args) < spec.minArgs {
		return nil, parseErrf("%s needs at least %d operands, got %d", spec.name, spec.minArgs, len(w.Args))
	}
	if spec.maxArgs > 0 && len(w.Args) > spec.maxArgs {
		return nil, parseErrf("%s takes at most %d operands, got %d", spec.name, spec.maxArgs, len(w.Args))
	}
	n := &Node{Spec: spec}
	switch {
	case spec.needsMetric || spec.needsThresh: // prune
		if w.Metric == "" {
			return nil, parseErrf(`%s needs a "metric" parameter`, spec.name)
		}
		if w.Threshold == nil {
			return nil, parseErrf(`%s needs a "threshold" parameter`, spec.name)
		}
		n.Metric, n.Threshold = w.Metric, *w.Threshold
	case spec.needsFactor: // scale
		if w.Factor == nil {
			return nil, parseErrf(`%s needs a "factor" parameter`, spec.name)
		}
		n.Factor = *w.Factor
	case spec.takesNames: // extract
		if len(w.Metrics) == 0 {
			return nil, parseErrf(`%s needs a non-empty "metrics" list`, spec.name)
		}
		n.Metrics = append([]string(nil), w.Metrics...)
	default:
		if w.Metric != "" || w.Threshold != nil || w.Factor != nil || len(w.Metrics) > 0 {
			return nil, parseErrf("%s takes no parameters", spec.name)
		}
	}
	n.depth = 1
	for _, arg := range w.Args {
		c, err := p.build(arg)
		if err != nil {
			return nil, err
		}
		n.Args = append(n.Args, c)
		if c.depth+1 > n.depth {
			n.depth = c.depth + 1
		}
	}
	return n, nil
}

func (p *parser) buildRef(ref string) (*Node, error) {
	switch {
	case strings.HasPrefix(ref, "digest:"):
		d := strings.ToLower(strings.TrimSpace(ref[len("digest:"):]))
		if len(d) != 2*sha256.Size || strings.Trim(d, "0123456789abcdef") != "" {
			return nil, parseErrf("ref %q: want digest:<64 hex chars>", ref)
		}
		return &Node{Leaf: Leaf{Kind: LeafDigest, Digest: d}, depth: 1}, nil
	case strings.HasPrefix(ref, "operand:"):
		i, err := strconv.Atoi(ref[len("operand:"):])
		if err != nil || i < 0 {
			return nil, parseErrf("ref %q: want operand:<non-negative index>", ref)
		}
		if i > p.maxOp {
			p.maxOp = i
		}
		return &Node{Leaf: Leaf{Kind: LeafOperand, Operand: i}, depth: 1}, nil
	case strings.HasPrefix(ref, "def:"):
		name := ref[len("def:"):]
		if n, ok := p.built[name]; ok {
			return n, nil
		}
		if p.resolving[name] {
			return nil, parseErrf("definition cycle through %q", name)
		}
		w, ok := p.defs[name]
		if !ok {
			return nil, parseErrf("ref %q names no definition", ref)
		}
		p.resolving[name] = true
		n, err := p.build(w)
		if err != nil {
			return nil, err
		}
		delete(p.resolving, name)
		p.built[name] = n
		return n, nil
	default:
		return nil, parseErrf("ref %q: want digest:<sha256>, operand:<index>, or def:<name>", ref)
	}
}

// Plan is the canonicalized, deduplicated evaluation plan: every
// structurally distinct subexpression appears exactly once in Nodes, in a
// topological order (children strictly before parents, roots last).
type Plan struct {
	Nodes []*Node
	// Root is the single root of the classic one-expression forms, and
	// the first root of a batch request.
	Root *Node
	// Roots holds every requested root in request order. Batched roots
	// share one DAG: a subexpression common to two roots — or one root
	// that is a subexpression of another — plans and evaluates once.
	Roots []*Node
	// CSEHits counts references to operator subexpressions that were
	// already planned — the evaluations the sharing pass eliminates.
	// Deduplicated leaf references do not count.
	CSEHits int
	// Depth is the operator nesting depth of the DAG.
	Depth int
}

// LeafDigester supplies the content digest of an inline operand, so
// leaf keys — and therefore every expression digest — are content
// addresses: the same bytes uploaded inline or referenced from the store
// canonicalize to the same node.
type LeafDigester func(operand int) ([sha256.Size]byte, error)

// Plan canonicalizes e into a deduplicated DAG. digester resolves
// `operand:<i>` leaves to their content digests; it may be nil when the
// expression references no inline operands.
func (e *Expr) Plan(digester LeafDigester) (*Plan, error) {
	pl := &planner{
		digester: digester,
		byPtr:    map[*Node]*Node{},
		byKey:    map[[sha256.Size]byte]*Node{},
	}
	roots := make([]*Node, len(e.roots))
	depth := 0
	for i, r := range e.roots {
		cr, err := pl.canon(r)
		if err != nil {
			return nil, err
		}
		roots[i] = cr
		if cr.depth > depth {
			depth = cr.depth
		}
	}
	return &Plan{Nodes: pl.order, Root: roots[0], Roots: roots, CSEHits: pl.cseHits, Depth: depth}, nil
}

type planner struct {
	digester LeafDigester
	byPtr    map[*Node]*Node
	byKey    map[[sha256.Size]byte]*Node
	order    []*Node
	cseHits  int
}

// canon returns the canonical shared node for n, building it if this is
// the first structurally equal subexpression encountered.
func (pl *planner) canon(n *Node) (*Node, error) {
	if cn, ok := pl.byPtr[n]; ok {
		// The same parsed node (a def) referenced again: pure sharing.
		if cn.Spec != nil {
			pl.cseHits++
		}
		return cn, nil
	}
	args := make([]*Node, len(n.Args))
	for i, a := range n.Args {
		ca, err := pl.canon(a)
		if err != nil {
			return nil, err
		}
		args[i] = ca
	}
	if n.Spec != nil && n.Spec.commutative {
		// Order-invariant operator: sort operands by canonical key so
		// Mean(a, b) and Mean(b, a) hash — and evaluate — identically.
		sort.SliceStable(args, func(i, j int) bool {
			return bytes.Compare(args[i].Key[:], args[j].Key[:]) < 0
		})
	}
	key, err := pl.keyOf(n, args)
	if err != nil {
		return nil, err
	}
	if cn, ok := pl.byKey[key]; ok {
		pl.byPtr[n] = cn
		// Only operator sharing counts as a CSE hit: an eliminated hit is
		// an evaluation that will not run. Leaf dedup merely coalesces
		// operand resolution and would inflate the number.
		if cn.Spec != nil {
			pl.cseHits++
		}
		return cn, nil
	}
	cn := &Node{
		Spec: n.Spec, Args: args, Leaf: n.Leaf, Key: key,
		Metric: n.Metric, Threshold: n.Threshold, Factor: n.Factor, Metrics: n.Metrics,
		depth: 1,
	}
	for _, a := range args {
		if a.depth+1 > cn.depth {
			cn.depth = a.depth + 1
		}
	}
	pl.byKey[key] = cn
	pl.byPtr[n] = cn
	pl.order = append(pl.order, cn)
	return cn, nil
}

// keyOf computes the canonical digest of a node from its operator, its
// parameters, and its children's keys.
func (pl *planner) keyOf(n *Node, args []*Node) ([sha256.Size]byte, error) {
	h := sha256.New()
	if n.Spec == nil {
		switch n.Leaf.Kind {
		case LeafDigest:
			fmt.Fprintf(h, "leaf|%s", n.Leaf.Digest)
		case LeafOperand:
			if pl.digester == nil {
				return [sha256.Size]byte{}, parseErrf("ref %q: no inline operands supplied", n.Leaf)
			}
			d, err := pl.digester(n.Leaf.Operand)
			if err != nil {
				return [sha256.Size]byte{}, err
			}
			fmt.Fprintf(h, "leaf|%s", hex.EncodeToString(d[:]))
		}
		return sum256(h.Sum(nil)), nil
	}
	fmt.Fprintf(h, "op|%s", n.Spec.name)
	if n.Spec.needsMetric || n.Spec.needsThresh {
		fmt.Fprintf(h, "|metric=%s|threshold=%s", n.Metric, strconv.FormatFloat(n.Threshold, 'g', -1, 64))
	}
	if n.Spec.needsFactor {
		fmt.Fprintf(h, "|factor=%s", strconv.FormatFloat(n.Factor, 'g', -1, 64))
	}
	for _, m := range n.Metrics {
		fmt.Fprintf(h, "|name=%s", m)
	}
	for _, a := range args {
		h.Write([]byte{'|'})
		h.Write(a.Key[:])
	}
	return sum256(h.Sum(nil)), nil
}

func sum256(b []byte) (out [sha256.Size]byte) {
	copy(out[:], b)
	return out
}
