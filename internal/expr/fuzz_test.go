package expr

import (
	"crypto/sha256"
	"encoding/json"
	"net/url"
	"strconv"
	"testing"
	"unicode/utf8"
)

// fuzzDigester gives operand i a fixed, distinct content digest.
func fuzzDigester(i int) ([sha256.Size]byte, error) {
	return sha256.Sum256([]byte(strconv.Itoa(i))), nil
}

// FuzzParse feeds the /expr wire JSON parser arbitrary bytes. It must never
// panic; a document it accepts must plan, keep every operator within its
// arity, and plan to the same root keys when parsed again.
func FuzzParse(f *testing.F) {
	d := "digest:0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef"
	for _, s := range []string{
		`{"op":"difference","args":[{"ref":"operand:0"},{"ref":"operand:1"}]}`,
		`{"op":"Mean","args":[{"ref":"def:x"},{"ref":"def:x"}],"defs":{"x":{"op":"scale","factor":2,"args":[{"ref":"` + d + `"}]}}}`,
		`{"defs":{"a":{"ref":"def:b"},"b":{"ref":"def:a"}},"expr":{"ref":"def:a"}}`,
		`{"roots":[{"op":"prune","metric":"Time","threshold":0.5,"args":[{"ref":"operand:0"}]},{"op":"extract","metrics":["Time"],"args":[{"ref":"operand:0"}]}]}`,
		`{"op":"stddev","args":[{"ref":"operand:0"}]}`,
		`{"op":"flatten","factor":1,"args":[{"ref":"operand:0"}]}`,
		`{"ref":"operand:-1"}`,
		`[]`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ex, err := Parse(data, Limits{MaxNodes: 64, MaxDepth: 16})
		if err != nil {
			return
		}
		plan, err := ex.Plan(fuzzDigester)
		if err != nil {
			t.Fatalf("parsed expression does not plan: %v", err)
		}
		if len(plan.Roots) != ex.NumRoots() || ex.NumRoots() == 0 {
			t.Fatalf("plan has %d roots, expression %d", len(plan.Roots), ex.NumRoots())
		}
		for _, n := range plan.Nodes {
			if n.Spec == nil {
				continue
			}
			if len(n.Args) < n.Spec.minArgs || (n.Spec.maxArgs > 0 && len(n.Args) > n.Spec.maxArgs) {
				t.Fatalf("%s planned with %d operands", n.Spec.name, len(n.Args))
			}
		}
		ex2, err := Parse(data, Limits{MaxNodes: 64, MaxDepth: 16})
		if err != nil {
			t.Fatalf("second parse failed: %v", err)
		}
		plan2, err := ex2.Plan(fuzzDigester)
		if err != nil {
			t.Fatal(err)
		}
		for i := range plan.Roots {
			if plan.Roots[i].Key != plan2.Roots[i].Key {
				t.Fatalf("root %d plans to different keys", i)
			}
		}
	})
}

// FuzzOpNode maps arbitrary /op/{op} paths and queries to nodes. It must
// never panic, and a node it builds must equal — same canonical key — the
// node the /expr wire form of the same request parses to.
func FuzzOpNode(f *testing.F) {
	for _, s := range []struct {
		op, query string
		n         uint8
	}{
		{"difference", "", 2},
		{"difference", "metric=Time", 1},
		{"mean", "callmatch=callee", 3},
		{"stddev", "", 2},
		{"prune", "metric=Time&threshold=0.5", 1},
		{"prune", "threshold=NaN&metric=Time", 1},
		{"extract", "metric=Time&metric=Time%2FWait", 1},
		{"scale", "factor=-2.5e3", 1},
		{"scale", "factor=", 1},
		{"Difference", "", 2},
	} {
		f.Add(s.op, s.query, s.n)
	}
	f.Fuzz(func(t *testing.T, op, query string, n uint8) {
		q, err := url.ParseQuery(query)
		if err != nil {
			return
		}
		node, err := OpNode(op, q, int(n%8))
		if err != nil {
			return
		}
		if node.Spec.name != op || len(node.Args) != int(n%8) {
			t.Fatalf("OpNode(%q, %d operands) built %s over %d", op, n%8, node.Spec.name, len(node.Args))
		}
		w := wireNode{Op: op, Metric: node.Metric, Metrics: node.Metrics}
		if node.Spec.needsThresh {
			w.Threshold = &node.Threshold
		}
		if node.Spec.needsFactor {
			w.Factor = &node.Factor
		}
		for i := range node.Args {
			w.Args = append(w.Args, &wireNode{Ref: "operand:" + strconv.Itoa(i)})
		}
		for _, m := range append([]string{w.Metric}, w.Metrics...) {
			if !utf8.ValidString(m) {
				return // JSON cannot carry this name unchanged
			}
		}
		data, err := json.Marshal(w)
		if err != nil {
			t.Fatal(err)
		}
		ex, err := Parse(data, Limits{})
		if err != nil {
			t.Fatalf("/expr rejects the node /op built: %v\n%s", err, data)
		}
		want, err := ex.Plan(fuzzDigester)
		if err != nil {
			t.Fatal(err)
		}
		got, err := (&Expr{roots: []*Node{node}}).Plan(fuzzDigester)
		if err != nil {
			t.Fatal(err)
		}
		if got.Root.Key != want.Root.Key {
			t.Fatalf("/op node and /expr node differ for %s\n%s", op, data)
		}
	})
}
