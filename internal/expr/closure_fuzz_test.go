package expr

import (
	"fmt"
	"math"
	"math/rand"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"testing"

	"cube/internal/core"
)

// FuzzOperatorClosure checks the paper's closure property on the operator
// table: every operator, applied to small random experiments with random
// parameters, yields a valid experiment. Metric paths for extract and
// prune come from the operand's own forest, with repeats and
// ancestor/descendant pairs in both orders. Where the operator has an
// oracle — the element-wise operators and merge against a per-tuple
// evaluation over (metric path, call path, rank, thread) keys, extract
// against the restricted operand (for the path list and its reverse),
// flatten against the operand's metric totals — the result must also
// match it.
//
// The inputs are a generator seed, the operator pick, and selector bytes
// that choose paths and parameters.
func FuzzOperatorClosure(f *testing.F) {
	names := closureOps()
	idx := func(op string) uint8 { return uint8(sort.SearchStrings(names, op)) }
	// The overlapping extract case: paths[1] is "Time/Comm", paths[0]
	// "Time" (every generated forest has both).
	f.Add(int64(1), idx("extract"), []byte{1, 0})
	f.Add(int64(1), idx("extract"), []byte{0, 1})
	for i, op := range names {
		f.Add(int64(i+2), idx(op), []byte{byte(i), 3, 7})
	}
	f.Fuzz(func(t *testing.T, seed int64, pick uint8, sel []byte) {
		rng := rand.New(rand.NewSource(seed))
		spec := ops[names[int(pick)%len(names)]]
		n := spec.minArgs
		if spec.maxArgs == 0 {
			n += rng.Intn(3)
		}
		xs := make([]*core.Experiment, n)
		for i := range xs {
			xs[i] = randomExperiment(rng, fmt.Sprintf("x%d", i))
		}
		paths := metricPaths(xs[0])
		choose := func(i int) string {
			if i < len(sel) {
				return paths[int(sel[i])%len(paths)]
			}
			return paths[rng.Intn(len(paths))]
		}
		q := url.Values{}
		switch spec.name {
		case "extract":
			k := min(max(len(sel), 1), 4)
			for i := 0; i < k; i++ {
				q.Add("metric", choose(i))
			}
		case "prune":
			q.Set("metric", choose(0))
			q.Set("threshold", strconv.FormatFloat([]float64{0, 1, rng.Float64()}[rng.Intn(3)], 'g', -1, 64))
		case "scale":
			q.Set("factor", strconv.Itoa(rng.Intn(7)-3))
		}
		node, err := OpNode(spec.name, q, n)
		if err != nil {
			t.Fatalf("OpNode(%s, %v): %v", spec.name, q, err)
		}
		got, err := node.Apply(nil, xs)
		if err != nil {
			t.Fatalf("%s(%v) on valid operands: %v", spec.name, q, err)
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("%s(%v) result is not a valid experiment: %v", spec.name, q, err)
		}
		switch spec.name {
		case "extract":
			ms := q["metric"]
			want := extractOracle(xs[0], ms)
			if d := diffValues(tupleValues(got), want); d != "" {
				t.Fatalf("extract(%q): %s", ms, d)
			}
			// The reversed path list selects the same tuples (the roots
			// may come in another order).
			rev := append([]string(nil), ms...)
			sort.Sort(sort.Reverse(sort.StringSlice(rev)))
			back, err := core.ExtractMetrics(xs[0], rev...)
			if err != nil {
				t.Fatal(err)
			}
			if err := back.Validate(); err != nil {
				t.Fatalf("extract(%q): %v", rev, err)
			}
			if d := diffValues(tupleValues(back), want); d != "" {
				t.Fatalf("extract(%q): %s", rev, d)
			}
		case "flatten":
			for _, p := range paths {
				a, b := xs[0].MetricTotal(xs[0].FindMetric(p)), got.MetricTotal(got.FindMetric(p))
				if !near(a, b) {
					t.Fatalf("flatten changed the total of %s: %g → %g", p, a, b)
				}
			}
		case "prune":
			// Validity is the property; pruneOracle (internal/core) is
			// the value oracle.
		default:
			want := elementwiseOracle(spec.name, node.Factor, xs)
			if d := diffValues(tupleValues(got), want); d != "" {
				t.Fatalf("%s over %d operands: %s", spec.name, n, d)
			}
		}
	})
}

// closureOps returns the operator table's names, sorted.
func closureOps() []string {
	var names []string
	for name := range ops {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// randomExperiment draws a small experiment: the metric tree Time → Comm
// is always present (with an optional Time/Comp, Time/Comm/Wait and a
// Visits tree), the call tree is rooted at main with repeated callees,
// and the system has one or two ranks of one or two threads.
func randomExperiment(rng *rand.Rand, title string) *core.Experiment {
	e := core.New(title)
	timeM := e.NewMetric("Time", core.Seconds, "")
	comm := timeM.NewChild("Comm", "")
	if rng.Intn(2) == 0 {
		timeM.NewChild("Comp", "")
	}
	if rng.Intn(2) == 0 {
		comm.NewChild("Wait", "")
	}
	if rng.Intn(2) == 0 {
		e.NewMetric("Visits", core.Occurrences, "")
	}
	regions := map[string]*core.Region{}
	site := func(name string) *core.CallSite {
		r := regions[name]
		if r == nil {
			r = e.NewRegion(name, "app", 0, 0)
			regions[name] = r
		}
		return e.NewCallSite("app.c", rng.Intn(3), r)
	}
	root := e.NewCallRoot(site("main"))
	callees := []string{"solve", "send", "recv"}
	for i := rng.Intn(4); i > 0; i-- {
		c := root.NewChild(site(callees[rng.Intn(len(callees))]))
		for j := rng.Intn(3); j > 0; j-- {
			c.NewChild(site(callees[1+rng.Intn(2)]))
		}
	}
	node := e.NewMachine("m").NewNode(fmt.Sprintf("n%d", rng.Intn(2)))
	var threads []*core.Thread
	for rank := rng.Intn(2) + 1; rank > 0; rank-- {
		p := node.NewProcess(rank-1, "")
		for id := rng.Intn(2) + 1; id > 0; id-- {
			threads = append(threads, p.NewThread(id-1, ""))
		}
	}
	for _, m := range e.Metrics() {
		for _, c := range e.CallNodes() {
			for _, th := range threads {
				if rng.Intn(3) == 0 {
					e.SetSeverity(m, c, th, float64(rng.Intn(9)-3))
				}
			}
		}
	}
	return e
}

func metricPaths(e *core.Experiment) []string {
	var paths []string
	for _, m := range e.Metrics() {
		paths = append(paths, m.Path())
	}
	sort.Strings(paths)
	return paths
}

// tupleKey names a severity tuple independently of any one experiment.
type tupleKey struct {
	metric, call string
	rank, thread int
}

// tupleValues sums an experiment's severities per tuple key.
func tupleValues(e *core.Experiment) map[tupleKey]float64 {
	out := map[tupleKey]float64{}
	e.EachSeverity(func(m *core.Metric, c *core.CallNode, th *core.Thread, v float64) {
		out[tupleKey{m.Path(), callKey(c), th.Process().Rank, th.ID}] += v
	})
	return out
}

// callKey is the call path with each step's rank among its same-callee
// siblings: integration matches duplicate siblings first with first, so
// this key names the same result node in every operand.
func callKey(c *core.CallNode) string {
	var sibs []*core.CallNode
	prefix := ""
	if p := c.Parent(); p != nil {
		sibs, prefix = p.Children(), callKey(p)+"/"
	}
	k := 0
	for _, s := range sibs {
		if s == c {
			break
		}
		if s.Callee().Name == c.Callee().Name {
			k++
		}
	}
	return fmt.Sprintf("%s%s#%d", prefix, c.Callee().Name, k)
}

// elementwiseOracle evaluates op per tuple over the zero-extended operands.
func elementwiseOracle(op string, factor float64, xs []*core.Experiment) map[tupleKey]float64 {
	vals := make([]map[tupleKey]float64, len(xs))
	keys := map[tupleKey]bool{}
	for i, x := range xs {
		vals[i] = tupleValues(x)
		for k := range vals[i] {
			keys[k] = true
		}
	}
	out := map[tupleKey]float64{}
	n := float64(len(xs))
	for k := range keys {
		v := make([]float64, len(xs))
		for i := range xs {
			v[i] = vals[i][k]
		}
		var r float64
		switch op {
		case "difference":
			r = v[0] - v[1]
		case "sum", "mean":
			for _, y := range v {
				r += y
			}
			if op == "mean" {
				r /= n
			}
		case "min", "max":
			r = v[0]
			for _, y := range v[1:] {
				if (op == "min") == (y < r) {
					r = y
				}
			}
		case "stddev":
			var s, sq float64
			for _, y := range v {
				s, sq = s+y, sq+y*y
			}
			r = math.Sqrt(math.Max(0, (sq-s*s/n)/(n-1)))
		case "scale":
			r = factor * v[0]
		case "merge":
			// The first operand that provides the metric owns it.
			for i, x := range xs {
				if x.FindMetric(k.metric) != nil {
					r = v[i]
					break
				}
			}
		}
		out[k] = r
	}
	return out
}

// extractOracle restricts x to the subtrees of the requested paths; a path
// under another requested path is covered by it, and an extracted subtree
// root becomes a root, so its descendants' paths lose the ancestors above.
func extractOracle(x *core.Experiment, paths []string) map[tupleKey]float64 {
	out := map[tupleKey]float64{}
	for k, v := range tupleValues(x) {
		top := ""
		for _, p := range paths {
			if (k.metric == p || strings.HasPrefix(k.metric, p+"/")) && (top == "" || len(p) < len(top)) {
				top = p
			}
		}
		if top == "" {
			continue
		}
		base := top[strings.LastIndex(top, "/")+1:]
		k.metric = base + k.metric[len(top):]
		out[k] += v
	}
	return out
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(a)+math.Abs(b)) }

// diffValues reports the first tuple where got and want disagree, treating
// an absent tuple as zero.
func diffValues(got, want map[tupleKey]float64) string {
	for k, w := range want {
		if !near(got[k], w) {
			return fmt.Sprintf("tuple %+v = %g, want %g", k, got[k], w)
		}
	}
	for k, g := range got {
		if _, ok := want[k]; !ok && !near(g, 0) {
			return fmt.Sprintf("tuple %+v = %g, want 0", k, g)
		}
	}
	return ""
}
