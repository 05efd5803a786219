// Package selfcube closes the observability loop: it materialises the
// server's own telemetry — the obs metrics registry, the Go runtime
// estimates, and the retained trace spans — as an ordinary CUBE
// experiment, so the algebra analyses the process that implements it.
// "What regressed between run N and N-1 of cube-server?" becomes
// Difference over two self-snapshots, answered by the same kernels,
// the same /expr endpoint, and the same digest-addressed store every
// other experiment uses.
//
// The mapping onto the three CUBE dimensions:
//
//   - metric dimension: one metric tree per registry family. Counters and
//     gauges become a root metric (unit inferred from the family name:
//     *_seconds → sec, *_bytes → bytes, everything else occ), with one
//     child metric per labeled series (named "k=v,k2=v2"). Histograms
//     split into <family>_count (occ) and <family>_sum (inferred unit)
//     trees, because one CUBE metric tree must hold a single unit. Two
//     more trees — Time (sec) and Visits (occ) — carry the span taxonomy.
//   - program dimension: the call tree is the span-name taxonomy
//     aggregated over the tracer's retained traces, rooted at a synthetic
//     region named after the process. Severity is span self-time
//     (duration minus children) for Time and the span count for Visits.
//   - system dimension: one machine (the host), one node, one process
//     (rank 0, the live PID), one thread. Registry-derived values attach
//     at the root call node of that single thread.
//
// Severities land through the columnar SeverityIngest path, so a
// self-experiment is byte-for-byte an ordinary experiment: it validates,
// serialises, diffs, and caches exactly like collected data.
package selfcube

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	"cube/internal/core"
	"cube/internal/obs"
)

// Collector gathers one self-telemetry experiment from the live process.
// All fields may be nil/empty except Registry; a nil Tracer yields an
// experiment whose call tree is just the synthetic process root.
type Collector struct {
	Registry *obs.Registry
	Tracer   *obs.Tracer
	Go       *obs.GoRuntimeSampler // sampled before each collection when set
	Process  string                // process name used in titles and the system tree
	Host     string
	PID      int
}

// NewCollector returns a collector for the current process.
func NewCollector(reg *obs.Registry, tracer *obs.Tracer, gs *obs.GoRuntimeSampler, process string) *Collector {
	host, _ := os.Hostname()
	if host == "" {
		host = "localhost"
	}
	if process == "" {
		process = "self"
	}
	return &Collector{Registry: reg, Tracer: tracer, Go: gs, Process: process, Host: host, PID: os.Getpid()}
}

// RunTitle is the monotonic run-series naming scheme: self:<process>:<seq>,
// zero-padded so titles sort lexically in sequence order.
func RunTitle(process string, seq uint64) string {
	return fmt.Sprintf("self:%s:%06d", process, seq)
}

// SeriesName renders a label set as the child-metric name of a labeled
// series: "k=v,k2=v2" with keys sorted, "" for the unlabeled series.
func SeriesName(labels []obs.Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]obs.Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	parts := make([]string, len(ls))
	for i, l := range ls {
		parts[i] = l.Key + "=" + l.Value
	}
	return strings.Join(parts, ",")
}

// UnitFor infers the CUBE unit of a registry family from its name, the
// same convention the Prometheus ecosystem encodes in suffixes.
func UnitFor(family string) core.Unit {
	switch {
	case strings.Contains(family, "_seconds"):
		return core.Seconds
	case strings.Contains(family, "_bytes"):
		return core.Bytes
	}
	return core.Occurrences
}

// cell is one severity value waiting for columnar ingest.
type cell struct {
	m *core.Metric
	c *core.CallNode
	v float64
}

// Collect materialises one experiment from the current process state.
// seq numbers the run within its series and at stamps the collection
// time into the experiment attributes.
func (c *Collector) Collect(seq uint64, at time.Time) (*core.Experiment, error) {
	if c.Go != nil {
		c.Go.Sample()
	}
	snap := c.Registry.Snapshot()

	e := core.New(RunTitle(c.Process, seq))
	e.Attrs["self/seq"] = fmt.Sprintf("%d", seq)
	e.Attrs["self/process"] = c.Process
	e.Attrs["self/host"] = c.Host
	e.Attrs["self/pid"] = fmt.Sprintf("%d", c.PID)
	e.Attrs["self/time"] = at.UTC().Format(time.RFC3339Nano)

	// System dimension: this process on this host, one thread.
	mach := e.NewMachine(c.Host)
	proc := mach.NewNode(c.Host).NewProcess(0, fmt.Sprintf("%s pid %d", c.Process, c.PID))
	proc.NewThread(0, "collector")

	// Program dimension: the aggregated span taxonomy under a synthetic
	// process root. The root region is also where registry-wide values
	// (which have no call context) attach.
	rootRegion := e.NewRegion(c.Process, "self", 0, 0)
	rootNode := e.NewCallRoot(e.NewCallSite("", 0, rootRegion))
	tax := aggregateSpans(c.Tracer)

	var cells []cell
	timeM := e.NewMetric("Time", core.Seconds, "span self-time aggregated from retained traces")
	visitsM := e.NewMetric("Visits", core.Occurrences, "spans aggregated at this call path")
	buildTaxonomy(e, rootNode, tax, timeM, visitsM, &cells)

	// Metric dimension: the registry snapshot, one tree per family.
	famRoots := map[string]*core.Metric{}
	familyNode := func(name string, unit core.Unit, desc string, labels []obs.Label) *core.Metric {
		root := famRoots[name]
		if root == nil {
			root = e.NewMetric(name, unit, desc)
			famRoots[name] = root
		}
		series := SeriesName(labels)
		if series == "" {
			return root
		}
		for _, ch := range root.Children() {
			if ch.Name == series {
				return ch
			}
		}
		return root.NewChild(series, "")
	}
	for _, cv := range snap.Counters {
		m := familyNode(cv.Name, UnitFor(cv.Name), "registry counter", cv.Labels)
		cells = append(cells, cell{m, rootNode, float64(cv.Value)})
	}
	for _, gv := range snap.Gauges {
		m := familyNode(gv.Name, UnitFor(gv.Name), "registry gauge", gv.Labels)
		cells = append(cells, cell{m, rootNode, float64(gv.Value)})
	}
	for _, hv := range snap.Histograms {
		cm := familyNode(hv.Name+"_count", core.Occurrences, "registry histogram observation count", hv.Labels)
		cells = append(cells, cell{cm, rootNode, float64(hv.Count)})
		sm := familyNode(hv.Name+"_sum", UnitFor(hv.Name), "registry histogram observation sum", hv.Labels)
		cells = append(cells, cell{sm, rootNode, hv.Sum})
	}

	// Install the severities through the columnar path. Construction above
	// guarantees uniqueness per (metric, call node): each registry series
	// maps to exactly one metric node, each taxonomy node appears once.
	ing, err := e.NewSeverityIngest()
	if err != nil {
		return nil, err
	}
	keys := make([]uint64, 0, len(cells))
	vals := make([]float64, 0, len(cells))
	for _, cl := range cells {
		if cl.v == 0 || math.IsNaN(cl.v) || math.IsInf(cl.v, 0) {
			continue
		}
		mi, ok1 := e.MetricIndex(cl.m)
		ci, ok2 := e.CallNodeIndex(cl.c)
		if !ok1 || !ok2 {
			continue
		}
		keys = append(keys, ing.RowKey(mi, ci)) // + thread 0
		vals = append(vals, cl.v)
	}
	ing.Commit(keys, vals, false)

	if err := e.Validate(); err != nil {
		return nil, fmt.Errorf("selfcube: collected experiment invalid: %w", err)
	}
	return e, nil
}

// taxNode is one node of the span-name taxonomy: spans with the same name
// under the same parent path merge, accumulating self-time and visits.
type taxNode struct {
	name     string
	selfSec  float64
	visits   int64
	children map[string]*taxNode
}

func newTaxNode(name string) *taxNode {
	return &taxNode{name: name, children: map[string]*taxNode{}}
}

// aggregateSpans folds every completed retained trace into one taxonomy.
// In-flight traces (root duration still zero) are skipped: their timings
// are not final and would under-report.
func aggregateSpans(tracer *obs.Tracer) *taxNode {
	root := newTaxNode("")
	for _, tr := range tracer.Traces() {
		if tr.Root() == nil || tr.Duration() <= 0 {
			continue
		}
		mergeSpan(root, tr.Root())
	}
	return root
}

func mergeSpan(parent *taxNode, s *obs.Span) {
	n := parent.children[s.Name()]
	if n == nil {
		n = newTaxNode(s.Name())
		parent.children[s.Name()] = n
	}
	self := s.Duration()
	for _, ch := range s.Children() {
		self -= ch.Duration()
		mergeSpan(n, ch)
	}
	if self < 0 {
		self = 0 // overlapping concurrent children (kernel shards)
	}
	n.selfSec += self.Seconds()
	n.visits++
}

// buildTaxonomy materialises the taxonomy as call nodes under parent and
// queues the Time/Visits severities. Children are created in sorted name
// order so collection is deterministic for a given taxonomy.
func buildTaxonomy(e *core.Experiment, parent *core.CallNode, tn *taxNode, timeM, visitsM *core.Metric, cells *[]cell) {
	names := make([]string, 0, len(tn.children))
	for name := range tn.children {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		child := tn.children[name]
		region := e.FindRegion(name)
		if region == nil || region.Module != "span" {
			region = e.NewRegion(name, "span", 0, 0)
		}
		node := parent.NewChild(e.NewCallSite("", 0, region))
		*cells = append(*cells, cell{timeM, node, child.selfSec})
		*cells = append(*cells, cell{visitsM, node, float64(child.visits)})
		buildTaxonomy(e, node, child, timeM, visitsM, cells)
	}
	e.Invalidate()
}

// FindSeries returns the metric node carrying the family's series with the
// given labels — the family root itself for the unlabeled series — or nil.
// It works on self-experiments and on experiments derived from them (the
// integrated metric forest of a Difference keeps names and units).
func FindSeries(e *core.Experiment, family string, labels ...obs.Label) *core.Metric {
	for _, root := range e.MetricRoots() {
		if root.Name != family {
			continue
		}
		want := SeriesName(labels)
		if want == "" {
			return root
		}
		for _, ch := range root.Children() {
			if ch.Name == want {
				return ch
			}
		}
	}
	return nil
}

// SeriesValue returns the severity total of the family's series with the
// given labels, or 0 when absent. On a difference experiment this is the
// per-series delta between the two runs.
func SeriesValue(e *core.Experiment, family string, labels ...obs.Label) float64 {
	m := FindSeries(e, family, labels...)
	if m == nil {
		return 0
	}
	return e.MetricTotal(m)
}
