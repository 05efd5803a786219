// Package selfcube closes the observability loop: it materialises the
// server's own telemetry — the obs metrics registry, the Go runtime
// estimates, and the pipeline stage times — as an ordinary CUBE
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
//     more trees — Time (sec) and Visits (occ) — carry the stage times.
//   - program dimension: one call node per leaf pipeline stage of the
//     stage table in internal/obs (resolve, parse, integrate, lower,
//     accumulate, materialize, render, encode, store) under a synthetic
//     region named after the process. Severity is the stage's summed
//     wall time for Time and its run count for Visits, read from the
//     registry's unsampled stage series, so it does not depend on the
//     trace sample rate.
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
// All fields may be nil/empty except Registry.
type Collector struct {
	Registry *obs.Registry
	Go       *obs.GoRuntimeSampler // sampled before each collection when set
	Process  string                // process name used in titles and the system tree
	Host     string
	PID      int
}

// NewCollector returns a collector for the current process.
func NewCollector(reg *obs.Registry, gs *obs.GoRuntimeSampler, process string) *Collector {
	host, _ := os.Hostname()
	if host == "" {
		host = "localhost"
	}
	if process == "" {
		process = "self"
	}
	return &Collector{Registry: reg, Go: gs, Process: process, Host: host, PID: os.Getpid()}
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

	// Program dimension: one call node per leaf stage under a synthetic
	// process root. The root region is also where registry-wide values
	// (which have no call context) attach.
	rootRegion := e.NewRegion(c.Process, "self", 0, 0)
	rootNode := e.NewCallRoot(e.NewCallSite("", 0, rootRegion))
	var cells []cell
	timeM := e.NewMetric("Time", core.Seconds, "wall time of the pipeline stage")
	visitsM := e.NewMetric("Visits", core.Occurrences, "times the pipeline stage ran")
	for _, st := range obs.LeafStageTimes(c.Registry) {
		node := rootNode.NewChild(e.NewCallSite("", 0, e.NewRegion(st.Name, "stage", 0, 0)))
		cells = append(cells, cell{timeM, node, st.Seconds}, cell{visitsM, node, float64(st.Count)})
	}
	e.Invalidate()

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
