package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"cube"
	"cube/internal/core"
)

// ledger is a file of runs: repetitions of one code version, appended to
// by -out and read by -compare.
type ledger struct {
	Runs []*runResult `json:"runs"`
}

func readLedger(path string) (*ledger, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var l ledger
	if err := json.Unmarshal(data, &l); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &l, nil
}

// loadLedger reads the ledger at path; a missing file is an empty ledger.
func loadLedger(path string) (*ledger, error) {
	l, err := readLedger(path)
	if errors.Is(err, os.ErrNotExist) {
		return &ledger{}, nil
	}
	return l, err
}

func appendLedger(path string, runs []*runResult) error {
	l, err := loadLedger(path)
	if err != nil {
		return err
	}
	l.Runs = append(l.Runs, runs...)
	data, err := json.MarshalIndent(l, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// e2eValues collects one end-to-end metric of a workload over a ledger's
// untraced runs.
func (l *ledger) e2eValues(workload, metric string) []float64 {
	var out []float64
	for _, r := range l.Runs {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload && !r.Traced {
			out = append(out, v)
		}
	}
	return out
}

// traceOverhead is a traced run's p50 over the median p50 of the ledger's
// untraced runs of the same workload, seed and window, minus 1; false
// when the ledger holds no such run.
func (l *ledger) traceOverhead(traced *runResult) (float64, bool) {
	var p50s []float64
	for _, r := range l.Runs {
		if !r.Traced && r.Workload == traced.Workload && r.Seed == traced.Seed && r.Seconds == traced.Seconds {
			p50s = append(p50s, r.Metrics["p50_ms"])
		}
	}
	if len(p50s) == 0 {
		return 0, false
	}
	return traced.Metrics["p50_ms"]/median(p50s) - 1, true
}

// verdict judges a change from base to next: unresolved when the base's
// own spread is wider than the bound, worse or better when the medians
// differ by more than the bound, ok otherwise. A zero bound means any
// increase is worse.
func verdict(d metricDef, base, next []float64) (string, float64) {
	bm, nm := median(base), median(next)
	if d.bound == 0 {
		switch {
		case nm > bm:
			return "worse", nm - bm
		case nm < bm:
			return "better", nm - bm
		}
		return "ok", 0
	}
	change := (nm - bm) / math.Abs(bm)
	worse := change
	if d.better == "higher" {
		worse = -change
	}
	switch {
	case spread(base) > d.bound:
		return "unresolved", change
	case worse > d.bound:
		return "worse", change
	case worse < -d.bound:
		return "better", change
	}
	return "ok", change
}

// runCompare prints, per workload and end-to-end metric, both medians,
// the base's interquartile spread, and the verdict; it returns 1 when any
// metric is worse beyond its bound.
func runCompare(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: cubebench -compare base.json new.json")
		return 2
	}
	base, err := readLedger(args[0])
	if err == nil {
		var next *ledger
		if next, err = readLedger(args[1]); err == nil {
			return compareLedgers(w, base, next)
		}
	}
	fmt.Fprintln(os.Stderr, "cubebench:", err)
	return 2
}

func compareLedgers(w io.Writer, base, next *ledger) int {
	code := 0
	fmt.Fprintf(w, "%-13s %-15s %12s %12s %8s %8s  %s\n", "workload", "metric", "base", "new", "spread", "change", "verdict")
	for _, wl := range workloads {
		for _, d := range append(append([]metricDef(nil), e2eDefs...), failedRatio) {
			b, n := base.e2eValues(wl.name, d.name), next.e2eValues(wl.name, d.name)
			if len(b) == 0 || len(n) == 0 {
				continue
			}
			v, change := verdict(d, b, n)
			if v == "worse" {
				code = 1
			}
			spreadCol, changeCol := fmt.Sprintf("%.1f%%", 100*spread(b)), fmt.Sprintf("%+.1f%%", 100*change)
			if d.bound == 0 { // an absolute change of a metric that is usually 0
				spreadCol, changeCol = "-", fmt.Sprintf("%+.3g", change)
			}
			fmt.Fprintf(w, "%-13s %-15s %12.4g %12.4g %8s %8s  %s\n",
				wl.name, d.name, median(b), median(n), spreadCol, changeCol, v)
		}
	}
	return code
}

// writeCube records the runs as one CUBE experiment, so repetitions
// reduce with cube-mean and commits compare with cube-diff. The metric
// tree is the catalog, with values converted to the CUBE units (seconds,
// bytes, occurrences); the call tree is cubebench → workload → layer; the
// system tree is this host → GOMAXPROCS.
func writeCube(path string, runs []*runResult) error {
	e := core.New("cubebench")
	type conv struct {
		root  *core.Metric
		scale float64
	}
	timeRoot := e.NewMetric("time", core.Seconds, "cubebench timings")
	memRoot := e.NewMetric("memory", core.Bytes, "cubebench volumes")
	countRoot := e.NewMetric("count", core.Occurrences, "cubebench rates, ratios and counts")
	convs := map[string]conv{
		"ms": {timeRoot, 1e-3}, "s": {timeRoot, 1},
		"MiB": {memRoot, 1 << 20}, "KiB": {memRoot, 1 << 10},
	}
	metric := map[string]*core.Metric{}
	scale := map[string]float64{}
	catalog := append(append(append([]metricDef(nil), e2eDefs...), failedRatio), layerDefs...)
	for _, d := range catalog {
		c, ok := convs[d.unit]
		if !ok {
			c = conv{countRoot, 1}
		}
		metric[d.name] = c.root.NewChild(d.name, fmt.Sprintf("reported in %s, better %s", d.unit, d.better))
		scale[d.name] = c.scale
	}

	host, err := os.Hostname()
	if err != nil {
		host = "localhost"
	}
	th := e.NewMachine(host).NewNode(fmt.Sprintf("GOMAXPROCS=%d", runtime.GOMAXPROCS(0))).
		NewProcess(0, "cubebench").NewThread(0, "main")
	regions := map[string]*core.Region{}
	site := func(name string) *core.CallSite {
		r := regions[name]
		if r == nil {
			r = e.NewRegion(name, "cubebench", len(regions), 0)
			regions[name] = r
		}
		return e.NewCallSite("cubebench", len(e.CallSites()), r)
	}
	root := e.NewCallRoot(site("cubebench"))
	child := func(parent *core.CallNode, name string) *core.CallNode { return parent.NewChild(site(name)) }
	type at struct {
		node   *core.CallNode
		metric string
		value  float64
	}
	var values []at
	for _, r := range runs {
		wn := child(root, r.Workload)
		layers := map[string]*core.CallNode{}
		for _, d := range catalog {
			name := d.name
			v, ok := r.Metrics[name]
			if !ok || math.IsNaN(v) {
				continue
			}
			node := wn
			if layer, _, ok := strings.Cut(name, "."); ok {
				if layers[layer] == nil {
					layers[layer] = child(wn, layer)
				}
				node = layers[layer]
			}
			values = append(values, at{node, name, v * scale[name]})
		}
	}
	e.Invalidate()
	for _, v := range values {
		e.AddSeverity(metric[v.metric], v.node, th, v.value)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return cube.WriteFile(path, e)
}

// writeTraceFile writes every traced run's spans as one Chrome trace, one
// process per workload.
func writeTraceFile(path string, runs []*runResult) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	var recs []*recorder
	var names []string
	for _, r := range runs {
		if r.rec != nil {
			recs = append(recs, r.rec)
			names = append(names, r.Workload)
		}
	}
	if err := writeChrome(f, recs, names); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
