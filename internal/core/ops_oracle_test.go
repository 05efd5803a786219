package core

import (
	"fmt"
	"math"
)

// This file keeps the original per-tuple operator walk as the executable
// specification of the algebra: the oracle integrates exactly like the
// operators, then writes every zero-extended tuple through AddSeverity and
// SetSeverity into the result's write buffer. The property tests hold the
// kernel's results equal to it.

// arithmeticOps applies each of the seven arithmetic operators to two
// operands.
var arithmeticOps = map[string]func(o *Options, a, b *Experiment) (*Experiment, error){
	"difference": func(o *Options, a, b *Experiment) (*Experiment, error) { return Difference(a, b, o) },
	"sum":        func(o *Options, a, b *Experiment) (*Experiment, error) { return Sum(o, a, b) },
	"mean":       func(o *Options, a, b *Experiment) (*Experiment, error) { return Mean(o, a, b) },
	"merge":      func(o *Options, a, b *Experiment) (*Experiment, error) { return Merge(a, b, o) },
	"min":        func(o *Options, a, b *Experiment) (*Experiment, error) { return Min(o, a, b) },
	"max":        func(o *Options, a, b *Experiment) (*Experiment, error) { return Max(o, a, b) },
	"stddev":     func(o *Options, a, b *Experiment) (*Experiment, error) { return StdDev(o, a, b) },
}

// runEngine applies the named operator to a and b with the kernel or, for
// engine "oracle", with the reference walk.
func runEngine(engine, op string, a, b *Experiment) (*Experiment, error) {
	if engine == "oracle" {
		return oracle(op, nil, a, b)
	}
	return arithmeticOps[op](nil, a, b)
}

// oracle evaluates the named arithmetic operator with the reference walk.
func oracle(op string, opts *Options, operands ...*Experiment) (*Experiment, error) {
	in, err := integrate(opts, operands...)
	if err != nil {
		return nil, err
	}
	n := float64(len(operands))
	weights := func(w float64) []float64 {
		ws := make([]float64, len(operands))
		for i := range ws {
			ws[i] = w
		}
		return ws
	}
	fold := func(pick func(acc, v float64) bool) func([]float64) float64 {
		return func(folded []float64) float64 {
			acc := folded[0]
			for _, v := range folded[1:] {
				if pick(acc, v) {
					acc = v
				}
			}
			return acc
		}
	}
	switch op {
	case "difference":
		legacyLinearCombine(in, []float64{1, -1}, operands)
	case "sum":
		legacyLinearCombine(in, weights(1), operands)
	case "mean":
		legacyLinearCombine(in, weights(1/n), operands)
	case "merge":
		legacyMerge(in, operands)
	case "min":
		legacyFold(in, operands, fold(func(acc, v float64) bool { return v < acc }))
	case "max":
		legacyFold(in, operands, fold(func(acc, v float64) bool { return v > acc }))
	case "stddev":
		legacyFold(in, operands, func(folded []float64) float64 {
			var sum, sumsq float64
			for _, y := range folded {
				sum += y
				sumsq += y * y
			}
			return math.Sqrt(math.Max(0, (sumsq-sum*sum/n)/(n-1)))
		})
	default:
		return nil, fmt.Errorf("oracle: unknown operator %q", op)
	}
	deriveProvenance(in, op, operands)
	return in.out, nil
}

// legacyLinearCombine is the reference for every weighted-sum operator.
func legacyLinearCombine(in *integration, weights []float64, operands []*Experiment) {
	in.ensureMaps()
	for i, x := range operands {
		w := weights[i]
		if w == 0 {
			continue
		}
		mf, cf, tf := in.metricFrom[i], in.cnodeFrom[i], in.threadFrom[i]
		x.EachSeverity(func(m *Metric, c *CallNode, t *Thread, v float64) {
			in.out.AddSeverity(mf[m], cf[c], tf[t], w*v)
		})
	}
}

// legacyMerge is the reference for Merge.
func legacyMerge(in *integration, operands []*Experiment) {
	in.ensureMaps()
	src := in.metricSrcs()
	for i, x := range operands {
		mf, cf, tf := in.metricFrom[i], in.cnodeFrom[i], in.threadFrom[i]
		x.EachSeverity(func(m *Metric, c *CallNode, t *Thread, v float64) {
			rm := mf[m]
			// The merge rule operates at metric granularity: the operand
			// that provides a metric first owns all of its values.
			if ri, _ := in.out.MetricIndex(rm); src[ri] != int32(i) {
				return
			}
			in.out.AddSeverity(rm, cf[c], tf[t], v)
		})
	}
}

// legacyFold is the reference implementation behind foldCombine and StdDev:
// it collects, per result tuple, the folded (collapse-summed) value of every
// operand and applies finish to the per-operand vector.
func legacyFold(in *integration, operands []*Experiment, finish func(folded []float64) float64) {
	in.ensureMaps()
	type vec struct {
		vals []float64
	}
	tuples := map[sevKey]*vec{}
	for i, x := range operands {
		mf, cf, tf := in.metricFrom[i], in.cnodeFrom[i], in.threadFrom[i]
		x.EachSeverity(func(m *Metric, c *CallNode, t *Thread, v float64) {
			rk := sevKey{mf[m], cf[c], tf[t]}
			tv, ok := tuples[rk]
			if !ok {
				tv = &vec{vals: make([]float64, len(operands))}
				tuples[rk] = tv
			}
			// Collapsed source tuples of one operand sum into a single
			// zero-extended value before the element-wise operation sees
			// them. (StdDev's former per-source-tuple accumulation got
			// this wrong: two collapsed values v1, v2 contributed
			// v1²+v2² instead of (v1+v2)² to the sum of squares.)
			tv.vals[i] += v
		})
	}
	for rk, tv := range tuples {
		in.out.SetSeverity(rk.m, rk.c, rk.t, finish(tv.vals))
	}
}

// ensureMaps materialises the pointer maps for any operand that only has
// the flat table form (digest fast paths), so the reference walk runs on
// every integration path. Enumeration order is the bridge:
// table entry (si -> ri) means operand node si maps to result node ri.
func (in *integration) ensureMaps() {
	out := in.out
	out.reindex()
	var tabs []remapTable
	for i, x := range in.operands {
		if in.metricFrom[i] != nil {
			continue
		}
		if tabs == nil {
			tabs = in.tables()
		}
		x.reindex()
		mf := make(map[*Metric]*Metric, len(x.metrics))
		for si, sm := range x.metrics {
			mf[sm] = out.metrics[tabs[i].m[si]]
		}
		in.metricFrom[i] = mf
		cf := make(map[*CallNode]*CallNode, len(x.cnodes))
		for si, sc := range x.cnodes {
			cf[sc] = out.cnodes[tabs[i].c[si]]
		}
		in.cnodeFrom[i] = cf
		tf := make(map[*Thread]*Thread, len(x.threads))
		for si, st := range x.threads {
			tf[st] = out.threads[tabs[i].t[si]]
		}
		in.threadFrom[i] = tf
	}
}
