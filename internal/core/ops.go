package core

import (
	"fmt"
	"math"
	"strings"
)

// This file implements the algebraic operators. The domain of every operator
// is the set of valid CUBE experiments and the range is a subset of the
// domain: each operator first integrates the operands' metadata, then
// extends each operand's severity function with zeros onto the integrated
// domain, and finally applies an element-wise arithmetic operation. The
// result is a complete — albeit derived — experiment, so operators compose
// into arbitrary composite operations (closure).
//
// When integration collapses several source tuples of one operand onto the
// same result tuple (e.g. the same rank appearing under two system nodes),
// the operand's contribution to that tuple is the *sum* of the collapsed
// values — the value its zero-extended severity function takes on the
// integrated domain. Every operator, including StdDev, folds per operand
// first and only then combines across operands.
//
// The arithmetic itself runs on the indexed kernel layer (kernel.go); the
// original per-tuple walk survives in ops_oracle_test.go as the
// specification the property tests compare against.
//
// Severity values are combined with IEEE-754 semantics: non-finite inputs
// propagate (NaN in an operand yields NaN in the result, with no
// cancellation in differences). Validate and the cubexml boundary reject
// non-finite severities, so operators only meet them on experiments built
// programmatically with out-of-policy values.

func deriveProvenance(in *integration, op string, operands []*Experiment) {
	out := in.out
	out.Derived = true
	out.Operation = op
	names := make([]string, len(operands))
	for i, x := range operands {
		names[i] = x.Title
		out.Parents = append(out.Parents, x.Title)
	}
	if len(names) <= 3 {
		out.Title = fmt.Sprintf("%s(%s)", op, strings.Join(names, ", "))
	} else {
		out.Title = fmt.Sprintf("%s(%s, ..., %s; %d operands)", op, names[0], names[len(names)-1], len(names))
	}
	out.Attrs["cube.operation"] = op
	out.Attrs["cube.operands"] = strings.Join(names, "; ")
}

// linearCombine implements every operator that is a weighted sum of its
// operands' (zero-extended) severity functions.
func linearCombine(op string, opts *Options, weights []float64, operands ...*Experiment) (*Experiment, error) {
	return runOp(op, opts, operands, func(p *kernelPlan) { p.kernelCombine(weights, nil) })
}

// Difference computes a derived experiment whose severity function is the
// minuend's severity minus the subtrahend's severity, element-wise over the
// integrated metadata. Severities of the result may be negative; displays
// indicate the sign by a raised (gain) or sunken (loss) relief. Difference
// experiments support before/after comparison of code or parameter changes
// along all dimensions of the data model.
func Difference(minuend, subtrahend *Experiment, opts *Options) (*Experiment, error) {
	return linearCombine("difference", opts, []float64{1, -1}, minuend, subtrahend)
}

// Mean computes a derived experiment whose severity is the element-wise
// arithmetic mean of the operands. It takes an arbitrary number of
// arguments and is intended to smooth the effects of random errors
// introduced by unrelated system activity, or to summarise performance
// across a range of execution parameters.
func Mean(opts *Options, operands ...*Experiment) (*Experiment, error) {
	if len(operands) == 0 {
		return nil, ErrNoOperands
	}
	w := make([]float64, len(operands))
	for i := range w {
		w[i] = 1 / float64(len(operands))
	}
	return linearCombine("mean", opts, w, operands...)
}

// Sum computes the element-wise sum of the operands — a natural companion
// of Mean ("others may follow"), useful e.g. to accumulate phases measured
// separately.
func Sum(opts *Options, operands ...*Experiment) (*Experiment, error) {
	if len(operands) == 0 {
		return nil, ErrNoOperands
	}
	w := make([]float64, len(operands))
	for i := range w {
		w[i] = 1
	}
	return linearCombine("sum", opts, w, operands...)
}

// Scale multiplies every severity of x by factor, yielding a derived
// experiment (e.g. to convert a sum over n runs into a per-run average, or
// to negate an experiment).
func Scale(x *Experiment, factor float64, opts *Options) (*Experiment, error) {
	out, err := linearCombine("scale", opts, []float64{factor}, x)
	if err != nil {
		return nil, err
	}
	out.Attrs["cube.scale"] = fmt.Sprintf("%g", factor)
	return out, nil
}

// Merge integrates performance data from different sources: it takes
// experiments with different or overlapping sets of metrics (for example a
// trace-analysis result and one or more counter profiles that could not be
// measured in the same run) and yields a derived experiment with the joint
// set of metrics. For a metric provided by only one operand the data is
// taken from that operand; for a metric provided by several operands it is
// taken from the first one that provides it ("without loss of generality").
func Merge(a, b *Experiment, opts *Options) (*Experiment, error) {
	return MergeAll(opts, a, b)
}

// MergeAll folds Merge over an arbitrary number of operands, left to right,
// in a single metadata integration (the closure property makes the binary
// and n-ary forms equivalent; this form avoids re-integrating intermediate
// results).
func MergeAll(opts *Options, operands ...*Experiment) (*Experiment, error) {
	if len(operands) == 0 {
		return nil, ErrNoOperands
	}
	w := make([]float64, len(operands))
	for i := range w {
		w[i] = 1
	}
	return runOp("merge", opts, operands, func(p *kernelPlan) { p.kernelCombine(w, mergeKeep(p.in, operands)) })
}

// Min computes the element-wise minimum over the operands' zero-extended
// severity functions. Taking the minimum of a series of repeated runs is
// the classical way to suppress perturbation by unrelated system activity
// (the paper's §5.1 methodology uses the minimum of ten runs per
// configuration as the representative).
func Min(opts *Options, operands ...*Experiment) (*Experiment, error) {
	return foldCombine("min", opts, func(acc, v float64) float64 {
		if v < acc {
			return v
		}
		return acc
	}, operands...)
}

// Max computes the element-wise maximum over the operands' zero-extended
// severity functions.
func Max(opts *Options, operands ...*Experiment) (*Experiment, error) {
	return foldCombine("max", opts, func(acc, v float64) float64 {
		if v > acc {
			return v
		}
		return acc
	}, operands...)
}

// StdDev computes the element-wise sample standard deviation over the
// operands' zero-extended severity functions — the natural companion of
// Mean when characterising run-to-run perturbation: the result is itself a
// complete experiment whose severities quantify, per (metric, call path,
// thread) tuple, how noisy the series is. Requires at least two operands.
func StdDev(opts *Options, operands ...*Experiment) (*Experiment, error) {
	if len(operands) < 2 {
		return nil, fmt.Errorf("core: StdDev requires at least two operands")
	}
	n := float64(len(operands))
	stddev := func(folded []float64) float64 {
		var sum, sumsq float64
		for _, y := range folded {
			sum += y
			sumsq += y * y
		}
		variance := (sumsq - sum*sum/n) / (n - 1)
		if variance < 0 {
			variance = 0 // numerical noise
		}
		return math.Sqrt(variance)
	}
	return runOp("stddev", opts, operands, func(p *kernelPlan) { p.kernelFold(stddev) })
}

// foldCombine implements non-linear element-wise operators. Because the
// severity function is zero-extended onto the integrated metadata, a tuple
// undefined in some operand participates with value zero, exactly as the
// element-wise operation on the dense three-dimensional arrays would.
func foldCombine(op string, opts *Options, fold func(acc, v float64) float64, operands ...*Experiment) (*Experiment, error) {
	if len(operands) == 0 {
		return nil, ErrNoOperands
	}
	finish := func(folded []float64) float64 {
		acc := folded[0]
		for _, v := range folded[1:] {
			acc = fold(acc, v)
		}
		return acc
	}
	return runOp(op, opts, operands, func(p *kernelPlan) { p.kernelFold(finish) })
}
