package core

import "cube/internal/obs"

// Operator instrumentation. The algebra records through the stage table
// of internal/obs (obs.Ops, obs.Integrate, obs.Lower, obs.Accumulate,
// obs.Materialize), which feeds the process-wide registry
// (obs.SetRegistry), the trace span under Options.Trace and the wide
// event in Options.Event with one call each. Per operator invocation:
//
//	cube_op_invocations_total{op}   how often each operator ran
//	cube_op_errors_total{op}        failed invocations
//	cube_op_duration_seconds{op}    wall time per invocation
//	cube_op_cells_total{op}         severity cells written to results
//	cube_op_zero_fill_ratio{op}     zero-extension overhead (see below)
//
// per metadata integration:
//
//	cube_integrate_invocations_total
//	cube_integrate_input_nodes_total{dim}   metadata nodes consumed
//	cube_integrate_output_nodes_total{dim}  metadata nodes produced
//	cube_meta_fastpath_total{kind}          identity | memo | miss
//	cube_meta_memo_hits_total, cube_meta_memo_misses_total
//
// and per kernel plan:
//
//	cube_kernel_stage_seconds{stage}  wall time of lower/accumulate/materialize
//	cube_kernel_shards_total          shards worked (with invocations: avg width)
//	cube_kernel_tuples_total          operand tuples consumed by kernels
//	cube_kernel_invocations_total     kernel plans executed
//
// The zero-fill expansion ratio captures the cost of the algebra's
// zero-extension step: every operand's severity function is extended with
// zeros onto the integrated support, so the cells an operator actually
// touches number |result support| x |operands|, while the operands only
// define totalInputCells of them. The ratio of the two (>= 1 in the usual
// case) tells how much work is spent on implicit zeros — the number that
// decides whether sparse iteration is paying off.
//
// With no registry, tracer or event installed a stage costs the loads of
// those seams. Costs are aggregated locally and published once per stage —
// never per cell — so the hot loops stay free of atomic traffic.

func (o *Options) event() *obs.Event {
	if o == nil {
		return nil
	}
	return o.Event
}

// runOp is one operator invocation: the operator stage around the
// integrate stage, the kernel plan (run) and the result's provenance.
func runOp(name string, opts *Options, operands []*Experiment, run func(*kernelPlan)) (*Experiment, error) {
	op := obs.Ops[name]
	var parent *obs.Span
	if opts != nil {
		parent = opts.Trace
	}
	st := obs.BeginIn(parent, opts.event(), op.StageDef)
	st.Event().SetOp(name)
	inCells := 0
	if st.On() {
		for _, x := range operands {
			if x != nil {
				inCells += x.NonZeroCount()
			}
		}
	}
	if sp := st.Span(); sp != nil {
		sp.SetAttr("operands", len(operands))
		sp.SetAttr("cells_in", inCells)
	}
	in, err := integrateUnder(st.Span(), opts, operands)
	if err != nil {
		st.Count(op.Errors, 1)
		st.End(err)
		return nil, err
	}
	run(newKernelPlan(in, opts, operands, st.Span()))
	deriveProvenance(in, name, operands)
	if st.On() {
		outCells := in.out.NonZeroCount()
		st.Count(op.Calls, 1)
		st.Count(op.Cells, int64(outCells))
		if inCells > 0 {
			st.Observe(op.ZeroFill, float64(outCells*len(operands))/float64(inCells))
		}
		if sp := st.Span(); sp != nil {
			sp.SetAttr("cells_out", outCells)
		}
	}
	st.End(nil)
	return in.out, nil
}

// integrateUnder is integrate as a stage under the operator span parent:
// it records which fast path served the integration and how many metadata
// nodes went in and came out. The gap between the two is the structural
// overlap the merge discovered.
func integrateUnder(parent *obs.Span, opts *Options, operands []*Experiment) (*integration, error) {
	st := obs.BeginIn(parent, opts.event(), obs.Integrate)
	in, err := integrateAny(opts, operands)
	if err == nil {
		in.out.reindex()
		err = in.out.domainError()
	}
	if err != nil || !st.On() {
		st.End(err)
		return in, err
	}
	switch {
	case in.fastpath == fastpathIdentity:
		st.Count(obs.FastpathIdentity, 1)
	case in.fastpath == fastpathMemo:
		st.Count(obs.FastpathMemo, 1)
		st.Count(obs.MemoHits, 1)
	case in.fastpath == fastpathMiss:
		st.Count(obs.FastpathMiss, 1)
		st.Count(obs.MemoMisses, 1)
	case len(operands) >= 2 && !metaFastpathOff.Load():
		st.Count(obs.FastpathMiss, 1) // digest-eligible, memo disabled
	}
	for _, x := range operands {
		x.reindex()
		for i, n := range [3]int{len(x.metrics), len(x.cnodes), len(x.threads)} {
			st.Count(obs.IntegrateInputNodes[i], int64(n))
		}
	}
	out := in.out
	st.Count(obs.IntegrateCalls, 1)
	for i, n := range [3]int{len(out.metrics), len(out.cnodes), len(out.threads)} {
		st.Count(obs.IntegrateOutputNodes[i], int64(n))
	}
	if sp := st.Span(); sp != nil {
		sp.SetAttr("metrics", len(out.metrics))
		sp.SetAttr("callnodes", len(out.cnodes))
		sp.SetAttr("fastpath", in.fastpathLabel())
	}
	st.End(nil)
	return in, nil
}
