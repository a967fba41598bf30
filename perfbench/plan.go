package main

import (
	"context"
	"fmt"
	"math"

	"jobench"
	"jobench/internal/parallel"
)

// planOp is one optimization: a JOB query under one tree shape and one
// estimator, with the facade's other defaults (simple cost model, PK+FK
// indexes, exhaustive DP) and the service's default of no non-indexed
// nested loops.
type planOp struct {
	i                 int // position in the pass, indexing the oracle's answers
	query, shape, est string
	opts              jobench.PlanOptions
}

var (
	planShapes     = []string{"bushy", "leftdeep", "rightdeep", "zigzag"}
	planEstimators = []string{jobench.EstPostgres, jobench.EstTrue}
)

// planBench is the plan workload: OptimizeContext over every JOB query,
// tree shape and estimator on imdb at scale 0.1. Nearly all of its time is
// in the optimizer and none is in the engine; set-up carries the
// true-cardinality DP the "true" estimator needs.
func planBench() facadeBench[planOp] {
	return facadeBench[planOp]{
		route: "plan",
		world: "imdb",
		scale: 0.1,
		warm:  true,
		ops: func(sys *jobench.System) []planOp {
			var ops []planOp
			for _, q := range sys.QueryIDs() {
				for _, shape := range planShapes {
					for _, est := range planEstimators {
						opts, err := jobench.MakePlanOptions(est, "", "", true, shape, "")
						if err != nil {
							panic(err) // the knob names above are constants
						}
						ops = append(ops, planOp{i: len(ops), query: q, shape: shape, est: est, opts: opts})
					}
				}
			}
			return ops
		},
		prepare: func(ctx context.Context, sys *jobench.System, ops []planOp) (func(context.Context, planOp) error, error) {
			// The oracle: DPccp enumerates the same plan space as DP, so
			// each optimization's cost must equal the cost DPccp finds.
			dpccp, err := jobench.MakePlanOptions("", "", "", true, "", "dpccp")
			if err != nil {
				return nil, err
			}
			ref, err := parallel.RunCells(ctx, 0, ops, func(ctx context.Context, op planOp) (float64, error) {
				opts := op.opts
				opts.Algorithm = dpccp.Algorithm
				_, cost, err := sys.OptimizeContext(ctx, op.query, opts)
				return cost, err
			})
			if err != nil {
				return nil, err
			}
			return func(ctx context.Context, op planOp) error {
				_, cost, err := sys.OptimizeContext(ctx, op.query, op.opts)
				if err != nil {
					return err
				}
				if !sameCost(cost, ref[op.i]) {
					return fmt.Errorf("%s (%s, %s): cost %g, DPccp finds %g", op.query, op.shape, op.est, cost, ref[op.i])
				}
				return nil
			}, nil
		},
		counts: func(m map[string]float64, sys *jobench.System, _ int) error {
			m["engine.work_units"] = 0
			m["engine.rows"] = 0
			var n int
			for _, q := range sys.QueryIDs() {
				st, err := sys.TruthStore(q)
				if err != nil {
					return err
				}
				n += st.NumSubgraphs()
			}
			m["truecard.subgraphs"] = float64(n)
			return nil
		},
	}
}

// sameCost compares two plan costs up to floating-point summation order.
func sameCost(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}
