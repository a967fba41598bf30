package main

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"

	"jobench"
	"jobench/internal/parallel"
)

// executeOp is one optimize-and-execute of a JOB query.
type executeOp struct {
	i     int
	query string
}

// executeBench is the execute workload: ExecuteContext over the JOB
// queries on imdb at scale 3 with primary-key indexes only (the design of
// the paper's Fig. 7) and the service's defaults otherwise. The engine
// takes most of the time, its ~1.35 M rows are far larger than the CPU
// cache, and no true-cardinality DP runs.
func executeBench() facadeBench[executeOp] {
	opts := jobench.RunOptions{
		PlanOptions: jobench.PlanOptions{Indexes: jobench.PKOnly, DisableNestedLoops: true},
		Rehash:      true,
	}
	// Work and rows per query, recorded by the window's first pass and
	// compared on every later one; summed per pass for the exact counts.
	var work, rows []atomic.Int64
	return facadeBench[executeOp]{
		route: "execute",
		world: "imdb",
		scale: 3,
		ops: func(sys *jobench.System) []executeOp {
			var ops []executeOp
			for _, q := range sys.QueryIDs() {
				ops = append(ops, executeOp{i: len(ops), query: q})
			}
			work = make([]atomic.Int64, len(ops))
			rows = make([]atomic.Int64, len(ops))
			return ops
		},
		prepare: func(ctx context.Context, sys *jobench.System, ops []executeOp) (func(context.Context, executeOp) error, error) {
			// The oracle: a result's size does not depend on the plan, so
			// each query must return as many rows as a different plan,
			// chosen with PK+FK indexes, returns.
			refOpts := opts
			refOpts.Indexes = jobench.PKFK
			ref, err := parallel.RunCells(ctx, 0, ops, func(ctx context.Context, op executeOp) (int64, error) {
				res, err := sys.ExecuteContext(ctx, op.query, refOpts)
				if err == nil && res.TimedOut {
					err = fmt.Errorf("%s timed out", op.query)
				}
				return res.Rows, err
			})
			if err != nil {
				return nil, err
			}
			return func(ctx context.Context, op executeOp) error {
				res, err := sys.ExecuteContext(ctx, op.query, opts)
				switch {
				case err != nil:
					return err
				case res.TimedOut:
					return fmt.Errorf("%s timed out", op.query)
				case res.Rows != ref[op.i]:
					return fmt.Errorf("%s returned %d rows, the PK+FK plan returns %d", op.query, res.Rows, ref[op.i])
				}
				if !work[op.i].CompareAndSwap(0, res.Work) && work[op.i].Load() != res.Work {
					return fmt.Errorf("%s charged %d work units, earlier %d", op.query, res.Work, work[op.i].Load())
				}
				rows[op.i].Store(res.Rows)
				return nil
			}, nil
		},
		counts: func(m map[string]float64, _ *jobench.System, _ int) error {
			var w, r int64
			for i := range work {
				w += work[i].Load()
				r += rows[i].Load()
			}
			m["engine.work_units"] = float64(w)
			m["engine.rows"] = float64(r)
			m["truecard.subgraphs"] = 0
			return nil
		},
		optimizeOnlyAllocs: func(ctx context.Context, sys *jobench.System) (float64, error) {
			ids := sys.QueryIDs()
			runtime.GC()
			a0 := heapAllocs()
			for _, q := range ids {
				if _, _, err := sys.OptimizeContext(ctx, q, opts.PlanOptions); err != nil {
					return 0, err
				}
			}
			return float64(heapAllocs()-a0) / float64(len(ids)), nil
		},
	}
}
