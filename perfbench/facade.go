package main

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"time"

	"jobench"
)

// runConfig is one invocation's settings.
type runConfig struct {
	seed   int64
	window time.Duration
	traced bool
}

// facadeBench is a workload that drives one in-process jobench.System
// from a closed-loop client.
type facadeBench[T any] struct {
	route string // names each operation's trace
	world string
	scale float64
	// warm runs Warmup (every query's true-cardinality DP) in set-up.
	warm bool
	// ops lists one pass of operations.
	ops func(sys *jobench.System) []T
	// prepare computes the correctness oracle's reference answers and
	// returns the operation, which checks its own result.
	prepare func(ctx context.Context, sys *jobench.System, ops []T) (func(ctx context.Context, op T) error, error)
	// counts adds the workload's exact counts to m after a window of
	// the given number of passes.
	counts func(m map[string]float64, sys *jobench.System, passes int) error
	// optimizeOnlyAllocs measures the optimizer's allocations per
	// operation apart from the rest of the operation (execute, whose
	// operations also run the engine); nil when the operation is the
	// optimizer alone.
	optimizeOnlyAllocs func(ctx context.Context, sys *jobench.System) (float64, error)
}

func runFacade[T any](ctx context.Context, cfg runConfig, b facadeBench[T]) (*report, error) {
	r := &report{metrics: make(map[string]float64)}
	m := r.metrics
	if cfg.traced {
		if err := setupBreakdown(ctx, b.world, b.scale, b.warm, m); err != nil {
			return nil, fmt.Errorf("set-up breakdown: %w", err)
		}
	}
	reps := setupReps
	if cfg.traced {
		reps = 1 // setup_s comes from untraced runs
	}
	sys, setupS, err := medianSetup(reps, func() (*jobench.System, error) {
		return openSystem(b.world, b.scale, b.warm)
	}, nil)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	m["setup_s"] = setupS
	steps := "Open"
	if b.warm {
		steps = "Open + Warmup"
	}
	r.notef("setup_s: median of %d cold set-ups (%s) of %s at scale %g", reps, steps, b.world, b.scale)

	ops := b.ops(sys)
	do, err := b.prepare(ctx, sys, ops)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}

	runtime.GC()
	allocs0 := heapAllocs()
	w := closedLoop(ctx, ops, cfg.seed, cfg.window, closedMinOps,
		func(ctx context.Context, op T, _ int) error { return do(ctx, op) })
	allocsPerOp := float64(heapAllocs()-allocs0) / float64(w.ops())
	r.attempted, r.failed = w.ops(), w.failed
	if w.firstErr != nil {
		r.notef("first failure: %v", w.firstErr)
	}
	m["throughput_qps"] = w.scaledQPS()
	if err := latencyMetrics(m, w.latency, w.slow); err != nil {
		return nil, err
	}
	r.notef("window: closed loop, %d passes of %d operations = %d samples in %.3f s",
		w.passes, len(ops), w.ops(), w.elapsed.Seconds())
	if err := rawNotes(r, w, w.latency); err != nil {
		return nil, err
	}
	if err := b.counts(m, sys, w.passes); err != nil {
		return nil, err
	}
	if b.optimizeOnlyAllocs == nil {
		m["optimizer.allocs_per_op"] = allocsPerOp
		m["engine.allocs_per_op"] = 0
	} else {
		opt, err := b.optimizeOnlyAllocs(ctx, sys)
		if err != nil {
			return nil, err
		}
		m["optimizer.allocs_per_op"] = opt
		m["engine.allocs_per_op"] = allocsPerOp - opt
	}
	for _, k := range []string{"engine.work_units", "engine.rows", "truecard.subgraphs",
		"optimizer.allocs_per_op", "engine.allocs_per_op"} {
		r.notef("%s = %s", k, strconv.FormatFloat(m[k], 'f', -1, 64))
	}

	if cfg.traced {
		// Odd passes run traced and even ones untraced, so the tracing
		// overhead compares passes of the same operations, interleaved in
		// time; the per-layer figures come from the traced passes.
		rec := &recorder{}
		tw := closedLoop(ctx, ops, cfg.seed, cfg.window, closedMinOps,
			func(ctx context.Context, op T, pass int) error {
				if pass%2 == 0 {
					return do(ctx, op)
				}
				return rec.run(ctx, b.route, func(ctx context.Context) error { return do(ctx, op) })
			})
		r.attempted += tw.ops()
		r.failed += tw.failed
		var plain, traced []float64
		for p, d := range tw.passTime {
			qps := float64(len(ops)) / d.Seconds() * tw.slow
			if p%2 == 0 {
				plain = append(plain, qps)
			} else {
				traced = append(traced, qps)
			}
		}
		r.notef("trace overhead: %d untraced passes at median %.3f ops/s, %d traced at %.3f",
			len(plain), median(plain), len(traced), median(traced))
		st := totals(rec.traces)
		m["optimizer.p50_ms"] = st.pct("optimize", 0.50)
		m["optimizer.p99_ms"] = st.pct("optimize", 0.99)
		m["optimizer.share"] = st.share("optimize")
		m["engine.p50_ms"] = st.pct("engine.execute", 0.50)
		m["engine.p99_ms"] = st.pct("engine.execute", 0.99)
		m["engine.share"] = st.share("engine.execute")
		// A true-cardinality DP inside the window (none is expected after
		// set-up) still counts against the layer.
		for _, d := range st.spans["truecard"] {
			m["truecard.dp_s"] += d.Seconds()
		}
		m["loadgen.sent"] = float64(tw.ops())
		m["trace.overhead_pct"] = (median(plain) - median(traced)) / median(plain) * 100
		est, err := estimateMicros(ctx, sys)
		if err != nil {
			return nil, err
		}
		m["cardest.estimate_us"] = est
		for _, k := range []string{
			"reopt.probes", "reopt.replans", "reopt.feedback_hit_ratio", "reopt.feedback_evictions",
			"service.pool_lookup_ms", "service.pool_hit_ratio", "service.cold_opens",
			"service.report_cache_hit_ratio", "service.admission_wait_ms", "service.handler_overhead_ms",
			"router.forward_overhead_ms", "router.retries", "router.breaker_throttled",
		} {
			m[k] = 0
		}
	}
	m["error_rate"] = float64(r.failed) / float64(r.attempted)
	rss, err := rssPeakMB()
	if err != nil {
		return nil, err
	}
	m["rss_peak_mb"] = rss
	return r, nil
}

// estimateMicros is the median time, in microseconds, of one PostgreSQL-
// profile cardinality estimate of a whole query, over the workload.
func estimateMicros(ctx context.Context, sys *jobench.System) (float64, error) {
	var us []float64
	for _, q := range sys.QueryIDs() {
		t0 := time.Now()
		if _, err := sys.EstimateCardinalityContext(ctx, q, jobench.EstPostgres); err != nil {
			return 0, err
		}
		us = append(us, float64(time.Since(t0))/float64(time.Microsecond))
	}
	return median(us), nil
}
