package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"jobench"
	"jobench/internal/parallel"
	"jobench/internal/query"
	"jobench/internal/stats"
	"jobench/internal/trace"
	"jobench/internal/truecard"
	"jobench/internal/workload"
)

// setupReps is how many times a run sets up from cold; setup_s is their
// median.
const setupReps = 3

// worldSeed is the data set seed of every world a workload opens (the
// facade's default). The benchmark's --seed orders the operations; the
// data stay the same, so set-up does the same work on every seed.
const worldSeed = 42

// medianSetup calls setup reps times and returns the median of the
// durations together with the value the last call built. Each earlier
// value is handed to discard (when non-nil) and collected before the next
// call, so every set-up starts from the same heap. Set-up times are not
// scaled to the reference host: set-up runs on every core, and a probe
// beside it measured how the Go scheduler shared them out, not the host.
func medianSetup[T any](reps int, setup func() (T, error), discard func(T)) (T, float64, error) {
	var (
		last, zero T
		times      []float64
	)
	for i := 0; i < reps; i++ {
		if i > 0 {
			if discard != nil {
				discard(last)
			}
			last = zero
			runtime.GC()
		}
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return zero, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		last = v
	}
	return last, median(times), nil
}

// openSystem is the facade's set-up: generation, ANALYZE and index builds
// in Open, and the true-cardinality DP of every query when warm is set.
func openSystem(name string, scale float64, warm bool) (*jobench.System, error) {
	sys, err := jobench.Open(jobench.Options{
		Workload: name, Scale: scale, Seed: worldSeed,
		Logf: func(string, ...any) {},
	})
	if err != nil {
		return nil, err
	}
	if warm {
		if err := sys.Warmup(); err != nil {
			return nil, err
		}
	}
	return sys, nil
}

// setupBreakdown repeats Open's set-up steps one at a time under the
// benchmark's own spans, calling the layers directly: data generation,
// ANALYZE, each index build, and, with withTruth, the true-cardinality
// DP of every query on the same worker pool Warmup uses. It fills the
// workload, stats, index and truecard metrics.
func setupBreakdown(ctx context.Context, name string, scale float64, withTruth bool, m map[string]float64) error {
	wl, err := workload.Get(name)
	if err != nil {
		return err
	}
	t := trace.New(trace.NewID(), "setup")
	ctx = trace.NewContext(ctx, t)
	world := workload.NewKey(name, worldSeed, scale)

	sp := trace.StartSpan(ctx, "workload.generate")
	db := wl.Generate(world.Config())
	sp.End()

	sp = trace.StartSpan(ctx, "stats.analyze")
	stats.AnalyzeDatabase(db, stats.Options{SampleSize: 30000, MCVTarget: 100, HistBuckets: 100, Seed: worldSeed})
	sp.End()

	for _, cfg := range wl.IndexConfigs() {
		sp = trace.StartSpan(ctx, "index.build")
		_, err := wl.BuildIndexes(db, cfg)
		sp.End(trace.String("config", cfg.Label()))
		if err != nil {
			return fmt.Errorf("building %s indexes: %w", cfg.Label(), err)
		}
	}
	var subgraphs int64
	if withTruth {
		sp = trace.StartSpan(ctx, "truecard.all")
		counts, err := parallel.RunCells(ctx, 0, wl.Queries(), func(ctx context.Context, q *query.Query) (int, error) {
			dp := trace.StartSpan(ctx, "truecard")
			st, err := truecard.ComputeContext(ctx, db, query.MustBuildGraph(q), truecard.Options{})
			dp.End(trace.String("query", q.ID))
			if err != nil {
				return 0, fmt.Errorf("true cardinalities of %s: %w", q.ID, err)
			}
			return st.NumSubgraphs(), nil
		})
		sp.End()
		if err != nil {
			return err
		}
		for _, n := range counts {
			subgraphs += int64(n)
		}
	}
	t.Finish()
	sum := func(name string) float64 {
		var d time.Duration
		for _, s := range t.Spans() {
			if s.Name == name {
				d += s.Dur
			}
		}
		return d.Seconds()
	}
	st := totals([]*trace.Trace{t})
	m["workload.generate_s"] = sum("workload.generate")
	m["stats.analyze_s"] = sum("stats.analyze")
	m["index.build_s"] = sum("index.build")
	m["truecard.dp_s"] = sum("truecard.all")
	m["truecard.dp_p99_ms"] = st.pct("truecard", 0.99)
	m["truecard.subgraphs"] = float64(subgraphs)
	return nil
}
