package main

import (
	"context"
	"math/rand"
	"time"
)

// shuffled returns pass number pass of a seeded operation sequence: the
// same items every pass, in an order fixed by (seed, pass). Every run thus
// performs the same multiset of operations, and a seed fixes their order.
func shuffled[T any](items []T, seed int64, pass int) []T {
	out := append([]T(nil), items...)
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(pass)))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// window is one measured stretch of operations.
type window struct {
	latency []time.Duration // one per completed operation
	item    []int           // the operation's position in the items, per latency
	elapsed time.Duration
	qps     float64 // operations completed per second of the window
	passes  int
	// passTime is, per pass, the time from its first operation's start to
	// its last one's end, less the time spent probing.
	passTime []time.Duration
	// slow is the slowdown the window's probes measured; dividing a time
	// by it scales the time to the reference host.
	slow     float64
	probes   int
	failed   int64
	firstErr error
}

func (w *window) ops() int64 { return int64(len(w.latency)) }

// scaledQPS is the window's throughput on the reference host.
func (w *window) scaledQPS() float64 { return w.qps * w.slow }

// itemMedians returns, for each of n items, the median of its latencies
// over the window's passes.
func (w *window) itemMedians(n int) []time.Duration {
	per := make([][]float64, n)
	for i, d := range w.latency {
		per[w.item[i]] = append(per[w.item[i]], float64(d))
	}
	out := make([]time.Duration, n)
	for i, xs := range per {
		out[i] = time.Duration(median(xs))
	}
	return out
}

// minPasses is the fewest passes a closed-loop window runs, so its
// throughput is a median over at least two.
const minPasses = 2

// closedMinOps is the fewest operations a closed-loop window runs: half
// again what a p99 needs, so 15 samples lie above it.
const closedMinOps = 1500

// closedLoop runs whole passes of a seeded sequence from one client, which
// sends each operation when the previous one has returned. (Two clients on
// the 2-core machine the benchmark was defined on made each operation's
// time depend on which operation the seed's order ran beside it.) It stops
// at the first pass boundary at which minPasses passes have run, minDur
// has elapsed and minOps operations have run. The client probes the host
// between operations (see calib.go). The window's throughput is the median
// over passes, which a burst of contention from outside the process moves
// less than the mean.
func closedLoop[T any](ctx context.Context, items []T, seed int64, minDur time.Duration, minOps int,
	do func(ctx context.Context, op T, pass int) error) *window {
	idx := make([]int, len(items))
	for i := range idx {
		idx[i] = i
	}
	w := &window{}
	pr := newProber()
	var (
		probes  []time.Duration
		perPass []float64
	)
	start := time.Now()
	for ctx.Err() == nil && (w.passes < minPasses || time.Since(start) < minDur || len(w.latency) < minOps) {
		passStart := time.Now()
		var probing time.Duration
		for _, i := range shuffled(idx, seed, w.passes) {
			t0 := time.Now()
			err := do(ctx, items[i], w.passes)
			w.latency = append(w.latency, time.Since(t0))
			w.item = append(w.item, i)
			if err != nil {
				w.failed++
				if w.firstErr == nil {
					w.firstErr = err
				}
			}
			if pr.due() {
				d := pr.run()
				probes = append(probes, d)
				probing += d
			}
		}
		w.passes++
		w.passTime = append(w.passTime, time.Since(passStart)-probing)
		perPass = append(perPass, float64(len(items))/w.passTime[len(w.passTime)-1].Seconds())
	}
	w.elapsed = time.Since(start)
	w.slow, w.probes = slowdown(probes), len(probes)
	w.qps = median(perPass)
	return w
}

// warmPass runs one untimed pass of items from a single client, so the
// window starts with the heap grown and every cache its operations fill
// filled. Its operations are checked like the window's; it returns how
// many it ran and how many failed, and the first failure.
func warmPass[T any](ctx context.Context, items []T, seed int64, do func(ctx context.Context, op T) error) (int64, int64, error) {
	var failed int64
	var first error
	for _, op := range shuffled(items, seed, -1) {
		if err := do(ctx, op); err != nil {
			failed++
			if first == nil {
				first = err
			}
		}
	}
	return int64(len(items)), failed, first
}
