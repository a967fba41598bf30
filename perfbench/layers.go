package main

import (
	"context"
	"sort"
	"sync"
	"time"

	"jobench/internal/trace"
)

// interval is a half-open [start, end) stretch of time, in nanoseconds
// from an arbitrary origin shared by the intervals compared.
type interval struct{ start, end int64 }

// selfTime is a span's duration minus the part of it its children cover:
// the children are clipped to the parent and overlapping children count
// once.
func selfTime(parent interval, children []interval) time.Duration {
	var clipped []interval
	for _, c := range children {
		c.start = max(c.start, parent.start)
		c.end = min(c.end, parent.end)
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var covered, reach int64
	reach = parent.start
	for _, c := range clipped {
		if c.end <= reach {
			continue
		}
		covered += c.end - max(c.start, reach)
		reach = c.end
	}
	return time.Duration(parent.end - parent.start - covered)
}

// recorder gives each operation of a traced window its own trace and
// keeps the finished traces for the per-layer breakdown.
type recorder struct {
	mu     sync.Mutex
	traces []*trace.Trace
}

// run calls fn under a fresh trace named route.
func (r *recorder) run(ctx context.Context, route string, fn func(ctx context.Context) error) error {
	t := trace.New(trace.NewID(), route)
	err := fn(trace.NewContext(ctx, t))
	t.Finish()
	r.mu.Lock()
	r.traces = append(r.traces, t)
	r.mu.Unlock()
	return err
}

// stageTotals sums, over a set of traces, each stage span's duration and
// the operations' own durations, so a layer's share is its total over the
// operations' total.
type stageTotals struct {
	ops   time.Duration
	spans map[string][]time.Duration
}

func totals(traces []*trace.Trace) stageTotals {
	st := stageTotals{spans: make(map[string][]time.Duration)}
	for _, t := range traces {
		st.ops += t.Duration()
		for _, s := range t.Spans() {
			st.spans[s.Name] = append(st.spans[s.Name], s.Dur)
		}
	}
	return st
}

func (st stageTotals) share(name string) float64 {
	if st.ops == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range st.spans[name] {
		sum += d
	}
	return float64(sum) / float64(st.ops)
}

// pct returns the q-quantile, in milliseconds, of one stage's spans.
func (st stageTotals) pct(name string, q float64) float64 {
	return percentile(msAll(st.spans[name]), q)
}
