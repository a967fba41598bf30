package main

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestSampleCountRule(t *testing.T) {
	for _, c := range []struct {
		q    float64
		want int
	}{{0.5, 20}, {0.9, 100}, {0.99, 1000}, {0.999, 10000}} {
		if got := minSamples(c.q); got != c.want {
			t.Errorf("minSamples(%v) = %d, want %d", c.q, got, c.want)
		}
	}
	lat := make([]time.Duration, 999)
	for i := range lat {
		lat[i] = time.Duration(i+1) * time.Millisecond
	}
	if err := latencyMetrics(map[string]float64{}, lat, 1); err == nil {
		t.Error("latencyMetrics accepted a p99 over 999 samples")
	}
	lat = append(lat, 1000*time.Millisecond)
	m := map[string]float64{}
	if err := latencyMetrics(m, lat, 1); err != nil {
		t.Fatal(err)
	}
	// Nearest rank: the p99 of 1..1000 ms is 990 ms, with 10 samples above.
	if m["latency_p50_ms"] != 500 || m["latency_p99_ms"] != 990 {
		t.Errorf("p50, p99 = %v, %v; want 500, 990", m["latency_p50_ms"], m["latency_p99_ms"])
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.2, 1}, {0.5, 3}, {0.99, 5}, {1, 5}} {
		if got := percentile(append([]float64(nil), xs...), c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("percentile of no samples is not 0")
	}
	if got := median([]float64{4, 1, 3}); got != 3 {
		t.Errorf("median of 4, 1, 3 = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4, 1, 3, 2 = %v, want 2.5", got)
	}
}

func TestSeedFixesSequence(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	a, b := shuffled(items, 1, 0), shuffled(items, 1, 0)
	if !slices.Equal(a, b) {
		t.Error("the same seed gave another order")
	}
	if slices.Equal(a, shuffled(items, 2, 0)) {
		t.Error("another seed gave the same order")
	}
	if slices.Equal(a, shuffled(items, 1, 1)) {
		t.Error("the next pass repeats the first pass's order")
	}
	slices.Sort(a)
	if !slices.Equal(a, items) {
		t.Error("a pass is not a permutation of the items")
	}
}

// TestFleetMultiset checks that a fleet pass is fixed and holds the mix's
// proportions, so every pass of every seed sends the same multiset.
func TestFleetMultiset(t *testing.T) {
	ops := fleetOps(fleetPass)
	if len(ops) != fleetPass*fleetMixSize {
		t.Fatalf("%d requests, want %d", len(ops), fleetPass*fleetMixSize)
	}
	if !slices.Equal(ops, fleetOps(fleetPass)) {
		t.Error("the mix is not fixed")
	}
	counts := map[string]int{}
	for _, op := range ops {
		counts[op.class]++
		if op.class == "experiment" && op.world != fleetWorlds[0] {
			t.Errorf("experiment request on %v", op.world)
		}
	}
	for _, c := range fleetMix {
		if want := fleetPass * c.weight * fleetMixSize / 12; counts[c.class] != want {
			t.Errorf("%s: %d requests, want %d", c.class, counts[c.class], want)
		}
	}
}

func TestClosedLoopWholePasses(t *testing.T) {
	items := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	seen := make([]int, len(items))
	w := closedLoop(context.Background(), items, 1, 0, 35, func(_ context.Context, op, _ int) error {
		seen[op]++
		return nil
	})
	if w.passes != 4 || w.ops() != 40 || len(w.passTime) != 4 {
		t.Fatalf("%d passes (%d timed), %d ops; want 4 passes, 40 ops", w.passes, len(w.passTime), w.ops())
	}
	for i, n := range seen {
		if n != 4 {
			t.Errorf("item %d ran %d times, want 4", i, n)
		}
	}
	w = closedLoop(context.Background(), items, 1, 0, 1, func(_ context.Context, op, _ int) error {
		if op == 3 {
			return errors.New("wrong answer")
		}
		return nil
	})
	if w.passes != minPasses {
		t.Errorf("%d passes, want at least %d", w.passes, minPasses)
	}
	if w.failed != minPasses || w.firstErr == nil {
		t.Errorf("%d failed, first failure %v; want %d failures counted", w.failed, w.firstErr, minPasses)
	}
}

func TestSelfTime(t *testing.T) {
	parent := interval{0, 100}
	children := []interval{{20, 50}, {10, 30}, {90, 120}, {200, 300}}
	// Covered: [10, 50) and [90, 100), 50 of 100.
	if got := selfTime(parent, children); got != 50 {
		t.Errorf("self time %v, want 50", got)
	}
}

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range slices.Concat(endToEnd, perLayer) {
		if !validName.MatchString(s.Name) || len(s.Name) > 64 {
			t.Errorf("invalid metric name %q", s.Name)
		}
		if seen[s.Name] {
			t.Errorf("metric %q listed twice", s.Name)
		}
		seen[s.Name] = true
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(doc.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, the benchmark reports %v", doc.EndToEnd, endToEnd)
	}
	if !slices.Equal(doc.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, the benchmark reports %v", doc.PerLayer, perLayer)
	}
}

func TestReportLine(t *testing.T) {
	r := &report{attempted: 4, failed: 1, metrics: map[string]float64{"a.b": 1.5}}
	r.notef("samples: %d", 4)
	var b strings.Builder
	if err := r.write(&b, []metricSpec{{"a.b", "ms"}}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	var res struct {
		Correct   bool  `json:"correct"`
		Attempted int64 `json:"attempted"`
		Failed    int64 `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Attempted != 4 || res.Failed != 1 || res.Metrics["a.b"].Value != 1.5 || res.Metrics["a.b"].Unit != "ms" {
		t.Errorf("result line %+v", res)
	}
	if err := r.write(&b, []metricSpec{{"missing", "s"}}); err == nil {
		t.Error("a metric that was not measured was written")
	}
}

func TestSlowdown(t *testing.T) {
	if got := slowdown(nil); got != 1 {
		t.Errorf("slowdown of no probes = %v, want 1", got)
	}
	durs := []time.Duration{probeNominal, 6 * probeNominal, 2 * probeNominal}
	if got := slowdown(durs); got != 3 {
		t.Errorf("slowdown with mean 3x nominal = %v, want 3", got)
	}
}

// TestClosedLoopProbes checks that the client probes between operations and
// that the window records which item each latency belongs to.
func TestClosedLoopProbes(t *testing.T) {
	w := closedLoop(context.Background(), []int{0, 1, 2}, 1, 0, 9, func(_ context.Context, op, _ int) error {
		time.Sleep(probeEvery + time.Duration(op)*time.Millisecond)
		return nil
	})
	if w.probes != 9 || !(w.slow > 0) {
		t.Fatalf("%d probes, slowdown %v; want a probe after each of 9 operations", w.probes, w.slow)
	}
	if got, want := w.scaledQPS(), w.qps*w.slow; got != want {
		t.Errorf("scaled throughput %v, want %v", got, want)
	}
	for i, d := range w.itemMedians(3) {
		if lo := probeEvery + time.Duration(i)*time.Millisecond; d < lo || d > lo+15*time.Millisecond {
			t.Errorf("item %d: median %v, want about %v", i, d, lo)
		}
	}
}

func TestLatencyScaling(t *testing.T) {
	lat := make([]time.Duration, 1000)
	for i := range lat {
		lat[i] = time.Duration(i+1) * time.Millisecond
	}
	m := map[string]float64{}
	if err := latencyMetrics(m, lat, 2); err != nil {
		t.Fatal(err)
	}
	if m["latency_p50_ms"] != 250 || m["latency_p99_ms"] != 495 {
		t.Errorf("p50 %v (want 500/2), p99 %v (want 990/2)", m["latency_p50_ms"], m["latency_p99_ms"])
	}
}
