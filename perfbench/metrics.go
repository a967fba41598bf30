package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricSpec names one reported metric and its unit. The lists below are
// the benchmark's contract; BENCHMARK.json repeats them (a test keeps the
// two in step).
type metricSpec struct {
	Name, Unit string
}

// endToEnd is what a user of jobench sees, reported from untraced runs.
var endToEnd = []metricSpec{
	{"throughput_qps", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"setup_s", "s"},
	{"rss_peak_mb", "MB"},
}

// perLayer is reported from the traced run. A layer a workload does not
// exercise reads 0 there (engine.share on plan, truecard.dp_s on
// execute, the service and router metrics outside fleet).
var perLayer = []metricSpec{
	{"error_rate", "ratio"},
	{"workload.generate_s", "s"},
	{"stats.analyze_s", "s"},
	{"index.build_s", "s"},
	{"truecard.dp_s", "s"},
	{"truecard.dp_p99_ms", "ms"},
	{"truecard.subgraphs", "count"},
	{"optimizer.p50_ms", "ms"},
	{"optimizer.p99_ms", "ms"},
	{"optimizer.share", "ratio"},
	{"optimizer.allocs_per_op", "allocs/op"},
	{"cardest.estimate_us", "us"},
	{"engine.p50_ms", "ms"},
	{"engine.p99_ms", "ms"},
	{"engine.share", "ratio"},
	{"engine.work_units", "count"},
	{"engine.rows", "count"},
	{"engine.allocs_per_op", "allocs/op"},
	{"reopt.probes", "count"},
	{"reopt.replans", "count"},
	{"reopt.feedback_hit_ratio", "ratio"},
	{"reopt.feedback_evictions", "count"},
	{"service.pool_lookup_ms", "ms"},
	{"service.pool_hit_ratio", "ratio"},
	{"service.cold_opens", "count"},
	{"service.report_cache_hit_ratio", "ratio"},
	{"service.admission_wait_ms", "ms"},
	{"service.handler_overhead_ms", "ms"},
	{"router.forward_overhead_ms", "ms"},
	{"router.retries", "count"},
	{"router.breaker_throttled", "count"},
	{"loadgen.sent", "count"},
	{"trace.overhead_pct", "%"},
}

// validName is the benchmark's metric-name alphabet.
var validName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// tailSamples is how many samples a reported percentile must leave above
// it: a p99 needs at least 1000 samples.
const tailSamples = 10

// minSamples returns the smallest sample count whose q-quantile leaves at
// least tailSamples samples above it.
func minSamples(q float64) int {
	return int(math.Ceil(tailSamples/(1-q) - 1e-9))
}

// percentile is the nearest-rank q-quantile of xs (which it sorts).
// Zero samples give 0.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(xs) {
		rank = len(xs)
	}
	return xs[rank-1]
}

// median is the middle value of xs, or the mean of the two middle values
// of an even count. Zero samples give 0.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func secondsAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func msAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// latencyMetrics fills the end-to-end latency metrics from per-operation
// latencies, divided by slow to scale them to the reference host. The
// samples must be enough for a p99.
func latencyMetrics(m map[string]float64, lat []time.Duration, slow float64) error {
	if n, need := len(lat), minSamples(0.99); n < need {
		return fmt.Errorf("%d latency samples, a p99 needs %d", n, need)
	}
	xs := msAll(lat)
	m["latency_p50_ms"] = percentile(xs, 0.50) / slow
	m["latency_p99_ms"] = percentile(xs, 0.99) / slow
	return nil
}

// rawNotes notes a window's pass times, the slowdown its probes measured
// and its timings before scaling to the reference host.
func rawNotes(r *report, w *window, lat []time.Duration) error {
	r.notef("pass times (s): %.3f; slowdown %.4f (mean of %d probes)", secondsAll(w.passTime), w.slow, w.probes)
	raw := make(map[string]float64)
	if err := latencyMetrics(raw, lat, 1); err != nil {
		return err
	}
	r.notef("unscaled: throughput %.3f ops/s, p50 %.4f ms, p99 %.3f ms", w.qps, raw["latency_p50_ms"], raw["latency_p99_ms"])
	return nil
}

// rssPeakMB reads the process's peak resident set size (VmHWM).
func rssPeakMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// heapAllocs is the process's cumulative count of heap-allocated objects.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// report is one run's outcome.
type report struct {
	attempted, failed int64
	metrics           map[string]float64
	// notes are human-readable lines (sample counts, exact counts, the
	// metrics the other mode reports) printed before the JSON result.
	notes []string
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// write prints the notes and then, as the last line, the result object
// with every metric of specs.
func (r *report) write(w io.Writer, specs []metricSpec) error {
	for _, n := range r.notes {
		fmt.Fprintln(w, "#", n)
	}
	var b strings.Builder
	fmt.Fprintf(&b, `{"correct": %t, "attempted": %d, "failed": %d, "metrics": {`,
		r.failed == 0, r.attempted, r.failed)
	for i, s := range specs {
		v, ok := r.metrics[s.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", s.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", s.Name, v)
		}
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, `%q: {"value": %s, "unit": %q}`, s.Name, strconv.FormatFloat(v, 'g', -1, 64), s.Unit)
	}
	b.WriteString("}}")
	_, err := fmt.Fprintln(w, b.String())
	return err
}
