package main

import (
	"bufio"
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"jobench/internal/parallel"
	"jobench/internal/router"
	"jobench/internal/service"
	"jobench/internal/trace"
	"jobench/internal/workload"
)

const (
	// fleetScale is every world's scale.
	fleetScale = 0.1
	// fleetMixSize is how many requests make one copy of the mix.
	fleetMixSize = 120
	// fleetPass is how many copies of the mix make one pass: 1080
	// requests, enough distinct ones for a p99 over their medians.
	fleetPass = 9
	// fleetPasses is the fewest passes a window runs, so each request's
	// median is over three sends. About 1% of the requests are 17-relation
	// DPs of 300 ms and more, and the next-heaviest take about 60 ms, so
	// the p99 sits at that edge: a host stall that carries one send of a
	// sub-millisecond request up among the DPs moves a p99 over single
	// sends, and not one over medians.
	fleetPasses = 3
	// fleetExperiment is the one report the mix asks for.
	fleetExperiment = "fig3"
)

// fleetWorlds are the worlds the mix spreads over: both workloads of the
// service benchmark at two data seeds. Requests of the experiment class
// all go to the first.
var fleetWorlds = []workload.Key{
	workload.NewKey("imdb", worldSeed, fleetScale),
	workload.NewKey("imdb", worldSeed+1, fleetScale),
	workload.NewKey("tpch", worldSeed, fleetScale),
	workload.NewKey("tpch", worldSeed+1, fleetScale),
}

// fleetMix is the service benchmark's request mix, by relative weight.
var fleetMix = []struct {
	class  string
	weight int
}{{"optimize", 4}, {"execute", 2}, {"estimate", 3}, {"experiment", 1}, {"reopt", 2}}

// fleetOp is one request.
type fleetOp struct {
	class string
	world workload.Key
	query string
}

// fleetOps returns copies copies of the mix. Each class spreads its
// requests round-robin over the worlds, and walks each world's queries in
// one fixed shuffled order. Nothing here depends on the benchmark's seed:
// every pass sends the same multiset of requests.
func fleetOps(copies int) []fleetOp {
	rng := rand.New(rand.NewSource(1))
	queries := make(map[workload.Key][]string)
	for _, w := range fleetWorlds {
		wl, err := workload.Get(w.Workload)
		if err != nil {
			panic(err) // the worlds above are registered workloads
		}
		var ids []string
		for _, q := range wl.Queries() {
			ids = append(ids, q.ID)
		}
		rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		queries[w] = ids
	}
	total := 0
	for _, c := range fleetMix {
		total += c.weight
	}
	type cursor struct {
		class string
		world workload.Key
	}
	next := make(map[cursor]int)
	sent := make(map[string]int)
	var ops []fleetOp
	for p := 0; p < copies; p++ {
		for _, c := range fleetMix {
			for k := 0; k < c.weight*fleetMixSize/total; k++ {
				op := fleetOp{class: c.class, world: fleetWorlds[0]}
				if c.class != "experiment" {
					op.world = fleetWorlds[sent[c.class]%len(fleetWorlds)]
					sent[c.class]++
					cur := cursor{c.class, op.world}
					qs := queries[op.world]
					op.query = qs[next[cur]%len(qs)]
					next[cur]++
				}
				ops = append(ops, op)
			}
		}
	}
	return ops
}

// fleet is a router in front of two service replicas, all serving on
// loopback inside this process.
type fleet struct {
	router   string
	replicas []string
	cancel   context.CancelFunc
	wg       sync.WaitGroup
	mu       sync.Mutex
	errs     []error
}

func startFleet(traceCapacity int) (*fleet, error) {
	lns := make([]net.Listener, 3)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i] = ln
	}
	ctx, cancel := context.WithCancel(context.Background())
	f := &fleet{router: "http://" + lns[2].Addr().String(), cancel: cancel}
	for _, ln := range lns[:2] {
		f.replicas = append(f.replicas, "http://"+ln.Addr().String())
	}
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	serve := func(fn func() error) {
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			if err := fn(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				f.mu.Lock()
				f.errs = append(f.errs, err)
				f.mu.Unlock()
			}
		}()
	}
	for i, u := range f.replicas {
		srv := service.New(service.Config{
			DefaultScale:  fleetScale,
			PoolSize:      len(fleetWorlds),
			ReplicaID:     fmt.Sprintf("replica-%d", i),
			Peers:         f.replicas,
			SelfURL:       u,
			TraceCapacity: traceCapacity,
			Logger:        quiet,
		})
		ln := lns[i]
		serve(func() error { return srv.Serve(ctx, ln) })
	}
	rt, err := router.New(router.Config{Replicas: f.replicas, TraceCapacity: traceCapacity, Logger: quiet})
	if err != nil {
		lns[2].Close()
		f.stop()
		return nil, err
	}
	serve(func() error { return rt.Serve(ctx, lns[2]) })
	return f, nil
}

// stop shuts every server down and waits for them to return.
func (f *fleet) stop() error {
	f.cancel()
	f.wg.Wait()
	return errors.Join(f.errs...)
}

// client sends the benchmark's requests.
var client = &http.Client{}

// requestTimeout bounds one request so a hung server fails the run
// instead of stalling it.
const requestTimeout = 60 * time.Second

// call sends one request and decodes a 200 response's body into out
// (a *[]byte keeps the raw body). A trace ID, when non-zero, rides in the
// X-Jobench-Trace header.
func call(ctx context.Context, method, u string, body any, id trace.ID, out any) error {
	ctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, u, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if id != 0 {
		req.Header.Set(trace.Header, id.String())
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %s", method, u, resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	if p, ok := out.(*[]byte); ok {
		*p = raw
		return nil
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(raw, out)
}

func worldQuery(w workload.Key) string {
	return fmt.Sprintf("?workload=%s&seed=%d&scale=%g", url.QueryEscape(w.Workload), w.Seed, w.Scale)
}

func worldBody(w workload.Key, q string) map[string]any {
	return map[string]any{"workload": w.Workload, "seed": w.Seed, "scale": w.Scale, "query": q}
}

// warmUp touches everything the window's requests need, so none of them
// pays for a cold start: every world's System, the experiment world's
// Lab, and the report. It returns the report, the experiment class's
// oracle.
func (f *fleet) warmUp(ctx context.Context) ([]byte, error) {
	_, err := parallel.RunCells(ctx, 0, fleetWorlds, func(ctx context.Context, w workload.Key) (struct{}, error) {
		return struct{}{}, call(ctx, http.MethodGet, f.router+"/v1/queries"+worldQuery(w), nil, 0, nil)
	})
	if err != nil {
		return nil, err
	}
	var report []byte
	err = call(ctx, http.MethodGet, f.router+"/v1/experiment/"+fleetExperiment+worldQuery(fleetWorlds[0]), nil, 0, &report)
	return report, err
}

type execResponse struct {
	Rows     int64 `json:"rows"`
	Work     int64 `json:"work"`
	TimedOut bool  `json:"timed_out"`
}

// staticRows executes every (world, query) the execute and reopt classes
// ask for once, statically: the rows each adaptive execution must match.
func (f *fleet) staticRows(ctx context.Context, ops []fleetOp) (map[fleetOp]int64, error) {
	seen := make(map[fleetOp]bool)
	var keys []fleetOp
	for _, op := range ops {
		if op.class == "execute" || op.class == "reopt" {
			k := fleetOp{world: op.world, query: op.query}
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	rows, err := parallel.RunCells(ctx, 0, keys, func(ctx context.Context, k fleetOp) (int64, error) {
		var res execResponse
		err := call(ctx, http.MethodPost, f.router+"/v1/execute", worldBody(k.world, k.query), 0, &res)
		if err == nil && res.TimedOut {
			err = fmt.Errorf("%s %s timed out", k.world, k.query)
		}
		return res.Rows, err
	})
	if err != nil {
		return nil, err
	}
	out := make(map[fleetOp]int64, len(keys))
	for i, k := range keys {
		out[k] = rows[i]
	}
	return out, nil
}

// fleetChecker sends one request and checks its answer.
type fleetChecker struct {
	f      *fleet
	report []byte
	rows   map[fleetOp]int64
	// staticWork and staticRows sum the execute class's answers.
	staticWork, staticRows int64
}

func (c *fleetChecker) do(ctx context.Context, op fleetOp, id trace.ID) error {
	base := c.f.router
	switch op.class {
	case "optimize":
		var res struct {
			Plan string  `json:"plan"`
			Cost float64 `json:"cost"`
		}
		if err := call(ctx, http.MethodPost, base+"/v1/optimize", worldBody(op.world, op.query), id, &res); err != nil {
			return err
		}
		if res.Plan == "" || !(res.Cost > 0) {
			return fmt.Errorf("optimize %s %s: empty plan or cost %g", op.world, op.query, res.Cost)
		}
	case "estimate":
		var res struct {
			Cardinality float64 `json:"cardinality"`
		}
		if err := call(ctx, http.MethodPost, base+"/v1/estimate", worldBody(op.world, op.query), id, &res); err != nil {
			return err
		}
		if !(res.Cardinality > 0) || math.IsInf(res.Cardinality, 0) {
			return fmt.Errorf("estimate %s %s: cardinality %g", op.world, op.query, res.Cardinality)
		}
	case "experiment":
		var body []byte
		if err := call(ctx, http.MethodGet, base+"/v1/experiment/"+fleetExperiment+worldQuery(op.world), nil, id, &body); err != nil {
			return err
		}
		if !bytes.Equal(body, c.report) {
			return fmt.Errorf("experiment %s: report differs from the warm-up's", fleetExperiment)
		}
	case "execute", "reopt":
		req := worldBody(op.world, op.query)
		if op.class == "reopt" {
			req["adaptive"] = true
		}
		var res execResponse
		if err := call(ctx, http.MethodPost, base+"/v1/execute", req, id, &res); err != nil {
			return err
		}
		want := c.rows[fleetOp{world: op.world, query: op.query}]
		if res.TimedOut || res.Rows != want {
			return fmt.Errorf("%s %s %s: %d rows (timed out: %v), static execution returns %d",
				op.class, op.world, op.query, res.Rows, res.TimedOut, want)
		}
		if op.class == "execute" {
			c.staticWork += res.Work
			c.staticRows += res.Rows
		}
	default:
		return fmt.Errorf("unknown class %q", op.class)
	}
	return nil
}

// scrape reads a server's /metrics into series → value.
func scrape(ctx context.Context, base string) (map[string]float64, error) {
	var raw []byte
	if err := call(ctx, http.MethodGet, base+"/metrics", nil, 0, &raw); err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// family sums every series of one metric name (any labels).
func family(m map[string]float64, name string) float64 {
	var sum float64
	for k, v := range m {
		if k == name || strings.HasPrefix(k, name+"{") {
			sum += v
		}
	}
	return sum
}

// scrapeAll sums the replicas' /metrics and reads the router's.
func (f *fleet) scrapeAll(ctx context.Context) (replicas, rt map[string]float64, err error) {
	replicas = make(map[string]float64)
	for _, u := range f.replicas {
		m, err := scrape(ctx, u)
		if err != nil {
			return nil, nil, err
		}
		for k, v := range m {
			replicas[k] += v
		}
	}
	rt, err = scrape(ctx, f.router)
	return replicas, rt, err
}

// traces fetches one server's trace ring, keyed by trace ID.
func traces(ctx context.Context, base string) (map[string]trace.Record, error) {
	var res service.TracesResponse
	if err := call(ctx, http.MethodGet, base+"/v1/traces", nil, 0, &res); err != nil {
		return nil, err
	}
	out := make(map[string]trace.Record, len(res.Traces))
	for _, r := range res.Traces {
		out[r.TraceID] = r
	}
	return out, nil
}

// tracedCall is one traced request: its trace ID and the client's send-to-
// response time.
type tracedCall struct {
	id   trace.ID
	took time.Duration
}

// fleetWindow runs whole passes of ops through the router from the
// closed-loop client: at least fleetPasses, or, traced, as many as a
// closed loop's minimum. With traced set, every request carries a fresh
// trace ID, returned with the client's send-to-response time.
func fleetWindow(ctx context.Context, cfg runConfig, c *fleetChecker, ops []fleetOp, traced bool) (*window, []tracedCall) {
	var calls []tracedCall
	minOps := fleetPasses * len(ops)
	if traced {
		minOps = closedMinOps
	}
	w := closedLoop(ctx, ops, cfg.seed, cfg.window, minOps, func(ctx context.Context, op fleetOp, _ int) error {
		if !traced {
			return c.do(ctx, op, 0)
		}
		id := trace.NewID()
		t0 := time.Now()
		err := c.do(ctx, op, id)
		calls = append(calls, tracedCall{id, time.Since(t0)})
		return err
	})
	return w, calls
}

func runFleet(ctx context.Context, cfg runConfig) (*report, error) {
	r := &report{metrics: make(map[string]float64)}
	m := r.metrics
	ops := fleetOps(fleetPass)
	traceCapacity := 0 // the servers' default
	if cfg.traced {
		if err := setupBreakdown(ctx, fleetWorlds[0].Workload, fleetScale, true, m); err != nil {
			return nil, fmt.Errorf("set-up breakdown: %w", err)
		}
		// Room for a traced window of many passes; fleetLayers fails
		// the run if the rings dropped traces it needs.
		traceCapacity = 16 * len(ops)
	}
	reps := setupReps
	if cfg.traced {
		reps = 1
	}
	type warmFleet struct {
		f      *fleet
		report []byte
	}
	wf, setupS, err := medianSetup(reps, func() (warmFleet, error) {
		f, err := startFleet(traceCapacity)
		if err != nil {
			return warmFleet{}, err
		}
		report, err := f.warmUp(ctx)
		if err != nil {
			return warmFleet{}, errors.Join(fmt.Errorf("warm-up: %w", err), f.stop())
		}
		return warmFleet{f, report}, nil
	}, func(wf warmFleet) {
		if err := wf.f.stop(); err != nil {
			fmt.Println("# stopping a set-up fleet:", err)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	f := wf.f
	m["setup_s"] = setupS
	r.notef("setup_s: median of %d cold set-ups (router + 2 replicas, %d worlds opened, %s Lab and report)",
		reps, len(fleetWorlds), fleetExperiment)

	rows, err := f.staticRows(ctx, ops)
	if err != nil {
		return nil, errors.Join(fmt.Errorf("oracle: %w", err), f.stop())
	}
	c := &fleetChecker{f: f, report: wf.report, rows: rows}
	t0 := time.Now()
	warmOps, warmFailed, warmErr := warmPass(ctx, ops, cfg.seed, func(ctx context.Context, op fleetOp) error {
		return c.do(ctx, op, 0)
	})
	r.notef("warm pass: %d requests in %.3f s, untimed", warmOps, time.Since(t0).Seconds())
	c.staticWork, c.staticRows = 0, 0

	before, rtBefore, err := f.scrapeAll(ctx)
	if err != nil {
		return nil, errors.Join(err, f.stop())
	}
	w, _ := fleetWindow(ctx, cfg, c, ops, false)
	after, rtAfter, err := f.scrapeAll(ctx)
	if err != nil {
		return nil, errors.Join(err, f.stop())
	}
	r.attempted, r.failed = warmOps+w.ops(), warmFailed+w.failed
	if err := cmp.Or(warmErr, w.firstErr); err != nil {
		r.notef("first failure: %v", err)
	}
	m["throughput_qps"] = w.scaledQPS()
	lat := w.itemMedians(len(ops))
	if err := latencyMetrics(m, lat, w.slow); err != nil {
		return nil, errors.Join(err, f.stop())
	}
	r.notef("window: closed loop, %d passes of %d requests in %.3f s; percentiles over the %d requests' medians",
		w.passes, len(ops), w.elapsed.Seconds(), len(lat))
	if err := rawNotes(r, w, lat); err != nil {
		return nil, errors.Join(err, f.stop())
	}
	diff := func(name string) float64 { return family(after, name) - family(before, name) }
	ratio := func(hit, miss string) float64 {
		h, mi := diff(hit), diff(miss)
		if h+mi == 0 {
			return 0
		}
		return h / (h + mi)
	}
	m["engine.work_units"] = float64(c.staticWork / int64(w.passes))
	m["engine.rows"] = float64(c.staticRows / int64(w.passes))
	m["service.cold_opens"] = diff("jobench_pool_misses_total")
	m["service.pool_hit_ratio"] = ratio("jobench_pool_hits_total", "jobench_pool_misses_total")
	m["service.report_cache_hit_ratio"] = ratio("jobench_report_cache_hits_total", "jobench_report_cache_misses_total")
	m["reopt.replans"] = diff("jobench_replans_total")
	m["reopt.feedback_hit_ratio"] = ratio("jobench_feedback_cache_hits_total", "jobench_feedback_cache_misses_total")
	m["reopt.feedback_evictions"] = diff("jobench_feedback_cache_evictions_total")
	m["router.retries"] = family(rtAfter, "jobench_router_replica_retries_total") -
		family(rtBefore, "jobench_router_replica_retries_total")
	m["router.breaker_throttled"] = family(rtAfter, "jobench_router_breaker_throttled")
	m["loadgen.sent"] = float64(w.ops())
	for _, k := range []string{"engine.work_units", "engine.rows", "service.cold_opens", "reopt.replans"} {
		r.notef("%s = %s", k, strconv.FormatFloat(m[k], 'f', -1, 64))
	}

	if cfg.traced {
		tw, calls := fleetWindow(ctx, cfg, c, ops, true)
		r.attempted += tw.ops()
		r.failed += tw.failed
		m["trace.overhead_pct"] = (w.scaledQPS() - tw.scaledQPS()) / w.scaledQPS() * 100
		if err := fleetLayers(ctx, f, calls, m); err != nil {
			return nil, errors.Join(err, f.stop())
		}
	}
	if err := f.stop(); err != nil {
		return nil, fmt.Errorf("stopping the fleet: %w", err)
	}
	m["error_rate"] = float64(r.failed) / float64(r.attempted)
	rss, err := rssPeakMB()
	if err != nil {
		return nil, err
	}
	m["rss_peak_mb"] = rss
	return r, nil
}

// fleetLayers joins each traced request's client time with the router's
// and the owning replica's trace of it, by trace ID, and fills the
// per-layer metrics.
func fleetLayers(ctx context.Context, f *fleet, calls []tracedCall, m map[string]float64) error {
	rt, err := traces(ctx, f.router)
	if err != nil {
		return err
	}
	reps := make(map[string]trace.Record)
	for _, u := range f.replicas {
		t, err := traces(ctx, u)
		if err != nil {
			return err
		}
		for k, v := range t {
			reps[k] = v
		}
	}
	var (
		forward, handler, estimate []float64
		spans                      = make(map[string][]float64)
		clientMS                   float64
		joined                     int
	)
	for _, call := range calls {
		rr, ok1 := rt[call.id.String()]
		sr, ok2 := reps[call.id.String()]
		if !ok1 || !ok2 {
			continue
		}
		joined++
		clientMS += ms(call.took)
		forward = append(forward, rr.DurationMS-sr.DurationMS)
		parent := interval{0, int64(sr.DurationMS * float64(time.Millisecond))}
		var children, nonLookup []interval
		for _, s := range sr.Spans {
			iv := interval{s.StartUS * 1000, (s.StartUS + s.DurationUS) * 1000}
			children = append(children, iv)
			if s.Name != "pool.lookup" {
				nonLookup = append(nonLookup, iv)
			}
			spans[s.Name] = append(spans[s.Name], float64(s.DurationUS)/1000)
		}
		handler = append(handler, ms(selfTime(parent, children)))
		if sr.Route == "/v1/estimate" {
			estimate = append(estimate, float64(selfTime(parent, nonLookup))/float64(time.Microsecond))
		}
	}
	if joined < len(calls)*9/10 {
		return fmt.Errorf("joined only %d of %d traced requests across client, router and replicas", joined, len(calls))
	}
	sum := func(names ...string) float64 {
		var s float64
		for _, n := range names {
			for _, v := range spans[n] {
				s += v
			}
		}
		return s
	}
	m["router.forward_overhead_ms"] = median(forward)
	m["service.handler_overhead_ms"] = median(handler)
	m["cardest.estimate_us"] = median(estimate)
	m["service.pool_lookup_ms"] = median(spans["pool.lookup"])
	m["service.admission_wait_ms"] = sum("admission.wait")
	m["optimizer.p50_ms"] = percentile(append([]float64(nil), spans["optimize"]...), 0.50)
	m["optimizer.p99_ms"] = percentile(append([]float64(nil), spans["optimize"]...), 0.99)
	m["engine.p50_ms"] = percentile(append([]float64(nil), spans["engine.execute"]...), 0.50)
	m["engine.p99_ms"] = percentile(append([]float64(nil), spans["engine.execute"]...), 0.99)
	// Adaptive executions' unspanned remainder (their first plan and final
	// run) is in neither share.
	m["optimizer.share"] = sum("optimize", "reopt.replan") / clientMS
	m["engine.share"] = sum("engine.execute", "reopt.probe") / clientMS
	m["reopt.probes"] = float64(len(spans["reopt.probe"]))
	m["truecard.dp_s"] += sum("truecard") / 1000
	m["optimizer.allocs_per_op"] = 0
	m["engine.allocs_per_op"] = 0
	return nil
}
