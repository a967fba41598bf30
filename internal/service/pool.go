package service

import (
	"context"
	"strconv"

	"jobench"
	"jobench/internal/experiments"
	"jobench/internal/lru"
	"jobench/internal/parallel"
	"jobench/internal/reopt"
	"jobench/internal/trace"
	"jobench/internal/workload"
)

// Key identifies one resident world in the pool: everything that determines
// the opened System (and its experiments Lab) besides server-wide settings.
// The cache dir participates so two servers sharing one process but
// pointing at different snapshot stores can never alias.
type Key struct {
	// World is the (workload, seed, scale) triple.
	World workload.Key
	// CacheDir is the snapshot store the instance loads from.
	CacheDir string
}

// String renders the key for logs and metrics labels (the cache dir is
// deliberately omitted — it is server-wide in practice and noisy in logs).
func (k Key) String() string {
	return "workload=" + k.World.Workload +
		",seed=" + strconv.FormatInt(k.World.Seed, 10) +
		",scale=" + strconv.FormatFloat(k.World.Scale, 'g', -1, 64)
}

// entry is one resident instance: the facade System and the experiments
// Lab for a key, each constructed lazily (a server used only for
// /v1/optimize never pays for a Lab and vice versa).
type entry struct {
	sys *jobench.System
	lab *experiments.Lab
}

// Pool keeps warm instances resident, keyed by (seed, scale, cache dir),
// with LRU eviction beyond a fixed capacity and single-flight
// construction: a thundering herd of cold requests for one key performs
// exactly one Open while every other request blocks for (and then shares)
// the same instance. Construction failures are not cached — the next
// request retries.
//
// All methods are safe for concurrent use.
type Pool struct {
	cap     int
	metrics *Metrics

	// openSystem and openLab build a cold instance; injectable so the pool
	// tests can count and stall constructions without generating data.
	openSystem func(Key) (*jobench.System, error)
	openLab    func(Key) (*experiments.Lab, error)

	// entries holds at most the pool's capacity of instances. An evicted
	// instance is simply dropped: systems are immutable and requests that
	// already hold a reference keep it alive until they finish.
	entries *lru.Cache[Key, entry]

	sysFlight parallel.Flight[Key, *jobench.System]
	labFlight parallel.Flight[Key, *experiments.Lab]
}

// NewPool builds a pool of at most capacity resident instances (minimum 1)
// whose cold constructions run through open functions derived from cfg.
func NewPool(cfg Config, metrics *Metrics) *Pool {
	if metrics == nil {
		metrics = NewMetrics()
	}
	capacity := cfg.PoolSize
	if capacity <= 0 {
		capacity = 2
	}
	return &Pool{
		cap:     capacity,
		metrics: metrics,
		openSystem: func(k Key) (*jobench.System, error) {
			return jobench.Open(jobench.Options{
				Workload: k.World.Workload,
				Scale:    k.World.Scale, Seed: k.World.Seed, Parallel: cfg.Parallel,
				CacheDir: k.CacheDir, Logf: cfg.logf(),
				FeedbackBytes: cfg.FeedbackBytes,
			})
		},
		openLab: func(k Key) (*experiments.Lab, error) {
			return experiments.NewLab(experiments.Config{
				Workload: k.World.Workload,
				Scale:    k.World.Scale, Seed: k.World.Seed, Parallel: cfg.Parallel,
				CacheDir: k.CacheDir, Logf: cfg.logf(),
			})
		},
		entries: lru.New(int64(capacity), nil, func(Key, entry) { metrics.PoolEvictions.Add(1) }),
	}
}

// System returns the resident System for key, constructing it (exactly
// once under concurrency) on a miss. ctx bounds the caller's WAIT — a
// deadline-carrying request stops waiting at its deadline — but never the
// construction itself, which runs detached so it always completes and
// populates the pool for the next request. The request that actually
// initiates a cold construction records a "system.open" span covering the
// Open (snapshot load or data generation); joiners share the instance
// without recording it.
func (p *Pool) System(ctx context.Context, key Key) (*jobench.System, error) {
	if e, _ := p.entries.Get(key); e.sys != nil {
		p.metrics.PoolObserve(key.World.Workload, true)
		return e.sys, nil
	}
	sys, err, shared := p.sysFlight.DoContext(ctx, key, func() (*jobench.System, error) {
		// A flight that completed between our miss and entering Do already
		// populated the entry; don't rebuild.
		if e, _ := p.entries.Get(key); e.sys != nil {
			p.metrics.PoolObserve(key.World.Workload, true)
			return e.sys, nil
		}
		// Counted here, not in the caller, so a thundering herd records one
		// miss per construction — the metric's contract — rather than one
		// per piled-up request.
		p.metrics.PoolObserve(key.World.Workload, false)
		p.metrics.WarmupsInFlight.Add(1)
		defer p.metrics.WarmupsInFlight.Add(-1)
		sp := trace.StartSpan(ctx, "system.open")
		sys, err := p.openSystem(key)
		sp.End(trace.String("key", key.String()))
		if err != nil {
			return nil, err
		}
		p.entries.Update(key, func(e entry, _ bool) (entry, bool) { e.sys = sys; return e, true })
		return sys, nil
	})
	if shared && err == nil {
		// Joined another request's in-flight construction: served warm.
		p.metrics.PoolObserve(key.World.Workload, true)
	}
	return sys, err
}

// Lab returns the resident experiments Lab for key, constructing it
// (exactly once under concurrency) on a miss; ctx bounds the caller's
// wait (never the construction), as in System.
func (p *Pool) Lab(ctx context.Context, key Key) (*experiments.Lab, error) {
	if e, _ := p.entries.Get(key); e.lab != nil {
		p.metrics.PoolObserve(key.World.Workload, true)
		return e.lab, nil
	}
	lab, err, shared := p.labFlight.DoContext(ctx, key, func() (*experiments.Lab, error) {
		if e, _ := p.entries.Get(key); e.lab != nil {
			p.metrics.PoolObserve(key.World.Workload, true)
			return e.lab, nil
		}
		p.metrics.PoolObserve(key.World.Workload, false)
		p.metrics.WarmupsInFlight.Add(1)
		defer p.metrics.WarmupsInFlight.Add(-1)
		sp := trace.StartSpan(ctx, "lab.open")
		lab, err := p.openLab(key)
		sp.End(trace.String("key", key.String()))
		if err != nil {
			return nil, err
		}
		p.entries.Update(key, func(e entry, _ bool) (entry, bool) { e.lab = lab; return e, true })
		return lab, nil
	})
	if shared && err == nil {
		p.metrics.PoolObserve(key.World.Workload, true)
	}
	return lab, err
}

// Len reports the number of resident instances.
func (p *Pool) Len() int { return p.entries.Len() }

// FeedbackStats sums the plan-feedback cache counters across every resident
// System — the /metrics feedback_cache_* series.
func (p *Pool) FeedbackStats() reopt.Stats {
	var total reopt.Stats
	for _, e := range p.entries.Values() {
		if e.sys == nil {
			continue
		}
		st := e.sys.FeedbackStats()
		total.Hits += st.Hits
		total.Misses += st.Misses
		total.Entries += st.Entries
		total.Bytes += st.Bytes
		total.Evictions += st.Evictions
	}
	return total
}
