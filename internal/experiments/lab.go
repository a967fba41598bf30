// Package experiments reproduces every table and figure of the paper's
// evaluation. Each experiment is a pure function of a Lab (the shared
// setup: data, statistics, indexes, workload, true cardinalities) returning
// a typed result with a text rendering; cmd/jobench and the root benchmark
// suite drive them.
package experiments

import (
	"context"
	"fmt"
	"log"
	"sort"
	"sync"

	"jobench/internal/cardest"
	"jobench/internal/index"
	"jobench/internal/parallel"
	"jobench/internal/query"
	"jobench/internal/snapshot"
	"jobench/internal/stats"
	"jobench/internal/storage"
	"jobench/internal/truecard"
	"jobench/internal/workload"
)

// Config controls the experimental setup.
type Config struct {
	// Workload names the benchmark world ("imdb", "tpch", "imdb-skew");
	// empty selects the default IMDB/JOB world. See internal/workload.
	Workload string
	// Scale is the data scale (for IMDB, 1.0 ~ 10k titles, ~450k rows).
	Scale float64
	// Seed drives all generation and sampling. Zero defaults to 42.
	Seed int64
	// MaxQueries truncates the workload for quick runs (0 = all 113).
	MaxQueries int
	// Parallel is the worker-pool size for every experiment sweep (lab
	// setup, Warmup, all drivers, and the per-subset fan-out inside each
	// true-cardinality computation). 0 means GOMAXPROCS; 1 runs the
	// serial code path. Reports are byte-identical at any setting.
	Parallel int
	// CacheDir enables the persistent snapshot store: the generated
	// database, both ANALYZE passes, and every computed truth store are
	// persisted there and reloaded by the next NewLab with the same Scale
	// and Seed. Corrupted or version-bumped snapshots are regenerated with
	// a logged warning. Empty disables caching.
	CacheDir string
	// Logf receives cache diagnostics (snapshot load/save warnings).
	// Nil means the standard library's log.Printf.
	Logf func(format string, args ...any)
}

// QuickConfig is small enough for tests and benchmarks.
func QuickConfig() Config {
	return Config{Scale: 0.08, Seed: 42}
}

// Lab bundles everything the experiments share.
type Lab struct {
	Cfg Config

	DB      *storage.Database
	Stats   *stats.DB
	StatsTD *stats.DB // ANALYZE with true distinct counts (Fig. 5)
	Queries []*query.Query
	Graphs  map[string]*query.Graph
	IdxNone *index.Set
	IdxPK   *index.Set
	IdxPKFK *index.Set

	// Estimators in the paper's presentation order.
	Postgres   cardest.Estimator
	PostgresTD cardest.Estimator
	DBMSA      cardest.Estimator
	DBMSB      cardest.Estimator
	DBMSC      cardest.Estimator
	HyPer      cardest.Estimator

	snap *snapshot.Store // nil when Config.CacheDir was empty
	logf func(format string, args ...any)

	mu    sync.Mutex
	truth map[string]*truecard.Store
}

// NewLab builds the shared setup, loading the database, statistics, and
// (lazily, through Truth) true cardinalities from the snapshot store when
// Config.CacheDir names one.
func NewLab(cfg Config) (*Lab, error) {
	if cfg.Scale <= 0 {
		cfg.Scale = 1
	}
	if cfg.Seed == 0 {
		cfg.Seed = 42
	}
	logf := cfg.Logf
	if logf == nil {
		logf = log.Printf
	}
	wl, err := workload.Get(cfg.Workload)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	cfg.Workload = wl.Name()
	world := workload.NewKey(wl.Name(), cfg.Seed, cfg.Scale)
	qs := wl.Queries()
	var snap *snapshot.Store
	if cfg.CacheDir != "" {
		// The cache key hashes the full workload even when MaxQueries
		// truncates this run: truth files are per-query, so runs at
		// different MaxQueries share one fingerprint directory.
		snap = snapshot.New(cfg.CacheDir, snapshot.Key{
			World:     world,
			QueryHash: snapshot.WorkloadHash(qs),
		}, cfg.Parallel)
	}
	if cfg.MaxQueries > 0 && cfg.MaxQueries < len(qs) {
		qs = qs[:cfg.MaxQueries]
	}

	var db *storage.Database
	if snap != nil {
		db, _ = snapshot.Load(logf, "experiments: snapshot database", snap.LoadDatabase)
	}
	if db == nil {
		db = wl.Generate(world.Config())
		if snap != nil {
			snapshot.Save(logf, "experiments: snapshot save database", func() error {
				return snap.SaveDatabase(db)
			})
		}
	}

	// The ANALYZE sample must be small relative to the big tables, like
	// PostgreSQL's 30,000 rows against IMDB's 36M-row cast_info (~0.1%):
	// sample-based distinct counts (Duj1) must underestimate on skewed
	// columns for the paper's §3.4/Fig. 5 effect to exist. We keep the
	// ratio, not the absolute number.
	sampleSize := 600 + int(4000*cfg.Scale)
	sopts := stats.Options{SampleSize: sampleSize, MCVTarget: 100, HistBuckets: 100, Seed: cfg.Seed}
	topts := sopts
	topts.TrueDistinct = true

	// The two ANALYZE passes and the three index builds only read the
	// generated database, so they fan out across the worker pool; each task
	// writes its own destination and is deterministic on its own seed.
	var (
		sdb, sdbTD              *stats.DB
		idxNone, idxPK, idxPKFK *index.Set
	)
	if snap != nil {
		for _, v := range []struct {
			opts stats.Options
			dst  **stats.DB
		}{{sopts, &sdb}, {topts, &sdbTD}} {
			*v.dst, _ = snapshot.Load(logf, "experiments: snapshot stats", func() (*stats.DB, error) {
				return snap.LoadStats(v.opts)
			})
		}
	}
	sdbCached, sdbTDCached := sdb != nil, sdbTD != nil
	loadOrBuild := func(dst **index.Set, icfg index.Config) func() error {
		return func() (err error) {
			*dst, err = snapshot.LoadOrBuildIndexes(snap, logf, "experiments", db, icfg, wl.BuildIndexes)
			return err
		}
	}
	tasks := []func() error{
		loadOrBuild(&idxNone, index.NoIndexes),
		loadOrBuild(&idxPK, index.PKOnly),
		loadOrBuild(&idxPKFK, index.PKFK),
	}
	if !sdbCached {
		tasks = append(tasks, func() error { sdb = stats.AnalyzeDatabase(db, sopts); return nil })
	}
	if !sdbTDCached {
		tasks = append(tasks, func() error { sdbTD = stats.AnalyzeDatabase(db, topts); return nil })
	}
	if err := parallel.Do(context.Background(), cfg.Parallel, tasks...); err != nil {
		return nil, err
	}
	if snap != nil {
		if !sdbCached {
			snapshot.Save(logf, "experiments: snapshot save stats", func() error {
				return snap.SaveStats(sopts, sdb)
			})
		}
		if !sdbTDCached {
			snapshot.Save(logf, "experiments: snapshot save stats", func() error {
				return snap.SaveStats(topts, sdbTD)
			})
		}
	}

	graphs := make(map[string]*query.Graph, len(qs))
	for _, q := range qs {
		graphs[q.ID] = query.MustBuildGraph(q)
	}
	return &Lab{
		Cfg:        cfg,
		DB:         db,
		Stats:      sdb,
		StatsTD:    sdbTD,
		Queries:    qs,
		Graphs:     graphs,
		IdxNone:    idxNone,
		IdxPK:      idxPK,
		IdxPKFK:    idxPKFK,
		Postgres:   cardest.NewPostgres(db, sdb),
		PostgresTD: cardest.NewPostgres(db, sdbTD),
		DBMSA:      cardest.NewDBMSA(db, sdb),
		DBMSB:      cardest.NewDBMSB(db, sdb),
		DBMSC:      cardest.NewDBMSC(db, sdb),
		HyPer:      cardest.NewSample(db, sdb),
		snap:       snap,
		logf:       logf,
		truth:      make(map[string]*truecard.Store),
	}, nil
}

// Systems returns the five estimators in the paper's order.
func (l *Lab) Systems() []cardest.Estimator {
	return []cardest.Estimator{l.Postgres, l.DBMSA, l.DBMSB, l.DBMSC, l.HyPer}
}

// Truth returns (computing and caching on first use) the full true-
// cardinality store of a query. With a snapshot store configured,
// previously persisted stores load from disk and fresh computations are
// persisted for the next lab.
func (l *Lab) Truth(qid string) (*truecard.Store, error) {
	return l.truthCtx(context.Background(), qid)
}

func (l *Lab) truthCtx(ctx context.Context, qid string) (*truecard.Store, error) {
	l.mu.Lock()
	st, ok := l.truth[qid]
	l.mu.Unlock()
	if ok {
		return st, nil
	}
	g := l.Graphs[qid]
	if g == nil {
		return nil, fmt.Errorf("experiments: unknown query %s", qid)
	}
	if l.snap != nil {
		cached, ok := snapshot.Load(l.logf, "experiments: snapshot truth "+qid,
			func() (*truecard.Store, error) { return l.snap.LoadTruth(g) })
		if ok {
			l.mu.Lock()
			l.truth[qid] = cached
			l.mu.Unlock()
			return cached, nil
		}
	}
	st, err := truecard.ComputeContext(ctx, l.DB, g, truecard.Options{Parallel: l.Cfg.Parallel})
	if err != nil {
		return nil, fmt.Errorf("experiments: true cardinalities for %s (row limit %d): %w",
			qid, truecard.DefaultMaxRows, err)
	}
	if l.snap != nil {
		snapshot.Save(l.logf, "experiments: snapshot save truth "+qid, func() error {
			return l.snap.SaveTruth(st)
		})
	}
	l.mu.Lock()
	l.truth[qid] = st
	l.mu.Unlock()
	return st, nil
}

// Warmup computes the true cardinalities of every workload query in
// parallel. All experiments call Truth lazily; warming up front makes a
// full experiment run dramatically faster on multi-core machines. Each
// query's DP nests the same worker count (see System.Warmup for why the
// deliberate Parallel^2 over-subscription is the right trade).
func (l *Lab) Warmup() error {
	return l.WarmupContext(context.Background())
}

// WarmupContext is Warmup with cancellation: a cancelled warmup (service
// shutdown, client disconnect) aborts the in-flight DPs instead of
// finishing them orphaned.
func (l *Lab) WarmupContext(ctx context.Context) error {
	_, err := runQueries(ctx, l, func(ctx context.Context, qi int, q *query.Query) (struct{}, error) {
		if _, err := l.truthCtx(ctx, q.ID); err != nil {
			return struct{}{}, fmt.Errorf("%s: %w", q.ID, err)
		}
		return struct{}{}, nil
	})
	return err
}

// QueryIDs returns the workload's query ids in order.
func (l *Lab) QueryIDs() []string {
	ids := make([]string, len(l.Queries))
	for i, q := range l.Queries {
		ids[i] = q.ID
	}
	return ids
}

// sortedKeys is a rendering helper.
func sortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
