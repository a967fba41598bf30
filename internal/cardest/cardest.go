// Package cardest implements the paper's cast of cardinality estimators and
// the injection mechanism that feeds them into the optimizer.
//
// Estimates decompose, as in all System-R descendants, into per-relation
// selectivities and per-join-predicate selectivities combined under the
// independence assumption. The five profiles differ in how they estimate
// base-table selectivities and whether they damp the independence
// assumption:
//
//   - PostgreSQL: MCVs + equi-depth histograms + sampled distinct counts,
//     magic constants for LIKE, plain independence, estimates clamped to
//     >= 1 row (the rounding artifact of the paper's footnote 6).
//   - HyPer: evaluates base predicates on a 1000-row table sample, falling
//     back to a magic constant when the sample yields zero hits (§3.1).
//   - DBMS A: sample-based base estimates plus exponential backoff over the
//     join selectivities — the "damping factor" the paper speculates about
//     in §3.2, which keeps medians near the truth.
//   - DBMS B: pure uniformity (1/ndistinct, no MCVs) and an aggressive
//     extra shrink per join: severe underestimation, "1 row" for deep joins.
//   - DBMS C: histograms for numeric predicates but magic constants for all
//     string predicates: large base-table overestimates (Table 1, row C).
//
// The true-cardinality provider makes any of these interchangeable with the
// truth as inputs to the optimizer, replicating the paper's §2.4
// cardinality-injection methodology.
package cardest

import (
	"fmt"
	"math"
	"sort"

	"jobench/internal/query"
	"jobench/internal/stats"
	"jobench/internal/storage"
	"jobench/internal/truecard"
)

// Provider supplies cardinalities for the subexpressions of one query.
type Provider interface {
	// Card returns the estimated result size of joining the relations in
	// s (with all selections applied). s must be a connected subgraph.
	Card(s query.BitSet) float64
	// SansSelection returns the estimate for s with relation r's selection
	// discarded (the index-nested-loop intermediate of §2.4).
	SansSelection(s query.BitSet, r int) float64
	// Name identifies the estimator for reports.
	Name() string
}

// Estimator builds a Provider for a query. Implementations are stateless
// with respect to queries; all per-database state (statistics, samples) is
// captured at construction.
type Estimator interface {
	ForQuery(g *query.Graph) Provider
	Name() string
}

// dampExp is the per-predicate softening exponent of the DBMS A profile's
// damping: each join selectivity beyond the most selective one enters the
// product as sel^dampExp instead of sel. Values near 1 damp gently; the
// paper's DBMS A stays within a few factors of the truth even at 6 joins,
// which this setting reproduces.
const dampExp = 0.82

// formula is the shared product-form provider.
type formula struct {
	name     string
	g        *query.Graph
	baseRows []float64 // |R_i|
	sel      []float64 // estimated selection selectivity per relation
	edgeSel  []float64 // estimated selectivity per join edge

	// damping softens the edge selectivities beyond the most selective
	// one (sel^dampExponent each), the DBMS A signature behaviour;
	// dampExponent defaults to dampExp.
	damping      bool
	dampExponent float64
	// shrink, if in (0,1), multiplies the estimate by shrink^(edges-2) for
	// subexpressions with more than 2 join edges (the DBMS B signature).
	shrink float64
}

func (f *formula) Name() string { return f.name }

func (f *formula) Card(s query.BitSet) float64 {
	return f.card(s, -1)
}

func (f *formula) SansSelection(s query.BitSet, r int) float64 {
	return f.card(s, r)
}

func (f *formula) card(s query.BitSet, skipSel int) float64 {
	rows := 1.0
	s.ForEach(func(i int) {
		rows *= f.baseRows[i]
		if i != skipSel {
			rows *= f.sel[i]
		}
	})
	edges := f.g.EdgesWithin(s)
	if f.damping && len(edges) > 1 {
		// Damping: the most selective join predicate applies fully, every
		// further one is softened slightly (selectivity^dampExp). The more
		// predicates pile up, the less the estimator trusts their joint
		// independence — which is exactly the behaviour the paper deduces
		// for DBMS A from its truth-hugging medians (§3.2).
		sels := make([]float64, len(edges))
		for i, e := range edges {
			sels[i] = f.edgeSel[e]
		}
		sort.Float64s(sels)
		exp := f.dampExponent
		if exp == 0 {
			exp = dampExp
		}
		rows *= sels[0]
		for _, sv := range sels[1:] {
			rows *= math.Pow(sv, exp)
		}
	} else {
		for _, e := range edges {
			rows *= f.edgeSel[e]
		}
	}
	if f.shrink > 0 && f.shrink < 1 && len(edges) > 2 {
		rows *= math.Pow(f.shrink, float64(len(edges)-2))
	}
	if rows < 1 {
		// All systems round up to one row; §3.2's footnote 6 traces some of
		// PostgreSQL's instability to exactly this clamp.
		rows = 1
	}
	return rows
}

// baseSelEstimator estimates the selectivity of one relation's predicate
// conjunction.
type baseSelEstimator interface {
	relSelectivity(rel query.Rel, t *storage.Table, ts *stats.TableStats) float64
}

// buildFormula assembles the shared product form for one query.
func buildFormula(name string, db *storage.Database, sdb *stats.DB, g *query.Graph,
	base baseSelEstimator, damping bool, shrink float64) *formula {

	f := &formula{
		name:     name,
		g:        g,
		baseRows: make([]float64, g.N),
		sel:      make([]float64, g.N),
		damping:  damping,
		shrink:   shrink,
	}
	for i, rel := range g.Q.Rels {
		t := db.MustTable(rel.Table)
		ts := sdb.Table(rel.Table)
		f.baseRows[i] = math.Max(1, float64(ts.RowCount))
		f.sel[i] = clampSel(base.relSelectivity(rel, t, ts))
	}
	f.edgeSel = make([]float64, len(g.Edges))
	for ei, e := range g.Edges {
		// Join selectivity 1 / max(dom(x), dom(y)) per predicate; multiple
		// predicates on one edge multiply (independence again).
		sel := 1.0
		for _, j := range e.Preds {
			lRel := g.Q.Rels[g.Q.RelIndex(j.LeftAlias)]
			rRel := g.Q.Rels[g.Q.RelIndex(j.RightAlias)]
			nd1 := sdb.Table(lRel.Table).Cols[j.LeftCol].NDistinct
			nd2 := sdb.Table(rRel.Table).Cols[j.RightCol].NDistinct
			sel *= 1 / math.Max(1, math.Max(nd1, nd2))
		}
		f.edgeSel[ei] = sel
	}
	return f
}

func clampSel(s float64) float64 {
	if math.IsNaN(s) || s < 0 {
		return 0
	}
	if s > 1 {
		return 1
	}
	return s
}

// --- the five estimator profiles -------------------------------------------

// Postgres is the PostgreSQL-style estimator.
type Postgres struct {
	db  *storage.Database
	sdb *stats.DB
}

// NewPostgres builds the PostgreSQL profile from ANALYZE statistics. Passing
// statistics computed with Options.TrueDistinct yields the paper's Fig. 5
// "true distinct counts" variant.
func NewPostgres(db *storage.Database, sdb *stats.DB) *Postgres {
	return &Postgres{db: db, sdb: sdb}
}

// Name implements Estimator.
func (p *Postgres) Name() string { return "PostgreSQL" }

// ForQuery implements Estimator.
func (p *Postgres) ForQuery(g *query.Graph) Provider {
	return buildFormula(p.Name(), p.db, p.sdb, g, histogramBase{likeSel: 0.005}, false, 0)
}

// Sample is the HyPer-style table-sample estimator.
type Sample struct {
	db   *storage.Database
	sdb  *stats.DB
	size int
	name string
}

// NewSample builds the HyPer profile: base-table predicates are evaluated on
// the (1000-row) table sample kept in the statistics.
func NewSample(db *storage.Database, sdb *stats.DB) *Sample {
	return &Sample{db: db, sdb: sdb, size: 1000, name: "HyPer"}
}

// Name implements Estimator.
func (s *Sample) Name() string { return s.name }

// ForQuery implements Estimator.
func (s *Sample) ForQuery(g *query.Graph) Provider {
	return buildFormula(s.Name(), s.db, s.sdb, g, sampleBase{size: s.size}, false, 0)
}

// DBMSA is the "best commercial estimator" profile: sampling plus damping.
type DBMSA struct {
	db  *storage.Database
	sdb *stats.DB
}

// NewDBMSA builds the DBMS A profile.
func NewDBMSA(db *storage.Database, sdb *stats.DB) *DBMSA {
	return &DBMSA{db: db, sdb: sdb}
}

// Name implements Estimator.
func (a *DBMSA) Name() string { return "DBMS A" }

// ForQuery implements Estimator.
func (a *DBMSA) ForQuery(g *query.Graph) Provider {
	return buildFormula(a.Name(), a.db, a.sdb, g, sampleBase{size: 2000}, true, 0)
}

// DBMSB is the severe-underestimation profile.
type DBMSB struct {
	db  *storage.Database
	sdb *stats.DB
}

// NewDBMSB builds the DBMS B profile.
func NewDBMSB(db *storage.Database, sdb *stats.DB) *DBMSB {
	return &DBMSB{db: db, sdb: sdb}
}

// Name implements Estimator.
func (b *DBMSB) Name() string { return "DBMS B" }

// ForQuery implements Estimator.
func (b *DBMSB) ForQuery(g *query.Graph) Provider {
	return buildFormula(b.Name(), b.db, b.sdb, g, uniformBase{}, false, 0.2)
}

// DBMSC is the magic-constant profile: overestimates string predicates.
type DBMSC struct {
	db  *storage.Database
	sdb *stats.DB
}

// NewDBMSC builds the DBMS C profile.
func NewDBMSC(db *storage.Database, sdb *stats.DB) *DBMSC {
	return &DBMSC{db: db, sdb: sdb}
}

// Name implements Estimator.
func (c *DBMSC) Name() string { return "DBMS C" }

// ForQuery implements Estimator.
func (c *DBMSC) ForQuery(g *query.Graph) Provider {
	return buildFormula(c.Name(), c.db, c.sdb, g, magicBase{}, false, 0)
}

// --- true cardinalities and injection ---------------------------------------

// True adapts a truecard.Store into a Provider.
type True struct {
	Store *truecard.Store
}

// Name implements Provider.
func (True) Name() string { return "true cardinalities" }

// Card implements Provider.
func (t True) Card(s query.BitSet) float64 {
	v, ok := t.Store.Card(s)
	if !ok {
		panic(fmt.Sprintf("cardest: true cardinality for %v not computed", s))
	}
	return v
}

// SansSelection implements Provider.
func (t True) SansSelection(s query.BitSet, r int) float64 {
	v, ok := t.Store.SansSelection(s, r)
	if !ok {
		panic(fmt.Sprintf("cardest: sans-selection cardinality for %v/%d not computed", s, r))
	}
	return v
}

// NewDamped builds a DBMS A-style estimator with an explicit damping
// exponent (1.0 disables damping entirely and reduces to plain
// independence). It exists for the damping ablation study.
func NewDamped(db *storage.Database, sdb *stats.DB, exponent float64) Estimator {
	return &damped{db: db, sdb: sdb, exp: exponent}
}

type damped struct {
	db  *storage.Database
	sdb *stats.DB
	exp float64
}

func (d *damped) Name() string { return fmt.Sprintf("damped(%.2f)", d.exp) }

// ForQuery implements Estimator.
func (d *damped) ForQuery(g *query.Graph) Provider {
	f := buildFormula(d.Name(), d.db, d.sdb, g, sampleBase{size: 2000}, true, 0)
	f.dampExponent = d.exp
	return f
}

// Pessimistic hedges against systematic underestimation (the "risk/reward
// tradeoff" future work of §8): it inflates a base provider's estimate by
// Factor per join in the subexpression, so deep intermediates — exactly
// where independence collapses — look bigger to the optimizer, which then
// avoids plans whose advantage hinges on tiny deep intermediates.
type Pessimistic struct {
	Base   Provider
	G      *query.Graph
	Factor float64 // per-join inflation, e.g. 2.0
}

// Name implements Provider.
func (p *Pessimistic) Name() string {
	return fmt.Sprintf("pessimistic(%s, %.1fx/join)", p.Base.Name(), p.Factor)
}

// Card implements Provider.
func (p *Pessimistic) Card(s query.BitSet) float64 {
	return p.Base.Card(s) * p.inflation(s)
}

// SansSelection implements Provider.
func (p *Pessimistic) SansSelection(s query.BitSet, r int) float64 {
	return p.Base.SansSelection(s, r) * p.inflation(s)
}

func (p *Pessimistic) inflation(s query.BitSet) float64 {
	n := len(p.G.EdgesWithin(s))
	if n == 0 {
		return 1
	}
	f := p.Factor
	if f <= 0 {
		f = 2
	}
	return math.Pow(f, float64(n))
}
