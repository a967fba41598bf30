package reopt

import (
	"sync/atomic"

	"jobench/internal/lru"
	"jobench/internal/query"
)

// DefaultBudgetBytes is the feedback-cache byte budget used when a
// non-positive budget is configured (1 MiB — roughly two thousand JOB-sized
// entries).
const DefaultBudgetBytes = 1 << 20

// Accounting constants for entry sizing. An entry is charged for its
// fingerprint string, a fixed per-entry overhead (map bucket, list node,
// struct headers), and a per-observation slot (BitSet key + float64 value +
// map bucket share). The numbers are deliberately round: the contract is
// "bounded and proportional", not "exact to the allocator byte".
const (
	entryOverheadBytes = 96
	slotBytes          = 24
)

// Stats is a point-in-time snapshot of feedback-cache counters.
type Stats struct {
	// Hits counts Get calls that found an entry.
	Hits int64
	// Misses counts Get calls that found nothing.
	Misses int64
	// Entries is the current number of cached fingerprints.
	Entries int64
	// Bytes is the current accounted size of all entries.
	Bytes int64
	// Evictions counts entries removed to make room under the budget.
	Evictions int64
}

// FeedbackCache is a concurrency-safe, memory-bounded LRU of observed
// cardinalities keyed by canonical query fingerprint. Sizes are accounted
// in bytes (see entryOverheadBytes/slotBytes); the cache never holds more
// than its budget. Observations for one fingerprint merge into a single
// entry (latest value wins), and a merged entry that alone would exceed
// the whole budget is rejected rather than evicting everything else.
type FeedbackCache struct {
	entries   *lru.Cache[string, feedbackEntry]
	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

// feedbackEntry is one fingerprint's observations. cards is never mutated
// once stored (a merge builds a new map), so readers may copy it outside
// the cache's lock.
type feedbackEntry struct {
	fp    string
	cards map[query.BitSet]float64
}

func entrySize(fp string, slots int) int64 {
	return entryOverheadBytes + int64(len(fp)) + int64(slots)*slotBytes
}

// NewFeedbackCache returns a cache bounded by budget bytes; a non-positive
// budget selects DefaultBudgetBytes.
func NewFeedbackCache(budget int64) *FeedbackCache {
	if budget <= 0 {
		budget = DefaultBudgetBytes
	}
	c := &FeedbackCache{}
	c.entries = lru.New(budget,
		func(e feedbackEntry) int64 { return entrySize(e.fp, len(e.cards)) },
		func(string, feedbackEntry) { c.evictions.Add(1) })
	return c
}

// Get returns a copy of the observed cardinalities recorded for fp, or nil
// on a miss. A hit marks the entry most recently used.
func (c *FeedbackCache) Get(fp string) map[query.BitSet]float64 {
	e, ok := c.entries.Get(fp)
	if !ok {
		c.misses.Add(1)
		return nil
	}
	c.hits.Add(1)
	out := make(map[query.BitSet]float64, len(e.cards))
	for s, v := range e.cards {
		out[s] = v
	}
	return out
}

// Put merges cards into the entry for fp (new observations win), marks it
// most recently used, and evicts least-recently-used entries until the
// cache fits its budget again. A merged entry that alone would exceed the
// budget leaves the cache unchanged.
func (c *FeedbackCache) Put(fp string, cards map[query.BitSet]float64) {
	if len(cards) == 0 {
		return
	}
	c.entries.Update(fp, func(old feedbackEntry, _ bool) (feedbackEntry, bool) {
		merged := make(map[query.BitSet]float64, len(old.cards)+len(cards))
		for s, v := range old.cards {
			merged[s] = v
		}
		for s, v := range cards {
			merged[s] = v
		}
		return feedbackEntry{fp: fp, cards: merged}, true
	})
}

// Stats returns a snapshot of the cache counters.
func (c *FeedbackCache) Stats() Stats {
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Entries:   int64(c.entries.Len()),
		Bytes:     c.entries.Used(),
		Evictions: c.evictions.Load(),
	}
}
