package reopt

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"jobench/internal/query"
)

func bs(rels ...int) query.BitSet {
	var s query.BitSet
	for _, r := range rels {
		s = s.Add(r)
	}
	return s
}

// checkAccounting recomputes the cache's byte counter from its entries and
// asserts both internal consistency and the budget bound.
func checkAccounting(t *testing.T, c *FeedbackCache, budget int64) {
	t.Helper()
	var sum int64
	for _, e := range c.entries.Values() {
		sum += entrySize(e.fp, len(e.cards))
	}
	if used := c.entries.Used(); sum != used {
		t.Fatalf("cache counts %d bytes, entries sum to %d", used, sum)
	}
	if sum > budget {
		t.Fatalf("cache holds %d bytes over budget %d", sum, budget)
	}
}

func TestFeedbackCacheBudgetChurn(t *testing.T) {
	const budget = 4096
	c := NewFeedbackCache(budget)
	rng := rand.New(rand.NewSource(7))
	fps := make([]string, 40)
	for i := range fps {
		fps[i] = fmt.Sprintf("fp-%02d", i)
	}
	for i := 0; i < 5000; i++ {
		fp := fps[rng.Intn(len(fps))]
		if rng.Intn(4) == 0 {
			c.Get(fp)
			continue
		}
		cards := make(map[query.BitSet]float64)
		for n := rng.Intn(12) + 1; n > 0; n-- {
			cards[bs(rng.Intn(10), rng.Intn(10))] = float64(rng.Intn(1000) + 1)
		}
		c.Put(fp, cards)
		if i%97 == 0 {
			checkAccounting(t, c, budget)
		}
	}
	checkAccounting(t, c, budget)
	st := c.Stats()
	if st.Evictions == 0 {
		t.Error("churn at 4 KiB never evicted — budget not binding, test is vacuous")
	}
	if st.Bytes > budget {
		t.Errorf("final bytes %d over budget %d", st.Bytes, budget)
	}
}

func TestFeedbackCacheOversizedRejected(t *testing.T) {
	c := NewFeedbackCache(entrySize("keep", 2) + entrySize("big", 1))
	c.Put("keep", map[query.BitSet]float64{bs(0): 1, bs(1): 2})
	before := c.Stats()

	huge := make(map[query.BitSet]float64)
	for i := 0; i < 64; i++ {
		huge[bs(i)] = float64(i)
	}
	c.Put("big", huge)
	after := c.Stats()
	if after.Entries != before.Entries || after.Bytes != before.Bytes || after.Evictions != 0 {
		t.Errorf("oversized Put changed the cache: before %+v after %+v", before, after)
	}
	if c.Get("keep") == nil {
		t.Error("oversized Put evicted an unrelated entry")
	}

	// Merging into an existing entry can also overflow the budget; the
	// existing entry must survive with its old observations.
	c.Put("keep", huge)
	if got := c.Get("keep"); len(got) != 2 || got[bs(0)] != 1 {
		t.Errorf("over-budget merge corrupted the entry: %v", got)
	}
}

func TestFeedbackCacheMergeLatestWins(t *testing.T) {
	c := NewFeedbackCache(0)
	c.Put("q", map[query.BitSet]float64{bs(0, 1): 10})
	c.Put("q", map[query.BitSet]float64{bs(0, 1): 20, bs(1, 2): 5})
	got := c.Get("q")
	if len(got) != 2 || got[bs(0, 1)] != 20 || got[bs(1, 2)] != 5 {
		t.Errorf("merged entry = %v, want {01:20, 12:5}", got)
	}
	if st := c.Stats(); st.Entries != 1 {
		t.Errorf("merge created %d entries, want 1", st.Entries)
	}
}

func TestFeedbackCacheGetReturnsCopy(t *testing.T) {
	c := NewFeedbackCache(0)
	c.Put("q", map[query.BitSet]float64{bs(0): 7})
	got := c.Get("q")
	got[bs(0)] = 999
	got[bs(5)] = 1
	if again := c.Get("q"); len(again) != 1 || again[bs(0)] != 7 {
		t.Errorf("mutating a Get result changed the cache: %v", again)
	}
}

func TestFeedbackCacheLRUEvictionOrder(t *testing.T) {
	one := entrySize("aaaa", 1) // all fingerprints same length -> same size
	c := NewFeedbackCache(2 * one)
	obs := map[query.BitSet]float64{bs(0): 1}
	c.Put("aaaa", obs)
	c.Put("bbbb", obs)
	// Touch "aaaa" so "bbbb" is LRU when "cccc" needs the space.
	if c.Get("aaaa") == nil {
		t.Fatal("warm entry missing")
	}
	c.Put("cccc", obs)
	if c.Get("bbbb") != nil {
		t.Error("LRU entry survived eviction")
	}
	if c.Get("aaaa") == nil || c.Get("cccc") == nil {
		t.Error("recently used entries evicted")
	}
	if st := c.Stats(); st.Evictions != 1 || st.Entries != 2 {
		t.Errorf("stats after eviction: %+v", st)
	}
}

func TestFeedbackCacheConcurrent(t *testing.T) {
	c := NewFeedbackCache(8192)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 400; i++ {
				fp := fmt.Sprintf("fp-%d", rng.Intn(30))
				if rng.Intn(2) == 0 {
					c.Put(fp, map[query.BitSet]float64{bs(rng.Intn(8)): float64(i + 1)})
				} else {
					c.Get(fp)
				}
			}
		}(int64(w))
	}
	wg.Wait()
	checkAccounting(t, c, 8192)
	st := c.Stats()
	if st.Hits+st.Misses == 0 {
		t.Error("no gets recorded")
	}
}
