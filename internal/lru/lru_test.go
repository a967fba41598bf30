package lru

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

func TestCountBudget(t *testing.T) {
	c := New[int, string](3, nil, nil)
	for i := 0; i < 10; i++ {
		if !c.Put(i, fmt.Sprint(i)) {
			t.Fatalf("Put(%d) rejected under a count budget", i)
		}
		if c.Len() > 3 || c.Used() != int64(c.Len()) {
			t.Fatalf("after Put(%d): len %d used %d, budget 3", i, c.Len(), c.Used())
		}
	}
	if got := c.Values(); !reflect.DeepEqual(got, []string{"7", "8", "9"}) {
		t.Fatalf("resident values %v, want the three newest", got)
	}
	// Replacing an entry does not grow the cache or evict anything.
	c.Put(8, "eight")
	if v, ok := c.Get(8); !ok || v != "eight" || c.Len() != 3 {
		t.Fatalf("replace: Get(8) = %q, %v; len %d", v, ok, c.Len())
	}
}

func TestByteBudget(t *testing.T) {
	size := func(v string) int64 { return int64(len(v)) }
	c := New[string, string](10, size, nil)
	c.Put("a", "xxxx") // 4
	c.Put("b", "xxxx") // 8
	c.Put("c", "xx")   // 10: fits exactly
	if c.Len() != 3 || c.Used() != 10 {
		t.Fatalf("len %d used %d, want 3 entries and 10 bytes", c.Len(), c.Used())
	}
	c.Put("d", "xxxxxx") // 16: evicts a (12), then b (8)
	if _, ok := c.Get("a"); ok {
		t.Error("a survived")
	}
	if _, ok := c.Get("b"); ok {
		t.Error("b survived")
	}
	if c.Len() != 2 || c.Used() != 8 {
		t.Fatalf("len %d used %d, want c and d in 8 bytes", c.Len(), c.Used())
	}
	// Growing an entry in place re-accounts its size and evicts others.
	c.Put("c", "xxxxx") // 11: evicts d
	if _, ok := c.Get("d"); ok || c.Used() != 5 {
		t.Fatalf("after growing c: d resident %v, used %d, want 5", ok, c.Used())
	}
}

func TestOversizedRejected(t *testing.T) {
	evicted := 0
	size := func(v string) int64 { return int64(len(v)) }
	c := New[string, string](4, size, func(string, string) { evicted++ })
	c.Put("a", "xx")
	c.Put("b", "x")
	before := c.Values()
	if c.Put("big", "xxxxx") {
		t.Fatal("oversized Put accepted")
	}
	// An oversized value for an existing key leaves the old value, and
	// the old recency, in place.
	if c.Update("a", func(old string, ok bool) (string, bool) { return old + "xxx", true }) {
		t.Fatal("oversized Update accepted")
	}
	if got := c.Values(); !reflect.DeepEqual(got, before) || c.Used() != 3 || evicted != 0 {
		t.Fatalf("rejection changed the cache: %v (was %v), used %d, evicted %d", got, before, c.Used(), evicted)
	}
}

func TestUpdate(t *testing.T) {
	c := New[string, int](2, nil, nil)
	add := func(k string, d int) {
		c.Update(k, func(old int, ok bool) (int, bool) { return old + d, true })
	}
	add("a", 1)
	add("a", 2)
	if v, _ := c.Get("a"); v != 3 {
		t.Fatalf("merged value %d, want 3", v)
	}
	c.Put("b", 0)
	// store=false leaves both the value and the recency order alone: "a"
	// stays least recently used and is the one the next insert evicts.
	if c.Update("a", func(old int, ok bool) (int, bool) { return 99, false }) {
		t.Fatal("store=false reported a store")
	}
	c.Put("c", 0)
	if _, ok := c.Get("a"); ok {
		t.Fatal("a declined Update refreshed the recency of a")
	}
	var sawOK bool
	c.Update("missing", func(_ int, ok bool) (int, bool) { sawOK = ok; return 0, false })
	if sawOK || c.Len() != 2 {
		t.Fatalf("absent key: ok=%v len=%d", sawOK, c.Len())
	}
}

func TestEvictionHook(t *testing.T) {
	var got []string
	c := New[string, int](2, nil, func(k string, v int) { got = append(got, fmt.Sprintf("%s=%d", k, v)) })
	c.Put("a", 1)
	c.Put("b", 2)
	c.Put("a", 10) // replacement is not an eviction
	c.Put("c", 3)  // evicts b, the least recently used
	c.Put("d", 4)  // evicts a
	if want := []string{"b=2", "a=10"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("evictions %v, want %v", got, want)
	}
}

func TestRecencyOrder(t *testing.T) {
	c := New[string, string](3, nil, nil)
	c.Put("a", "a")
	c.Put("b", "b")
	c.Put("c", "c")
	if got := c.Values(); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Fatalf("insertion order %v", got)
	}
	c.Get("a") // a becomes most recent; b is now the LRU
	if got := c.Values(); !reflect.DeepEqual(got, []string{"b", "c", "a"}) {
		t.Fatalf("after Get(a): %v", got)
	}
	c.Put("d", "d")
	if got := c.Values(); !reflect.DeepEqual(got, []string{"c", "a", "d"}) {
		t.Fatalf("after Put(d): %v, want b evicted", got)
	}
}

func TestConcurrent(t *testing.T) {
	size := func(v []byte) int64 { return int64(len(v)) }
	var evictions atomic.Int64
	c := New[int, []byte](256, size, func(int, []byte) { evictions.Add(1) })
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 2000; i++ {
				k := rng.Intn(64)
				switch rng.Intn(3) {
				case 0:
					c.Put(k, make([]byte, rng.Intn(40)))
				case 1:
					c.Update(k, func(old []byte, _ bool) ([]byte, bool) { return append(old[:len(old):len(old)], 1), true })
				default:
					c.Get(k)
				}
			}
		}(int64(w))
	}
	wg.Wait()
	var sum int64
	for _, v := range c.Values() {
		sum += int64(len(v))
	}
	if sum != c.Used() || c.Used() > 256 {
		t.Fatalf("entries sum to %d bytes, cache counts %d, budget 256", sum, c.Used())
	}
	if evictions.Load() == 0 {
		t.Error("churn never evicted: the budget was not binding and the test is vacuous")
	}
}
