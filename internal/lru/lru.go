// Package lru is the one bounded cache behind every in-process store that
// must not grow with client input: the service's instance pool and report
// cache, the plan-feedback cache and the router's per-client retry budgets.
//
// A Cache holds entries in recency order and charges each one a size. The
// size function decides what the budget counts: 1 per entry gives a count
// budget, accounted bytes give a byte budget. Storing an entry evicts the
// least recently used ones until the cache fits its budget again; an entry
// whose size alone exceeds the budget is rejected and leaves the cache
// unchanged, so one oversized value can never flush everything else.
package lru

import (
	"container/list"
	"sync"
)

// Cache is a concurrency-safe LRU map from K to V bounded by a budget.
// The zero value is not usable; construct one with New.
type Cache[K comparable, V any] struct {
	mu      sync.Mutex
	budget  int64
	used    int64
	size    func(V) int64
	onEvict func(K, V)
	order   *list.List // of *item[K, V], most recently used at the front
	items   map[K]*list.Element
}

type item[K comparable, V any] struct {
	key  K
	val  V
	size int64
}

// New returns a cache bounded by budget. size charges each value against
// the budget; nil charges 1 per entry (a count budget). onEvict, if not nil,
// is called for each entry evicted to make room — not for rejected or
// replaced values. It runs under the cache's lock and must not call back
// into the cache.
func New[K comparable, V any](budget int64, size func(V) int64, onEvict func(K, V)) *Cache[K, V] {
	if size == nil {
		size = func(V) int64 { return 1 }
	}
	return &Cache[K, V]{
		budget:  budget,
		size:    size,
		onEvict: onEvict,
		order:   list.New(),
		items:   make(map[K]*list.Element),
	}
}

// Get returns the value stored for key and marks it most recently used.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*item[K, V]).val, true
}

// Put stores val for key (replacing any previous value), marks it most
// recently used and evicts least recently used entries until the cache
// fits its budget. A value whose size alone exceeds the budget is rejected:
// Put returns false and the cache is unchanged.
func (c *Cache[K, V]) Put(key K, val V) bool {
	return c.Update(key, func(V, bool) (V, bool) { return val, true })
}

// Update runs fn on the value stored for key (the zero value and false if
// absent) under the cache's lock, so read-modify-write merges are atomic.
// If fn returns store=false the cache is unchanged, recency included.
// Otherwise the returned value is stored as by Put, including its
// rejection when oversized. Update reports whether a value was stored. fn
// must not call back into the cache.
func (c *Cache[K, V]) Update(key K, fn func(old V, ok bool) (val V, store bool)) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	var old V
	if ok {
		old = el.Value.(*item[K, V]).val
	}
	val, store := fn(old, ok)
	if !store {
		return false
	}
	size := c.size(val)
	if size > c.budget {
		return false
	}
	if ok {
		it := el.Value.(*item[K, V])
		c.used += size - it.size
		it.val, it.size = val, size
		c.order.MoveToFront(el)
	} else {
		c.items[key] = c.order.PushFront(&item[K, V]{key: key, val: val, size: size})
		c.used += size
	}
	// The entry just stored sits at the front and fits the budget alone,
	// so the loop stops before reaching it.
	for c.used > c.budget {
		victim := c.order.Remove(c.order.Back()).(*item[K, V])
		delete(c.items, victim.key)
		c.used -= victim.size
		if c.onEvict != nil {
			c.onEvict(victim.key, victim.val)
		}
	}
	return true
}

// Len reports the number of entries.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

// Used reports the summed size of all entries (the entry count under a
// count budget).
func (c *Cache[K, V]) Used() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.used
}

// Values snapshots the stored values, least recently used first, so callers
// can aggregate over them outside the lock. Reading does not change recency.
func (c *Cache[K, V]) Values() []V {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]V, 0, len(c.items))
	for el := c.order.Back(); el != nil; el = el.Prev() {
		out = append(out, el.Value.(*item[K, V]).val)
	}
	return out
}
