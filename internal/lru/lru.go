// Package lru is the byte-budgeted least-recently-used cache behind the
// server's parse cache, the expression engine's result cache and the
// integration memo: a map plus a recency list, a per-entry size charged
// against one budget, and singleflight for concurrent misses on one key.
package lru

import (
	"container/list"
	"sync"

	"cube/internal/obs"
)

// Outcome says how Do answered.
type Outcome int

const (
	Miss Outcome = iota // this caller ran fn
	Hit                 // the value was resident
	Wait                // another caller was running fn; this one shared its result
)

func (o Outcome) String() string {
	switch o {
	case Hit:
		return "hit"
	case Wait:
		return "wait"
	}
	return "miss"
}

// Cache holds at most budget bytes of values, evicting the least recently
// used entry first. Values are stored and returned as they are: a cache
// of pointers shares them with every caller. A Cache is safe for
// concurrent use.
//
// Evictions and resident bytes are reported as <prefix>_evictions_total
// and <prefix>_bytes to the process-wide registry (obs.SetRegistry)
// installed when the event happens. Hits and misses mean different things
// to each caller, so callers count those themselves.
type Cache[K comparable, V any] struct {
	budget int64
	prefix string

	mu      sync.Mutex
	idx     map[K]*list.Element
	ll      *list.List // of *entry[K, V]; front = most recently used
	bytes   int64
	flights map[K]*flight[V]
}

type entry[K comparable, V any] struct {
	key  K
	val  V
	size int64
}

// flight is one in-progress fn that other callers of Do wait on.
type flight[V any] struct {
	wg      sync.WaitGroup
	val     V
	err     error
	waiters int // callers that joined, under Cache.mu
}

// New returns an empty cache with the given byte budget. A budget of 0
// caches nothing; Do still shares concurrent misses.
func New[K comparable, V any](budget int64, prefix string) *Cache[K, V] {
	return &Cache[K, V]{
		budget:  budget,
		prefix:  prefix,
		idx:     map[K]*list.Element{},
		ll:      list.New(),
		flights: map[K]*flight[V]{},
	}
}

// Get returns the value stored under key and marks it most recently used.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.idx[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*entry[K, V]).val, true
}

// Add stores val under key, charged size bytes, evicting from the least
// recently used end until the budget holds. It does nothing when key is
// already present or size exceeds the whole budget.
func (c *Cache[K, V]) Add(key K, val V, size int64) {
	if size > c.budget {
		return
	}
	c.mu.Lock()
	if _, ok := c.idx[key]; ok {
		c.mu.Unlock()
		return
	}
	evicted := 0
	for c.bytes+size > c.budget {
		back := c.ll.Back()
		if back == nil {
			break
		}
		old := c.ll.Remove(back).(*entry[K, V])
		delete(c.idx, old.key)
		c.bytes -= old.size
		evicted++
	}
	c.idx[key] = c.ll.PushFront(&entry[K, V]{key: key, val: val, size: size})
	c.bytes += size
	bytes := c.bytes
	c.mu.Unlock()
	reg := obs.ActiveRegistry()
	if evicted > 0 {
		reg.Counter(c.prefix + "_evictions_total").Add(int64(evicted))
	}
	reg.Gauge(c.prefix + "_bytes").Set(bytes)
}

// Do returns the value stored under key. On a miss it runs fn once for
// all concurrent callers of the same key: the first caller runs it, the
// others wait and share its value or its error. A value fn returns
// without error is added with the size fn reports; an error is never
// cached.
func (c *Cache[K, V]) Do(key K, fn func() (V, int64, error)) (V, Outcome, error) {
	c.mu.Lock()
	if el, ok := c.idx[key]; ok {
		c.ll.MoveToFront(el)
		c.mu.Unlock()
		return el.Value.(*entry[K, V]).val, Hit, nil
	}
	if fl, ok := c.flights[key]; ok {
		fl.waiters++
		c.mu.Unlock()
		fl.wg.Wait()
		return fl.val, Wait, fl.err
	}
	fl := &flight[V]{}
	fl.wg.Add(1)
	c.flights[key] = fl
	c.mu.Unlock()

	val, size, err := fn()
	if err == nil {
		c.Add(key, val, size)
	}
	fl.val, fl.err = val, err
	c.mu.Lock()
	delete(c.flights, key)
	c.mu.Unlock()
	fl.wg.Done()
	return val, Miss, err
}

// Len reports the number of resident entries.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Bytes reports the resident bytes charged against the budget.
func (c *Cache[K, V]) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}
