package serve

import (
	"container/list"
	"strings"
	"sync"
	"sync/atomic"
)

// Cache is a byte-budgeted LRU over opaque values: pinned partitions and
// encoded query results share one budget, so a hot result set can push
// cold partitions out and vice versa. Concurrent loads of the same key are
// deduplicated — under a thundering herd of identical cold queries only one
// goroutine reads the disk, everyone else waits for its entry.
//
// Counters follow the engine.Metrics idiom: independent atomics, snapshot
// on demand, no cross-counter consistency promised mid-flight.
type Cache struct {
	budget int64

	mu       sync.Mutex
	order    *list.List // front = most recently used
	items    map[string]*list.Element
	inflight map[string]*cacheLoad
	used     int64

	// lookups counts every Get/GetOrLoad probe; each probe resolves to
	// exactly one hit or one miss, so hits+misses == lookups at rest.
	lookups   atomic.Int64
	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

type cacheEntry struct {
	key   string
	val   any
	bytes int64
}

// cacheLoad tracks one in-progress load; later requesters wait on done.
type cacheLoad struct {
	done  chan struct{}
	val   any
	bytes int64
	err   error
}

// NewCache builds a cache holding at most budget bytes (as reported by the
// entries themselves). A non-positive budget disables caching: every Get
// misses and every Put is dropped.
func NewCache(budget int64) *Cache {
	return &Cache{
		budget:   budget,
		order:    list.New(),
		items:    map[string]*list.Element{},
		inflight: map[string]*cacheLoad{},
	}
}

// Get returns the cached value for key, marking it most recently used.
func (c *Cache) Get(key string) (any, bool) {
	c.lookups.Add(1)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.order.MoveToFront(el)
		c.hits.Add(1)
		return el.Value.(*cacheEntry).val, true
	}
	c.misses.Add(1)
	return nil, false
}

// Put inserts (or replaces) key with a value of the given resident size,
// evicting least-recently-used entries until the budget holds. Values
// larger than the whole budget are not cached.
func (c *Cache) Put(key string, val any, bytes int64) {
	if bytes > c.budget {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.putLocked(key, val, bytes)
}

func (c *Cache) putLocked(key string, val any, bytes int64) {
	if el, ok := c.items[key]; ok {
		ent := el.Value.(*cacheEntry)
		c.used += bytes - ent.bytes
		ent.val, ent.bytes = val, bytes
		c.order.MoveToFront(el)
	} else {
		c.items[key] = c.order.PushFront(&cacheEntry{key: key, val: val, bytes: bytes})
		c.used += bytes
	}
	for c.used > c.budget {
		back := c.order.Back()
		if back == nil {
			break
		}
		ent := back.Value.(*cacheEntry)
		c.order.Remove(back)
		delete(c.items, ent.key)
		c.used -= ent.bytes
		c.evictions.Add(1)
	}
}

// GetOrLoad returns the cached value for key, or runs load to produce it.
// Concurrent callers of the same cold key share one load; a load error is
// returned to every waiter and nothing is cached.
func (c *Cache) GetOrLoad(key string, load func() (val any, bytes int64, err error)) (any, error) {
	c.lookups.Add(1)
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.order.MoveToFront(el)
		c.hits.Add(1)
		val := el.Value.(*cacheEntry).val
		c.mu.Unlock()
		return val, nil
	}
	if fl, ok := c.inflight[key]; ok {
		// Joining an in-progress load is a miss for this caller too: the
		// value was not resident when it asked.
		c.misses.Add(1)
		c.mu.Unlock()
		<-fl.done
		if fl.err != nil {
			return nil, fl.err
		}
		// The loader's entry may already be evicted; its value is still
		// valid for this request.
		return fl.val, nil
	}
	c.misses.Add(1)
	fl := &cacheLoad{done: make(chan struct{})}
	c.inflight[key] = fl
	c.mu.Unlock()

	fl.val, fl.bytes, fl.err = load()
	c.mu.Lock()
	delete(c.inflight, key)
	if fl.err == nil && fl.bytes <= c.budget {
		c.putLocked(key, fl.val, fl.bytes)
	}
	c.mu.Unlock()
	close(fl.done)
	return fl.val, fl.err
}

// DropPrefix removes every entry whose key starts with prefix — the eager
// invalidation path when a dataset's metadata generation changes.
func (c *Cache) DropPrefix(prefix string) int {
	return c.DropPrefixExcept(prefix, nil)
}

// DropPrefixExcept removes every entry whose key starts with prefix and is
// not in keep — how a generation change drops only the partition files
// the new view no longer references.
func (c *Cache) DropPrefixExcept(prefix string, keep map[string]bool) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	dropped := 0
	for el := c.order.Front(); el != nil; {
		next := el.Next()
		ent := el.Value.(*cacheEntry)
		if strings.HasPrefix(ent.key, prefix) && !keep[ent.key] {
			c.order.Remove(el)
			delete(c.items, ent.key)
			c.used -= ent.bytes
			dropped++
		}
		el = next
	}
	return dropped
}

// CacheStats is a point-in-time copy of the cache counters.
type CacheStats struct {
	Lookups     int64 `json:"lookups"`
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	Evictions   int64 `json:"evictions"`
	Entries     int   `json:"entries"`
	UsedBytes   int64 `json:"used_bytes"`
	BudgetBytes int64 `json:"budget_bytes"`
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	entries, used := len(c.items), c.used
	c.mu.Unlock()
	return CacheStats{
		Lookups:     c.lookups.Load(),
		Hits:        c.hits.Load(),
		Misses:      c.misses.Load(),
		Evictions:   c.evictions.Load(),
		Entries:     entries,
		UsedBytes:   used,
		BudgetBytes: c.budget,
	}
}
