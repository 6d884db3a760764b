package serve

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(100)
	c.Put("a", 1, 40)
	c.Put("b", 2, 40)
	if _, ok := c.Get("a"); !ok { // a is now most recent
		t.Fatal("a missing")
	}
	c.Put("c", 3, 40) // evicts b (least recently used), not a
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("a should have survived")
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 2 || st.UsedBytes != 80 {
		t.Errorf("stats = %+v", st)
	}
}

func TestCacheOversizedValueNotCached(t *testing.T) {
	c := NewCache(10)
	c.Put("big", 1, 11)
	if st := c.Stats(); st.Entries != 0 {
		t.Errorf("oversized value was cached: %+v", st)
	}
}

func TestCacheReplaceAdjustsBudget(t *testing.T) {
	c := NewCache(100)
	c.Put("a", 1, 60)
	c.Put("a", 2, 30)
	if st := c.Stats(); st.UsedBytes != 30 || st.Entries != 1 {
		t.Errorf("stats = %+v", st)
	}
	if v, _ := c.Get("a"); v != 2 {
		t.Errorf("a = %v, want 2", v)
	}
}

func TestCacheDisabledBudget(t *testing.T) {
	c := NewCache(-1)
	c.Put("a", 1, 1)
	if _, ok := c.Get("a"); ok {
		t.Error("disabled cache returned a value")
	}
	v, err := c.GetOrLoad("a", func() (any, int64, error) { return 7, 1, nil })
	if err != nil || v != 7 {
		t.Errorf("GetOrLoad = %v, %v", v, err)
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Errorf("disabled cache holds entries: %+v", st)
	}
}

func TestCacheGetOrLoadDeduplicates(t *testing.T) {
	c := NewCache(1 << 20)
	var loads atomic.Int64
	gate := make(chan struct{})
	const waiters = 16
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := c.GetOrLoad("k", func() (any, int64, error) {
				loads.Add(1)
				<-gate // hold every concurrent caller in the miss window
				return "value", 8, nil
			})
			if err != nil || v != "value" {
				t.Errorf("GetOrLoad = %v, %v", v, err)
			}
		}()
	}
	close(gate)
	wg.Wait()
	if n := loads.Load(); n != 1 {
		t.Errorf("value loaded %d times, want 1", n)
	}
}

func TestCacheGetOrLoadErrorNotCached(t *testing.T) {
	c := NewCache(1 << 20)
	boom := errors.New("boom")
	if _, err := c.GetOrLoad("k", func() (any, int64, error) { return nil, 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	v, err := c.GetOrLoad("k", func() (any, int64, error) { return 1, 1, nil })
	if err != nil || v != 1 {
		t.Errorf("retry after error = %v, %v", v, err)
	}
}

func TestCacheDropPrefix(t *testing.T) {
	c := NewCache(1 << 20)
	for i := 0; i < 4; i++ {
		c.Put(fmt.Sprintf("part|nyc|%d", i), i, 10)
		c.Put(fmt.Sprintf("part|porto|%d", i), i, 10)
	}
	if n := c.DropPrefix("part|nyc|"); n != 4 {
		t.Errorf("dropped %d, want 4", n)
	}
	st := c.Stats()
	if st.Entries != 4 || st.UsedBytes != 40 {
		t.Errorf("stats after drop = %+v", st)
	}
	if _, ok := c.Get("part|porto|0"); !ok {
		t.Error("unrelated prefix was dropped")
	}
}

// TestCacheCountersConcurrent hammers one cache from many goroutines —
// mixed Get / GetOrLoad / Put traffic over a key space larger than the
// budget, with deliberate key collisions so some callers join in-progress
// loads — and checks the counter contract: every counter is monotonic
// under observation, and at rest every probe resolved to exactly one hit
// or one miss (hits+misses == lookups). Run under -race this also proves
// the counters and the LRU state tolerate full concurrency.
func TestCacheCountersConcurrent(t *testing.T) {
	const (
		workers = 8
		rounds  = 300
		keys    = 16 // budget holds ~5 entries, so eviction churns constantly
	)
	c := NewCache(100)
	var probes atomic.Int64 // Get + GetOrLoad calls issued by the workers

	// A monitor samples Stats during the storm: each counter may only grow.
	stopMon := make(chan struct{})
	monDone := make(chan struct{})
	go func() {
		defer close(monDone)
		var prev CacheStats
		for {
			select {
			case <-stopMon:
				return
			default:
			}
			s := c.Stats()
			if s.Hits < prev.Hits || s.Misses < prev.Misses ||
				s.Evictions < prev.Evictions || s.Lookups < prev.Lookups {
				t.Errorf("counter went backwards: %+v after %+v", s, prev)
				return
			}
			prev = s
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				key := fmt.Sprintf("k%d", (w+i)%keys)
				switch i % 3 {
				case 0:
					probes.Add(1)
					c.Get(key)
				case 1:
					probes.Add(1)
					if _, err := c.GetOrLoad(key, func() (any, int64, error) {
						return w, 20, nil
					}); err != nil {
						t.Errorf("GetOrLoad(%s): %v", key, err)
					}
				default:
					c.Put(key, i, 20)
				}
			}
		}()
	}
	wg.Wait()

	// One deterministic hit after the storm: hits during it depend on the
	// scheduler actually interleaving workers (a fully serialized run never
	// re-probes a key while it is still resident), so the hits-path
	// assertion below must not ride on that.
	probes.Add(1)
	if _, err := c.GetOrLoad("hot", func() (any, int64, error) {
		return 1, 20, nil
	}); err != nil {
		t.Fatalf("GetOrLoad(hot): %v", err)
	}
	probes.Add(1)
	if _, ok := c.Get("hot"); !ok {
		t.Fatal("freshly loaded key not resident")
	}
	close(stopMon)
	<-monDone

	s := c.Stats()
	if s.Lookups != probes.Load() {
		t.Errorf("lookups = %d, issued %d probes", s.Lookups, probes.Load())
	}
	if s.Hits+s.Misses != s.Lookups {
		t.Errorf("hits %d + misses %d != lookups %d", s.Hits, s.Misses, s.Lookups)
	}
	if s.Hits == 0 || s.Misses == 0 || s.Evictions == 0 {
		t.Errorf("storm did not exercise all paths: %+v", s)
	}
	if s.UsedBytes > 100 {
		t.Errorf("used %d bytes over the 100-byte budget", s.UsedBytes)
	}
}

// TestCacheInflightJoinCountsMiss pins the accounting rule for the
// dedup path specifically: a caller that joins another goroutine's
// in-progress load gets the value without a disk read, but it still
// counts as a miss — the value was not resident when it asked.
func TestCacheInflightJoinCountsMiss(t *testing.T) {
	c := NewCache(1000)
	loading := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.GetOrLoad("k", func() (any, int64, error) {
			close(loading)
			<-release
			return "v", 10, nil
		})
	}()
	<-loading // the load is now in flight

	const joiners = 4
	var wg sync.WaitGroup
	for i := 0; i < joiners; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := c.GetOrLoad("k", func() (any, int64, error) {
				t.Error("joiner ran its own load")
				return nil, 0, nil
			})
			if err != nil || v != "v" {
				t.Errorf("joiner got %v, %v", v, err)
			}
		}()
	}
	// Joiners must count their misses before the load resolves.
	for c.Stats().Misses < 1+joiners {
		select {
		case <-done:
			t.Fatal("load finished before joiners registered")
		default:
		}
	}
	close(release)
	wg.Wait()
	<-done

	s := c.Stats()
	if s.Lookups != 1+joiners || s.Misses != 1+joiners || s.Hits != 0 {
		t.Errorf("stats = %+v, want %d lookups all misses", s, 1+joiners)
	}
}

// TestCacheGetOrLoadPanicReleasesKey pins that a panicking load does not
// wedge its key: the panic still reaches the loader, a caller that joined
// the load gets an error, and a fresh caller runs its own load.
func TestCacheGetOrLoadPanicReleasesKey(t *testing.T) {
	c := NewCache(1000)
	loading := make(chan struct{})
	release := make(chan struct{})
	recovered := make(chan any, 1)
	go func() {
		defer func() { recovered <- recover() }()
		c.GetOrLoad("k", func() (any, int64, error) {
			close(loading)
			<-release
			panic("decoder bug")
		})
	}()
	<-loading

	joined := make(chan error, 1)
	go func() {
		_, err := c.GetOrLoad("k", func() (any, int64, error) {
			t.Error("joiner ran its own load")
			return nil, 0, nil
		})
		joined <- err
	}()
	for c.Stats().Misses < 2 {
		time.Sleep(time.Millisecond)
	}
	close(release)

	deadline := time.After(2 * time.Second)
	select {
	case r := <-recovered:
		if r != "decoder bug" {
			t.Fatalf("loader recovered %v, want the load's panic", r)
		}
	case <-deadline:
		t.Fatal("loader did not return")
	}
	select {
	case err := <-joined:
		if err == nil {
			t.Fatal("joiner of a panicked load got no error")
		}
	case <-deadline:
		t.Fatal("joiner of a panicked load still blocked")
	}
	fresh := make(chan error, 1)
	go func() {
		v, err := c.GetOrLoad("k", func() (any, int64, error) { return "v", 1, nil })
		if err == nil && v != "v" {
			err = fmt.Errorf("got %v", v)
		}
		fresh <- err
	}()
	select {
	case err := <-fresh:
		if err != nil {
			t.Fatalf("fresh caller after a panicked load: %v", err)
		}
	case <-deadline:
		t.Fatal("fresh caller after a panicked load still blocked")
	}
}

// growingPart is a pinned partition whose charge grows once, as a segment
// switching to its reply arena does.
type growingPart struct{ size, arena atomic.Int64 }

func (p *growingPart) Len() int          { return 1 }
func (p *growingPart) SizeBytes() int64  { return p.size.Load() }
func (p *growingPart) ArenaBytes() int64 { return p.arena.Load() }
func (p *growingPart) grow(by int64)     { p.size.Add(by); p.arena.Add(by) }
func newGrowingPart(size int64) *growingPart {
	p := &growingPart{}
	p.size.Store(size)
	return p
}

// TestCacheRechargesGrownSegment pins the recharge: a cached partition
// whose size grew is charged its new size on its next hit, by Get and by
// GetOrLoad alike, and least-recently-used entries are evicted until the
// budget holds again.
func TestCacheRechargesGrownSegment(t *testing.T) {
	c := NewCache(100)
	seg := newGrowingPart(30)
	load := func(v any, n int64) func() (any, int64, error) {
		return func() (any, int64, error) { return v, n, nil }
	}
	if _, err := c.GetOrLoad("part|a", load(seg, seg.SizeBytes())); err != nil {
		t.Fatal(err)
	}
	c.Put("res|old", 1, 30)
	c.Put("res|new", 2, 30)
	seg.grow(25)
	if st := c.Stats(); st.UsedBytes != 90 || st.ArenaSegments != 1 || st.ArenaBytes != 25 || st.Segments != 1 {
		t.Fatalf("before the hit: %+v, want 90 bytes charged and one switched segment of 25", st)
	}
	if _, err := c.GetOrLoad("part|a", load(nil, 0)); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.UsedBytes != 85 || st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("after the hit: %+v, want 85 bytes in 2 entries after one eviction", st)
	}
	if _, ok := c.Get("res|old"); ok {
		t.Error("the least recently used entry survived the recharge")
	}
	seg.grow(40)
	if _, ok := c.Get("part|a"); !ok {
		t.Fatal("grown segment missing")
	}
	if st := c.Stats(); st.UsedBytes != 95 || st.UsedBytes > st.BudgetBytes {
		t.Fatalf("after a Get hit: %+v, want the segment's 95 bytes alone", st)
	}
}
