package serve

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func entryFor(key string) *maskEntry {
	return &maskEntry{key: key, masks: map[int][]bool{0: {true, false}}}
}

// Eviction under pressure: a capacity-2 LRU holding keys {a,b} must
// evict the least-recently-used entry when c arrives, and keep the one
// a hit refreshed.
func TestCacheEvictionUnderPressure(t *testing.T) {
	st := newStats()
	c := newMaskCache(2, 0, st)
	fills := map[string]int{}
	fill := func(key string) func() (*maskEntry, error) {
		return func() (*maskEntry, error) {
			fills[key]++
			return entryFor(key), nil
		}
	}
	mustGet := func(key string, wantHit bool) {
		t.Helper()
		e, hit, err := c.get(key, fill(key))
		if err != nil || e.key != key {
			t.Fatalf("get %s: %v, %v", key, e, err)
		}
		if hit != wantHit {
			t.Fatalf("get %s: hit=%v, want %v", key, hit, wantHit)
		}
	}

	mustGet("a", false)
	mustGet("b", false)
	mustGet("a", true)  // refresh a: b is now the LRU tail
	mustGet("c", false) // evicts b
	if c.len() != 2 {
		t.Fatalf("cache holds %d entries, want 2", c.len())
	}
	mustGet("a", true)  // survived
	mustGet("b", false) // was evicted, refills (evicting c)
	if fills["a"] != 1 || fills["b"] != 2 || fills["c"] != 1 {
		t.Fatalf("fill counts %v, want a:1 b:2 c:1", fills)
	}
	if st.snapshot(c.len(), 0).CacheEvictions != 2 {
		t.Fatalf("evictions %d, want 2", st.snapshot(c.len(), 0).CacheEvictions)
	}
}

// A failed personalization must not be cached: the error fans out to
// the flight's joiners, and the next request runs the fill again.
func TestFailedFillNotCached(t *testing.T) {
	st := newStats()
	c := newMaskCache(4, 0, st)
	boom := errors.New("prune exploded")
	calls := 0
	_, _, err := c.get("k", func() (*maskEntry, error) { calls++; return nil, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want the fill error", err)
	}
	if c.len() != 0 {
		t.Fatal("failed fill was cached")
	}
	// Recovery: the next get refills — and a success is then cached.
	e, hit, err := c.get("k", func() (*maskEntry, error) { calls++; return entryFor("k"), nil })
	if err != nil || hit || e.key != "k" {
		t.Fatalf("refill: %v %v %v", e, hit, err)
	}
	if calls != 2 {
		t.Fatalf("fill ran %d times, want 2", calls)
	}
	if _, hit, _ := c.get("k", nil); !hit {
		t.Fatal("successful refill was not cached")
	}
}

// Singleflight at the cache level: concurrent gets for one cold key run
// one fill; the joiners receive its entry (or its error).
func TestCacheSingleflight(t *testing.T) {
	st := newStats()
	c := newMaskCache(4, 0, st)
	var fills atomic.Int64
	gate := make(chan struct{})
	const n = 8
	var wg sync.WaitGroup
	entries := make([]*maskEntry, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e, _, err := c.get("cold", func() (*maskEntry, error) {
				fills.Add(1)
				<-gate // hold the flight open so joiners pile up
				return entryFor("cold"), nil
			})
			if err != nil {
				t.Error(err)
			}
			entries[i] = e
		}(i)
	}
	waitFor(t, 2*time.Second, func() bool {
		return fills.Load() == 1 && st.snapshot(0, 0).SingleflightShared > 0
	}, "joiners to pile onto the flight")
	close(gate)
	wg.Wait()
	if fills.Load() != 1 {
		t.Fatalf("fill ran %d times, want 1", fills.Load())
	}
	for i := 1; i < n; i++ {
		if entries[i] != entries[0] {
			t.Fatalf("joiner %d got a different entry", i)
		}
	}
}

// Distinct keys never share a flight.
func TestCacheDistinctKeysFillIndependently(t *testing.T) {
	c := newMaskCache(8, 0, newStats())
	for i := 0; i < 4; i++ {
		key := fmt.Sprintf("k%d", i)
		e, hit, err := c.get(key, func() (*maskEntry, error) { return entryFor(key), nil })
		if err != nil || hit || e.key != key {
			t.Fatalf("%s: %v %v %v", key, e, hit, err)
		}
	}
	if c.len() != 4 {
		t.Fatalf("cache holds %d, want 4", c.len())
	}
}
