package serve

import (
	"container/list"
	"sync"

	"capnn/internal/core"
	"capnn/internal/nn"
)

// maskEntry is one cached personalization: the per-stage prune masks for
// a canonical (variant, preference-key) pair, its compiled network, plus
// the pruning counts for observability. Every field is written once by
// Server.newEntry before the entry is published to the cache — groups
// forward under it concurrently without copying or locking; the
// attached guard carries its own lock.
type maskEntry struct {
	key                     string
	variant                 core.Variant
	prefs                   core.Preferences
	masks                   map[int][]bool
	prunedUnits, totalUnits int

	// guard is the entry's runtime ε-guard; nil when guarding is
	// disabled.
	guard *entryGuard

	// compiled is the entry's verified compiled network; nil exactly
	// when compileErr is set, and the batcher then serves the entry by
	// masked inference. Never serialized — restore and import recompile.
	compiled   *nn.Compiled
	compileErr error
}

// flight is one in-progress personalization. Joiners block on done and
// then read entry/err; both are written exactly once before done closes.
type flight struct {
	done  chan struct{}
	entry *maskEntry
	err   error
}

// maskCache is an LRU of maskEntries with singleflight fill: N
// concurrent first-requests for one key run the fill function exactly
// once, and the N−1 joiners wait for it. A failed fill is never cached —
// the flight's error fans out to its joiners and the next request for
// that key personalizes again. Whole entries are evicted coldest first
// whenever either the entry cap or the compiled-byte budget is exceeded.
type maskCache struct {
	cap    int
	budget int64 // compiled-weight bytes across entries; <= 0 is unlimited
	st     *stats

	mu       sync.Mutex
	lru      *list.List               // front = most recent; values are *maskEntry
	entries  map[string]*list.Element // key → lru element
	flights  map[string]*flight
	bytes    int64 // resident entries' compiled-weight bytes
	compiled int   // resident entries holding a compiled network
}

func newMaskCache(capacity int, budget int64, st *stats) *maskCache {
	return &maskCache{
		cap:     capacity,
		budget:  budget,
		st:      st,
		lru:     list.New(),
		entries: map[string]*list.Element{},
		flights: map[string]*flight{},
	}
}

// len reports the resident entry count.
func (c *maskCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// compiledUsage reports the resident entries holding a compiled network
// and their compiled-weight bytes.
func (c *maskCache) compiledUsage() (entries int, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.compiled, c.bytes
}

// get returns the cached entry for key, or fills it. The bool reports a
// cache hit (false for both fresh fills and singleflight joins). fill
// runs outside the cache lock, so a slow personalization never blocks
// hits on other keys.
func (c *maskCache) get(key string, fill func() (*maskEntry, error)) (*maskEntry, bool, error) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		// Read the entry before unlocking: install may replace el.Value
		// (heal publishing under the same key) the moment mu is free.
		e := el.Value.(*maskEntry)
		c.mu.Unlock()
		c.st.cacheHit()
		return e, true, nil
	}
	if f, ok := c.flights[key]; ok {
		c.mu.Unlock()
		c.st.flightShared()
		<-f.done
		return f.entry, false, f.err
	}
	f := &flight{done: make(chan struct{})}
	c.flights[key] = f
	c.mu.Unlock()
	c.st.cacheMiss()

	f.entry, f.err = fill()

	c.mu.Lock()
	delete(c.flights, key)
	if f.err == nil {
		// While our flight was registered no other fill could run for
		// this key, so a plain insert cannot clobber a fresher entry.
		c.insertLocked(f.entry)
	}
	c.mu.Unlock()
	close(f.done)
	return f.entry, false, f.err
}

// install inserts (or replaces) an entry directly, bypassing the fill
// path — used by checkpoint restore and by heals publishing a
// repersonalized entry under the original request key.
func (c *maskCache) install(e *maskEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[e.key]; ok {
		c.account(el.Value.(*maskEntry), -1)
		c.account(e, +1)
		el.Value = e
		c.lru.MoveToFront(el)
		c.evictLocked()
		return
	}
	c.insertLocked(e)
}

// installIfAbsent inserts an entry only when its key is not already
// resident, reporting whether it installed — the warm-handoff import
// path, where a resident entry (possibly healed against locally
// observed traffic) must win over the mover's copy.
func (c *maskCache) installIfAbsent(e *maskEntry) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[e.key]; ok {
		return false
	}
	c.insertLocked(e)
	return true
}

// insertLocked adds a new key at the front and trims. Caller holds mu.
func (c *maskCache) insertLocked(e *maskEntry) {
	c.entries[e.key] = c.lru.PushFront(e)
	c.account(e, +1)
	c.evictLocked()
}

// account adds (sign +1) or removes (sign -1) an entry's compiled form
// from the resident totals. Caller holds mu.
func (c *maskCache) account(e *maskEntry, sign int) {
	if e.compiled != nil {
		c.compiled += sign
		c.bytes += int64(sign) * e.compiled.Bytes()
	}
}

// evictLocked drops LRU-tail entries while the cache is over its entry
// cap or its compiled-byte budget. The front entry — the one just
// inserted or refreshed — is never evicted, so a single entry larger
// than the whole budget stays resident alone. Caller holds mu.
func (c *maskCache) evictLocked() {
	for c.lru.Len() > 1 && (c.lru.Len() > c.cap || (c.budget > 0 && c.bytes > c.budget)) {
		tail := c.lru.Back()
		c.lru.Remove(tail)
		dropped := tail.Value.(*maskEntry)
		delete(c.entries, dropped.key)
		c.account(dropped, -1)
		c.st.evicted()
	}
}

// snapshot returns the resident entries, least recently used first, so
// re-installing them in order reproduces the LRU recency.
func (c *maskCache) snapshot() []*maskEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*maskEntry, 0, c.lru.Len())
	for el := c.lru.Back(); el != nil; el = el.Prev() {
		out = append(out, el.Value.(*maskEntry))
	}
	return out
}
