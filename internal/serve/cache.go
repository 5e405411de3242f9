package serve

import (
	"container/list"
	"encoding/json"
	"sync"
	"sync/atomic"

	"repro/internal/serve/fsio"
)

// Entry is one stored cache value: the canonical job spec that produced
// a result plus the canonical result JSON. Keeping the spec next to the
// result lets a job record evicted from the scheduler's table be
// resynthesized with its full spec — kind included — instead of a bare
// result blob, and makes every spool file self-describing.
type Entry struct {
	Spec   json.RawMessage `json:"spec"`
	Result json.RawMessage `json:"result"`
}

// Cache is the content-addressed result store: an in-memory LRU over
// canonical entries, keyed by job digest, with an optional on-disk
// spool (a fileStore of `<digest>.json` files) behind it. Determinism
// makes it sound: a digest fully determines its result, so an entry can
// never go stale — eviction is purely a capacity concern, and a spool
// file written by any process is valid for every other.
type Cache struct {
	mu    sync.Mutex
	max   int
	ll    *list.List               // front = most recently used
	items map[Digest]*list.Element // digest -> element holding *cacheEntry

	spool *fileStore // nil for memory-only

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

type cacheEntry struct {
	digest Digest
	entry  Entry
}

// NewCache creates a cache holding at most max in-memory entries
// (minimum 1). A non-empty spoolDir enables the disk spool; the
// directory is created if missing. fs nil means the real filesystem.
func NewCache(max int, spoolDir string, fs fsio.FS) (*Cache, error) {
	spool, err := newFileStore(fs, spoolDir, ".json", nil)
	if err != nil {
		return nil, err
	}
	return newCache(max, spool), nil
}

func newCache(capacity int, spool *fileStore) *Cache {
	return &Cache{
		max:   max(capacity, 1),
		ll:    list.New(),
		items: make(map[Digest]*list.Element),
		spool: spool,
	}
}

// Get returns the cached entry for a digest. A memory miss falls back to
// the spool; a spool hit is promoted into memory.
func (c *Cache) Get(d Digest) (Entry, bool) {
	c.mu.Lock()
	if el, ok := c.items[d]; ok {
		c.ll.MoveToFront(el)
		e := el.Value.(*cacheEntry).entry
		c.mu.Unlock()
		c.hits.Add(1)
		return e, true
	}
	c.mu.Unlock()
	if data, ok := c.spool.get(d); ok {
		var e Entry
		if json.Unmarshal(data, &e) == nil && len(e.Result) > 0 {
			c.hits.Add(1)
			c.insert(d, e)
			return e, true
		}
	}
	c.misses.Add(1)
	return Entry{}, false
}

// Put stores an entry under its digest, evicting least-recently-used
// entries beyond capacity and writing through to the spool. Spool write
// failures are the store's to count and act on; the memory entry stands.
func (c *Cache) Put(d Digest, e Entry) {
	// Normalize both raw messages to the exact bytes a spool read-back
	// yields: Marshal compacts and HTML-escapes RawMessage fields when
	// embedding, so the memory entry and a later spool hit must both
	// hold the re-encoded form to serve identical bytes.
	if s, err := json.Marshal(e.Spec); err == nil {
		e.Spec = s
	}
	if r, err := json.Marshal(e.Result); err == nil {
		e.Result = r
	}
	c.insert(d, e)
	if c.spool.active(d) {
		if data, err := json.Marshal(e); err == nil {
			c.spool.put(d, data)
		}
	}
}

// Degraded reports whether the spool has been switched off after
// persistent write failures.
func (c *Cache) Degraded() bool { return c.spool.Degraded() }

func (c *Cache) insert(d Digest, e Entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[d]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*cacheEntry).entry = e
		return
	}
	c.items[d] = c.ll.PushFront(&cacheEntry{digest: d, entry: e})
	for c.ll.Len() > c.max {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.items, back.Value.(*cacheEntry).digest)
		c.evictions.Add(1)
	}
}

// Len returns the number of in-memory entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// CacheStats is the serialisable cache state for /v1/stats.
type CacheStats struct {
	Entries       int     `json:"entries"`
	Capacity      int     `json:"capacity"`
	Hits          uint64  `json:"hits"`
	Misses        uint64  `json:"misses"`
	HitRatio      float64 `json:"hit_ratio"`
	Evictions     uint64  `json:"evictions"`
	SpoolHits     uint64  `json:"spool_hits,omitempty"`
	SpoolFails    uint64  `json:"spool_fails,omitempty"`
	Quarantined   uint64  `json:"quarantined,omitempty"`
	SpoolDegraded bool    `json:"spool_degraded,omitempty"`
}

// Stats snapshots the counters.
func (c *Cache) Stats() CacheStats {
	sp := c.spool.Stats()
	s := CacheStats{
		Entries:       c.Len(),
		Capacity:      c.max,
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Evictions:     c.evictions.Load(),
		SpoolHits:     sp.Loaded,
		Quarantined:   sp.Quarantined,
		SpoolDegraded: sp.Degraded,
	}
	if c.spool != nil {
		s.SpoolFails = c.spool.failed.Load()
	}
	if total := s.Hits + s.Misses; total > 0 {
		s.HitRatio = float64(s.Hits) / float64(total)
	}
	return s
}
