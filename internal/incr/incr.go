// Package incr is the incremental re-merge engine's content-addressed
// sub-merge cache. Every input of the merging flow — the timing graph,
// each mode's resolved SDC text, the merge options — hashes to a stable
// digest, and the flow's intermediate products are cached at these
// granularities keyed by those digests:
//
//   - per-mode sta timing contexts (memory only: a built context is a
//     large pointer-rich structure that is cheap to share and expensive
//     to serialize),
//   - pairwise mergeability verdicts from the mock-merge analysis,
//   - per-clique preliminary-merge + refinement artifacts (the merged
//     SDC text plus the full merge report),
//   - equivalence-check verdicts on a merged mode (memory only).
//
// Editing one mode of N therefore re-runs only that mode's context
// build, its N−1 mergeability pairs, and the cliques containing it —
// everything else is a cache hit. Keys are content addresses, so
// invalidation is automatic: a changed input simply hashes to a new key
// and the stale entry ages out of its granularity's LRU. Each
// granularity has its own LRU, so a burst of small entries of one kind
// (a many-mode family's pair verdicts) never evicts another kind.
//
// A Scope is a short-lived view of a cache — one per service job — that
// keeps timing contexts to itself and shares everything else: the
// job's stages reuse each other's contexts, and the contexts are freed
// with the job instead of pinning the heap of a long-lived server.
//
// The cache is safe for concurrent use. An optional artifact store (see
// BlobStore: disk, in-memory, or S3-style HTTP backends) persists the
// serializable granularities (pair verdicts and clique artifacts) across
// processes, which is what makes warm CLI reruns (`modemerge
// -cache-dir`) near-instant and lets a distributed merge fabric share
// per-clique artifacts between coordinator and workers.
package incr

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sync"
	"sync/atomic"
	"time"
)

// Granularity names one cached sub-merge product class. It prefixes
// every store key, so one store serves all granularities without
// collisions.
type Granularity string

// The cache granularities of the incremental engine.
const (
	// GranContext caches built per-mode sta analysis contexts. Memory
	// only: entries are live Go object graphs shared read-only between
	// merges (see internal/sta on why sharing is safe).
	GranContext Granularity = "ctx"
	// GranPair caches pairwise mergeability verdicts ("" = mergeable,
	// otherwise the first conflict reason).
	GranPair Granularity = "pair"
	// GranClique caches the merged SDC text + report of one merge
	// clique — the whole preliminary-merge + refinement pipeline.
	GranClique Granularity = "clique"
	// GranETM caches hierarchical-merge products: extracted interface
	// timing models keyed by the master graph fingerprint, and per-block
	// refinement harvests keyed by master fingerprint + options +
	// projected member texts. Both serialize, so they ride the disk
	// write-through like cliques.
	GranETM Granularity = "etm"
	// GranMergedCtx caches merged-mode analysis contexts built during
	// refinement, keyed by the merged SDC text at each iteration. Memory
	// only, like GranContext, but counted separately so the per-mode
	// context reuse contract stays observable on its own counters.
	GranMergedCtx Granularity = "mctx"
	// GranEquiv caches equivalence-check verdicts, keyed by design,
	// options, member texts and merged text. Memory only: never read
	// from or written to the artifact store, so every replayed verdict
	// was computed by this process on exactly those inputs.
	GranEquiv Granularity = "equiv"
)

// persisted reports whether a byte granularity writes through to (and
// falls back on) the artifact store.
func persisted(g Granularity) bool { return g != GranEquiv }

// Hash is the cache's content address: SHA-256 over length-prefixed
// parts, so no concatenation of parts can collide with a different
// split of the same bytes.
func Hash(parts ...string) string {
	h := sha256.New()
	var n [8]byte
	for _, p := range parts {
		binary.LittleEndian.PutUint64(n[:], uint64(len(p)))
		h.Write(n[:])
		h.Write([]byte(p))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Stats counts hits and misses per granularity. All fields are atomic;
// read them through Snapshot.
type Stats struct {
	ContextHits, ContextMisses     atomic.Int64
	PairHits, PairMisses           atomic.Int64
	CliqueHits, CliqueMisses       atomic.Int64
	ETMHits, ETMMisses             atomic.Int64
	MergedCtxHits, MergedCtxMisses atomic.Int64
	EquivHits, EquivMisses         atomic.Int64
}

// StatsSnapshot is the JSON-ready view of Stats.
type StatsSnapshot struct {
	ContextHits     int64 `json:"context_hits"`
	ContextMisses   int64 `json:"context_misses"`
	PairHits        int64 `json:"pair_hits"`
	PairMisses      int64 `json:"pair_misses"`
	CliqueHits      int64 `json:"clique_hits"`
	CliqueMisses    int64 `json:"clique_misses"`
	ETMHits         int64 `json:"etm_hits"`
	ETMMisses       int64 `json:"etm_misses"`
	MergedCtxHits   int64 `json:"merged_ctx_hits,omitempty"`
	MergedCtxMisses int64 `json:"merged_ctx_misses,omitempty"`
	EquivHits       int64 `json:"equiv_hits"`
	EquivMisses     int64 `json:"equiv_misses"`
}

func (s *Stats) hit(g Granularity) {
	switch g {
	case GranContext:
		s.ContextHits.Add(1)
	case GranPair:
		s.PairHits.Add(1)
	case GranClique:
		s.CliqueHits.Add(1)
	case GranETM:
		s.ETMHits.Add(1)
	case GranMergedCtx:
		s.MergedCtxHits.Add(1)
	case GranEquiv:
		s.EquivHits.Add(1)
	}
}

func (s *Stats) miss(g Granularity) {
	switch g {
	case GranContext:
		s.ContextMisses.Add(1)
	case GranPair:
		s.PairMisses.Add(1)
	case GranClique:
		s.CliqueMisses.Add(1)
	case GranETM:
		s.ETMMisses.Add(1)
	case GranMergedCtx:
		s.MergedCtxMisses.Add(1)
	case GranEquiv:
		s.EquivMisses.Add(1)
	}
}

// Snapshot reads the counters.
func (s *Stats) Snapshot() StatsSnapshot {
	return StatsSnapshot{
		ContextHits:     s.ContextHits.Load(),
		ContextMisses:   s.ContextMisses.Load(),
		PairHits:        s.PairHits.Load(),
		PairMisses:      s.PairMisses.Load(),
		CliqueHits:      s.CliqueHits.Load(),
		CliqueMisses:    s.CliqueMisses.Load(),
		ETMHits:         s.ETMHits.Load(),
		ETMMisses:       s.ETMMisses.Load(),
		MergedCtxHits:   s.MergedCtxHits.Load(),
		MergedCtxMisses: s.MergedCtxMisses.Load(),
		EquivHits:       s.EquivHits.Load(),
		EquivMisses:     s.EquivMisses.Load(),
	}
}

// Cache is one incremental sub-merge cache: a bounded in-memory LRU per
// granularity plus an optional BlobStore behind the persisted ones. The
// zero value is not usable; construct with New (or Scope).
type Cache struct {
	// shared owns the byte granularities, the artifact store, the
	// counters and the hit observer: the cache itself, or for a Scope
	// view the cache it was scoped from.
	shared *Cache

	mu       sync.Mutex
	cap      int                      // entries per granularity
	segments map[Granularity]*segment // objects; bytes too unless a scope

	store BlobStore // optional artifact store; nil = memory only
	stats Stats

	// hitObserver, when set, receives the lookup latency of every cache
	// hit with its granularity — the service feeds these into its
	// per-granularity hit-latency histograms. Nil costs nothing: the
	// lookup paths only read the clock when an observer is installed.
	hitObserver atomic.Pointer[func(Granularity, time.Duration)]
}

// segment is one granularity's LRU.
type segment struct {
	order   *list.List // front = most recently used
	entries map[string]*list.Element
}

type entry struct {
	key   string
	value any
}

// New creates a memory-only cache holding at most capacity entries per
// granularity (minimum 16; default 4096 when capacity <= 0).
func New(capacity int) *Cache {
	if capacity <= 0 {
		capacity = 4096
	}
	if capacity < 16 {
		capacity = 16
	}
	c := &Cache{cap: capacity, segments: map[Granularity]*segment{}}
	c.shared = c
	return c
}

// Scope returns a view of the cache for one unit of work, such as one
// service job. Objects (the timing-context granularities) put through
// the scope live only in the scope — invisible to the cache and to
// other scopes, and freed with the scope — so a job's stages share its
// contexts without a long-lived cache pinning them between jobs. Bytes,
// the artifact store, the counters and the hit observer are the
// cache's own. A scope holds at most the cache's capacity per
// granularity.
func (c *Cache) Scope() *Cache {
	return &Cache{shared: c.shared, cap: c.cap, segments: map[Granularity]*segment{}}
}

// WithDisk layers a filesystem artifact store under the persisted
// granularities (pair verdicts, clique artifacts). It is a thin adapter
// over WithStore with the DiskStore backend.
func (c *Cache) WithDisk(dir string) (*Cache, error) {
	d, err := NewDiskStore(dir)
	if err != nil {
		return nil, err
	}
	return c.WithStore(d), nil
}

// WithStore layers an artifact store under the persisted
// granularities: GetBytes falls through to the store on a memory miss
// and promotes hits back into memory; PutBytes writes through. The store
// may be shared with other caches and other processes — entries are
// content-addressed, so cross-process sharing needs no coordination.
// On a scope it sets the store of the cache the scope was taken from.
func (c *Cache) WithStore(s BlobStore) *Cache {
	sh := c.shared
	sh.mu.Lock()
	sh.store = s
	sh.mu.Unlock()
	return c
}

// Store returns the cache's artifact store (nil when memory only).
func (c *Cache) Store() BlobStore {
	sh := c.shared
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.store
}

// Stats exposes the hit/miss counters (a scope's are its cache's).
func (c *Cache) Stats() *Stats { return &c.shared.stats }

// SetHitObserver installs (or, with nil, removes) the hit-latency
// callback. The observer must be fast and safe for concurrent use — it
// runs inline on every hit of every merge worker.
func (c *Cache) SetHitObserver(fn func(Granularity, time.Duration)) {
	if fn == nil {
		c.shared.hitObserver.Store(nil)
		return
	}
	c.shared.hitObserver.Store(&fn)
}

// hit counts one hit and reports its lookup latency. start is zero when
// the lookup path skipped the clock because no observer was installed
// at entry; re-check is deliberate so a racing SetHitObserver never
// produces a garbage duration.
func (c *Cache) hit(g Granularity, start time.Time) {
	sh := c.shared
	sh.stats.hit(g)
	if start.IsZero() {
		return
	}
	if fn := sh.hitObserver.Load(); fn != nil {
		(*fn)(g, time.Since(start))
	}
}

// hitStart returns the clock reading lookups use to time hits, or zero
// when no observer is installed (skipping the syscall).
func (c *Cache) hitStart() time.Time {
	if c.shared.hitObserver.Load() != nil {
		return time.Now()
	}
	return time.Time{}
}

// GetObject looks an in-memory object up (context granularities). It
// never consults the artifact store.
func (c *Cache) GetObject(g Granularity, key string) (any, bool) {
	start := c.hitStart()
	v, ok := c.get(g, key)
	if !ok {
		c.shared.stats.miss(g)
		return nil, false
	}
	c.hit(g, start)
	return v, true
}

// PutObject stores an in-memory object (context granularities).
func (c *Cache) PutObject(g Granularity, key string, v any) {
	c.put(g, key, v)
}

// GetBytes looks a serialized value up: memory first, then the artifact
// store (when configured and g is persisted), promoting store hits into
// memory.
func (c *Cache) GetBytes(g Granularity, key string) ([]byte, bool) {
	sh := c.shared
	start := c.hitStart()
	if v, ok := sh.get(g, key); ok {
		c.hit(g, start)
		return v.([]byte), true
	}
	if store := sh.Store(); store != nil && persisted(g) {
		if b, err := store.Get(string(g), key); err == nil {
			sh.put(g, key, b)
			c.hit(g, start)
			return b, true
		}
	}
	sh.stats.miss(g)
	return nil, false
}

// PutBytes stores a serialized value, writing through to the artifact
// store when one is configured and g is persisted.
func (c *Cache) PutBytes(g Granularity, key string, b []byte) {
	sh := c.shared
	sh.put(g, key, b)
	if store := sh.Store(); store != nil && persisted(g) {
		store.Put(string(g), key, b) //nolint:errcheck // cache write-through is best effort
	}
}

// get reads one entry of this cache's own memory and marks it used. The
// value must be read under the lock: put overwrites entry.value in
// place when a key is re-stored.
func (c *Cache) get(g Granularity, key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.segments[g]
	if s == nil {
		return nil, false
	}
	el, ok := s.entries[key]
	if !ok {
		return nil, false
	}
	s.order.MoveToFront(el)
	return el.Value.(*entry).value, true
}

// put stores one entry in this cache's own memory, evicting the least
// recently used entry of the same granularity beyond capacity.
func (c *Cache) put(g Granularity, key string, v any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.segments[g]
	if s == nil {
		s = &segment{order: list.New(), entries: map[string]*list.Element{}}
		c.segments[g] = s
	}
	if el, ok := s.entries[key]; ok {
		el.Value.(*entry).value = v
		s.order.MoveToFront(el)
		return
	}
	s.entries[key] = s.order.PushFront(&entry{key: key, value: v})
	for s.order.Len() > c.cap {
		last := s.order.Back()
		s.order.Remove(last)
		delete(s.entries, last.Value.(*entry).key)
	}
}

// Len reports how many entries of granularity g this cache holds in
// memory. A scope holds only objects; the bytes put through it are
// counted on the cache it was taken from.
func (c *Cache) Len(g Granularity) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if s := c.segments[g]; s != nil {
		return s.order.Len()
	}
	return 0
}
