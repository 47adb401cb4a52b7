package incr

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestHashLengthPrefixed(t *testing.T) {
	// Different part boundaries over the same concatenated bytes must not
	// collide: the length prefix makes ("ab","c") ≠ ("a","bc").
	if Hash("ab", "c") == Hash("a", "bc") {
		t.Fatal("hash collides across part boundaries")
	}
	if Hash("x") != Hash("x") {
		t.Fatal("hash is not deterministic")
	}
	if Hash() == Hash("") {
		t.Fatal("zero parts collides with one empty part")
	}
	if len(Hash("x")) != 64 {
		t.Fatalf("expected 64 hex chars, got %d", len(Hash("x")))
	}
}

func TestCacheObjectRoundTrip(t *testing.T) {
	c := New(16)
	if _, ok := c.GetObject(GranContext, "k"); ok {
		t.Fatal("hit on empty cache")
	}
	c.PutObject(GranContext, "k", 42)
	v, ok := c.GetObject(GranContext, "k")
	if !ok || v.(int) != 42 {
		t.Fatalf("got %v %v, want 42 true", v, ok)
	}
	// Granularities are separate namespaces.
	if _, ok := c.GetObject(GranPair, "k"); ok {
		t.Fatal("key leaked across granularities")
	}
	s := c.Stats().Snapshot()
	if s.ContextHits != 1 || s.ContextMisses != 1 || s.PairMisses != 1 {
		t.Fatalf("unexpected stats: %+v", s)
	}
}

func TestCacheBytesRoundTrip(t *testing.T) {
	c := New(16)
	c.PutBytes(GranClique, "a", []byte("payload"))
	b, ok := c.GetBytes(GranClique, "a")
	if !ok || string(b) != "payload" {
		t.Fatalf("got %q %v", b, ok)
	}
	s := c.Stats().Snapshot()
	if s.CliqueHits != 1 || s.CliqueMisses != 0 {
		t.Fatalf("unexpected stats: %+v", s)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := New(16) // minimum capacity
	for i := 0; i < 20; i++ {
		c.PutObject(GranContext, fmt.Sprintf("k%d", i), i)
	}
	if n := c.Len(GranContext); n != 16 {
		t.Fatalf("len = %d, want 16", n)
	}
	if _, ok := c.GetObject(GranContext, "k0"); ok {
		t.Fatal("oldest entry survived eviction")
	}
	if _, ok := c.GetObject(GranContext, "k19"); !ok {
		t.Fatal("newest entry evicted")
	}
	// Touching an entry protects it from the next eviction round.
	c2 := New(16)
	for i := 0; i < 16; i++ {
		c2.PutObject(GranContext, fmt.Sprintf("k%d", i), i)
	}
	c2.GetObject(GranContext, "k0") // promote
	c2.PutObject(GranContext, "new", 1)
	if _, ok := c2.GetObject(GranContext, "k0"); !ok {
		t.Fatal("recently used entry was evicted")
	}
	if _, ok := c2.GetObject(GranContext, "k1"); ok {
		t.Fatal("least recently used entry survived")
	}
}

func TestGranularitiesEvictIndependently(t *testing.T) {
	// A many-mode family writes far more pair verdicts than cliques; the
	// verdicts must age out among themselves, not push the cliques out.
	c := New(16)
	c.PutBytes(GranClique, "clique", []byte("artifact"))
	for i := 0; i < 2*16; i++ {
		c.PutBytes(GranPair, fmt.Sprintf("p%d", i), []byte{'M'})
	}
	if n := c.Len(GranPair); n != 16 {
		t.Fatalf("pair entries = %d, want 16", n)
	}
	if b, ok := c.GetBytes(GranClique, "clique"); !ok || string(b) != "artifact" {
		t.Fatalf("clique artifact evicted by pair verdicts: %q %v", b, ok)
	}
}

func TestScopeObjectsArePrivate(t *testing.T) {
	root := New(16)
	s1, s2 := root.Scope(), root.Scope()
	s1.PutObject(GranContext, "k", 1)
	s1.PutObject(GranMergedCtx, "m", 2)
	if v, ok := s1.GetObject(GranContext, "k"); !ok || v.(int) != 1 {
		t.Fatalf("scope lost its own object: %v %v", v, ok)
	}
	if _, ok := s2.GetObject(GranContext, "k"); ok {
		t.Fatal("object visible in another scope")
	}
	if _, ok := root.GetObject(GranContext, "k"); ok {
		t.Fatal("scoped object visible in the root cache")
	}
	if root.Len(GranContext) != 0 || root.Len(GranMergedCtx) != 0 {
		t.Fatalf("root holds contexts: ctx=%d mctx=%d",
			root.Len(GranContext), root.Len(GranMergedCtx))
	}
	// Objects put on the root stay invisible to scopes too.
	root.PutObject(GranContext, "r", 3)
	if _, ok := s1.GetObject(GranContext, "r"); ok {
		t.Fatal("root object visible in a scope")
	}
}

func TestScopeSharesBytesStatsAndObserver(t *testing.T) {
	root := New(16)
	var observed []Granularity
	root.SetHitObserver(func(g Granularity, _ time.Duration) { observed = append(observed, g) })
	s1, s2 := root.Scope(), root.Scope()
	if s1.Stats() != root.Stats() {
		t.Fatal("scope has its own counters")
	}
	s1.PutBytes(GranClique, "c", []byte("artifact"))
	if b, ok := s2.GetBytes(GranClique, "c"); !ok || string(b) != "artifact" {
		t.Fatalf("bytes not shared between scopes: %q %v", b, ok)
	}
	if _, ok := root.GetBytes(GranClique, "c"); !ok {
		t.Fatal("bytes put through a scope missing from the root")
	}
	if n := s1.Len(GranClique); n != 0 {
		t.Fatalf("scope holds %d byte entries, want 0", n)
	}
	s1.PutObject(GranContext, "k", 1)
	s1.GetObject(GranContext, "k")
	s2.GetObject(GranContext, "k") // miss: other scope
	s2.GetBytes(GranPair, "none")  // miss
	st := root.Stats().Snapshot()
	if st.CliqueHits != 2 || st.ContextHits != 1 || st.ContextMisses != 1 || st.PairMisses != 1 {
		t.Fatalf("scope lookups not counted on the root: %+v", st)
	}
	want := []Granularity{GranClique, GranClique, GranContext}
	if fmt.Sprint(observed) != fmt.Sprint(want) {
		t.Fatalf("root observer saw %v, want %v", observed, want)
	}
}

func TestEquivVerdictsStayInMemory(t *testing.T) {
	store := NewMemStore()
	c := New(16).WithStore(store)
	c.Scope().PutBytes(GranEquiv, "v", []byte("verdict"))
	if store.Len() != 0 {
		t.Fatalf("equiv verdict written to the artifact store (%d blobs)", store.Len())
	}
	if _, ok := c.GetBytes(GranEquiv, "v"); !ok {
		t.Fatal("equiv verdict not replayed from memory")
	}
	// A store holding a verdict (e.g. written by another process) is
	// never consulted for one.
	store.Put(string(GranEquiv), "w", []byte("foreign")) //nolint:errcheck
	if _, ok := New(16).WithStore(store).GetBytes(GranEquiv, "w"); ok {
		t.Fatal("equiv verdict read from the artifact store")
	}
}

func TestDiskStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c, err := New(16).WithDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := Hash("some", "content")
	c.PutBytes(GranClique, key, []byte("artifact"))

	// A fresh cache over the same directory sees the entry (memory miss,
	// disk hit), proving the write-through persisted.
	c2, err := New(16).WithDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, ok := c2.GetBytes(GranClique, key)
	if !ok || string(b) != "artifact" {
		t.Fatalf("disk round-trip: got %q %v", b, ok)
	}
	// The disk hit still counts as a cache hit.
	if s := c2.Stats().Snapshot(); s.CliqueHits != 1 {
		t.Fatalf("unexpected stats: %+v", s)
	}
	// Objects never go to disk.
	c.PutObject(GranContext, key, 1)
	c3, err := New(16).WithDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c3.GetObject(GranContext, key); ok {
		t.Fatal("object leaked to disk store")
	}
}

func TestDiskStoreRejectsHostileKeys(t *testing.T) {
	dir := t.TempDir()
	ds, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"", "../escape", "a/b", `a\b`, "."} {
		if err := ds.Put(string(GranClique), key, []byte("x")); err == nil {
			t.Fatalf("Put accepted hostile key %q", key)
		}
		if _, err := ds.Get(string(GranClique), key); err == nil {
			t.Fatalf("Get accepted hostile key %q", key)
		}
	}
	// Nothing outside dir was created.
	if _, err := os.Stat(filepath.Join(filepath.Dir(dir), "escape")); err == nil {
		t.Fatal("hostile key escaped the cache directory")
	}
}

func TestDiskStoreIgnoresCorruptEntry(t *testing.T) {
	dir := t.TempDir()
	c, err := New(16).WithDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := Hash("k")
	c.PutBytes(GranPair, key, []byte("good"))
	// Simulate a removed payload: a fresh cache must treat it as a miss.
	path := filepath.Join(dir, string(GranPair), key[:2], key)
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	c2, err := New(16).WithDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.GetBytes(GranPair, key); ok {
		t.Fatal("hit on removed disk entry")
	}
}

func TestCacheConcurrency(t *testing.T) {
	c := New(64)
	job := c.Scope() // one scope shared by several goroutines, like a job's merge workers
	done := make(chan struct{})
	for w := 0; w < 8; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			own := c.Scope()
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("k%d", i%32)
				for _, v := range []*Cache{c, job, own} {
					v.PutBytes(GranPair, k, []byte{byte(i)})
					v.GetBytes(GranPair, k)
					v.PutObject(GranContext, k, i)
					v.GetObject(GranContext, k)
				}
			}
		}(w)
	}
	for w := 0; w < 8; w++ {
		<-done
	}
}

func TestHitObserver(t *testing.T) {
	c := New(16)
	type obsd struct {
		g Granularity
		d time.Duration
	}
	var got []obsd
	c.SetHitObserver(func(g Granularity, d time.Duration) {
		got = append(got, obsd{g, d})
	})

	c.PutObject(GranContext, "k", 1)
	c.PutBytes(GranPair, "p", []byte("ok"))
	if _, ok := c.GetObject(GranContext, "missing"); ok {
		t.Fatal("unexpected hit")
	}
	c.GetObject(GranContext, "k")
	c.GetBytes(GranPair, "p")

	if len(got) != 2 {
		t.Fatalf("observer saw %d hits, want 2 (misses must not report): %+v", len(got), got)
	}
	if got[0].g != GranContext || got[1].g != GranPair {
		t.Fatalf("granularities = %v, %v", got[0].g, got[1].g)
	}
	for _, o := range got {
		if o.d < 0 {
			t.Fatalf("negative hit latency %v", o.d)
		}
	}

	// Disk-promotion hits report too: evict the memory copy, then hit via disk.
	dir := t.TempDir()
	if _, err := c.WithDisk(dir); err != nil {
		t.Fatal(err)
	}
	c.PutBytes(GranClique, "cliq01", []byte("artifact"))
	for i := 0; i < 16; i++ { // push the memory copy out of the LRU
		c.PutBytes(GranClique, fmt.Sprintf("fill%02d", i), []byte("x"))
	}
	if _, ok := c.GetBytes(GranClique, "cliq01"); !ok {
		t.Fatal("disk promotion miss")
	}
	if last := got[len(got)-1]; last.g != GranClique {
		t.Fatalf("disk-promotion hit not observed, last = %+v", last)
	}

	// Removing the observer stops reporting without breaking lookups.
	n := len(got)
	c.SetHitObserver(nil)
	if _, ok := c.GetBytes(GranClique, "cliq01"); !ok {
		t.Fatal("lookup broke after observer removal")
	}
	if len(got) != n {
		t.Fatal("observer fired after removal")
	}
}
