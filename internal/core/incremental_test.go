package core

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"

	"modemerge/internal/graph"
	"modemerge/internal/incr"
	"modemerge/internal/sdc"
)

// mergeAllFingerprintCache is mergeAllFingerprint with an explicit cache,
// for warm-vs-cold byte comparisons.
func mergeAllFingerprintCache(t *testing.T, g *graph.Graph, modes []*sdc.Mode, cache *incr.Cache) string {
	t.Helper()
	merged, reports, mb, err := MergeAll(context.Background(), g, modes, Options{Cache: cache})
	if err != nil {
		t.Fatalf("MergeAll(cache=%v): %v", cache != nil, err)
	}
	var b strings.Builder
	for i := range merged {
		b.WriteString("== " + merged[i].Name + "\n")
		b.WriteString(sdc.Write(merged[i]))
		ej, err := json.Marshal(reports[i].Explain(merged[i].Name))
		if err != nil {
			t.Fatal(err)
		}
		b.Write(ej)
		b.WriteByte('\n')
	}
	for _, c := range mb.Conflicts {
		b.WriteString("conflict " + c.A + "|" + c.B + "|" + c.Reason + "\n")
	}
	return b.String()
}

// perturbMode returns a deterministically modified copy of the mode: its
// canonical SDC text plus one extra clock-uncertainty line, re-parsed
// against the design. This models "the user edited one mode file".
func perturbMode(t *testing.T, g *graph.Graph, m *sdc.Mode) *sdc.Mode {
	t.Helper()
	if len(m.Clocks) == 0 {
		t.Fatal("fixture mode has no clocks to perturb")
	}
	text := sdc.Write(m) + "\nset_clock_uncertainty 0.123 [get_clocks " + m.Clocks[0].Name + "]\n"
	mode, _, err := sdc.Parse(m.Name, text, g.Design)
	if err != nil {
		t.Fatalf("perturb %s: %v", m.Name, err)
	}
	return mode
}

// TestIncrementalMatchesCold is the engine's headline guarantee: merging
// with Options.Cache — cold cache, warm replay, and warm after perturbing
// one mode of N — is byte-identical (merged SDC, explain JSON, conflict
// reasons) to merging without any cache.
func TestIncrementalMatchesCold(t *testing.T) {
	for _, fx := range determinismFixtures(t) {
		fx := fx
		t.Run(fx.name, func(t *testing.T) {
			t.Parallel()
			cold := mergeAllFingerprintCache(t, fx.g, fx.modes, nil)
			cache := incr.New(0)
			if got := mergeAllFingerprintCache(t, fx.g, fx.modes, cache); got != cold {
				t.Fatalf("cold-cache merge differs from cacheless merge:\n%s", firstLineDiff(cold, got))
			}
			// Pure replay: identical inputs, warm cache.
			if got := mergeAllFingerprintCache(t, fx.g, fx.modes, cache); got != cold {
				t.Fatalf("warm replay differs from cacheless merge:\n%s", firstLineDiff(cold, got))
			}
			s := cache.Stats().Snapshot()
			if s.ContextMisses+s.PairMisses+s.CliqueMisses == 0 {
				t.Fatal("cold run recorded no misses — cache not consulted")
			}
			// Perturb one mode; the incremental result must byte-match a
			// cold merge of the perturbed set.
			for _, pi := range []int{0, len(fx.modes) - 1} {
				modes := append([]*sdc.Mode(nil), fx.modes...)
				modes[pi] = perturbMode(t, fx.g, modes[pi])
				coldP := mergeAllFingerprintCache(t, fx.g, modes, nil)
				if got := mergeAllFingerprintCache(t, fx.g, modes, cache); got != coldP {
					t.Fatalf("incremental re-merge after perturbing mode %d differs from cold merge:\n%s",
						pi, firstLineDiff(coldP, got))
				}
			}
		})
	}
}

// perturbModeNeutral modifies a mode without touching anything the
// mock-merge analysis reads (clock values, drive/load), so pair verdicts
// flip to misses but the clique structure is guaranteed unchanged.
func perturbModeNeutral(t *testing.T, g *graph.Graph, m *sdc.Mode) *sdc.Mode {
	t.Helper()
	if len(m.Clocks) == 0 {
		t.Fatal("fixture mode has no clocks to perturb")
	}
	c := m.Clocks[0].Name
	text := sdc.Write(m) + "\nset_false_path -from [get_clocks " + c + "] -to [get_clocks " + c + "]\n"
	mode, _, err := sdc.Parse(m.Name, text, g.Design)
	if err != nil {
		t.Fatalf("perturb %s: %v", m.Name, err)
	}
	return mode
}

// TestIncrementalReuseCounts pins the "editing one mode of N" contract in
// terms of work actually skipped: after a warm-up, a pure replay misses
// nothing, and perturbing one mode re-runs exactly one context build and
// that mode's N−1 mergeability pairs.
func TestIncrementalReuseCounts(t *testing.T) {
	fx := determinismFixtures(t)[1] // det_b: 2 groups × 2 modes
	n := len(fx.modes)
	cache := incr.New(0)
	mergeAllFingerprintCache(t, fx.g, fx.modes, cache)

	before := cache.Stats().Snapshot()
	mergeAllFingerprintCache(t, fx.g, fx.modes, cache)
	after := cache.Stats().Snapshot()
	if after.ContextMisses != before.ContextMisses ||
		after.PairMisses != before.PairMisses ||
		after.CliqueMisses != before.CliqueMisses {
		t.Fatalf("pure replay recorded new misses: before %+v after %+v", before, after)
	}
	if after.CliqueHits <= before.CliqueHits {
		t.Fatal("pure replay did not hit the clique cache")
	}

	// Perturb one mode: exactly one context rebuild and N−1 pair re-runs.
	modes := append([]*sdc.Mode(nil), fx.modes...)
	modes[0] = perturbModeNeutral(t, fx.g, modes[0])
	before = after
	mergeAllFingerprintCache(t, fx.g, modes, cache)
	after = cache.Stats().Snapshot()
	if got := after.PairMisses - before.PairMisses; got != int64(n-1) {
		t.Fatalf("pair misses after one-mode perturbation = %d, want %d", got, n-1)
	}
	if got := after.CliqueMisses - before.CliqueMisses; got < 1 {
		t.Fatal("perturbed clique did not miss")
	}
	// Only cliques containing the perturbed mode re-merge; with 2 groups
	// of 2, one clique must hit.
	if got := after.CliqueHits - before.CliqueHits; got < 1 {
		t.Fatalf("untouched clique did not hit (hits delta %d)", got)
	}
	// Context builds: only the perturbed mode misses; misses happen per
	// clique merge, and the perturbed mode sits in exactly one clique.
	if got := after.ContextMisses - before.ContextMisses; got != 1 {
		t.Fatalf("context misses after one-mode perturbation = %d, want 1", got)
	}
}

// TestIncrementalSingleCliqueMerge covers the Merger entry point with a
// cache: two consecutive newMergerWithGraph+Merge runs over the same
// inputs share contexts via the cache and agree byte-for-byte.
func TestIncrementalSingleCliqueMerge(t *testing.T) {
	fx := determinismFixtures(t)[0]
	group := fx.modes[:2]
	run := func(cache *incr.Cache) string {
		mg, err := newMergerWithGraph(context.Background(), fx.g, group, Options{Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		merged, err := mg.Merge(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return sdc.Write(merged)
	}
	cold := run(nil)
	cache := incr.New(0)
	if got := run(cache); got != cold {
		t.Fatalf("cached merge differs:\n%s", firstLineDiff(cold, got))
	}
	if got := run(cache); got != cold {
		t.Fatalf("warm merge differs:\n%s", firstLineDiff(cold, got))
	}
	s := cache.Stats().Snapshot()
	if s.ContextHits != int64(len(group)) {
		t.Fatalf("warm run context hits = %d, want %d", s.ContextHits, len(group))
	}
}

// TestIncrementalDiskCache proves pair verdicts and clique artifacts
// survive a process restart (modelled as a fresh Cache over the same
// directory): the second cold-memory run hits disk for every pair and
// clique and still matches byte-for-byte.
func TestIncrementalDiskCache(t *testing.T) {
	fx := determinismFixtures(t)[0]
	dir := t.TempDir()
	c1, err := incr.New(0).WithDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := mergeAllFingerprintCache(t, fx.g, fx.modes, c1)

	c2, err := incr.New(0).WithDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := mergeAllFingerprintCache(t, fx.g, fx.modes, c2); got != want {
		t.Fatalf("disk-warm merge differs:\n%s", firstLineDiff(want, got))
	}
	s := c2.Stats().Snapshot()
	if s.PairMisses != 0 || s.CliqueMisses != 0 {
		t.Fatalf("disk-backed rerun missed: %+v", s)
	}
	// Contexts are memory-only, so the fresh process rebuilds none of the
	// merged cliques' contexts (clique hits skip context builds entirely).
	if s.CliqueHits == 0 {
		t.Fatal("no clique hits from disk")
	}
}

// TestOptionsKeyExcludesParallelism pins the cache-key contract: results
// cached at one parallelism or Slow setting are valid at every other, while every
// result-affecting option changes the key.
func TestOptionsKeyExcludesParallelism(t *testing.T) {
	base := Options{}.incrOptionsKey()
	if got := (Options{Parallelism: 7}).incrOptionsKey(); got != base {
		t.Fatal("Parallelism leaked into the options key")
	}
	if got := (Options{Slow: SlowPaths{NoRelationCache: true, NoCacheTransfer: true}}).incrOptionsKey(); got != base {
		t.Fatal("Slow knobs leaked into the options key")
	}
	if got := (Options{Tolerance: 0.5}).incrOptionsKey(); got == base {
		t.Fatal("Tolerance missing from the options key")
	}
	if got := (Options{MaxRefineIterations: 9}).incrOptionsKey(); got == base {
		t.Fatal("MaxRefineIterations missing from the options key")
	}
}

// TestEquivalenceVerdictReplay holds the equiv granularity to the
// uncached check: a cold fill and a warm replay return exactly the
// uncached EquivalenceResult, mismatch order included, on a faulted
// merge (several optimistic groups) and on a clean one.
func TestEquivalenceVerdictReplay(t *testing.T) {
	g, modes, faulted := faultedEquivalenceFixture(t)
	clean, _, err := MergeWithGraph(context.Background(), g, modes, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		merged *sdc.Mode
	}{{"faulted", faulted}, {"clean", clean}} {
		cold, err := CheckEquivalence(context.Background(), g, modes, tc.merged, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if tc.name == "faulted" && len(cold.OptimisticMismatches) < 2 {
			t.Fatalf("faulted fixture reports %d optimistic mismatches, want >= 2", len(cold.OptimisticMismatches))
		}
		cache := incr.New(0)
		for _, pass := range []string{"cold fill", "warm replay"} {
			got, err := CheckEquivalence(context.Background(), g, modes, tc.merged, Options{Cache: cache})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, cold) {
				t.Fatalf("%s %s: got %+v, want %+v", tc.name, pass, got, cold)
			}
		}
		if st := cache.Stats().Snapshot(); st.EquivHits != 1 || st.EquivMisses != 1 {
			t.Fatalf("%s: equiv hits/misses = %d/%d, want 1/1", tc.name, st.EquivHits, st.EquivMisses)
		}
	}
}

// TestEquivalenceVerdictKeyedByFaultsAndText: a faulted and a clean merge
// of the same members never share a verdict, neither through the merged
// text nor through fault injections in the check's options.
func TestEquivalenceVerdictKeyedByFaultsAndText(t *testing.T) {
	g, modes, faulted := faultedEquivalenceFixture(t)
	clean, _, err := MergeWithGraph(context.Background(), g, modes, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cache := incr.New(0)
	check := func(merged *sdc.Mode, inject FaultInjection) *EquivalenceResult {
		t.Helper()
		res, err := CheckEquivalence(context.Background(), g, modes, merged, Options{Cache: cache, Inject: inject})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if !check(clean, FaultInjection{}).Equivalent() {
		t.Fatal("clean merge not equivalent")
	}
	if check(faulted, FaultInjection{}).Equivalent() {
		t.Fatal("faulted merge replayed the clean merge's verdict")
	}
	check(clean, FaultInjection{KeepSubsetExceptions: true, SkipDataRefinement: true})
	if st := cache.Stats().Snapshot(); st.EquivHits != 0 || st.EquivMisses != 3 {
		t.Fatalf("equiv hits/misses = %d/%d, want 0/3", st.EquivHits, st.EquivMisses)
	}
}

// recordingStore is a BlobStore that records every granularity read or
// written through it.
type recordingStore struct {
	*incr.MemStore
	mu    sync.Mutex
	grans map[string]bool
}

func (s *recordingStore) note(gran string) {
	s.mu.Lock()
	s.grans[gran] = true
	s.mu.Unlock()
}

func (s *recordingStore) Get(gran, key string) ([]byte, error) {
	s.note(gran)
	return s.MemStore.Get(gran, key)
}

func (s *recordingStore) Put(gran, key string, val []byte) error {
	s.note(gran)
	return s.MemStore.Put(gran, key, val)
}

// TestEquivalenceVerdictsBypassStore: with an artifact store attached,
// equiv verdicts are still cached (in memory) but never touch the store.
func TestEquivalenceVerdictsBypassStore(t *testing.T) {
	g, modes, faulted := faultedEquivalenceFixture(t)
	store := &recordingStore{MemStore: incr.NewMemStore(), grans: map[string]bool{}}
	cache := incr.New(0).WithStore(store)
	opt := Options{Cache: cache}
	merged, _, _, err := MergeAll(context.Background(), g, modes, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []*sdc.Mode{merged[0], faulted, merged[0]} {
		if _, err := CheckEquivalence(context.Background(), g, modes, m, opt); err != nil {
			t.Fatal(err)
		}
	}
	if st := cache.Stats().Snapshot(); st.EquivHits != 1 || st.EquivMisses != 2 {
		t.Fatalf("equiv hits/misses = %d/%d, want 1/2", st.EquivHits, st.EquivMisses)
	}
	if !store.grans[string(incr.GranClique)] {
		t.Fatal("store saw no clique artifact: write-through is not wired")
	}
	if store.grans[string(incr.GranEquiv)] {
		t.Fatal("an equiv verdict touched the artifact store")
	}
	if infos, _ := store.List(string(incr.GranEquiv), ""); len(infos) != 0 {
		t.Fatalf("store holds %d equiv entries", len(infos))
	}
}
