package core

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"modemerge/internal/gen"
	"modemerge/internal/graph"
	"modemerge/internal/obs"
	"modemerge/internal/sdc"
)

// slowPathFixtures are two fixed designs for the SlowPaths equivalence
// tests:
//
//   - "functional": a functional-only family — every mode of a group
//     creates the same clocks, so each group's merged clock namespace
//     coincides with every member's;
//   - "variants": the generator's scan/test variants — refinement takes
//     multiple iterations, so the merged-context memo replays endpoints
//     across rebuilds (NoCacheTransfer and NoRelationCache flip live
//     behaviour, verified by TestSlowKnobCoverage below) and pass 3 scans
//     forwarded pairs.
func slowPathFixtures(t *testing.T) []struct {
	name  string
	g     *graph.Graph
	modes []*sdc.Mode
} {
	t.Helper()
	type fx struct {
		name   string
		design gen.DesignSpec
		family gen.FamilySpec
	}
	fixtures := []fx{
		{
			name: "functional",
			design: gen.DesignSpec{Name: "slow_f", Seed: 33, Domains: 3, BlocksPerDomain: 1,
				Stages: 2, RegsPerStage: 3, CloudDepth: 1, CrossPaths: 3, IOPairs: 1},
			family: gen.FamilySpec{Groups: 2, ModesPerGroup: []int{3, 2}, BasePeriod: 2,
				FunctionalOnly: true},
		},
		{
			name: "variants",
			design: gen.DesignSpec{Name: "slow_v", Seed: 11, Domains: 2, BlocksPerDomain: 2,
				Stages: 2, RegsPerStage: 2, CloudDepth: 1, CrossPaths: 2, IOPairs: 1},
			family: gen.FamilySpec{Groups: 2, ModesPerGroup: []int{3, 2}, BasePeriod: 2},
		},
	}
	var out []struct {
		name  string
		g     *graph.Graph
		modes []*sdc.Mode
	}
	for _, f := range fixtures {
		gd, err := gen.Generate(f.design)
		if err != nil {
			t.Fatal(err)
		}
		g, err := graph.Build(gd.Design)
		if err != nil {
			t.Fatal(err)
		}
		var modes []*sdc.Mode
		for _, m := range gd.Modes(f.family) {
			mode, _, err := sdc.Parse(m.Name, m.Text, g.Design)
			if err != nil {
				t.Fatalf("%s mode %s: %v", f.name, m.Name, err)
			}
			modes = append(modes, mode)
		}
		out = append(out, struct {
			name  string
			g     *graph.Graph
			modes []*sdc.Mode
		}{f.name, g, modes})
	}
	return out
}

// slowFingerprint folds everything the SlowPaths equivalence guarantee
// covers — merged SDC text, explain-report JSON and the mergeability
// conflict list — into one comparable string.
func slowFingerprint(t *testing.T, g *graph.Graph, modes []*sdc.Mode, opt Options) string {
	t.Helper()
	merged, reports, mb, err := MergeAll(context.Background(), g, modes, opt)
	if err != nil {
		t.Fatalf("MergeAll(%+v): %v", opt.Slow, err)
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
		fmt.Fprintf(&b, "conflict %s|%s|%s\n", c.A, c.B, c.Reason)
	}
	return b.String()
}

// slowKnobs enumerates every SlowPaths knob individually by name.
func slowKnobs() map[string]SlowPaths {
	return map[string]SlowPaths{
		"NoRelationCache": {NoRelationCache: true},
		"NoCacheTransfer": {NoCacheTransfer: true},
	}
}

// TestSlowKnobEquivalence pins the contract Options.Slow documents: every
// data-refinement optimization is pure speed — disabling any knob (and
// all of them together), at sequential and parallel worker counts, keeps
// the merged SDC, explain reports and conflicts byte-identical.
func TestSlowKnobEquivalence(t *testing.T) {
	for _, fx := range slowPathFixtures(t) {
		fx := fx
		t.Run(fx.name, func(t *testing.T) {
			t.Parallel()
			baseline := slowFingerprint(t, fx.g, fx.modes, Options{Parallelism: 1})
			if baseline == "" {
				t.Fatal("empty baseline fingerprint")
			}
			cases := slowKnobs()
			cases["all"] = SlowPaths{NoRelationCache: true, NoCacheTransfer: true}
			for name, slow := range cases {
				for _, p := range []int{1, 4} {
					got := slowFingerprint(t, fx.g, fx.modes, Options{Parallelism: p, Slow: slow})
					if got != baseline {
						t.Errorf("%s parallelism=%d: output differs from fast path:\n%s",
							name, p, firstLineDiff(baseline, got))
					}
				}
			}
		})
	}
}

// TestSlowKnobCheckEquivalence extends the Slow contract to the
// equivalence checker: with NoRelationCache (every pass-2/3 query
// re-propagates its fan-in cone) the whole EquivalenceResult equals the
// shared-propagation result, at sequential and parallel worker counts,
// on clean merges of both fixtures and on an optimistic (faulted) merge.
func TestSlowKnobCheckEquivalence(t *testing.T) {
	type check struct {
		name          string
		g             *graph.Graph
		group         []*sdc.Mode
		merged        *sdc.Mode
		wantOptimists bool
	}
	var checks []check
	for _, fx := range slowPathFixtures(t) {
		merged, _, _, err := MergeAll(context.Background(), fx.g, fx.modes, Options{})
		if err != nil {
			t.Fatal(err)
		}
		_, cliques, err := PlanMerge(fx.g, fx.modes, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for ci, clique := range cliques {
			var group []*sdc.Mode
			for _, m := range clique {
				group = append(group, fx.modes[m])
			}
			checks = append(checks, check{fmt.Sprintf("%s/clique%d", fx.name, ci), fx.g, group, merged[ci], false})
		}
	}
	g, modes, merged := faultedEquivalenceFixture(t)
	checks = append(checks, check{"faulted", g, modes, merged, true})

	pass2Endpoints := int64(0)
	for _, c := range checks {
		tr := obs.NewTracer()
		root := tr.Start("check")
		base, err := CheckEquivalence(context.Background(), c.g, c.group, c.merged, Options{Parallelism: 1, Trace: root})
		root.Finish()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if c.wantOptimists == base.Equivalent() {
			t.Fatalf("%s: Equivalent()=%v, want %v (%s)", c.name, base.Equivalent(), !c.wantOptimists, base)
		}
		pass2Endpoints += spanCounter(tr.Tree(), "equiv_pass2", "endpoints")
		for _, noCache := range []bool{false, true} {
			for _, p := range []int{1, 4} {
				got, err := CheckEquivalence(context.Background(), c.g, c.group, c.merged,
					Options{Parallelism: p, Slow: SlowPaths{NoRelationCache: noCache}})
				if err != nil {
					t.Fatalf("%s: %v", c.name, err)
				}
				if !reflect.DeepEqual(got, base) {
					t.Errorf("%s NoRelationCache=%v parallelism=%d:\n got %s %q\nwant %s %q",
						c.name, noCache, p, got, got.OptimisticMismatches, base, base.OptimisticMismatches)
				}
			}
		}
	}
	if pass2Endpoints == 0 {
		t.Error("no check forwarded an endpoint to pass 2 — the shared propagation was never read")
	}
}

// spanCounter sums one counter over every span of the given name.
func spanCounter(vs []*obs.SpanView, span, counter string) int64 {
	var n int64
	for _, v := range vs {
		if v.Name == span {
			n += v.Counters[counter]
		}
		n += spanCounter(v.Children, span, counter)
	}
	return n
}

// mergeCounters runs a traced merge and sums every span counter.
func mergeCounters(t *testing.T, g *graph.Graph, modes []*sdc.Mode, opt Options) map[string]int64 {
	t.Helper()
	tr := obs.NewTracer()
	sp := tr.Start("merge")
	opt.Trace = sp
	_, _, _, err := MergeAll(context.Background(), g, modes, opt)
	sp.Finish()
	if err != nil {
		t.Fatal(err)
	}
	c := map[string]int64{}
	var walk func(vs []*obs.SpanView)
	walk = func(vs []*obs.SpanView) {
		for _, v := range vs {
			for k, n := range v.Counters {
				c[k] += n
			}
			walk(v.Children)
		}
	}
	walk(tr.Tree())
	return c
}

// mergedRelCacheLookups merges the family's first multi-mode clique and
// returns the merged context's relation-memo hits+misses.
func mergedRelCacheLookups(t *testing.T, g *graph.Graph, modes []*sdc.Mode, opt Options) int64 {
	t.Helper()
	_, cliques, err := PlanMerge(g, modes, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, clique := range cliques {
		if len(clique) < 2 {
			continue
		}
		var group []*sdc.Mode
		for _, m := range clique {
			group = append(group, modes[m])
		}
		mg, err := newMergerWithGraph(context.Background(), g, group, opt)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := mg.Merge(context.Background()); err != nil {
			t.Fatal(err)
		}
		hits, misses := mg.mctx.RelCacheStats()
		return hits + misses
	}
	t.Fatal("no multi-mode clique")
	return 0
}

// TestSlowKnobCoverage proves the equivalence test above is not vacuous:
// on its fixtures the fast path actually reads the relation memo and
// replays memoized endpoints across refinement iterations — and
// disabling the matching knob makes the counter drop to zero.
func TestSlowKnobCoverage(t *testing.T) {
	variants := slowPathFixtures(t)[1]

	vfast := mergeCounters(t, variants.g, variants.modes, Options{Parallelism: 1})
	if vfast["replayed_endpoints"] == 0 {
		t.Error("variants fixture: endpoint memo never replayed on the fast path")
	}
	if vfast["pairs"] == 0 {
		t.Error("variants fixture: no pass-3 pairs")
	}
	noTransfer := mergeCounters(t, variants.g, variants.modes,
		Options{Parallelism: 1, Slow: SlowPaths{NoCacheTransfer: true}})
	if noTransfer["replayed_endpoints"] != 0 {
		t.Errorf("NoCacheTransfer still replayed %d endpoints", noTransfer["replayed_endpoints"])
	}

	if n := mergedRelCacheLookups(t, variants.g, variants.modes, Options{Parallelism: 1}); n == 0 {
		t.Error("variants fixture: merged context never consulted the relation memo on the fast path")
	}
	if n := mergedRelCacheLookups(t, variants.g, variants.modes,
		Options{Parallelism: 1, Slow: SlowPaths{NoRelationCache: true}}); n != 0 {
		t.Errorf("NoRelationCache still recorded %d relation-memo lookups", n)
	}
}

// TestNameSet covers the nameSet helper the refinement passes and the
// equivalence checker share: insertion deduplicates and extraction is
// sorted regardless of insertion order.
func TestNameSet(t *testing.T) {
	s := nameSet{}
	if got := s.sorted(); len(got) != 0 {
		t.Fatalf("empty nameSet sorted = %v, want []", got)
	}
	for _, n := range []string{"z", "a", "m", "a", "z", "a"} {
		s.add(n)
	}
	got := s.sorted()
	want := []string{"a", "m", "z"}
	if len(got) != len(want) {
		t.Fatalf("sorted = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sorted = %v, want %v", got, want)
		}
	}
}
