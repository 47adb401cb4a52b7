package core

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"modemerge/internal/gen"
	"modemerge/internal/graph"
	"modemerge/internal/obs"
	"modemerge/internal/sdc"
)

// determinismFixtures are three fixed generated designs + mode families.
// The seeds are load-bearing: changing them changes the pinned scenarios.
func determinismFixtures(t *testing.T) []struct {
	name  string
	g     *graph.Graph
	modes []*sdc.Mode
} {
	t.Helper()
	specs := []gen.DesignSpec{
		{Name: "det_a", Seed: 101, Domains: 1, BlocksPerDomain: 2,
			Stages: 2, RegsPerStage: 2, CloudDepth: 1, CrossPaths: 1, IOPairs: 1},
		{Name: "det_b", Seed: 202, Domains: 2, BlocksPerDomain: 1,
			Stages: 2, RegsPerStage: 2, CloudDepth: 2, CrossPaths: 2, IOPairs: 1},
		{Name: "det_c", Seed: 303, Domains: 2, BlocksPerDomain: 2,
			Stages: 3, RegsPerStage: 2, CloudDepth: 1, CrossPaths: 2},
	}
	family := gen.FamilySpec{Groups: 2, ModesPerGroup: []int{2, 2}, BasePeriod: 2}
	var out []struct {
		name  string
		g     *graph.Graph
		modes []*sdc.Mode
	}
	for _, spec := range specs {
		gd, err := gen.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		g, err := graph.Build(gd.Design)
		if err != nil {
			t.Fatal(err)
		}
		var modes []*sdc.Mode
		for _, m := range gd.Modes(family) {
			mode, _, err := sdc.Parse(m.Name, m.Text, g.Design)
			if err != nil {
				t.Fatalf("%s mode %s: %v", spec.Name, m.Name, err)
			}
			modes = append(modes, mode)
		}
		out = append(out, struct {
			name  string
			g     *graph.Graph
			modes []*sdc.Mode
		}{spec.Name, g, modes})
	}
	return out
}

// mergeAllFingerprint folds everything the determinism guarantee covers —
// merged SDC text, explain-report JSON (which embeds the provenance
// records) and the mergeability conflict list — into one comparable
// string.
func mergeAllFingerprint(t *testing.T, g *graph.Graph, modes []*sdc.Mode, parallelism int) string {
	t.Helper()
	merged, reports, mb, err := MergeAll(context.Background(), g, modes, Options{Parallelism: parallelism})
	if err != nil {
		t.Fatalf("MergeAll(parallelism=%d): %v", parallelism, err)
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

// TestMergeAllDeterminismAcrossParallelism pins the parallel engine's
// headline guarantee: over three fixed generated designs, MergeAll
// produces byte-identical merged SDC, provenance/explain JSON and
// conflict reasons for Parallelism ∈ {1, 2, 8} and across repeated runs.
// CI additionally runs this under -race with a -cpu 1,4 matrix.
func TestMergeAllDeterminismAcrossParallelism(t *testing.T) {
	for _, fx := range determinismFixtures(t) {
		fx := fx
		t.Run(fx.name, func(t *testing.T) {
			t.Parallel()
			baseline := mergeAllFingerprint(t, fx.g, fx.modes, 1)
			if baseline == "" {
				t.Fatal("empty baseline fingerprint")
			}
			for _, p := range []int{1, 2, 8} {
				for rep := 0; rep < 2; rep++ {
					got := mergeAllFingerprint(t, fx.g, fx.modes, p)
					if got != baseline {
						t.Fatalf("parallelism=%d rep=%d output differs from sequential baseline:\n%s",
							p, rep, firstLineDiff(baseline, got))
					}
				}
			}
		})
	}
}

// TestMergeDeterminismSingleClique covers the Merger.Merge entry point
// directly (one clique, no mergeability stage), with tracing enabled so
// the per-worker shard spans run under the race detector.
func TestMergeDeterminismSingleClique(t *testing.T) {
	fx := determinismFixtures(t)[0]
	group := fx.modes[:2]
	fingerprint := func(p int) string {
		tr := obs.NewTracer()
		root := tr.Start("merge")
		defer root.Finish()
		merged, rep, err := Merge(context.Background(), fx.g.Design, group, Options{Parallelism: p, Trace: root})
		if err != nil {
			t.Fatalf("Merge(parallelism=%d): %v", p, err)
		}
		ej, err := json.Marshal(rep.Explain(merged.Name))
		if err != nil {
			t.Fatal(err)
		}
		return merged.Name + "\n" + sdc.Write(merged) + string(ej)
	}
	baseline := fingerprint(1)
	for _, p := range []int{2, 8} {
		if got := fingerprint(p); got != baseline {
			t.Fatalf("parallelism=%d Merge output differs:\n%s", p, firstLineDiff(baseline, got))
		}
	}
}

// faultedEquivalenceFixture merges a small generated design's 3-mode
// family with subset-only exceptions kept and data refinement skipped.
// The merged mode then relaxes several path groups, so CheckEquivalence
// reports a multi-entry OptimisticMismatches list whose order the
// determinism guarantee covers.
func faultedEquivalenceFixture(t *testing.T) (*graph.Graph, []*sdc.Mode, *sdc.Mode) {
	t.Helper()
	gd, err := gen.Generate(gen.DesignSpec{Name: "eq_fault", Seed: 1, Domains: 2, BlocksPerDomain: 1,
		Stages: 2, RegsPerStage: 2, CloudDepth: 1, CrossPaths: 2, IOPairs: 1})
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.Build(gd.Design)
	if err != nil {
		t.Fatal(err)
	}
	var modes []*sdc.Mode
	for _, m := range gd.Modes(gen.FamilySpec{Groups: 1, ModesPerGroup: []int{3}, BasePeriod: 2}) {
		mode, _, err := sdc.Parse(m.Name, m.Text, g.Design)
		if err != nil {
			t.Fatalf("mode %s: %v", m.Name, err)
		}
		modes = append(modes, mode)
	}
	merged, _, err := MergeWithGraph(context.Background(), g, modes, Options{
		Inject: FaultInjection{KeepSubsetExceptions: true, SkipDataRefinement: true}})
	if err != nil {
		t.Fatal(err)
	}
	return g, modes, merged
}

// TestEquivalenceDeterminism pins CheckEquivalence's mismatch listing:
// on a merge with several optimistic path groups, OptimisticMismatches is
// byte-identical across repeated calls and across worker counts (the
// passes classify in sorted key order, never in map order).
func TestEquivalenceDeterminism(t *testing.T) {
	g, modes, merged := faultedEquivalenceFixture(t)
	mismatches := func(p int) string {
		res, err := CheckEquivalence(context.Background(), g, modes, merged, Options{Parallelism: p})
		if err != nil {
			t.Fatalf("CheckEquivalence(parallelism=%d): %v", p, err)
		}
		return strings.Join(res.OptimisticMismatches, "\n")
	}
	baseline := mismatches(1)
	if strings.Count(baseline, "\n") < 1 {
		t.Fatalf("fixture reports fewer than 2 optimistic mismatches:\n%s", baseline)
	}
	for _, p := range []int{1, 4} {
		for rep := 0; rep < 10; rep++ {
			if got := mismatches(p); got != baseline {
				t.Fatalf("parallelism=%d rep=%d mismatch list differs:\n%s",
					p, rep, firstLineDiff(baseline, got))
			}
		}
	}
}

// firstLineDiff locates the first differing line of two multi-line
// strings for a readable failure message.
func firstLineDiff(a, b string) string {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	n := len(la)
	if len(lb) < n {
		n = len(lb)
	}
	for i := 0; i < n; i++ {
		if la[i] != lb[i] {
			return fmt.Sprintf("line %d:\n  baseline: %s\n  got:      %s", i+1, la[i], lb[i])
		}
	}
	return fmt.Sprintf("line count differs: %d vs %d", len(la), len(lb))
}
