package modemerge

import (
	"context"
	"testing"

	"modemerge/internal/core"
	"modemerge/internal/gen"
	"modemerge/internal/graph"
	"modemerge/internal/sdc"
)

// equiv13k generates the size-curve design at RegsPerStage 32 (about 13k
// timing nodes) with one 3-mode group.
func equiv13k(b *testing.B) (*graph.Graph, []*sdc.Mode) {
	b.Helper()
	gd, err := gen.Generate(gen.DesignSpec{Name: "equiv13k", Seed: 1, Domains: 3, BlocksPerDomain: 2,
		Stages: 4, RegsPerStage: 32, CloudDepth: 3, CrossPaths: 3})
	if err != nil {
		b.Fatal(err)
	}
	g, err := graph.Build(gd.Design)
	if err != nil {
		b.Fatal(err)
	}
	var modes []*sdc.Mode
	for _, m := range gd.Modes(gen.FamilySpec{Groups: 1, ModesPerGroup: []int{3}}) {
		mode, _, err := sdc.Parse(m.Name, m.Text, g.Design)
		if err != nil {
			b.Fatal(err)
		}
		modes = append(modes, mode)
	}
	return g, modes
}

// BenchmarkCheckEquivalence times the validation layer on its own: the
// 3-pass relation comparison of one merged mode against its three members
// on the size-curve design at RegsPerStage 32 (about 13k timing nodes).
// The merge runs once outside the timed loop; every iteration builds
// fresh analysis contexts, as each CheckEquivalence call does.
//
//	go test . -run '^$' -bench CheckEquivalence -benchmem
func BenchmarkCheckEquivalence(b *testing.B) {
	g, modes := equiv13k(b)
	merged, _, err := core.MergeWithGraph(context.Background(), g, modes, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.CheckEquivalence(context.Background(), g, modes, merged, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Equivalent() {
			b.Fatalf("merge not equivalent: %s", res)
		}
	}
	b.ReportMetric(float64(g.NumNodes()), "nodes")
}

// BenchmarkMergeSlowKnobs re-measures what each remaining data_refine
// optimization pays for: one merge of the 13k-node design's 3-mode group
// on the fast path and with each core.SlowPaths knob set. Every variant
// must produce the fast path's merged SDC byte for byte.
//
//	go test . -run '^$' -bench MergeSlowKnobs -benchmem
func BenchmarkMergeSlowKnobs(b *testing.B) {
	g, modes := equiv13k(b)
	want, _, err := core.MergeWithGraph(context.Background(), g, modes, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	wantText := sdc.Write(want)
	for _, knob := range []struct {
		name string
		slow core.SlowPaths
	}{
		{"fast", core.SlowPaths{}},
		{"NoRelationCache", core.SlowPaths{NoRelationCache: true}},
		{"NoCacheTransfer", core.SlowPaths{NoCacheTransfer: true}},
	} {
		b.Run(knob.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				merged, _, err := core.MergeWithGraph(context.Background(), g, modes, core.Options{Slow: knob.slow})
				if err != nil {
					b.Fatal(err)
				}
				if sdc.Write(merged) != wantText {
					b.Fatalf("%s: merged SDC differs from the fast path", knob.name)
				}
			}
		})
	}
}
