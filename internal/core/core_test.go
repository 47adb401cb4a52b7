package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"modemerge/internal/gen"
	"modemerge/internal/graph"
	"modemerge/internal/sdc"
)

func paperGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := graph.Build(gen.PaperCircuit())
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func parseMode(t *testing.T, g *graph.Graph, name, src string) *sdc.Mode {
	t.Helper()
	m, _, err := sdc.Parse(name, src, g.Design)
	if err != nil {
		t.Fatalf("mode %s: %v", name, err)
	}
	return m
}

func mergeModes(t *testing.T, g *graph.Graph, srcs map[string]string, names ...string) (*sdc.Mode, *Report) {
	t.Helper()
	var modes []*sdc.Mode
	for _, n := range names {
		modes = append(modes, parseMode(t, g, n, srcs[n]))
	}
	mg, err := newMergerWithGraph(context.Background(), g, modes, Options{})
	if err != nil {
		t.Fatal(err)
	}
	merged, err := mg.Merge(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return merged, mg.Report
}

// requireEquivalent re-parses the written merged SDC and verifies the
// timing relationships match the individual modes.
func requireEquivalent(t *testing.T, g *graph.Graph, srcs map[string]string, merged *sdc.Mode, names ...string) *EquivalenceResult {
	t.Helper()
	// Round-trip the merged mode through SDC text: the written artifact
	// must behave identically.
	text := sdc.Write(merged)
	reparsed, _, err := sdc.Parse(merged.Name, text, g.Design)
	if err != nil {
		t.Fatalf("merged SDC does not re-parse: %v\n%s", err, text)
	}
	var modes []*sdc.Mode
	for _, n := range names {
		modes = append(modes, parseMode(t, g, n, srcs[n]))
	}
	res, err := CheckEquivalence(context.Background(), g, modes, reparsed, Options{})
	if err != nil {
		t.Fatalf("equivalence check: %v", err)
	}
	if !res.Equivalent() {
		t.Errorf("merged mode is optimistic:\n  %s\nmerged SDC:\n%s",
			strings.Join(res.OptimisticMismatches, "\n  "), text)
	}
	return res
}

// ---- Constraint Set 2: clock union and tolerance merging ----

var set2 = map[string]string{
	"A": `
create_clock -name clkA -period 10 [get_ports clk1]
create_clock -name clkB -period 20 [get_ports clk2]
set_clock_latency -min 0.50 [get_clocks clkB]
`,
	"B": `
create_clock -name clkC -period 20 [get_ports clk2]
create_clock -name clkB -period 5 [get_ports clk1]
set_clock_latency -min 0.48 [get_clocks clkC]
`,
}

func TestClockUnion(t *testing.T) {
	g := paperGraph(t)
	merged, rep := mergeModes(t, g, set2, "A", "B")
	// A:{clkA, clkB}, B:{clkC≡clkB, clkB(p5)} → 3 merged clocks.
	if len(merged.Clocks) != 3 {
		t.Fatalf("merged clocks = %v", merged.ClockNames())
	}
	names := map[string]bool{}
	for _, c := range merged.Clocks {
		names[c.Name] = true
	}
	if !names["clkA"] || !names["clkB"] {
		t.Errorf("expected clkA and clkB, got %v", merged.ClockNames())
	}
	// B's clkB conflicts with A's clkB name → renamed.
	if !names["clkB_1"] {
		t.Errorf("expected renamed clkB_1, got %v", merged.ClockNames())
	}
	if rep.RenamedClocks != 1 {
		t.Errorf("renamed = %d, want 1", rep.RenamedClocks)
	}
	if rep.MergedClocks != 3 {
		t.Errorf("MergedClocks = %d, want 3", rep.MergedClocks)
	}
}

func TestClockConstraintTolerance(t *testing.T) {
	g := paperGraph(t)
	merged, _ := mergeModes(t, g, set2, "A", "B")
	// clkB latency: min(0.50, 0.48) = 0.48 (§3.1.2).
	var got float64
	found := false
	for _, l := range merged.ClockLatencies {
		for _, c := range l.Clocks {
			if c == "clkB" {
				got = l.Value
				found = true
			}
		}
	}
	if !found || got != 0.48 {
		t.Errorf("clkB merged latency = %v (found=%v), want 0.48", got, found)
	}
}

// ---- Constraint Set 3: clock refinement ----

var set3 = map[string]string{
	"A": `
create_clock -period 10 -name clkA [get_ports clk1]
create_clock -period 20 -name clkB [get_ports clk2]
set_case_analysis 0 sel1
set_case_analysis 1 sel2
`,
	"B": `
create_clock -period 10 -name clkA [get_ports clk1]
create_clock -period 20 -name clkB [get_ports clk2]
set_case_analysis 1 sel1
set_case_analysis 0 sel2
`,
}

func TestClockRefinement(t *testing.T) {
	g := paperGraph(t)
	merged, rep := mergeModes(t, g, set3, "A", "B")
	// Conflicting cases translate to inferred disables (paper's CSTR1/2).
	disabled := map[string]bool{}
	for _, d := range merged.Disables {
		for _, o := range d.Objects {
			disabled[o.Name] = true
		}
	}
	if !disabled["sel1"] || !disabled["sel2"] {
		t.Errorf("expected inferred disables on sel1/sel2, got %v", disabled)
	}
	if rep.TranslatedCases != 2 {
		t.Errorf("TranslatedCases = %d, want 2", rep.TranslatedCases)
	}
	// Clock refinement must stop clkA at mux1/Z (paper's CSTR3): in both
	// modes the mux select is 1, so clkA never passes.
	foundStop := false
	for _, s := range merged.ClockSenses {
		if !s.StopPropagation {
			continue
		}
		for _, c := range s.Clocks {
			if c == "clkA" {
				for _, p := range s.Pins {
					if p.Name == "mux1/Z" {
						foundStop = true
					}
				}
			}
		}
	}
	if !foundStop {
		t.Errorf("expected stop_propagation of clkA at mux1/Z; senses: %+v", merged.ClockSenses)
	}
	requireEquivalent(t, g, set3, merged, "A", "B")
}

// ---- Constraint Set 4: exception uniquification ----

var set4 = map[string]string{
	"A": `
create_clock -name clkA -period 10 [get_ports clk1]
set_case_analysis 0 [get_pins mux1/S]
set_multicycle_path 2 -from [get_pins rA/CP]
`,
	"B": `
create_clock -name clkB -period 8 [get_ports clk1]
set_case_analysis 1 [get_pins mux1/S]
`,
}

func TestExceptionUniquification(t *testing.T) {
	g := paperGraph(t)
	merged, rep := mergeModes(t, g, set4, "A", "B")
	if rep.UniquifiedExceptions != 1 {
		t.Fatalf("UniquifiedExceptions = %d, want 1 (report: %+v)", rep.UniquifiedExceptions, rep)
	}
	// Find the uniquified MCP: -from [get_clocks clkA] -through rA/CP.
	var mcp *sdc.Exception
	for _, e := range merged.Exceptions {
		if e.Kind == sdc.MulticyclePath {
			mcp = e
		}
	}
	if mcp == nil {
		t.Fatal("multicycle path missing from merged mode")
	}
	if len(mcp.From.Clocks) != 1 || mcp.From.Clocks[0] != "clkA" {
		t.Errorf("uniquified MCP from-clocks = %v, want [clkA]", mcp.From.Clocks)
	}
	foundThrough := false
	for _, th := range mcp.Throughs {
		for _, p := range th.Pins {
			if p.Name == "rA/CP" {
				foundThrough = true
			}
		}
	}
	if !foundThrough {
		t.Errorf("uniquified MCP lost the rA/CP anchor: %s", sdc.WriteException(mcp))
	}
	if mcp.Multiplier != 2 {
		t.Errorf("multiplier = %d, want 2", mcp.Multiplier)
	}
	requireEquivalent(t, g, set4, merged, "A", "B")
}

func TestUniquificationRefusedWhenClockShared(t *testing.T) {
	// Same clock in both modes: restricting by clock cannot isolate the
	// exception → it must be dropped and recovered (FP) or reported
	// (MCP pessimism).
	srcs := map[string]string{
		"A": `
create_clock -name clkA -period 10 [get_ports clk1]
set_false_path -from [get_pins rA/CP]
`,
		"B": `
create_clock -name clkA -period 10 [get_ports clk1]
`,
	}
	g := paperGraph(t)
	merged, rep := mergeModes(t, g, srcs, "A", "B")
	if rep.UniquifiedExceptions != 0 {
		t.Errorf("exception wrongly uniquified")
	}
	if rep.DroppedExceptions != 1 {
		t.Errorf("DroppedExceptions = %d, want 1", rep.DroppedExceptions)
	}
	// The FP applies only in mode A; mode B times rA paths → merged must
	// time them (target V). No refinement FP may reappear.
	for _, e := range merged.Exceptions {
		if e.Kind == sdc.FalsePath {
			t.Errorf("unexpected false path in merged mode: %s", sdc.WriteException(e))
		}
	}
	requireEquivalent(t, g, srcs, merged, "A", "B")
}

// ---- Constraint Set 5: data refinement by launch-clock blocking ----

var set5 = map[string]string{
	"A": `
create_clock -name ClkA -period 2 [get_ports clk1]
set_input_delay 0.5 -clock ClkA [get_ports in1]
set_output_delay 0.5 -clock ClkA [get_ports out1]
`,
	"B": `
create_clock -name ClkB -period 1 [get_ports clk1]
set_input_delay 0.5 -clock ClkB [get_ports in1]
set_output_delay 0.5 -clock ClkB [get_ports out1]
set_case_analysis 0 rB/Q
`,
}

func TestDataRefinementClockStop(t *testing.T) {
	g := paperGraph(t)
	merged, rep := mergeModes(t, g, set5, "A", "B")
	// Clocks must be physically exclusive (never co-exist in a mode).
	if len(merged.ClockGroups) == 0 {
		t.Fatal("expected inferred clock groups")
	}
	if merged.ClockGroups[0].Kind != sdc.PhysicallyExclusive {
		t.Errorf("clock group kind = %v", merged.ClockGroups[0].Kind)
	}
	// Data refinement: ClkB-launched data never appears at rB/Q or
	// and1/Z in any individual mode (paper's CSTR6).
	var fp *sdc.Exception
	for _, e := range merged.Exceptions {
		if e.Kind == sdc.FalsePath && len(e.From.Clocks) == 1 && e.From.Clocks[0] == "ClkB" {
			fp = e
		}
	}
	if fp == nil {
		t.Fatalf("missing launch-block false path; merged:\n%s", sdc.Write(merged))
	}
	pins := map[string]bool{}
	for _, th := range fp.Throughs {
		for _, p := range th.Pins {
			pins[p.Name] = true
		}
	}
	if !pins["rB/Q"] || !pins["and1/Z"] {
		t.Errorf("launch-block through pins = %v, want rB/Q and and1/Z", pins)
	}
	if rep.LaunchBlocks == 0 {
		t.Error("report did not count launch blocks")
	}
	requireEquivalent(t, g, set5, merged, "A", "B")
}

// ---- Constraint Set 6: the 3-pass algorithm ----

var set6 = map[string]string{
	"A": `
create_clock -p 10 -name clkA [get_ports clk1]
set_false_path -to rX/D
set_false_path -to rY/D
set_false_path -through inv3/Z
`,
	"B": `
create_clock -p 10 -name clkA [get_ports clk1]
set_false_path -from rA/CP
set_false_path -to rZ/D
`,
}

func TestThreePassSet6(t *testing.T) {
	g := paperGraph(t)
	merged, rep := mergeModes(t, g, set6, "A", "B")
	text := sdc.Write(merged)

	// CSTR1: paths to rX/D false in both modes → pass-1 fix.
	// CSTR2: rA/CP → rY/D false in both → pass-2 fix.
	// CSTR3: rC/CP through inv3 leg → rZ/D false in both → pass-3 fix.
	if rep.Pass1Mismatch == 0 {
		t.Error("expected pass-1 mismatches")
	}
	if rep.Pass2Mismatch == 0 {
		t.Error("expected pass-2 mismatches")
	}
	if rep.Pass3Mismatch == 0 {
		t.Error("expected pass-3 mismatches")
	}
	if rep.AddedFalsePaths < 3 {
		t.Errorf("AddedFalsePaths = %d, want >= 3\n%s", rep.AddedFalsePaths, text)
	}

	type want struct {
		desc  string
		check func(e *sdc.Exception) bool
	}
	hasPin := func(pl *sdc.PointList, name string) bool {
		if pl == nil {
			return false
		}
		for _, p := range pl.Pins {
			if p.Name == name {
				return true
			}
		}
		return false
	}
	throughHas := func(e *sdc.Exception, name string) bool {
		for _, th := range e.Throughs {
			if hasPin(th, name) {
				return true
			}
		}
		return false
	}
	wants := []want{
		{"false path to rX/D", func(e *sdc.Exception) bool {
			return hasPin(e.To, "rX/D") || throughHas(e, "rX/D")
		}},
		{"false path rA/CP → rY/D", func(e *sdc.Exception) bool {
			fromA := hasPin(e.From, "rA/CP") || throughHas(e, "rA/CP")
			toY := hasPin(e.To, "rY/D") || throughHas(e, "rY/D")
			return fromA && toY
		}},
		{"false path rC/CP through inv3 leg to rZ/D", func(e *sdc.Exception) bool {
			fromC := hasPin(e.From, "rC/CP") || throughHas(e, "rC/CP")
			leg := throughHas(e, "inv3/A") || throughHas(e, "inv3/Z")
			toZ := hasPin(e.To, "rZ/D") || throughHas(e, "rZ/D")
			return fromC && leg && toZ
		}},
	}
	for _, w := range wants {
		found := false
		for _, e := range merged.Exceptions {
			if e.Kind == sdc.FalsePath && w.check(e) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("missing %s; merged:\n%s", w.desc, text)
		}
	}
	res := requireEquivalent(t, g, set6, merged, "A", "B")
	if res.MatchedGroups == 0 {
		t.Error("no matched groups in equivalence result")
	}
}

// ---- Table 1 / Constraint Set 1 merged with itself: identity ----

func TestMergeIdenticalModes(t *testing.T) {
	src := `
create_clock -name clkA -period 10 [get_ports clk1]
set_multicycle_path 2 -through [get_pins inv1/Z]
set_false_path -through [get_pins and1/Z]
`
	srcs := map[string]string{"A": src, "B": src}
	g := paperGraph(t)
	merged, rep := mergeModes(t, g, srcs, "A", "B")
	if len(merged.Clocks) != 1 {
		t.Errorf("clocks = %v", merged.ClockNames())
	}
	if len(merged.Exceptions) != 2 {
		t.Errorf("exceptions = %d, want 2 (intersection of identical sets)", len(merged.Exceptions))
	}
	if rep.AddedFalsePaths != 0 || rep.ClockStops != 0 {
		t.Errorf("identity merge added constraints: %+v", rep)
	}
	requireEquivalent(t, g, srcs, merged, "A", "B")
}

// ---- Mergeability and cliques (Figure 2) ----

func TestMergeabilityAndCliques(t *testing.T) {
	g := paperGraph(t)
	mk := func(name, tr string) *sdc.Mode {
		return parseMode(t, g, name, `
create_clock -name clkA -period 10 [get_ports clk1]
set_input_transition `+tr+` [get_ports in1]
`)
	}
	// Modes 0,1 share tr=0.1; modes 2,3 share tr=0.5; cross pairs exceed
	// the 5% tolerance.
	modes := []*sdc.Mode{mk("m0", "0.10"), mk("m1", "0.102"), mk("m2", "0.50"), mk("m3", "0.51")}
	mb, err := AnalyzeMergeability(g, modes, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !mb.Edge[0][1] || !mb.Edge[2][3] {
		t.Error("compatible pairs not mergeable")
	}
	if mb.Edge[0][2] || mb.Edge[1][3] {
		t.Error("incompatible pairs mergeable")
	}
	cliques := mb.Cliques()
	if len(cliques) != 2 {
		t.Fatalf("cliques = %v", mb.GroupNames(cliques))
	}
	if len(mb.Conflicts) == 0 {
		t.Error("no conflicts recorded")
	}
	out := FormatMergeability(mb, cliques)
	if !strings.Contains(out, "M1") || !strings.Contains(out, "tolerance") {
		t.Errorf("format output incomplete:\n%s", out)
	}
}

func TestMergeAll(t *testing.T) {
	g := paperGraph(t)
	srcs := []string{
		`create_clock -name clkA -period 10 [get_ports clk1]
set_input_transition 0.1 [get_ports in1]`,
		`create_clock -name clkA -period 10 [get_ports clk1]
set_input_transition 0.1 [get_ports in1]
set_false_path -to rX/D`,
		`create_clock -name clkA -period 10 [get_ports clk1]
set_input_transition 0.9 [get_ports in1]`,
	}
	var modes []*sdc.Mode
	for i, s := range srcs {
		modes = append(modes, parseMode(t, g, string(rune('a'+i)), s))
	}
	out, reports, mb, err := MergeAll(context.Background(), g, modes, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("merged into %d modes, want 2 (%v)", len(out), mb.GroupNames(mb.Cliques()))
	}
	if len(reports) != 2 {
		t.Fatalf("reports = %d", len(reports))
	}
}

// ---- Naive baseline ----

func TestNaiveMergeLosesRefinement(t *testing.T) {
	g := paperGraph(t)
	var modes []*sdc.Mode
	for _, n := range []string{"A", "B"} {
		modes = append(modes, parseMode(t, g, n, set6[n]))
	}
	naive, err := NaiveMerge(context.Background(), g, modes, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// No exception is common to both modes → naive mode has none.
	if len(naive.Exceptions) != 0 {
		t.Errorf("naive exceptions = %d, want 0", len(naive.Exceptions))
	}
	// The naive merge times paths that are false in every individual
	// mode: inaccurate (pessimistic) groups the refined merge does not
	// have.
	res, err := CheckEquivalence(context.Background(), g, modes, naive, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.PessimisticGroups == 0 {
		t.Errorf("naive merge shows no pessimistic groups: %s", res)
	}
	refined, _ := mergeModes(t, g, set6, "A", "B")
	refRes, err := CheckEquivalence(context.Background(), g, modes, refined, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if refRes.PessimisticGroups >= res.PessimisticGroups {
		t.Errorf("graph-based merge (%d pessimistic) not better than naive (%d)",
			refRes.PessimisticGroups, res.PessimisticGroups)
	}
}

// ---- Equivalence checker standalone ----

func TestEquivalenceDetectsOptimism(t *testing.T) {
	g := paperGraph(t)
	individual := []*sdc.Mode{parseMode(t, g, "A", `
create_clock -name clkA -period 10 [get_ports clk1]
set_max_delay 1 -to [get_pins rX/D]
`)}
	// A "merged" mode that silently drops the max_delay.
	broken := parseMode(t, g, "broken", `
create_clock -name clkA -period 10 [get_ports clk1]
`)
	res, err := CheckEquivalence(context.Background(), g, individual, broken, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Equivalent() {
		t.Error("dropped max_delay not detected as optimistic")
	}
}

// TestEquivalenceCancelled checks that CheckEquivalence honours its
// context: a cancelled context returns the context error, including from
// the pass-3 through-point comparison, whose per-context queries run on
// the caller's context.
func TestEquivalenceCancelled(t *testing.T) {
	g, modes, merged := faultedEquivalenceFixture(t)
	cx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := CheckEquivalence(cx, g, modes, merged, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("CheckEquivalence on a cancelled context: err = %v, want context.Canceled", err)
	}
	mg, err := newEquivalenceMerger(context.Background(), g, modes, merged, Options{})
	if err != nil {
		t.Fatal(err)
	}
	start, end := g.Node(g.Startpoints()[0]).Name, g.Node(g.Endpoints()[0]).Name
	res := &EquivalenceResult{}
	if _, err := mg.checkPass3(cx, start, end, res); !errors.Is(err, context.Canceled) {
		t.Fatalf("checkPass3 on a cancelled context: err = %v, want context.Canceled", err)
	}
}

func TestEquivalenceAcceptsIdentity(t *testing.T) {
	g := paperGraph(t)
	src := `
create_clock -name clkA -period 10 [get_ports clk1]
set_false_path -through [get_pins and1/Z]
set_multicycle_path 3 -to [get_pins rX/D]
`
	mode := parseMode(t, g, "A", src)
	same := parseMode(t, g, "same", src)
	res, err := CheckEquivalence(context.Background(), g, []*sdc.Mode{mode}, same, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equivalent() || res.PessimisticGroups != 0 {
		t.Errorf("identity not equivalent: %s", res)
	}
}
