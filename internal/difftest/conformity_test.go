package difftest

import (
	"context"
	"path/filepath"
	"testing"

	"modemerge/internal/gen"
)

// conformityFaultSpec is a constructed reproducer for the conformity
// oracle under the skip-data-refine fault. Random sampling rarely hits the
// required conjunction, so the spec is built by hand around it:
//
//   - both modes relax the single register→output path, but through
//     textually different exceptions (one scoped -to the port, one
//     unscoped -from the register), so the intersection-based exception
//     merge keeps neither and the merged mode still times the endpoint;
//   - every member excludes that endpoint, so the clean merge's pass 1
//     emits the corrective false path — while the faulted merge skips
//     data refinement and leaves the endpoint timed (a conformity
//     violation).
func conformityFaultSpec() *TrialSpec {
	return &TrialSpec{
		Design: gen.DesignSpec{
			Name: "prune", Seed: 1,
			Domains: 1, BlocksPerDomain: 1, Stages: 1, RegsPerStage: 1,
			CloudDepth: 1, CrossPaths: 0, IOPairs: 1,
		},
		Family: gen.FamilySpec{
			Groups: 1, ModesPerGroup: []int{2}, BasePeriod: 2, FunctionalOnly: true,
		},
		Perturbs: []Perturb{
			{Mode: 0, Kind: "false_path_out", D: 0, B: 0},
			{Mode: 1, Kind: "false_path_from", D: 0, B: 0},
		},
	}
}

// TestDataRefineFaultCaughtByConformity pins the conformity oracle's
// detector power on the skip-data-refine fault: the constructed spec must merge
// clean without violations, must trip the conformity oracle under the
// fault, must stay minimal under shrinking, and must round-trip through
// a saved corpus file.
func TestDataRefineFaultCaughtByConformity(t *testing.T) {
	cx := context.Background()
	fault, err := ParseFault("skip-data-refine")
	if err != nil {
		t.Fatal(err)
	}
	spec := conformityFaultSpec()

	clean := Run(cx, spec, Fault{}.Inject)
	if clean.Err != nil {
		t.Fatalf("clean run: %v", clean.Err)
	}
	if clean.Failed() {
		t.Fatalf("clean run must pass all properties, got %v", clean.Violations)
	}

	res := Run(cx, spec, fault.Inject)
	if res.Err != nil {
		t.Fatalf("faulted run: %v", res.Err)
	}
	sawConformity := false
	for _, v := range res.Violations {
		if v.Property == PropConformity {
			sawConformity = true
		}
	}
	if !sawConformity {
		t.Fatalf("expected a conformity violation from the skipped data refinement, got %v", res.Violations)
	}

	// The hand-built spec must already be locally minimal: shrinking may
	// not find a smaller failing spec, and no single simplification step
	// keeps the failure.
	shrunk := Shrink(cx, spec, fault.Inject)
	if shrunk.Size() < spec.Size() {
		t.Fatalf("constructed spec is not minimal: shrank %d -> %d to %s",
			spec.Size(), shrunk.Size(), shrunk)
	}
	for _, cand := range candidates(spec) {
		if cand.Size() >= spec.Size() {
			continue
		}
		if r := Run(cx, cand, fault.Inject); r.Err == nil && r.Failed() {
			t.Fatalf("constructed spec is not minimal: %s still fails", cand)
		}
	}

	// Save → load → replay round trip, mirroring the committed corpus
	// entry for this fault.
	dir := t.TempDir()
	repro := &Reproducer{
		Spec:             *spec,
		Fault:            "skip-data-refine",
		ExpectViolations: true,
		Properties:       []string{PropConformity},
		FoundBy:          "TestDataRefineFaultCaughtByConformity",
	}
	path, err := repro.Save(dir)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := loaded[filepath.Base(path)]
	if !ok {
		t.Fatalf("saved reproducer %s not found on reload", path)
	}
	if err := got.Replay(Run(cx, &got.Spec, fault.Inject)); err != nil {
		t.Fatalf("reloaded reproducer: %v", err)
	}
}
