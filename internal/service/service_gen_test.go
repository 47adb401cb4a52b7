package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"modemerge/internal/gen"
	"modemerge/internal/incr"
	"modemerge/internal/library"
	"modemerge/internal/netlist"
	"modemerge/internal/sdc"
	"modemerge/pkg/modemerge"
)

// TestEndToEndGeneratedDesign submits a synthetic multi-domain design
// from internal/gen — the same generator the differential fuzzing harness
// samples — through the full HTTP job flow: two clock domains with gated
// blocks and cross-domain paths, and a two-group mode family that must
// merge into exactly two cliques, both validated equivalent.
func TestEndToEndGeneratedDesign(t *testing.T) {
	dspec := gen.DesignSpec{Name: "svc_gen", Seed: 77, Domains: 2, BlocksPerDomain: 2,
		Stages: 2, RegsPerStage: 2, CloudDepth: 1, CrossPaths: 2, IOPairs: 2}
	fspec := gen.FamilySpec{Groups: 2, ModesPerGroup: []int{3, 2}, BasePeriod: 2}
	g, err := gen.Generate(dspec)
	if err != nil {
		t.Fatal(err)
	}

	req := &MergeRequest{Verilog: netlist.WriteVerilog(g.Design)}
	for _, m := range g.Modes(fspec) {
		req.Modes = append(req.Modes, ModeInput{Name: m.Name, SDC: m.Text})
	}

	s := newTestServer(t, Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/merge", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sub submitResponse
	decodeBody(t, resp, http.StatusAccepted, &sub)
	if sub.ID == "" {
		t.Fatalf("submit = %+v, want job id", sub)
	}

	var view JobView
	deadline := time.Now().Add(120 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + sub.ID)
		if err != nil {
			t.Fatal(err)
		}
		decodeBody(t, resp, http.StatusOK, &view)
		if view.Status == StatusDone || view.Status == StatusFailed || view.Status == StatusCanceled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", view.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if view.Status != StatusDone {
		t.Fatalf("job = %+v, want done", view)
	}

	resp, err = http.Get(ts.URL + "/v1/jobs/" + sub.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	var result Result
	decodeBody(t, resp, http.StatusOK, &result)

	// The family is built as two mutually non-mergeable groups; each must
	// collapse into one merged mode covering all its members.
	if len(result.Merged) != fspec.Groups {
		t.Fatalf("merged = %d modes, want %d (groups %v)", len(result.Merged), fspec.Groups, result.Groups)
	}
	total := 0
	for _, grp := range result.Groups {
		total += len(grp)
	}
	if total != fspec.TotalModes() {
		t.Fatalf("groups %v cover %d modes, want %d", result.Groups, total, fspec.TotalModes())
	}
	if len(result.Equivalence) != fspec.Groups {
		t.Fatalf("equivalence reports = %d, want %d", len(result.Equivalence), fspec.Groups)
	}
	for i, eq := range result.Equivalence {
		if !eq.Equivalent {
			t.Errorf("clique %d (%s) not equivalent: %+v", i, result.Merged[i].Name, eq)
		}
	}

	// Every merged SDC must parse against the generated design and carry
	// clocks from both domains plus the test clock namespace.
	design, err := netlist.ParseVerilog(req.Verilog, library.Default(), "")
	if err != nil {
		t.Fatal(err)
	}
	for _, mm := range result.Merged {
		merged, _, err := sdc.Parse(mm.Name, mm.SDC, design)
		if err != nil {
			t.Fatalf("merged SDC %s does not parse: %v", mm.Name, err)
		}
		if len(merged.Clocks) < dspec.Domains {
			t.Errorf("merged mode %s has %d clocks, want >= %d", mm.Name, len(merged.Clocks), dspec.Domains)
		}
	}
}

// TestIncrementalResubmitAfterEdit submits a generated three-group
// family, then resubmits it with one mode edited. The untouched
// multi-mode cliques must replay both their merge artifacts and their
// validation verdicts from the server's incremental cache, the result
// must equal an uncached facade merge byte for byte, and no timing
// context may outlive its job in the server-level cache.
func TestIncrementalResubmitAfterEdit(t *testing.T) {
	dspec := gen.DesignSpec{Name: "svc_incr", Seed: 91, Domains: 2, BlocksPerDomain: 2,
		Stages: 2, RegsPerStage: 2, CloudDepth: 1, CrossPaths: 2, IOPairs: 2}
	fspec := gen.FamilySpec{Groups: 3, ModesPerGroup: []int{3, 2, 2}, BasePeriod: 2}
	g, err := gen.Generate(dspec)
	if err != nil {
		t.Fatal(err)
	}
	req := &MergeRequest{Verilog: netlist.WriteVerilog(g.Design)}
	for _, m := range g.Modes(fspec) {
		req.Modes = append(req.Modes, ModeInput{Name: m.Name, SDC: m.Text})
	}

	s := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	run := func(req *MergeRequest) Result {
		t.Helper()
		body, _ := json.Marshal(req)
		var sub submitResponseV2
		decodeBody(t, postJSON(t, ts.URL+"/v2/merge", body, ""), http.StatusAccepted, &sub)
		job, ok := s.Job(sub.ID)
		if !ok {
			t.Fatalf("job %s not found", sub.ID)
		}
		waitDone(t, job)
		if job.Status() != StatusDone {
			t.Fatalf("job %s ended %s", sub.ID, job.Status())
		}
		resp, err := http.Get(ts.URL + "/v2/jobs/" + sub.ID + "/result")
		if err != nil {
			t.Fatal(err)
		}
		var res Result
		decodeBody(t, resp, http.StatusOK, &res)
		return res
	}
	stats := func() incr.StatsSnapshot {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v2/stats")
		if err != nil {
			t.Fatal(err)
		}
		var st struct {
			IncrCache incr.StatsSnapshot `json:"incr_cache"`
		}
		decodeBody(t, resp, http.StatusOK, &st)
		return st.IncrCache
	}
	noContexts := func(when string) {
		t.Helper()
		root := s.IncrCache()
		if n, m := root.Len(incr.GranContext), root.Len(incr.GranMergedCtx); n+m != 0 {
			t.Fatalf("%s: server cache holds %d ctx and %d mctx entries, want none", when, n, m)
		}
	}

	first := run(req)
	noContexts("after the first job")

	// Edit the first mode: one extra clock-uncertainty line.
	design, err := netlist.ParseVerilog(req.Verilog, library.Default(), "")
	if err != nil {
		t.Fatal(err)
	}
	edited := *req
	edited.Modes = append([]ModeInput(nil), req.Modes...)
	m0, _, err := sdc.Parse(edited.Modes[0].Name, edited.Modes[0].SDC, design)
	if err != nil || len(m0.Clocks) == 0 {
		t.Fatalf("mode %s: parse error %v or no clocks", edited.Modes[0].Name, err)
	}
	edited.Modes[0].SDC += "\nset_clock_uncertainty 0.123 [get_clocks " + m0.Clocks[0].Name + "]\n"

	before := stats()
	second := run(&edited)
	after := stats()
	noContexts("after the edited job")

	// Expected replays: multi-mode cliques of the edited job that do not
	// hold the edited mode and already existed in the first job.
	firstGroups := map[string]bool{}
	for _, grp := range first.Groups {
		firstGroups[strings.Join(grp, ",")] = true
	}
	var untouched, touched int64
	for _, grp := range second.Groups {
		if len(grp) < 2 {
			continue
		}
		if !slices.Contains(grp, edited.Modes[0].Name) && firstGroups[strings.Join(grp, ",")] {
			untouched++
		} else {
			touched++
		}
	}
	if untouched < 2 {
		t.Fatalf("groups %v: want at least 2 untouched multi-mode cliques", second.Groups)
	}
	if hits, misses := after.CliqueHits-before.CliqueHits, after.CliqueMisses-before.CliqueMisses; hits != untouched || misses != touched {
		t.Errorf("clique hits/misses = %d/%d, want %d/%d", hits, misses, untouched, touched)
	}
	if hits, misses := after.EquivHits-before.EquivHits, after.EquivMisses-before.EquivMisses; hits != untouched || misses != touched {
		t.Errorf("equiv hits/misses = %d/%d, want %d/%d", hits, misses, untouched, touched)
	}
	for i, eq := range second.Equivalence {
		if !eq.Equivalent {
			t.Errorf("clique %d (%s) not equivalent: %+v", i, eq.Merged, eq)
		}
	}

	// The incremental result equals an uncached merge through the facade.
	d, err := modemerge.LoadDesign(edited.Verilog, "", "")
	if err != nil {
		t.Fatal(err)
	}
	modes := make([]*modemerge.Mode, len(edited.Modes))
	for i, m := range edited.Modes {
		if modes[i], _, err = d.ParseMode(m.Name, m.SDC); err != nil {
			t.Fatal(err)
		}
	}
	want, _, _, err := modemerge.MergeAll(context.Background(), d, modes, modemerge.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(second.Merged) {
		t.Fatalf("service merged %d modes, facade %d", len(second.Merged), len(want))
	}
	for i, m := range want {
		if got := second.Merged[i]; got.Name != m.Name || got.SDC != modemerge.WriteSDC(m) {
			t.Errorf("merged mode %d (%s) differs from the uncached facade merge", i, m.Name)
		}
	}
}
