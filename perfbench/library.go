package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"runtime/metrics"
	"strconv"
	"syscall"
	"time"

	"modemerge/internal/core"
	"modemerge/internal/experiments"
	"modemerge/internal/gen"
	"modemerge/internal/graph"
	"modemerge/internal/library"
	"modemerge/internal/netlist"
	"modemerge/internal/obs"
	"modemerge/internal/sdc"
	"modemerge/pkg/modemerge"
)

// setupRounds is how many times a run sets up; setup_s is their median.
const setupRounds = 3

// digestFile records the merged-SDC digest of each library workload per
// seed (see recordedDigest).
const digestFile = "perfbench/digests.json"

// libInputs is one library workload's generated input: the netlist as
// Verilog text and the mode family as SDC texts, exactly what a user of
// the facade would hand it.
type libInputs struct {
	verilog string
	modes   []gen.ModeSDC
	// groups is the family's FamilySpec.Groups: the merged-mode count a
	// correct merge must produce.
	groups int
}

func generateInputs(spec gen.DesignSpec, fam gen.FamilySpec) (*libInputs, error) {
	g, err := gen.Generate(spec)
	if err != nil {
		return nil, fmt.Errorf("generating %s: %w", spec.Name, err)
	}
	return &libInputs{verilog: netlist.WriteVerilog(g.Design), modes: g.Modes(fam), groups: fam.Groups}, nil
}

// flat52kInputs is the size-curve spec at RegsPerStage 128 (about 52k
// timing nodes, 15k cells) with one 3-mode group.
func flat52kInputs(seed int64) (*libInputs, error) {
	spec := gen.DesignSpec{Name: "flat52k", Seed: seed, Domains: 3, BlocksPerDomain: 2,
		Stages: 4, RegsPerStage: 128, CloudDepth: 3, CrossPaths: 3}
	return generateInputs(spec, gen.FamilySpec{Groups: 1, ModesPerGroup: []int{3}})
}

// designACase is the paper's design A (Table 5: 95 modes merging into
// 16) with the design seed replaced by the benchmark's.
func designACase(seed int64) (experiments.DesignCase, error) {
	for _, c := range experiments.PaperDesigns(1) {
		if c.Label == "A" {
			c.Spec.Seed = seed
			return c, nil
		}
	}
	return experiments.DesignCase{}, errors.New("experiments.PaperDesigns has no design A")
}

// manyModes95Inputs is design A's netlist and 95-mode family.
func manyModes95Inputs(seed int64) (*libInputs, error) {
	c, err := designACase(seed)
	if err != nil {
		return nil, err
	}
	return generateInputs(c.Spec, c.Family)
}

// libraryInputs generates each library workload's input from a seed.
var libraryInputs = map[string]func(int64) (*libInputs, error){
	"flat-52k":      flat52kInputs,
	"many-modes-95": manyModes95Inputs,
}

// flowOutput is what one flow produced, reduced to what the checks
// need.
type flowOutput struct {
	individual int
	merged     int
	// digest is the SHA-256 of every merged mode's name and SDC text.
	digest string
	// notEquivalent names the merged modes whose equivalence check found
	// an optimistic mismatch.
	notEquivalent []string
}

func digestModes(names, texts []string) string {
	h := sha256.New()
	for i := range names {
		fmt.Fprintf(h, "%s\x00%d\x00%s", names[i], len(texts[i]), texts[i])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// facadeFlow is the flow the end-to-end metrics time, through the
// stable pkg/modemerge facade: LoadDesign, ParseMode for every mode,
// MergeAll, CheckEquivalence per multi-mode clique, WriteSDC.
func facadeFlow(ctx context.Context, in *libInputs) (flowOutput, error) {
	var out flowOutput
	d, err := modemerge.LoadDesign(in.verilog, "", "")
	if err != nil {
		return out, err
	}
	modes := make([]*modemerge.Mode, len(in.modes))
	for i, m := range in.modes {
		if modes[i], _, err = d.ParseMode(m.Name, m.Text); err != nil {
			return out, fmt.Errorf("mode %s: %w", m.Name, err)
		}
	}
	merged, _, mb, err := modemerge.MergeAll(ctx, d, modes, modemerge.Options{})
	if err != nil {
		return out, err
	}
	cliques := mb.Cliques()
	if len(cliques) != len(merged) {
		return out, fmt.Errorf("%d cliques but %d merged modes", len(cliques), len(merged))
	}
	for i, clique := range cliques {
		if len(clique) < 2 {
			continue
		}
		group := make([]*modemerge.Mode, len(clique))
		for j, m := range clique {
			group[j] = modes[m]
		}
		res, err := modemerge.CheckEquivalence(ctx, d, group, merged[i], modemerge.Options{})
		if err != nil {
			return out, fmt.Errorf("checking %s: %w", merged[i].Name, err)
		}
		if !res.Equivalent() {
			out.notEquivalent = append(out.notEquivalent, merged[i].Name)
		}
	}
	names := make([]string, len(merged))
	texts := make([]string, len(merged))
	for i, m := range merged {
		names[i], texts[i] = m.Name, modemerge.WriteSDC(m)
	}
	out.individual, out.merged, out.digest = len(modes), len(merged), digestModes(names, texts)
	return out, nil
}

// flowCounts are the work counts a traced flow records.
type flowCounts struct {
	Cells, Nodes, Modes, Pairs, Cliques int
}

// tracedFlow runs the same flow as facadeFlow by calling each layer's
// entry point directly, with a benchmark span around every call. The
// spans around PlanMerge, MergeClique and CheckEquivalence are passed as
// core.Options.Trace, so the stage spans core and sta emit nest below
// them.
func tracedFlow(ctx context.Context, in *libInputs) (flowOutput, flowCounts, *obs.SpanView, error) {
	var out flowOutput
	var counts flowCounts
	tr := obs.NewTracer()
	root := tr.Start(spanFlow)
	fail := func(err error) (flowOutput, flowCounts, *obs.SpanView, error) {
		root.Finish()
		return out, counts, nil, err
	}

	sp := root.Child(spanNetlistParse)
	d, err := netlist.ParseVerilog(in.verilog, library.Default(), "")
	sp.Finish()
	if err != nil {
		return fail(fmt.Errorf("verilog: %w", err))
	}
	sp = root.Child(spanNetlistValid)
	_, err = d.Validate()
	sp.Finish()
	if err != nil {
		return fail(fmt.Errorf("design: %w", err))
	}
	sp = root.Child(spanGraphBuild)
	g, err := graph.Build(d)
	sp.Finish()
	if err != nil {
		return fail(fmt.Errorf("graph: %w", err))
	}
	sp = root.Child(spanSDCParse)
	modes := make([]*sdc.Mode, len(in.modes))
	for i, m := range in.modes {
		if modes[i], _, err = sdc.Parse(m.Name, m.Text, d); err != nil {
			sp.Finish()
			return fail(fmt.Errorf("mode %s: %w", m.Name, err))
		}
	}
	sp.Finish()

	sp = root.Child(spanPlanMerge)
	_, cliques, err := core.PlanMerge(g, modes, core.Options{Trace: sp})
	sp.Finish()
	if err != nil {
		return fail(err)
	}
	merged := make([]*sdc.Mode, len(cliques))
	groups := make([][]*sdc.Mode, len(cliques))
	for i, clique := range cliques {
		groups[i] = make([]*sdc.Mode, len(clique))
		for j, m := range clique {
			groups[i][j] = modes[m]
		}
		sp = root.Child(spanMergeClique)
		merged[i], _, err = core.MergeClique(ctx, g, groups[i], core.Options{Trace: sp})
		sp.Finish()
		if err != nil {
			return fail(err)
		}
	}
	for i, group := range groups {
		if len(group) < 2 {
			continue
		}
		sp = root.Child(spanCheckEquiv)
		res, err := core.CheckEquivalence(ctx, g, group, merged[i], core.Options{Trace: sp})
		sp.Finish()
		if err != nil {
			return fail(fmt.Errorf("checking %s: %w", merged[i].Name, err))
		}
		if !res.Equivalent() {
			out.notEquivalent = append(out.notEquivalent, merged[i].Name)
		}
	}
	sp = root.Child(spanSDCWrite)
	names := make([]string, len(merged))
	texts := make([]string, len(merged))
	for i, m := range merged {
		names[i], texts[i] = m.Name, sdc.Write(m)
	}
	sp.Finish()
	root.Finish()

	out.individual, out.merged, out.digest = len(modes), len(merged), digestModes(names, texts)
	counts = flowCounts{Cells: d.Stats().Cells, Nodes: g.NumNodes(), Modes: len(modes),
		Pairs: len(modes) * (len(modes) - 1) / 2, Cliques: len(cliques)}
	trees := tr.Tree()
	if len(trees) != 1 || trees[0].Name != spanFlow {
		return out, counts, nil, fmt.Errorf("trace has %d roots, want one %q span", len(trees), spanFlow)
	}
	return out, counts, trees[0], nil
}

// recordedDigest looks up the digest recorded for a workload and seed.
func recordedDigest(workload string, seed int64) (string, bool, error) {
	b, err := os.ReadFile(digestFile)
	if err != nil {
		return "", false, fmt.Errorf("reading recorded digests: %w", err)
	}
	var table map[string]map[string]string
	if err := json.Unmarshal(b, &table); err != nil {
		return "", false, fmt.Errorf("parsing %s: %w", digestFile, err)
	}
	d, ok := table[workload][strconv.FormatInt(seed, 10)]
	return d, ok, nil
}

// recordDigests prints the digest table entries of a library workload
// for seeds 0 to n-1 as JSON, checking each flow like a run does.
func recordDigests(ctx context.Context, workload string, n int) error {
	inputs := libraryInputs[workload]
	if inputs == nil {
		return fmt.Errorf("%q is not a library workload", workload)
	}
	table := map[string]string{}
	for seed := int64(0); seed < int64(n); seed++ {
		in, err := inputs(seed)
		if err != nil {
			return err
		}
		chk := &flowChecker{res: newRunResult(), groups: in.groups}
		out, err := facadeFlow(ctx, in)
		if !chk.check(fmt.Sprintf("seed %d", seed), out, err) {
			return errors.New(chk.res.failures[0])
		}
		table[strconv.FormatInt(seed, 10)] = out.digest
	}
	b, err := json.MarshalIndent(map[string]map[string]string{workload: table}, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// flowChecker applies the correctness gate to every flow of a run: the
// merged-mode count must equal the family's groups, every clique must
// check equivalent, and the merged SDC must match the digest recorded
// for this seed — or, for a seed with no recorded digest, the digest of
// the run's first flow.
type flowChecker struct {
	res      *runResult
	groups   int
	want     string
	recorded bool
}

func (c *flowChecker) check(what string, out flowOutput, err error) bool {
	c.res.attempted++
	switch {
	case err != nil:
		c.res.fail("%s: %v", what, err)
	case out.merged != c.groups:
		c.res.fail("%s: %d merged modes, want %d", what, out.merged, c.groups)
	case len(out.notEquivalent) > 0:
		c.res.fail("%s: merged modes %v are optimistic against their members", what, out.notEquivalent)
	case c.want == "":
		c.want = out.digest
		return true
	case out.digest != c.want:
		src := "the run's first flow"
		if c.recorded {
			src = digestFile
		}
		c.res.fail("%s: merged SDC digest %s, want %s from %s", what, out.digest, c.want, src)
	default:
		return true
	}
	return false
}

// heapCounters reads the cumulative allocation and GC counters.
func heapCounters() (bytes, objects, cycles uint64) {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Uint64()
}

// libraryProcesses is how many processes share a library run, one
// after another. Each starts cold and times its warm-up flow, so every
// set-up sample is a real set-up from process start, and an effect that
// holds for a whole process (heap layout, GC pacing) weighs on only its
// share of the flow samples.
const libraryProcesses = setupRounds

// sliceReport is what one process of a library run measured.
type sliceReport struct {
	Attempted int           `json:"attempted"`
	Failures  []string      `json:"failures"`
	Setup     float64       `json:"setup_s"`
	Walls     []float64     `json:"flow_s"`
	Elapsed   float64       `json:"elapsed_s"`
	AllocMB   []float64     `json:"alloc_mb"`
	Allocs    []float64     `json:"allocs"`
	GCs       []float64     `json:"gc_cycles"`
	Profiles  []flowProfile `json:"profiles"`
	Counts    flowCounts    `json:"counts"`
	Reduction float64       `json:"mode_reduction_pct"`
	Digest    string        `json:"digest"`
	PeakRSSMB float64       `json:"peak_rss_mb"`
}

// runLibrarySlice is one process's share of a library run: one caller
// in a closed loop of flows. It times a warm-up flow as set-up, then
// runs untraced flows for cfg.window (-trace 0), or alternates untraced
// and traced ones (-trace 1) so the traced run can report its own
// overhead.
func runLibrarySlice(ctx context.Context, cfg config) (*sliceReport, error) {
	inputs := libraryInputs[cfg.workload]
	if inputs == nil {
		return nil, fmt.Errorf("%q is not a library workload", cfg.workload)
	}
	in, err := inputs(cfg.seed)
	if err != nil {
		return nil, err
	}
	want, recorded, err := recordedDigest(cfg.workload, cfg.seed)
	if err != nil {
		return nil, err
	}
	res := newRunResult()
	chk := &flowChecker{res: res, groups: in.groups, want: want, recorded: recorded}
	rep := &sliceReport{}

	start := time.Now()
	out, err := facadeFlow(ctx, in)
	rep.Setup = time.Since(start).Seconds()
	chk.check("set-up flow", out, err)

	start = time.Now()
	for i := 0; ; i++ {
		if cfg.trace && i%2 == 1 {
			out, c, tree, err := tracedFlow(ctx, in)
			if chk.check(fmt.Sprintf("traced flow %d", i+1), out, err) {
				rep.Profiles = append(rep.Profiles, profileFlow(tree))
				rep.Counts = c
			}
		} else {
			b0, o0, g0 := heapCounters()
			t := time.Now()
			out, err := facadeFlow(ctx, in)
			wall := time.Since(t).Seconds()
			b1, o1, g1 := heapCounters()
			if chk.check(fmt.Sprintf("flow %d", i+1), out, err) {
				rep.Walls = append(rep.Walls, wall)
				rep.AllocMB = append(rep.AllocMB, float64(b1-b0)/(1<<20))
				rep.Allocs = append(rep.Allocs, float64(o1-o0))
				rep.GCs = append(rep.GCs, float64(g1-g0))
				rep.Reduction = 100 * (1 - float64(out.merged)/float64(out.individual))
			}
		}
		done := time.Since(start) >= cfg.window
		if done && (res.failed > 0 || len(rep.Walls) > 0 && (!cfg.trace || len(rep.Profiles) > 0)) {
			break
		}
	}
	rep.Elapsed = time.Since(start).Seconds()
	rep.Attempted, rep.Failures, rep.Digest = res.attempted, res.failures, chk.want
	if rep.PeakRSSMB, err = peakRSSMB(0); err != nil {
		return nil, err
	}
	return rep, nil
}

// runSliceProcess runs one share of a library run in a child process
// (this program with -slice-ms) and decodes its report.
func runSliceProcess(ctx context.Context, cfg config, window time.Duration) (*sliceReport, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locating the benchmark binary: %w", err)
	}
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	cmd := exec.CommandContext(ctx, self, "-workload", cfg.workload, "-seed", strconv.FormatInt(cfg.seed, 10),
		"-trace", trace, "-out", cfg.out, "-slice-ms", strconv.FormatInt(window.Milliseconds(), 10))
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("library process: %w", err)
	}
	var rep sliceReport
	if err := json.Unmarshal(stdout, &rep); err != nil {
		return nil, fmt.Errorf("decoding library process report: %w", err)
	}
	return &rep, nil
}

// runLibrary runs a library workload as libraryProcesses processes, one
// after another, each measuring an equal share of the window, and pools
// their samples.
func runLibrary(ctx context.Context, cfg config) (*runResult, error) {
	res := newRunResult()
	var reps []*sliceReport
	for k := 0; k < libraryProcesses; k++ {
		rep, err := runSliceProcess(ctx, cfg, cfg.window/libraryProcesses)
		if err != nil {
			return nil, err
		}
		res.attempted += rep.Attempted
		for _, f := range rep.Failures {
			res.fail("process %d: %s", k+1, f)
		}
		if len(reps) > 0 && rep.Digest != reps[0].Digest {
			res.fail("process %d: merged SDC digest %s differs from process 1's %s", k+1, rep.Digest, reps[0].Digest)
		}
		reps = append(reps, rep)
	}
	var setups, walls, allocMB, allocs, gcs, rss []float64
	var profiles []flowProfile
	var elapsed float64
	for _, rep := range reps {
		setups = append(setups, rep.Setup)
		walls = append(walls, rep.Walls...)
		allocMB = append(allocMB, rep.AllocMB...)
		allocs = append(allocs, rep.Allocs...)
		gcs = append(gcs, rep.GCs...)
		rss = append(rss, rep.PeakRSSMB)
		profiles = append(profiles, rep.Profiles...)
		elapsed += rep.Elapsed
	}
	res.extra["setup_samples_s"] = setups
	res.extra["flow_samples_s"] = walls
	res.extra["peak_rss_samples_mb"] = rss
	res.extra["digest"] = reps[0].Digest
	if _, recorded, _ := recordedDigest(cfg.workload, cfg.seed); recorded {
		res.extra["digest_source"] = digestFile
	} else {
		res.extra["digest_source"] = "first flow of the run (seed not recorded)"
	}
	if len(walls) == 0 {
		return res, nil
	}

	if !cfg.trace {
		p50 := median(walls)
		tailV, tailLabel := tail(walls)
		res.set("flow_p50_s", p50, "s", len(walls))
		res.set("job_p50_s", p50, "s", len(walls))
		res.note("job_p50_s", "a library job is one flow: the caller waits for it in-process")
		res.set("job_tail_s", tailV, "s", len(walls))
		res.note("job_tail_s", tailLabel)
		res.set("jobs_per_s", float64(len(walls))/elapsed, "1/s", len(walls))
		res.set("peak_rss_mb", median(rss), "MB", len(rss))
		res.note("peak_rss_mb", "median over the run's processes of each one's VmHWM")
		res.set("setup_s", median(setups), "s", len(setups))
		res.note("setup_s", "each process's warm-up flow, input generation excluded")
		res.set("fail_ratio", float64(res.failed)/float64(res.attempted), "ratio", res.attempted)
		res.set("mode_reduction_pct", reps[0].Reduction, "%", 1)
		return res, nil
	}
	if len(profiles) == 0 {
		return res, nil
	}

	n := len(profiles)
	for _, name := range layerMetrics {
		xs := make([]float64, n)
		for i, p := range profiles {
			xs[i] = p.Self[name]
		}
		res.set(name, median(xs), "s", n)
	}
	var tracedWalls, unattributed, cliqueSum, cliqueMax, iterations []float64
	for _, p := range profiles {
		tracedWalls = append(tracedWalls, p.Wall)
		unattributed = append(unattributed, p.Unattributed)
		sum := 0.0
		for _, w := range p.CliqueWalls {
			sum += w
		}
		cliqueSum = append(cliqueSum, sum)
		cliqueMax = append(cliqueMax, maxOf(p.CliqueWalls))
		iterations = append(iterations, float64(p.Iterations))
	}
	counts := reps[0].Counts
	res.set("core.merge_clique_sum_s", median(cliqueSum), "s", n)
	res.set("core.merge_clique_max_s", median(cliqueMax), "s", n)
	res.set("core.refine_iterations", median(iterations), "count", n)
	res.set("netlist.cells", float64(counts.Cells), "count", 0)
	res.set("graph.nodes", float64(counts.Nodes), "count", 0)
	res.set("sdc.modes", float64(counts.Modes), "count", 0)
	res.set("core.pairs", float64(counts.Pairs), "count", 0)
	res.set("core.cliques", float64(counts.Cliques), "count", 0)
	res.set("runtime.alloc_mb_per_flow", median(allocMB), "MB", len(allocMB))
	res.set("runtime.allocs_per_flow", median(allocs), "count", len(allocs))
	res.set("runtime.gc_cycles_per_flow", median(gcs), "count", len(gcs))

	u, tw := median(unattributed), median(tracedWalls)
	res.set(metricUnattrib, u, "s", n)
	res.note(metricUnattrib, fmt.Sprintf("%.2f%% of the traced flow wall time (%.4f s): time inside the flow outside every layer span", 100*u/tw, tw))
	untraced := median(walls)
	res.set("trace_overhead_pct", 100*(tw-untraced)/untraced, "%", n)
	res.note("trace_overhead_pct", fmt.Sprintf("traced flow p50 %.4f s (n=%d) vs untraced %.4f s (n=%d), alternating in each process", tw, n, untraced, len(walls)))
	res.extra["traced_flow_samples_s"] = tracedWalls
	notOnPath(res, serviceLayers, "the library workloads make no HTTP calls and run without the incremental cache")
	return res, nil
}

// notOnPath reports layers a workload never enters as 0, so every run
// prints the full per-layer list.
func notOnPath(res *runResult, layers []specMetric, why string) {
	for _, l := range layers {
		res.set(l.Name, 0, l.Unit, 0)
		res.note(l.Name, "not on this workload's path: "+why)
	}
}
