package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	"modemerge/internal/gen"
	"modemerge/internal/netlist"
)

// serviceClients is the number of closed-loop clients of service-edit,
// each with one connection and its own design.
const serviceClients = 2

// maxThink bounds the seeded pause a client takes between two jobs. At
// the default -incr-cache size one job's pair verdicts evict the other
// job's timing contexts, so whether a job's contexts survive until its
// validate stage depends on the two clients' relative phase. Without a
// pause the phase locks for a whole run and the median job time jumps by
// about a third from run to run; the pause re-draws the phase every job.
const maxThink = time.Second

// verifySamples is how many timed jobs per run are re-merged through
// the uncached facade after the window and compared byte for byte.
const verifySamples = 2

// serviceLayers are the per-layer metrics only service-edit measures.
var serviceLayers = []specMetric{
	{"service.submit_s", "s"},
	{"service.queue_wait_s", "s"},
	{"service.poll_count", "count"},
	{"service.poll_lag_s", "s"},
	{"service.result_fetch_s", "s"},
	{"service.stage.parse_s", "s"},
	{"service.stage.mergeability_s", "s"},
	{"service.stage.prelim_s", "s"},
	{"service.stage.clock_refine_s", "s"},
	{"service.stage.data_refine_s", "s"},
	{"service.stage.validate_s", "s"},
	{"incr.context_hit_ratio", "ratio"},
	{"incr.pair_hit_ratio", "ratio"},
	{"incr.clique_hit_ratio", "ratio"},
}

// serviceStages are the stage_times_ms keys the job view reports.
var serviceStages = []string{"parse", "mergeability", "prelim", "clock_refine", "data_refine", "validate"}

// subSeed derives an independent seed for one input stream (splitmix64
// finalizer), so every input of the run follows from -seed alone.
func subSeed(seed int64, stream int) int64 {
	z := uint64(seed) + uint64(stream+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// Wire types of the /v2 API, reduced to the fields the client reads.
type modeInput struct {
	Name string `json:"name"`
	SDC  string `json:"sdc"`
}

type mergeRequest struct {
	Verilog string      `json:"verilog"`
	Modes   []modeInput `json:"modes"`
}

type submitResponse struct {
	ID     string `json:"id"`
	Cached bool   `json:"cached"`
}

type jobView struct {
	Status   string            `json:"status"`
	Error    string            `json:"error"`
	Created  time.Time         `json:"created"`
	Started  *time.Time        `json:"started"`
	Finished *time.Time        `json:"finished"`
	StagesMS map[string]string `json:"stage_times_ms"`
}

type jobResult struct {
	Merged      []modeInput `json:"merged"`
	Groups      [][]string  `json:"groups"`
	Equivalence []struct {
		Merged     string `json:"merged"`
		Equivalent bool   `json:"equivalent"`
	} `json:"equivalence"`
}

type incrStats struct {
	ContextHits   int64 `json:"context_hits"`
	ContextMisses int64 `json:"context_misses"`
	PairHits      int64 `json:"pair_hits"`
	PairMisses    int64 `json:"pair_misses"`
	CliqueHits    int64 `json:"clique_hits"`
	CliqueMisses  int64 `json:"clique_misses"`
}

type statsView struct {
	IncrCache incrStats `json:"incr_cache"`
	Runtime   struct {
		NumGC uint32 `json:"num_gc"`
	} `json:"runtime"`
}

// svcClient is one closed-loop client: its own design-A-shaped design,
// its own connection, and its own seeded stream of exception edits.
type svcClient struct {
	idx     int
	http    *http.Client
	verilog string
	base    []gen.ModeSDC
	groups  int
	regs    []string
	rng     *rand.Rand
	think   *rand.Rand
	used    map[edit]bool
}

// edit is one exception line appended to one mode of the base family.
type edit struct {
	mode int
	line string
}

func newSvcClient(seed int64, idx int) (*svcClient, error) {
	c, err := designACase(subSeed(seed, idx))
	if err != nil {
		return nil, err
	}
	c.Spec.Name = fmt.Sprintf("designA_client%d", idx)
	g, err := gen.Generate(c.Spec)
	if err != nil {
		return nil, fmt.Errorf("generating client %d design: %w", idx, err)
	}
	cl := &svcClient{
		idx:     idx,
		verilog: netlist.WriteVerilog(g.Design),
		base:    g.Modes(c.Family),
		groups:  c.Family.Groups,
		rng:     rand.New(rand.NewSource(subSeed(seed, 100+idx))),
		think:   rand.New(rand.NewSource(subSeed(seed, 300+idx))),
		used:    map[edit]bool{},
		http: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}},
	}
	for _, inst := range g.Design.Insts {
		if inst.Cell.Name == "DFF" {
			cl.regs = append(cl.regs, inst.Name)
		}
	}
	if len(cl.regs) < 2 {
		return nil, fmt.Errorf("client %d design has %d registers", idx, len(cl.regs))
	}
	return cl, nil
}

// nextEdit draws the client's next exception edit, never repeating one,
// so every job is new work for the service's result cache.
func (c *svcClient) nextEdit() edit {
	for {
		from := c.regs[c.rng.Intn(len(c.regs))]
		to := c.regs[c.rng.Intn(len(c.regs))]
		var line string
		switch c.rng.Intn(3) {
		case 0:
			line = fmt.Sprintf("set_false_path -from [get_pins %s/CP]", from)
		case 1:
			line = fmt.Sprintf("set_multicycle_path %d -setup -from [get_pins %s/CP]", 2+c.rng.Intn(2), from)
		default:
			line = fmt.Sprintf("set_false_path -to [get_pins %s/D]", to)
		}
		e := edit{mode: c.rng.Intn(len(c.base)), line: line}
		if !c.used[e] {
			c.used[e] = true
			return e
		}
	}
}

// modes renders the family with the edit applied (a nil edit leaves
// the base family).
func (c *svcClient) modes(e *edit) []modeInput {
	out := make([]modeInput, len(c.base))
	for i, m := range c.base {
		out[i] = modeInput{Name: m.Name, SDC: m.Text}
		if e != nil && e.mode == i {
			out[i].SDC += e.line + "\n"
		}
	}
	return out
}

// jobRecord is one job as the client saw it; times in seconds.
type jobRecord struct {
	client    int
	seq       int // the job's position in its client's sequence
	edit      *edit
	total     float64
	submit    float64
	queueWait float64
	run       float64
	pollLag   float64
	fetch     float64
	polls     int
	stages    map[string]float64
	digest    string
	merged    int
	modes     int
	done      time.Time
}

// do issues one request on the client's connection and decodes a 2xx
// JSON body into out; any other status is an error.
func (c *svcClient) do(ctx context.Context, method, url string, body []byte, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: reading body: %w", method, url, err)
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: HTTP %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(b))
	}
	if err := json.Unmarshal(b, out); err != nil {
		return fmt.Errorf("%s %s: decoding body: %w", method, url, err)
	}
	return nil
}

// runJob submits one merge, polls the job until it is done, fetches the
// result and checks it: the merged-mode count must equal the family's
// groups and every multi-mode clique must check equivalent.
func (c *svcClient) runJob(ctx context.Context, base string, e *edit) (jobRecord, error) {
	rec := jobRecord{client: c.idx, edit: e, stages: map[string]float64{}}
	modes := c.modes(e)
	rec.modes = len(modes)
	body, err := json.Marshal(mergeRequest{Verilog: c.verilog, Modes: modes})
	if err != nil {
		return rec, err
	}
	t0 := time.Now()
	var sub submitResponse
	if err := c.do(ctx, http.MethodPost, base+"/v2/merge", body, &sub); err != nil {
		return rec, err
	}
	if sub.Cached {
		return rec, fmt.Errorf("job %s was served from the result cache; every edit must be new", sub.ID)
	}
	t1 := time.Now()
	rec.submit = t1.Sub(t0).Seconds()

	var view jobView
	interval := 2 * time.Millisecond
	for {
		rec.polls++
		if err := c.do(ctx, http.MethodGet, base+"/v2/jobs/"+sub.ID, nil, &view); err != nil {
			return rec, err
		}
		if view.Status == "done" {
			break
		}
		if view.Status != "queued" && view.Status != "running" {
			return rec, fmt.Errorf("job %s ended %s: %s", sub.ID, view.Status, view.Error)
		}
		select {
		case <-ctx.Done():
			return rec, ctx.Err()
		case <-time.After(interval):
		}
		interval = min(interval*3/2, 20*time.Millisecond)
	}
	t2 := time.Now()
	var res jobResult
	if err := c.do(ctx, http.MethodGet, base+"/v2/jobs/"+sub.ID+"/result", nil, &res); err != nil {
		return rec, err
	}
	t3 := time.Now()
	rec.done = t3
	rec.total = t3.Sub(t0).Seconds()
	rec.fetch = t3.Sub(t2).Seconds()
	if view.Started == nil || view.Finished == nil {
		return rec, fmt.Errorf("job %s is done but its view lacks started/finished times", sub.ID)
	}
	rec.queueWait = view.Started.Sub(view.Created).Seconds()
	rec.run = view.Finished.Sub(*view.Started).Seconds()
	rec.pollLag = t2.Sub(*view.Finished).Seconds()
	for _, st := range serviceStages {
		raw, ok := view.StagesMS[st]
		if !ok {
			return rec, fmt.Errorf("job %s: stage_times_ms has no %q stage: %v", sub.ID, st, view.StagesMS)
		}
		ms, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			return rec, fmt.Errorf("job %s: stage_times_ms[%q] = %q is not a number: %w", sub.ID, st, raw, err)
		}
		rec.stages[st] = ms / 1e3
	}

	rec.merged = len(res.Merged)
	if rec.merged != c.groups {
		return rec, fmt.Errorf("job %s: %d merged modes, want %d", sub.ID, rec.merged, c.groups)
	}
	multi := 0
	for _, g := range res.Groups {
		if len(g) > 1 {
			multi++
		}
	}
	if len(res.Equivalence) != multi {
		return rec, fmt.Errorf("job %s: %d equivalence reports for %d multi-mode cliques", sub.ID, len(res.Equivalence), multi)
	}
	for _, eq := range res.Equivalence {
		if !eq.Equivalent {
			return rec, fmt.Errorf("job %s: merged mode %s is optimistic against its members", sub.ID, eq.Merged)
		}
	}
	names := make([]string, len(res.Merged))
	texts := make([]string, len(res.Merged))
	for i, m := range res.Merged {
		names[i], texts[i] = m.Name, m.SDC
	}
	rec.digest = digestModes(names, texts)
	return rec, nil
}

// referenceDigest runs the same input through the uncached facade flow:
// the digest the service's result must reproduce.
func (c *svcClient) referenceDigest(ctx context.Context, e *edit) (string, error) {
	in := &libInputs{verilog: c.verilog, groups: c.groups}
	for _, m := range c.modes(e) {
		in.modes = append(in.modes, gen.ModeSDC{Name: m.Name, Text: m.SDC})
	}
	out, err := facadeFlow(ctx, in)
	return out.digest, err
}

// server is one modemerged child process.
type server struct {
	cmd    *exec.Cmd
	base   string
	exited chan error
	log    *os.File
}

// startServer starts modemerged on a free loopback port with its
// default flags and waits until /healthz answers.
func startServer(ctx context.Context, bin, logPath string) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("finding a free port: %w", err)
	}
	addr := ln.Addr().String()
	ln.Close()
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, fmt.Errorf("creating server log: %w", err)
	}
	cmd := exec.Command(bin, "-addr", addr)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The daemon must not outlive the benchmark, even when the benchmark
	// is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	s := &server{cmd: cmd, base: "http://" + addr, exited: make(chan error, 1), log: logf}
	go func() { s.exited <- cmd.Wait() }()

	deadline := time.Now().Add(30 * time.Second)
	probe := &http.Client{Timeout: time.Second}
	for {
		resp, err := probe.Get(s.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case err := <-s.exited:
			s.exited <- err
			s.stop()
			return nil, fmt.Errorf("modemerged exited before it was ready (%v); see %s", err, logPath)
		case <-ctx.Done():
			s.stop()
			return nil, ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("modemerged not ready after 30s; see %s", logPath)
		}
	}
}

// stop sends SIGTERM, waits for the drain, and kills the process if it
// has not exited in time. It returns once the process has exited.
func (s *server) stop() error {
	defer s.log.Close()
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // already gone is fine: Wait reports it
	select {
	case err := <-s.exited:
		return err
	case <-time.After(40 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
		return errors.New("modemerged did not drain within 40s and was killed")
	}
}

func (s *server) stats(ctx context.Context, c *svcClient) (statsView, error) {
	var st statsView
	err := c.do(ctx, http.MethodGet, s.base+"/v2/stats", nil, &st)
	return st, err
}

func ratio(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// runServiceEdit runs service-edit: serviceClients closed-loop clients
// against one modemerged, each job an edit of one mode of the client's
// family. Set-up (server start plus each client's cold job) runs
// setupRounds times on fresh servers; the last server serves the window.
func runServiceEdit(ctx context.Context, cfg config) (*runResult, error) {
	res := newRunResult()
	bin := filepath.Join(cfg.out, "modemerged")
	if _, err := os.Stat(bin); err != nil {
		return nil, fmt.Errorf("modemerged binary: %w (perfbench/run.sh builds it)", err)
	}
	clients := make([]*svcClient, serviceClients)
	for i := range clients {
		c, err := newSvcClient(cfg.seed, i)
		if err != nil {
			return nil, err
		}
		clients[i] = c
	}
	logPath := filepath.Join(cfg.out, "modemerged.log")

	// Set-up rounds. The cold jobs' digests must agree across rounds.
	var setups []float64
	var srv *server
	defer func() {
		if srv != nil {
			_ = srv.stop() // only on a failed run, whose error is already returned
		}
	}()
	coldDigest := make([]string, serviceClients)
	for round := 0; round < setupRounds; round++ {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return nil, err
			}
			srv = nil
		}
		start := time.Now()
		s, err := startServer(ctx, bin, logPath)
		if err != nil {
			return nil, err
		}
		srv = s
		recs, errs := runConcurrent(ctx, clients, func(c *svcClient) (jobRecord, error) {
			return c.runJob(ctx, srv.base, nil)
		})
		setups = append(setups, time.Since(start).Seconds())
		for i := range clients {
			res.attempted++
			switch {
			case errs[i] != nil:
				res.fail("set-up round %d client %d cold job: %v", round+1, i, errs[i])
			case coldDigest[i] == "":
				coldDigest[i] = recs[i].digest
			case coldDigest[i] != recs[i].digest:
				res.fail("set-up round %d client %d: cold merge digest %s differs from round 1's %s", round+1, i, recs[i].digest, coldDigest[i])
			}
		}
	}
	if res.failed > 0 {
		return res, nil
	}

	st0, err := srv.stats(ctx, clients[0])
	if err != nil {
		return nil, err
	}
	start := time.Now()
	deadline := start.Add(cfg.window)
	var mu sync.Mutex
	var recs []jobRecord
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *svcClient) {
			defer wg.Done()
			for seq := 0; time.Now().Before(deadline); seq++ {
				if seq > 0 {
					time.Sleep(time.Duration(c.think.Int63n(int64(maxThink))))
				}
				e := c.nextEdit()
				rec, err := c.runJob(ctx, srv.base, &e)
				rec.seq = seq
				mu.Lock()
				res.attempted++
				if err != nil {
					res.fail("client %d job (mode %d, %q): %v", c.idx, e.mode, e.line, err)
				} else {
					recs = append(recs, rec)
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	var last time.Time
	for _, r := range recs {
		if r.done.After(last) {
			last = r.done
		}
	}
	elapsed := last.Sub(start).Seconds()
	st1, err := srv.stats(ctx, clients[0])
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB(srv.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	if err := srv.stop(); err != nil {
		res.fail("stopping modemerged: %v", err)
	}
	srv = nil
	if len(recs) == 0 {
		return res, nil
	}

	// Outside the window: re-merge a seeded sample of the timed jobs
	// through the uncached facade and compare the bytes. Jobs are ordered
	// by client and submission first, so the sample depends on the seed
	// and the job count only.
	sort.SliceStable(recs, func(i, j int) bool {
		if recs[i].client != recs[j].client {
			return recs[i].client < recs[j].client
		}
		return recs[i].seq < recs[j].seq
	})
	pick := rand.New(rand.NewSource(subSeed(cfg.seed, 200)))
	var verified []string
	for _, i := range pick.Perm(len(recs))[:min(verifySamples, len(recs))] {
		r := recs[i]
		want, err := clients[r.client].referenceDigest(ctx, r.edit)
		res.attempted++
		switch {
		case err != nil:
			res.fail("reference merge for client %d (mode %d, %q): %v", r.client, r.edit.mode, r.edit.line, err)
		case want != r.digest:
			res.fail("client %d job (mode %d, %q): service digest %s, uncached facade merge %s", r.client, r.edit.mode, r.edit.line, r.digest, want)
		default:
			verified = append(verified, fmt.Sprintf("client %d mode %d %q", r.client, r.edit.mode, r.edit.line))
		}
	}
	res.extra["verified_jobs"] = verified
	res.extra["setup_samples_s"] = setups

	col := func(f func(jobRecord) float64) []float64 {
		xs := make([]float64, len(recs))
		for i, r := range recs {
			xs[i] = f(r)
		}
		return xs
	}
	n := len(recs)
	totals := col(func(r jobRecord) float64 { return r.total })
	res.extra["job_samples_s"] = totals
	if !cfg.trace {
		tailV, tailLabel := tail(totals)
		res.set("flow_p50_s", median(col(func(r jobRecord) float64 { return r.run })), "s", n)
		res.note("flow_p50_s", "server-side flow: the job's started-to-finished time from its job view")
		res.set("job_p50_s", median(totals), "s", n)
		res.set("job_tail_s", tailV, "s", n)
		res.note("job_tail_s", tailLabel)
		res.set("jobs_per_s", float64(n)/elapsed, "1/s", n)
		res.set("peak_rss_mb", rss, "MB", 1)
		res.note("peak_rss_mb", "VmHWM of the modemerged process")
		res.set("setup_s", median(setups), "s", len(setups))
		res.note("setup_s", "server start to ready plus both clients' cold jobs, on a fresh server each round")
		res.set("fail_ratio", float64(res.failed)/float64(res.attempted), "ratio", res.attempted)
		res.set("mode_reduction_pct", 100*(1-float64(recs[0].merged)/float64(recs[0].modes)), "%", 1)
		return res, nil
	}

	res.set("service.submit_s", median(col(func(r jobRecord) float64 { return r.submit })), "s", n)
	res.set("service.queue_wait_s", median(col(func(r jobRecord) float64 { return r.queueWait })), "s", n)
	res.set("service.poll_count", median(col(func(r jobRecord) float64 { return float64(r.polls) })), "count", n)
	res.set("service.poll_lag_s", median(col(func(r jobRecord) float64 { return r.pollLag })), "s", n)
	res.set("service.result_fetch_s", median(col(func(r jobRecord) float64 { return r.fetch })), "s", n)
	for _, st := range serviceStages {
		res.set("service.stage."+st+"_s", median(col(func(r jobRecord) float64 { return r.stages[st] })), "s", n)
	}
	d := func(a, b int64) int64 { return b - a }
	ic0, ic1 := st0.IncrCache, st1.IncrCache
	res.set("incr.context_hit_ratio", ratio(d(ic0.ContextHits, ic1.ContextHits), d(ic0.ContextMisses, ic1.ContextMisses)), "ratio", n)
	res.set("incr.pair_hit_ratio", ratio(d(ic0.PairHits, ic1.PairHits), d(ic0.PairMisses, ic1.PairMisses)), "ratio", n)
	res.set("incr.clique_hit_ratio", ratio(d(ic0.CliqueHits, ic1.CliqueHits), d(ic0.CliqueMisses, ic1.CliqueMisses)), "ratio", n)
	res.note("incr.clique_hit_ratio", fmt.Sprintf("%d hits, %d misses over %d jobs at the default -incr-cache size",
		d(ic0.CliqueHits, ic1.CliqueHits), d(ic0.CliqueMisses, ic1.CliqueMisses), n))
	res.extra["incr_cache_delta"] = incrStats{
		ContextHits: d(ic0.ContextHits, ic1.ContextHits), ContextMisses: d(ic0.ContextMisses, ic1.ContextMisses),
		PairHits: d(ic0.PairHits, ic1.PairHits), PairMisses: d(ic0.PairMisses, ic1.PairMisses),
		CliqueHits: d(ic0.CliqueHits, ic1.CliqueHits), CliqueMisses: d(ic0.CliqueMisses, ic1.CliqueMisses),
	}
	res.set("runtime.gc_cycles_per_flow", float64(st1.Runtime.NumGC-st0.Runtime.NumGC)/float64(n), "count", n)
	res.note("runtime.gc_cycles_per_flow", "modemerged GC cycles over the window per job; concurrent jobs share them")

	unattributed := col(func(r jobRecord) float64 {
		u := r.total - r.submit - r.queueWait - r.pollLag - r.fetch
		for _, v := range r.stages {
			u -= v
		}
		return u
	})
	u, jt := median(unattributed), median(totals)
	res.set(metricUnattrib, u, "s", n)
	res.note(metricUnattrib, fmt.Sprintf("%.2f%% of the job time (%.4f s): server time outside the six reported stages"+
		" (per-clique context builds and result assembly) plus HTTP time between the client spans", 100*u/jt, jt))
	res.set("trace_overhead_pct", 0, "%", n)
	res.note("trace_overhead_pct", "the traced run uses the untraced run's client loop unchanged; it only reads /v2/stats before and after the window")
	notOnPath(res, libraryOnlyLayers(), "service-edit reaches the layers through modemerged; its per-layer figures are the service.* stage times")
	return res, nil
}

// runConcurrent runs fn once per client, all at once, and waits.
func runConcurrent(ctx context.Context, clients []*svcClient, fn func(*svcClient) (jobRecord, error)) ([]jobRecord, []error) {
	recs := make([]jobRecord, len(clients))
	errs := make([]error, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *svcClient) {
			defer wg.Done()
			recs[i], errs[i] = fn(c)
		}(i, c)
	}
	wg.Wait()
	return recs, errs
}

// libraryOnlyLayers are the per-layer metrics only the library
// workloads' traced flows produce.
func libraryOnlyLayers() []specMetric {
	var out []specMetric
	for _, name := range layerMetrics {
		out = append(out, specMetric{name, "s"})
	}
	return append(out,
		specMetric{"core.merge_clique_sum_s", "s"},
		specMetric{"core.merge_clique_max_s", "s"},
		specMetric{"core.refine_iterations", "count"},
		specMetric{"netlist.cells", "count"},
		specMetric{"graph.nodes", "count"},
		specMetric{"sdc.modes", "count"},
		specMetric{"core.pairs", "count"},
		specMetric{"core.cliques", "count"},
		specMetric{"runtime.alloc_mb_per_flow", "MB"},
		specMetric{"runtime.allocs_per_flow", "count"},
	)
}
