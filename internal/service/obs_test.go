package service

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"modemerge/internal/obs"
)

// submitAndWait pushes the quickstart request through the server and
// returns the finished job.
func submitAndWait(t *testing.T, s *Server) *Job {
	t.Helper()
	job, err := s.Submit(quickRequest())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job)
	if got := job.Status(); got != StatusDone {
		t.Fatalf("job status = %s, want done", got)
	}
	return job
}

// TestStatsExpvarParity pins /v1/stats to the shared StatsSnapshot: the
// handler must serve exactly the snapshot's JSON keys plus "queue". A
// field added to one surface but not the other fails here.
func TestStatsExpvarParity(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	submitAndWait(t, s)

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats map[string]json.RawMessage
	decodeBody(t, resp, http.StatusOK, &stats)

	snapJSON, err := json.Marshal(s.Metrics().Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var snap map[string]json.RawMessage
	if err := json.Unmarshal(snapJSON, &snap); err != nil {
		t.Fatal(err)
	}

	for k := range snap {
		if _, ok := stats[k]; !ok {
			t.Errorf("/v1/stats is missing snapshot key %q", k)
		}
	}
	for k := range stats {
		if k == "queue" {
			continue
		}
		if _, ok := snap[k]; !ok {
			t.Errorf("/v1/stats key %q is not part of StatsSnapshot", k)
		}
	}
	if _, ok := stats["queue"]; !ok {
		t.Error("/v1/stats is missing the queue key")
	}
}

// TestMetricsEndpoint asserts GET /metrics serves Prometheus text with
// the counter and histogram families after a job ran.
func TestMetricsEndpoint(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	submitAndWait(t, s)

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q, want text/plain", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE modemerged_jobs_total counter",
		`modemerged_jobs_total{state="done"} 1`,
		"# TYPE modemerged_jobs_running gauge",
		"# TYPE modemerged_queue_wait_seconds histogram",
		"modemerged_queue_wait_seconds_count 1",
		"# TYPE modemerged_stage_seconds histogram",
		`modemerged_stage_seconds_bucket{stage="prelim",le="+Inf"} 1`,
		`modemerged_stage_seconds_count{stage="parse"} 1`,
		"# TYPE modemerged_runtime_goroutines gauge",
		"# TYPE modemerged_runtime_heap_inuse_bytes gauge",
		"# TYPE modemerged_runtime_last_gc_pause_seconds gauge",
		"# TYPE modemerged_incr_cache_hit_seconds histogram",
		// Every granularity's series exists even at zero observations,
		// so dashboards never see the family appear out of nowhere.
		`modemerged_incr_cache_hit_seconds_count{granularity="ctx"}`,
		`modemerged_incr_cache_hit_seconds_count{granularity="pair"}`,
		`modemerged_incr_cache_hit_seconds_count{granularity="clique"}`,
		`modemerged_incr_cache_hit_seconds_count{granularity="etm"}`,
		`modemerged_incr_cache_hit_seconds_count{granularity="mctx"}`,
		`modemerged_incr_cache_hit_seconds_count{granularity="equiv"}`,
		`modemerged_incr_cache_events_total{granularity="equiv",event="hit"}`,
		`modemerged_incr_cache_events_total{granularity="equiv",event="miss"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", out)
	}
}

// TestTraceEndpoint asserts GET /v1/jobs/{id}/trace returns the full,
// well-formed span tree of a finished job.
func TestTraceEndpoint(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	job := submitAndWait(t, s)

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + job.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	var tr traceResponse
	decodeBody(t, resp, http.StatusOK, &tr)
	if tr.ID != job.ID || tr.Status != StatusDone {
		t.Fatalf("trace header = %+v", tr)
	}
	if len(tr.Trace) != 1 || tr.Trace[0].Name != "job" {
		t.Fatalf("trace roots = %d, want single job root", len(tr.Trace))
	}
	if err := obs.CheckWellFormed(tr.Trace); err != nil {
		t.Fatalf("trace not well-formed: %v", err)
	}
	names := map[string]bool{}
	var walk func(vs []*obs.SpanView)
	walk = func(vs []*obs.SpanView) {
		for _, v := range vs {
			names[v.Name] = true
			walk(v.Children)
		}
	}
	walk(tr.Trace)
	for _, want := range []string{"parse", "mergeability", "prelim", "clock_refine", "data_refine", "validate"} {
		if !names[want] {
			t.Errorf("trace is missing a %q span (have %v)", want, names)
		}
	}

	// A cache-hit job never executes, so its trace is empty but served.
	hit, err := s.Submit(quickRequest())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, hit)
	resp, err = http.Get(ts.URL + "/v1/jobs/" + hit.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	var tr2 traceResponse
	decodeBody(t, resp, http.StatusOK, &tr2)
	if len(tr2.Trace) != 0 {
		t.Errorf("cache-hit trace has %d roots, want 0", len(tr2.Trace))
	}
}

// TestJobLogsCarryJobID asserts the structured logs emitted while a job
// runs carry the job id on start and completion.
func TestJobLogsCarryJobID(t *testing.T) {
	var mu sync.Mutex
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&lockedWriter{mu: &mu, w: &buf}, nil))
	s := newTestServer(t, Config{Workers: 1, Logger: logger})
	job := submitAndWait(t, s)

	mu.Lock()
	out := buf.String()
	mu.Unlock()
	for _, want := range []string{`"msg":"job started"`, `"msg":"job done"`, `"job":"` + job.ID + `"`} {
		if !strings.Contains(out, want) {
			t.Errorf("logs missing %q:\n%s", want, out)
		}
	}
}

type lockedWriter struct {
	mu *sync.Mutex
	w  io.Writer
}

func (lw *lockedWriter) Write(p []byte) (int, error) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	return lw.w.Write(p)
}
