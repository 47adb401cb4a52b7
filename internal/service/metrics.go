package service

import (
	"expvar"
	"io"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"modemerge/internal/incr"
	"modemerge/internal/obs"
)

// incrHitGranularities fixes the label set of the incremental-cache
// hit-latency histograms, so every granularity's family exists from the
// first scrape (zero observations) instead of appearing on first hit.
var incrHitGranularities = []incr.Granularity{
	incr.GranContext, incr.GranPair, incr.GranClique, incr.GranETM, incr.GranMergedCtx, incr.GranEquiv,
}

// incrHitBuckets are the hit-latency histogram bounds in seconds. Cache
// hits are lock-acquire + map-lookup fast paths, so the resolution sits
// well below a millisecond (with a tail for disk-store promotions).
var incrHitBuckets = []float64{
	1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 5e-3, 2.5e-2, 0.1,
}

// Metrics holds the service counters, per-stage timing aggregates and
// latency histograms. A Server owns one instance; every update also
// mirrors into the process-global aggregate published at /debug/vars, so
// per-server stats (served at /v1/stats and /metrics) stay isolated while
// expvar shows the whole process.
type Metrics struct {
	parent *Metrics

	JobsQueued   atomic.Int64
	JobsRunning  atomic.Int64
	JobsDone     atomic.Int64
	JobsFailed   atomic.Int64
	JobsCanceled atomic.Int64

	CacheHitsResult atomic.Int64
	CacheHitsDesign atomic.Int64
	CacheMisses     atomic.Int64

	// mergeParallelism is the configured intra-merge worker bound,
	// surfaced as a gauge so operators can correlate latency with the
	// parallelism setting.
	mergeParallelism atomic.Int64

	queueWait *obs.Histogram

	// incrHitHists times incremental-cache hits per granularity. The map
	// is fixed at construction (all granularities, see
	// incrHitGranularities), so concurrent Observe needs no lock.
	incrHitHists map[incr.Granularity]*obs.Histogram

	mu         sync.Mutex
	stages     map[string]*stageStat
	stageHists map[string]*obs.Histogram
	// incrSources are the incremental sub-merge caches feeding this
	// instance's incr_cache snapshot; the process aggregate sums every
	// server's cache.
	incrSources []*incr.Stats
}

type stageStat struct {
	Count   int64
	TotalNs int64
	MaxNs   int64
}

// processMetrics aggregates every server in the process for /debug/vars.
var processMetrics = newMetrics(nil)

func init() {
	expvar.Publish("modemerged", expvar.Func(func() any { return processMetrics.Snapshot() }))
}

func newMetrics(parent *Metrics) *Metrics {
	m := &Metrics{
		parent:       parent,
		queueWait:    obs.NewHistogram(obs.DurationBuckets...),
		incrHitHists: map[incr.Granularity]*obs.Histogram{},
		stages:       map[string]*stageStat{},
		stageHists:   map[string]*obs.Histogram{},
	}
	for _, g := range incrHitGranularities {
		m.incrHitHists[g] = obs.NewHistogram(incrHitBuckets...)
	}
	return m
}

func (m *Metrics) add(c func(*Metrics) *atomic.Int64, delta int64) {
	c(m).Add(delta)
	if m.parent != nil {
		c(m.parent).Add(delta)
	}
}

// AddIncrSource registers an incremental cache's counters with this
// instance (and, transitively, the process aggregate).
func (m *Metrics) AddIncrSource(s *incr.Stats) {
	m.mu.Lock()
	m.incrSources = append(m.incrSources, s)
	m.mu.Unlock()
	if m.parent != nil {
		m.parent.AddIncrSource(s)
	}
}

// incrSnapshot sums the registered incremental caches' counters.
func (m *Metrics) incrSnapshot() incr.StatsSnapshot {
	m.mu.Lock()
	sources := m.incrSources
	m.mu.Unlock()
	var out incr.StatsSnapshot
	for _, s := range sources {
		snap := s.Snapshot()
		out.ContextHits += snap.ContextHits
		out.ContextMisses += snap.ContextMisses
		out.PairHits += snap.PairHits
		out.PairMisses += snap.PairMisses
		out.CliqueHits += snap.CliqueHits
		out.CliqueMisses += snap.CliqueMisses
		out.ETMHits += snap.ETMHits
		out.ETMMisses += snap.ETMMisses
		out.MergedCtxHits += snap.MergedCtxHits
		out.MergedCtxMisses += snap.MergedCtxMisses
		out.EquivHits += snap.EquivHits
		out.EquivMisses += snap.EquivMisses
	}
	return out
}

// SetMergeParallelism records the server's configured intra-merge
// parallelism (mirrored to the process aggregate; last server wins there).
func (m *Metrics) SetMergeParallelism(n int) {
	m.mergeParallelism.Store(int64(n))
	if m.parent != nil {
		m.parent.SetMergeParallelism(n)
	}
}

// ObserveQueueWait records how long one job sat in the queue before a
// worker picked it up.
func (m *Metrics) ObserveQueueWait(d time.Duration) {
	m.queueWait.Observe(d.Seconds())
	if m.parent != nil {
		m.parent.ObserveQueueWait(d)
	}
}

// ObserveIncrHit records one incremental-cache hit's lookup latency.
// Wired as the cache's hit observer (incr.Cache.SetHitObserver), so it
// runs inline on the merge workers' hot path — fixed-map lookup plus
// one atomic histogram update, no locks.
func (m *Metrics) ObserveIncrHit(g incr.Granularity, d time.Duration) {
	if h, ok := m.incrHitHists[g]; ok {
		h.Observe(d.Seconds())
	}
	if m.parent != nil {
		m.parent.ObserveIncrHit(g, d)
	}
}

// ObserveStage records one stage execution time.
func (m *Metrics) ObserveStage(stage string, d time.Duration) {
	m.mu.Lock()
	s := m.stages[stage]
	if s == nil {
		s = &stageStat{}
		m.stages[stage] = s
	}
	s.Count++
	s.TotalNs += int64(d)
	if int64(d) > s.MaxNs {
		s.MaxNs = int64(d)
	}
	h := m.stageHists[stage]
	if h == nil {
		h = obs.NewHistogram(obs.DurationBuckets...)
		m.stageHists[stage] = h
	}
	m.mu.Unlock()
	h.Observe(d.Seconds())
	if m.parent != nil {
		m.parent.ObserveStage(stage, d)
	}
}

// StageSnapshot is the JSON view of one stage's timing aggregate.
type StageSnapshot struct {
	Stage   string  `json:"stage"`
	Count   int64   `json:"count"`
	TotalMS float64 `json:"total_ms"`
	AvgMS   float64 `json:"avg_ms"`
	MaxMS   float64 `json:"max_ms"`
}

// QueueWaitSnapshot summarizes the queue-wait histogram.
type QueueWaitSnapshot struct {
	Count int64   `json:"count"`
	AvgMS float64 `json:"avg_ms"`
}

// RuntimeSnapshot is the Go runtime health section of the stats
// snapshot: sampled at snapshot time, not accumulated.
type RuntimeSnapshot struct {
	Goroutines     int     `json:"goroutines"`
	HeapInuseBytes uint64  `json:"heap_inuse_bytes"`
	LastGCPauseMS  float64 `json:"last_gc_pause_ms"`
	NumGC          uint32  `json:"num_gc"`
}

// sampleRuntime reads the runtime health gauges. ReadMemStats is a
// stop-the-world of microseconds — fine at scrape/snapshot frequency,
// never called on the merge path.
func sampleRuntime() RuntimeSnapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	out := RuntimeSnapshot{
		Goroutines:     runtime.NumGoroutine(),
		HeapInuseBytes: ms.HeapInuse,
		NumGC:          ms.NumGC,
	}
	if ms.NumGC > 0 {
		out.LastGCPauseMS = float64(ms.PauseNs[(ms.NumGC+255)%256]) / 1e6
	}
	return out
}

// StatsSnapshot is the single typed view of the service counters, shared
// verbatim by GET /v1/stats and the expvar "modemerged" variable so the
// two surfaces can never drift apart.
type StatsSnapshot struct {
	JobsQueued   int64 `json:"jobs_queued"`
	JobsRunning  int64 `json:"jobs_running"`
	JobsDone     int64 `json:"jobs_done"`
	JobsFailed   int64 `json:"jobs_failed"`
	JobsCanceled int64 `json:"jobs_canceled"`

	CacheHitsResult int64 `json:"cache_hits_result"`
	CacheHitsDesign int64 `json:"cache_hits_design"`
	CacheMisses     int64 `json:"cache_misses"`

	// IncrCache breaks the incremental sub-merge cache down by
	// granularity (per-mode contexts, pair verdicts, clique artifacts).
	IncrCache incr.StatsSnapshot `json:"incr_cache"`

	MergeParallelism int64 `json:"merge_parallelism"`

	// Runtime samples Go runtime health at snapshot time.
	Runtime RuntimeSnapshot `json:"runtime"`

	QueueWait QueueWaitSnapshot `json:"queue_wait"`
	Stages    []StageSnapshot   `json:"stages"`
}

// Snapshot captures the counters and stage aggregates.
func (m *Metrics) Snapshot() StatsSnapshot {
	out := StatsSnapshot{
		JobsQueued:       m.JobsQueued.Load(),
		JobsRunning:      m.JobsRunning.Load(),
		JobsDone:         m.JobsDone.Load(),
		JobsFailed:       m.JobsFailed.Load(),
		JobsCanceled:     m.JobsCanceled.Load(),
		CacheHitsResult:  m.CacheHitsResult.Load(),
		CacheHitsDesign:  m.CacheHitsDesign.Load(),
		CacheMisses:      m.CacheMisses.Load(),
		IncrCache:        m.incrSnapshot(),
		MergeParallelism: m.mergeParallelism.Load(),
		Runtime:          sampleRuntime(),
	}
	qw := m.queueWait.Snapshot()
	out.QueueWait.Count = int64(qw.Count)
	if qw.Count > 0 {
		out.QueueWait.AvgMS = qw.Sum / float64(qw.Count) * 1e3
	}
	m.mu.Lock()
	stages := make([]StageSnapshot, 0, len(m.stages))
	for name, s := range m.stages {
		ms := func(ns int64) float64 { return float64(ns) / 1e6 }
		avg := int64(0)
		if s.Count > 0 {
			avg = s.TotalNs / s.Count
		}
		stages = append(stages, StageSnapshot{
			Stage: name, Count: s.Count,
			TotalMS: ms(s.TotalNs), AvgMS: ms(avg), MaxMS: ms(s.MaxNs),
		})
	}
	m.mu.Unlock()
	sort.Slice(stages, func(i, j int) bool { return stages[i].Stage < stages[j].Stage })
	out.Stages = stages
	return out
}

// WritePrometheus renders the counters and histograms in Prometheus text
// exposition format (served at GET /metrics).
func (m *Metrics) WritePrometheus(w io.Writer) error {
	pw := obs.NewPromWriter(w)
	pw.Counter("modemerged_jobs_total", "Jobs by terminal (or queued/running transition) state.",
		obs.Series{Labels: []string{"state", "queued"}, Value: float64(m.JobsQueued.Load())},
		obs.Series{Labels: []string{"state", "done"}, Value: float64(m.JobsDone.Load())},
		obs.Series{Labels: []string{"state", "failed"}, Value: float64(m.JobsFailed.Load())},
		obs.Series{Labels: []string{"state", "canceled"}, Value: float64(m.JobsCanceled.Load())})
	pw.Gauge("modemerged_jobs_running", "Jobs currently executing on the worker pool.",
		obs.Series{Value: float64(m.JobsRunning.Load())})
	pw.Gauge("modemerged_merge_parallelism", "Configured intra-merge worker pool bound.",
		obs.Series{Value: float64(m.mergeParallelism.Load())})
	pw.Counter("modemerged_cache_events_total", "Cache hits and misses by cache.",
		obs.Series{Labels: []string{"cache", "result", "event", "hit"}, Value: float64(m.CacheHitsResult.Load())},
		obs.Series{Labels: []string{"cache", "design", "event", "hit"}, Value: float64(m.CacheHitsDesign.Load())},
		obs.Series{Labels: []string{"cache", "result", "event", "miss"}, Value: float64(m.CacheMisses.Load())})
	ic := m.incrSnapshot()
	pw.Counter("modemerged_incr_cache_events_total",
		"Incremental sub-merge cache hits and misses by granularity.",
		obs.Series{Labels: []string{"granularity", "context", "event", "hit"}, Value: float64(ic.ContextHits)},
		obs.Series{Labels: []string{"granularity", "context", "event", "miss"}, Value: float64(ic.ContextMisses)},
		obs.Series{Labels: []string{"granularity", "pair", "event", "hit"}, Value: float64(ic.PairHits)},
		obs.Series{Labels: []string{"granularity", "pair", "event", "miss"}, Value: float64(ic.PairMisses)},
		obs.Series{Labels: []string{"granularity", "clique", "event", "hit"}, Value: float64(ic.CliqueHits)},
		obs.Series{Labels: []string{"granularity", "clique", "event", "miss"}, Value: float64(ic.CliqueMisses)},
		obs.Series{Labels: []string{"granularity", "equiv", "event", "hit"}, Value: float64(ic.EquivHits)},
		obs.Series{Labels: []string{"granularity", "equiv", "event", "miss"}, Value: float64(ic.EquivMisses)})
	rt := sampleRuntime()
	pw.Gauge("modemerged_runtime_goroutines", "Goroutines currently live in the process.",
		obs.Series{Value: float64(rt.Goroutines)})
	pw.Gauge("modemerged_runtime_heap_inuse_bytes", "Heap bytes in in-use spans.",
		obs.Series{Value: float64(rt.HeapInuseBytes)})
	pw.Gauge("modemerged_runtime_last_gc_pause_seconds", "Duration of the most recent GC stop-the-world pause.",
		obs.Series{Value: rt.LastGCPauseMS / 1e3})
	pw.Histogram("modemerged_queue_wait_seconds", "Time jobs spend queued before a worker picks them up.",
		obs.HistSeries{Snap: m.queueWait.Snapshot()})
	incrHitSeries := make([]obs.HistSeries, 0, len(incrHitGranularities))
	for _, g := range incrHitGranularities {
		incrHitSeries = append(incrHitSeries, obs.HistSeries{
			Labels: []string{"granularity", string(g)},
			Snap:   m.incrHitHists[g].Snapshot(),
		})
	}
	pw.Histogram("modemerged_incr_cache_hit_seconds",
		"Incremental sub-merge cache hit lookup latency by granularity.", incrHitSeries...)

	m.mu.Lock()
	names := make([]string, 0, len(m.stageHists))
	for name := range m.stageHists {
		names = append(names, name)
	}
	sort.Strings(names)
	series := make([]obs.HistSeries, 0, len(names))
	for _, name := range names {
		series = append(series, obs.HistSeries{
			Labels: []string{"stage", name},
			Snap:   m.stageHists[name].Snapshot(),
		})
	}
	m.mu.Unlock()
	pw.Histogram("modemerged_stage_seconds", "Merge pipeline stage latency.", series...)
	return pw.Err()
}
