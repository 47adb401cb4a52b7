// Command perfbench is the repository benchmark. It runs one workload
// for a fixed time, checks every output it produces, and prints the
// metrics BENCHMARK.json names: the end-to-end metrics with -trace 0,
// the per-layer metrics of a separate traced run with -trace 1.
//
// Run it from the repository root through the wrapper, which builds the
// benchmark and the modemerged daemon first:
//
//	bash perfbench/run.sh --workload flat-52k --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A full artifact (host, sample
// counts, raw samples, digests) is written under the -out directory.
// Any failed output check makes the command exit 1.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metric is one computed figure. N is the number of samples behind it
// (0 for counts that need none); Note qualifies it in the artifact.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	Note  string  `json:"note,omitempty"`
}

// runResult is what one workload run produced.
type runResult struct {
	attempted int
	failed    int
	failures  []string
	metrics   map[string]metric
	// extra lands in the artifact only: raw samples, digests, labels.
	extra map[string]any
}

func newRunResult() *runResult {
	return &runResult{metrics: map[string]metric{}, extra: map[string]any{}}
}

func (r *runResult) set(name string, value float64, unit string, n int) {
	r.metrics[name] = metric{Value: value, Unit: unit, N: n}
}

func (r *runResult) note(name, note string) {
	m := r.metrics[name]
	m.Note = note
	r.metrics[name] = m
}

// fail records one failed operation.
func (r *runResult) fail(format string, args ...any) {
	r.failed++
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	// out holds the modemerged binary and receives the artifacts.
	out string
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(context.Context, config) (*runResult, error){
	"flat-52k":      runLibrary,
	"many-modes-95": runLibrary,
	"service-edit":  runServiceEdit,
}

// benchSpec is the part of BENCHMARK.json the benchmark checks its
// output against.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "workload to run: flat-52k, many-modes-95 or service-edit")
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	seconds := flag.Int("seconds", 10, "length of the measured window in seconds")
	traceFlag := flag.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory holding the modemerged binary; artifacts go to its artifacts/ subdirectory")
	record := flag.Int("record-digests", 0, "instead of measuring, print the digest table entries of a library workload for seeds 0 to n-1")
	sliceMS := flag.Int64("slice-ms", 0, "internal: run one process's share of a library run for this many milliseconds and print its report as JSON")
	flag.Parse()

	if *record > 0 {
		if err := recordDigests(context.Background(), *workload, *record); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}

	runner, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		return 2
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be at least 1 and -trace 0 or 1")
		return 2
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		window:   time.Duration(*seconds) * time.Second,
		trace:    *traceFlag == 1,
		out:      *out,
	}
	if *sliceMS > 0 {
		cfg.window = time.Duration(*sliceMS) * time.Millisecond
		rep, err := runLibrarySlice(context.Background(), cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	host := hostInfo()
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%d trace=%d nproc=%d GOMAXPROCS=%d go=%s commit=%s\n",
		cfg.workload, cfg.seed, *seconds, *traceFlag, host.NProc, host.GOMAXPROCS, host.GoVersion, host.Commit)

	res, err := runner(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, f := range res.failures {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", f)
	}
	want := spec.EndToEnd
	if cfg.trace {
		want = spec.PerLayer
	}
	printed := map[string]metric{}
	var missing []string
	for _, m := range want {
		got, ok := res.metrics[m.Name]
		switch {
		case !ok:
			missing = append(missing, m.Name)
		case got.Unit != m.Unit:
			missing = append(missing, fmt.Sprintf("%s (unit %s, BENCHMARK.json says %s)", m.Name, got.Unit, m.Unit))
		default:
			printed[m.Name] = got
		}
	}
	if len(missing) > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: metrics not produced: %v\n", missing)
		return 1
	}
	printTable(res)
	path, err := writeArtifact(cfg, host, res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Printf("# artifact %s\n", path)

	type outMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]outMetric `json:"metrics"`
	}{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]outMetric{}}
	for name, m := range printed {
		line.Metrics[name] = outMetric{Value: m.Value, Unit: m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	if res.failed > 0 || res.attempted < 1 {
		return 1
	}
	return 0
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading the metric list: %w (run from the repository root)", err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	if len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
		return nil, errors.New(path + " lists no metrics")
	}
	return &s, nil
}

// printTable prints every computed metric, sorted by name, with its
// unit and sample count — fail_ratio included, which the JSON line
// carries as failed/attempted.
func printTable(res *runResult) {
	names := make([]string, 0, len(res.metrics))
	for name := range res.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.metrics[name]
		fmt.Printf("#   %-34s %14.6g %-6s n=%d\n", name, m.Value, m.Unit, m.N)
	}
}

// writeArtifact stores the run's full record: host, every metric with
// its sample count and note, and the workload's extra detail.
func writeArtifact(cfg config, host host, res *runResult) (string, error) {
	dir := filepath.Join(cfg.out, "artifacts")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("creating artifact directory: %w", err)
	}
	art := map[string]any{
		"workload":  cfg.workload,
		"seed":      cfg.seed,
		"seconds":   cfg.window.Seconds(),
		"trace":     cfg.trace,
		"host":      host,
		"attempted": res.attempted,
		"failed":    res.failed,
		"failures":  res.failures,
		"metrics":   res.metrics,
		"detail":    res.extra,
	}
	b, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		return "", err
	}
	trace := 0
	if cfg.trace {
		trace = 1
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", cfg.workload, cfg.seed, trace))
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return "", fmt.Errorf("writing artifact: %w", err)
	}
	return path, nil
}
