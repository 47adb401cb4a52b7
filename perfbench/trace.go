package main

import (
	"sort"
	"strings"

	"modemerge/internal/obs"
)

// Spans the benchmark opens around each call into a layer. core and sta
// emit their own stage spans below these (see layerOf).
const (
	spanFlow          = "flow"
	spanNetlistParse  = "netlist.parse"
	spanNetlistValid  = "netlist.validate"
	spanGraphBuild    = "graph.build"
	spanSDCParse      = "sdc.parse"
	spanPlanMerge     = "core.plan_merge"
	spanMergeClique   = "core.merge_clique"
	spanCheckEquiv    = "core.check_equivalence"
	spanSDCWrite      = "sdc.write"
	metricUnattrib    = "unattributed_s"
	metricCliqueSelf  = "core.merge_clique_self_s"
	metricRebuildSelf = "core.rebuild_merged_s"
)

// layerOf maps a span name to the per-layer metric its self time counts
// toward. Spans mapped to "" are not layers of their own: their time
// stays with the enclosing layer span (prelim's sub-steps with prelim,
// refinement iterations with data_refine, equivalence passes with
// equivalence, sta shards with their loop).
func layerOf(name string) string {
	switch name {
	case spanNetlistParse:
		return "netlist.parse_s"
	case spanNetlistValid:
		return "netlist.validate_s"
	case spanGraphBuild:
		return "graph.build_s"
	case spanSDCParse:
		return "sdc.parse_s"
	case spanPlanMerge, "mergeability":
		return "core.mergeability_s"
	case spanMergeClique:
		return metricCliqueSelf
	case "build_contexts":
		return "sta.build_contexts_s"
	case "endpoint_relations":
		return "sta.endpoint_relations_s"
	case "prelim":
		return "core.prelim_s"
	case "clock_refine":
		return "core.clock_refine_s"
	case "data_refine":
		return "core.data_refine_s"
	case "launch_blocking":
		return "core.launch_blocking_s"
	case "pass1":
		return "core.pass1_s"
	case "pass2":
		return "core.pass2_s"
	case "pass3":
		return "core.pass3_s"
	case "rebuild_merged":
		return metricRebuildSelf
	case spanCheckEquiv, "equivalence":
		return "core.equivalence_s"
	case spanSDCWrite:
		return "sdc.write_s"
	}
	if strings.HasPrefix(name, "merge:") {
		return metricCliqueSelf
	}
	return ""
}

// layerMetrics lists every metric layerOf can produce, so a flow that
// never enters a layer still reports it (as 0).
var layerMetrics = []string{
	"netlist.parse_s", "netlist.validate_s", "graph.build_s", "sdc.parse_s",
	"core.mergeability_s", metricCliqueSelf, "sta.build_contexts_s",
	"sta.endpoint_relations_s", "core.prelim_s",
	"core.clock_refine_s", "core.data_refine_s", "core.launch_blocking_s",
	"core.pass1_s", "core.pass2_s", "core.pass3_s", metricRebuildSelf,
	"core.equivalence_s", "sdc.write_s",
}

// flowProfile is one traced flow, broken down by layer.
type flowProfile struct {
	Wall float64 `json:"wall_s"`
	// Self is each layer's self time in seconds; together with
	// Unattributed it partitions Wall exactly.
	Self         map[string]float64 `json:"self_s"`
	Unattributed float64            `json:"unattributed_s"`
	// CliqueWalls are the durations of the MergeClique calls.
	CliqueWalls []float64 `json:"clique_walls_s"`
	// Iterations sums the refinement iterations of every clique merge.
	Iterations int64 `json:"iterations"`
}

type spanInterval struct {
	start, end int64
	id         int64
	layer      string
}

// profileFlow partitions a traced flow's wall time among layers. Every
// instant of the root span goes to the innermost layer span covering it
// — the active layer span that started last — or to unattributed_s
// when no layer span covers it. Parallel sibling spans therefore split
// the wall time they overlap instead of double counting it, so the
// layer self times and unattributed_s always sum to the flow's wall
// time.
func profileFlow(root *obs.SpanView) flowProfile {
	p := flowProfile{Self: map[string]float64{}}
	for _, name := range layerMetrics {
		p.Self[name] = 0
	}
	p.Wall = float64(root.DurationNS) / 1e9
	var spans []spanInterval
	var walk func(vs []*obs.SpanView)
	walk = func(vs []*obs.SpanView) {
		for _, v := range vs {
			if v.Name == spanMergeClique {
				p.CliqueWalls = append(p.CliqueWalls, float64(v.DurationNS)/1e9)
			}
			if v.Name == "data_refine" {
				p.Iterations += v.Counters["iterations"]
			}
			if layer := layerOf(v.Name); layer != "" && v.Finished {
				spans = append(spans, spanInterval{v.StartUnixNS, v.EndUnixNS, v.ID, layer})
			}
			walk(v.Children)
		}
	}
	walk(root.Children)

	rs, re := root.StartUnixNS, root.EndUnixNS
	points := []int64{rs, re}
	for _, s := range spans {
		points = append(points, clamp(s.start, rs, re), clamp(s.end, rs, re))
	}
	sort.Slice(points, func(i, j int) bool { return points[i] < points[j] })
	for i := 0; i+1 < len(points); i++ {
		a, b := points[i], points[i+1]
		if a == b {
			continue
		}
		var owner *spanInterval
		for k := range spans {
			s := &spans[k]
			if s.start > a || s.end < b {
				continue
			}
			if owner == nil || s.start > owner.start || (s.start == owner.start && s.id > owner.id) {
				owner = s
			}
		}
		d := float64(b-a) / 1e9
		if owner == nil {
			p.Unattributed += d
		} else {
			p.Self[owner.layer] += d
		}
	}
	return p
}

func clamp(x, lo, hi int64) int64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
