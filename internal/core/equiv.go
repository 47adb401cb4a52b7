package core

import (
	"context"
	"fmt"
	"sort"

	"modemerge/internal/graph"
	"modemerge/internal/relation"
	"modemerge/internal/sdc"
	"modemerge/internal/sta"
)

// EquivalenceResult reports the timing-relationship comparison between a
// merged mode and its individual modes — the paper's correct-by-
// construction validation, also usable standalone as an SDC equivalence
// checker.
type EquivalenceResult struct {
	// MatchedGroups count path groups whose merged state equals the
	// per-path most-restrictive individual state.
	MatchedGroups int
	// PessimisticGroups are timed more tightly by the merged mode than
	// any individual mode requires (sign-off safe).
	PessimisticGroups int
	// OptimisticMismatches are groups the merged mode relaxes or drops
	// relative to the target — sign-off violations. Must be empty for a
	// valid merge.
	OptimisticMismatches []string
	// Unresolved groups stayed ambiguous through pass 3.
	Unresolved []string
}

// Equivalent reports overall success: no optimistic mismatches.
func (r *EquivalenceResult) Equivalent() bool { return len(r.OptimisticMismatches) == 0 }

// String summarizes the result.
func (r *EquivalenceResult) String() string {
	return fmt.Sprintf("matched=%d pessimistic=%d optimistic=%d unresolved=%d",
		r.MatchedGroups, r.PessimisticGroups, len(r.OptimisticMismatches), len(r.Unresolved))
}

// CheckEquivalence compares the merged mode against the individual modes
// at the three granularities of §3.2, without modifying anything. The
// clock mapping is rediscovered structurally (same source set and
// waveform). Cancelling cx aborts between and inside the passes with the
// context error. With Options.Cache set, the verdict is replayed from
// (and stored in) the cache's memory-only equiv granularity.
func CheckEquivalence(cx context.Context, g *graph.Graph, individual []*sdc.Mode, merged *sdc.Mode, opt Options) (*EquivalenceResult, error) {
	var key string
	if opt.Cache != nil {
		key = equivKey(g, opt, individual, merged)
		if res, ok := lookupEquiv(opt.Cache, key); ok {
			opt.Trace.Add("equiv_cache_hit", 1)
			return res, nil
		}
		opt.Trace.Add("equiv_cache_miss", 1)
	}
	mg, err := newEquivalenceMerger(cx, g, individual, merged, opt)
	if err != nil {
		return nil, err
	}
	res, err := mg.checkEquivalence(cx)
	if err == nil && opt.Cache != nil {
		storeEquiv(opt.Cache, key, res)
	}
	return res, err
}

// newEquivalenceMerger builds the member contexts and the context of the
// given merged mode without merging anything.
func newEquivalenceMerger(cx context.Context, g *graph.Graph, individual []*sdc.Mode, merged *sdc.Mode, opt Options) (*Merger, error) {
	mg, err := newMergerWithGraph(cx, g, individual, opt)
	if err != nil {
		return nil, err
	}
	// Rebuild only the clock map (union without emitting).
	mg.unionClocks()
	mg.merged = merged
	if err := mg.rebuildMerged(); err != nil {
		return nil, err
	}
	return mg, nil
}

// moreRelaxed reports whether the merged state relaxes the target —
// an optimistic (unsafe) difference.
func moreRelaxed(merged, target relation.State) bool {
	return relation.Relaxed(merged, target)
}

// checkEquivalence runs the non-mutating 3-pass comparison on the
// merger's current merged context.
func (mg *Merger) checkEquivalence(cx context.Context) (*EquivalenceResult, error) {
	res := &EquivalenceResult{}
	esp := mg.span.Child("equivalence")
	defer func() {
		esp.Add("matched", int64(res.MatchedGroups))
		esp.Add("pessimistic", int64(res.PessimisticGroups))
		esp.Add("optimistic", int64(len(res.OptimisticMismatches)))
		esp.Add("unresolved", int64(len(res.Unresolved)))
		esp.Finish()
	}()

	describe := func(k sta.RelKey, target, merged relation.Set) string {
		return fmt.Sprintf("%s -> %s [%s/%s %s]: individual=%s merged=%s",
			k.Start, k.End, k.Launch, k.Capture, k.Check, target.String(), merged.String())
	}
	// Passes 1 and 2 classify their groups in map order and collect the
	// optimistic ones here; flushOptimistic appends them in sorted key
	// order, so the mismatch list is the one a classification in
	// sortedRelKeys order would produce (every counter is order-free),
	// without sorting every group.
	optimistic := map[sta.RelKey]string{}
	flushOptimistic := func() {
		for _, k := range sortedRelKeys(optimistic) {
			res.OptimisticMismatches = append(res.OptimisticMismatches, optimistic[k])
		}
		clear(optimistic)
	}
	classify := func(k sta.RelKey, gs *groupStates) (ambiguous bool) {
		target, ok := gs.target()
		if !ok {
			return true
		}
		ts, _ := target.Single()
		merged := gs.merged
		if merged.Empty() {
			merged = relation.NewSet(relation.StateFalse)
		}
		ms, single := merged.Single()
		if !single {
			return true
		}
		switch {
		case ms == ts:
			res.MatchedGroups++
		case moreRelaxed(ms, ts):
			optimistic[k] = describe(k, target, merged)
		default:
			res.PessimisticGroups++
		}
		return false
	}

	// Pass 1.
	p1 := esp.Child("equiv_pass1")
	perMode, mergedRels := mg.endpointAll(cx)
	if err := cx.Err(); err != nil {
		p1.Finish()
		return nil, err
	}
	groups := mg.gatherGroups(perMode, mergedRels)
	pass2 := nameSet{}
	for k, gs := range groups {
		if classify(k, gs) {
			pass2.add(k.End)
		}
	}
	flushOptimistic()
	p1.Add("path_groups", int64(len(groups)))
	p1.Finish()

	// Pass 2 (relations per endpoint computed in parallel). The forwarded
	// endpoints warm each context's shared start-tracked propagation under
	// the refinement's amortization policy, so the endpoint loop below is
	// pure accumulation instead of one fan-in cone propagation per
	// endpoint and context. Only the propagation is shared: the check
	// still gathers and classifies every forwarded endpoint, with no
	// outcome replay.
	p2 := esp.Child("equiv_pass2")
	ends := pass2.sorted()
	type sePair struct{ start, end string }
	pass3 := map[sePair]bool{}
	endIDs := make([]graph.NodeID, len(ends))
	for i, name := range ends {
		id, ok := mg.g.NodeByName(name)
		if !ok {
			p2.Finish()
			return nil, fmt.Errorf("internal: endpoint %q not in graph", name)
		}
		endIDs[i] = id
	}
	mg.warmContexts(cx, endIDs, granStartEnd)
	seGroupsPerEnd := make([]map[sta.RelKey]*groupStates, len(endIDs))
	forEachParallel(cx, len(endIDs), mg.opt.parallelism(), func(i int) {
		perModeSE := make([]map[sta.RelKey]relation.Set, len(mg.ctxs))
		for m, ctx := range mg.ctxs {
			perModeSE[m] = ctx.StartEndRelations(endIDs[i])
		}
		seGroupsPerEnd[i] = mg.gatherGroups(perModeSE, mg.mctx.StartEndRelations(endIDs[i]))
	})
	if err := cx.Err(); err != nil {
		p2.Finish()
		return nil, err
	}
	for _, seGroups := range seGroupsPerEnd {
		for k, gs := range seGroups {
			if classify(k, gs) {
				pass3[sePair{k.Start, k.End}] = true
			}
		}
	}
	flushOptimistic()
	p2.Add("endpoints", int64(len(ends)))
	p2.Finish()

	// Pass 3.
	p3 := esp.Child("equiv_pass3")
	defer p3.Finish()
	var pairs []sePair
	for p := range pass3 {
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].start != pairs[j].start {
			return pairs[i].start < pairs[j].start
		}
		return pairs[i].end < pairs[j].end
	})
	p3.Add("pairs", int64(len(pairs)))
	for _, p := range pairs {
		if err := cx.Err(); err != nil {
			return nil, err
		}
		unresolved, err := mg.checkPass3(cx, p.start, p.end, res)
		if err != nil {
			return nil, err
		}
		res.Unresolved = append(res.Unresolved, unresolved...)
	}
	return res, nil
}

// checkPass3 compares through-point relations for one pair, recording
// matches/pessimism/optimism on res. Nodes that remain multi-state on
// both sides after pass 3 are reported unresolved only when the sets
// differ.
func (mg *Merger) checkPass3(cx context.Context, startName, endName string, res *EquivalenceResult) ([]string, error) {
	startID, ok1 := mg.g.NodeByName(startName)
	endID, ok2 := mg.g.NodeByName(endName)
	if !ok1 || !ok2 {
		return nil, fmt.Errorf("internal: pass-3 pair %s→%s not in graph", startName, endName)
	}
	perModeTR, mergedTR := mg.throughAll(cx, startID, endID)
	if err := cx.Err(); err != nil {
		return nil, err
	}
	perMode := make([]map[graph.NodeID]map[sta.RelKey]relation.Set, len(mg.ctxs))
	for m := range mg.ctxs {
		perMode[m] = map[graph.NodeID]map[sta.RelKey]relation.Set{}
		for _, tr := range perModeTR[m] {
			mapped := map[sta.RelKey]relation.Set{}
			for k, set := range tr.States {
				mapped[mg.mapRelKey(m, k)] = set
			}
			perMode[m][tr.Node] = mapped
		}
	}
	var unresolved []string
	for _, tr := range mergedTR {
		for _, k := range sortedRelKeys(tr.States) {
			mergedSet := tr.States[k]
			states := make([]relation.State, 0, len(mg.ctxs))
			nodeAmbiguous := false
			for m := range mg.ctxs {
				var set relation.Set
				if rels := perMode[m][tr.Node]; rels != nil {
					set = rels[k]
				}
				if set.Empty() {
					states = append(states, relation.StateFalse)
					continue
				}
				st, single := set.Single()
				if !single {
					nodeAmbiguous = true
					break
				}
				states = append(states, st)
			}
			ms, single := mergedSet.Single()
			if nodeAmbiguous || !single {
				// Reconvergent subclasses meet here; finer nodes resolve
				// them. Only a leaf-level disagreement is unresolved, and
				// those were counted at the nodes that stayed uniform.
				continue
			}
			target := relation.MergeTarget(states)
			switch {
			case ms == target:
				res.MatchedGroups++
			case moreRelaxed(ms, target):
				res.OptimisticMismatches = append(res.OptimisticMismatches,
					fmt.Sprintf("%s -through %s-> %s [%s/%s %s]: individual=%s merged=%s",
						startName, tr.Name, endName, k.Launch, k.Capture, k.Check,
						target.String(), ms.String()))
			default:
				res.PessimisticGroups++
			}
		}
	}
	return unresolved, nil
}
