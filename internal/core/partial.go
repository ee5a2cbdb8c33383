package core

import (
	"context"
	"fmt"
	"math"
	"sort"

	"dcnflow/internal/flow"
	"dcnflow/internal/graph"
	"dcnflow/internal/mcfsolve"
	"dcnflow/internal/power"
	"dcnflow/internal/timeline"
)

// PinnedCommitment is the frozen state of one in-flight flow at a re-plan
// instant: the path fixed at admission and the data already delivered. The
// re-plan changes neither: it returns no path for the flow, and only the
// residual data enters the relaxation, which routes it fractionally like
// any other commodity.
type PinnedCommitment struct {
	// Path is the routing path pinned when the flow was first admitted. The
	// solve checks that it joins the flow's endpoints.
	Path graph.Path
	// Transmitted is the data delivered before the re-plan instant; only
	// the residual Size - Transmitted remains to be scheduled.
	Transmitted float64
	// Demand optionally fixes the commodity demand the relaxation uses for
	// this pinned flow; zero selects the true residual density
	// (Size - Transmitted) / (Deadline - Now). A rolling scheduler passes
	// the admission-time nominal density here so that consecutive epochs
	// solve bit-identical pinned commodities — keeping cross-epoch warm
	// seeds matchable — even when the actually reserved rate profile was
	// shaped around the committed load.
	Demand float64
}

// RelaxationState carries one epoch's per-interval fractional solutions
// across re-plans. The next epoch seeds each of its interval solves from
// the state interval containing the same instant (commodities match by
// flow ID inside mcfsolve.Solver.SolveBaseWarmCtx), which is what makes
// rolling-horizon chains of near-identical residual instances converge in
// few Frank–Wolfe iterations.
type RelaxationState struct {
	// Intervals is the residual-horizon decomposition of that epoch.
	Intervals []timeline.Interval
	// Comms holds the commodities solved per interval (same order as
	// Intervals).
	Comms [][]mcfsolve.Commodity
	// Results holds the fractional solutions per interval.
	Results []*mcfsolve.Result
	// Fingerprints, when delta bookkeeping is on (DeltaOptions.Enabled),
	// holds one fingerprint per interval (same order as Intervals); nil
	// otherwise. The delta re-solve matches intervals across epochs by
	// their right breakpoints and reuses the stored solutions of untouched
	// intervals whose fingerprints stay within the drift and staleness
	// bounds.
	Fingerprints []IntervalFingerprint
}

// IntervalFingerprint summarises one interval of a RelaxationState for
// delta reuse.
type IntervalFingerprint struct {
	// Load is the per-edge background load the interval was last stamped
	// with (the rolling scheduler refreshes it from its reservations after
	// each epoch's admissions). Drift is measured against it.
	Load []float64
	// Stale counts consecutive delta epochs the stored solution has been
	// reused verbatim; a full solve resets it to zero.
	Stale int
}

// DeltaOptions tunes the sensitivity-bounded delta re-solve of
// SolveDCFSRPartialCtx — the opt-in localized epoch path of the rolling
// scheduler. The zero value disables delta mode entirely and changes
// nothing about the solve.
type DeltaOptions struct {
	// Enabled opts into delta bookkeeping: full solves stamp per-interval
	// fingerprints into the returned RelaxationState, and a caller that
	// also supplies BaseLoad (plus a previous fingerprinted state) gets
	// the localized delta path.
	Enabled bool
	// DriftBound caps the tolerated per-link relative load drift. An
	// untouched interval whose background load drifted beyond the bound
	// declines the delta solve (DeltaUsed=false: the caller must re-issue
	// a full solve), and the rolling scheduler additionally accumulates
	// the per-epoch Drift and forces a full re-plan once the sum exceeds
	// the bound. Zero keeps delta solving off — fingerprints are still
	// stamped — which pins delta mode to the full path bit for bit.
	DriftBound float64
	// MaxStaleEpochs caps how many consecutive delta epochs may reuse a
	// stored interval solution before a full re-plan is forced (the delta
	// path declines once any reused interval would exceed it). Zero means
	// no cap.
	MaxStaleEpochs int
}

// seedFor returns the warm start for a target interval solving the given
// commodities: the state's solve whose interval contains the target's
// midpoint, and only if that solve covered the exact same commodity
// multiset (IDs, endpoints and demands). The restriction is deliberate —
// seeding a Frank–Wolfe solve whose instance gained or lost commodities
// starts it from stale mass that, with no away-steps, drains only
// geometrically and converges SLOWER than a cold hop-count start. An
// unchanged instance, by contrast, starts at the previous optimum and stops
// at the first duality-gap check. The zero WarmStart is returned when no
// matching solve exists.
func (st *RelaxationState) seedFor(iv timeline.Interval, comms []mcfsolve.Commodity) mcfsolve.WarmStart {
	if st == nil {
		return mcfsolve.WarmStart{}
	}
	mid := (iv.Start + iv.End) / 2
	i := sort.Search(len(st.Intervals), func(k int) bool { return st.Intervals[k].End >= mid })
	if i >= len(st.Intervals) || !st.Intervals[i].Contains(mid) || st.Results[i] == nil {
		return mcfsolve.WarmStart{}
	}
	prev := st.Comms[i]
	if len(prev) != len(comms) {
		return mcfsolve.WarmStart{}
	}
	byID := make(map[flow.ID]mcfsolve.Commodity, len(prev))
	for _, c := range prev {
		byID[c.ID] = c
	}
	for _, c := range comms {
		p, ok := byID[c.ID]
		if !ok || p.Src != c.Src || p.Dst != c.Dst ||
			math.Abs(p.Demand-c.Demand) > 1e-9*math.Max(p.Demand, c.Demand) {
			return mcfsolve.WarmStart{}
		}
	}
	return mcfsolve.WarmStart{Commodities: st.Comms[i], Result: st.Results[i]}
}

// DCFSRPartialInput is a residual DCFSR instance: the joint
// routing-and-scheduling problem restricted to [Now, horizon end] with part
// of the decisions already frozen.
type DCFSRPartialInput struct {
	Graph *graph.Graph
	// Compiled optionally supplies the graph's compiled artifact bundle —
	// the rolling-horizon scheduler compiles once at construction and
	// passes it to every epoch re-solve. Must match Graph when set; nil
	// compiles on demand.
	Compiled *graph.Compiled
	// Flows are the active flows: in-flight pinned ones plus newly revealed
	// free ones. Flow IDs are the caller's and are preserved (nothing is
	// renumbered, unlike flow.NewSet), so commitments and warm-start
	// identities stay stable across epochs. Flows whose pinned residual is
	// already zero are treated as complete and skipped.
	Flows []flow.Flow
	Model power.Model
	// Now is the re-plan instant. Only [Now, …] is planned: each flow's
	// residual demand must fit into [max(Release, Now), Deadline].
	Now float64
	// Pinned maps in-flight flows to their frozen commitments. Flows not in
	// the map are free: the solve chooses their path.
	Pinned map[flow.ID]PinnedCommitment
	// Intervals optionally supplies the residual-horizon segmentation
	// (e.g. timeline.BreakpointSet.IntervalsFrom(Now), maintained
	// incrementally by a rolling scheduler). When nil it is rebuilt from
	// the residual spans.
	Intervals []timeline.Interval
	// Prev, with Opts.WarmStart set, seeds each interval's Frank–Wolfe
	// solve from the previous epoch's time-aligned decomposition.
	Prev *RelaxationState
	// BaseLoad, when set, fills out (len = Graph.NumEdges()) with the
	// per-edge background load during iv — the aggregate rate already
	// reserved by in-flight commitments. Supplying it is the delta switch:
	// Flows then holds ONLY the free arrival batch, Pinned must be empty
	// (the background load replaces pinned commodities entirely), and the
	// solve takes the localized delta path when Delta and Prev allow it
	// (declining with DeltaUsed=false otherwise). Nil always takes the
	// full path.
	BaseLoad func(iv timeline.Interval, out []float64)
	// Delta opts into the sensitivity-bounded delta re-solve; see
	// DeltaOptions. The zero value changes nothing.
	Delta DeltaOptions
	// Opts configures the interval solves. The partial solve draws no
	// path, so it reads neither Seed nor MaxRoundingAttempts.
	Opts DCFSROptions
}

// CandidatePath is one entry of a free flow's aggregated candidate
// distribution: a path and its time-weighted fractional probability.
type CandidatePath struct {
	Path   graph.Path
	Weight float64
}

// DCFSRPartialResult is the residual relaxation: what a caller needs to
// place the free flows. It holds no path per flow; the caller picks one
// from Candidates.
type DCFSRPartialResult struct {
	// Candidates holds each free flow's aggregated candidate distribution
	// in descending weight order (deterministic tie-break). The rolling
	// scheduler scores every entry by exact marginal energy against its
	// reservations and admits the cheapest.
	Candidates map[flow.ID][]CandidatePath
	// Rates holds each free flow's planning rate: the residual density,
	// the constant rate that, sustained from max(Release, Now) to the
	// deadline, exactly delivers the residual demand.
	Rates map[flow.ID]float64
	// ResidualLowerBound is the fractional relaxation value of the residual
	// instance, Σ_k |I_k| times each interval solve's primal objective, on
	// the full path; a delta solve leaves it zero. It is a diagnostic, not
	// a certified bound: a Frank–Wolfe primal value sits above the
	// relaxation optimum, and the relaxation holds each flow at one
	// constant rate.
	ResidualLowerBound float64
	// State is this epoch's relaxation, to be passed as Prev next epoch.
	State *RelaxationState
	// FWIters is the total number of Frank–Wolfe iterations across all
	// interval solves — the warm-start effectiveness metric.
	FWIters int
	// SeededIntervals counts interval solves that received a warm seed —
	// a Prev-epoch decomposition on the full path, or (under delta-solve
	// with Opts.WarmStart) a previous-epoch seed of a touched marginal
	// solve.
	SeededIntervals int
	// Intervals is the number of residual decomposition intervals.
	Intervals int
	// DeltaUsed reports whether this result came from the localized delta
	// path. When a delta attempt declines (drift beyond DriftBound, a
	// stale-epoch cap hit, or no reusable previous state), the result
	// carries DeltaUsed=false and no candidates: the caller must re-issue a
	// full solve with the complete flow set.
	DeltaUsed bool
	// ReusedIntervals counts intervals whose stored solution the delta
	// path reused verbatim.
	ReusedIntervals int
	// Drift is the interval-length-weighted relative background-load drift
	// measured across the reused intervals of a delta solve (zero on the
	// full path). Callers accumulate it across delta epochs to decide when
	// to fall back to a full re-plan.
	Drift float64
}

// residual is one active flow reduced to its remaining instance at a
// re-plan instant.
type residual struct {
	f       flow.Flow
	start   float64
	demand  float64 // residual data
	density float64 // demand / (deadline - start)
	pinned  bool
}

// SolveDCFSRPartialCtx re-runs the Random-Schedule relaxation over the
// remaining horizon with frozen commitments — the epoch re-solve of the
// rolling-horizon online scheduler:
//
//  1. every active flow is reduced to its residual instance: demand
//     Size - Transmitted over [max(Release, Now), Deadline];
//  2. the residual multi-interval F-MCF relaxation is solved exactly as in
//     SolveDCFSRCtx, warm-seeded per interval from Prev when Opts.WarmStart
//     is set (mcfsolve.WarmStart matches commodities by flow ID);
//  3. each free flow's fractional paths are aggregated, time-weighted over
//     the intervals it covers, into its candidate distribution. Pinned
//     flows take part in the relaxation only: their paths stay the
//     caller's.
//
// The solve draws no path: the caller picks each free flow's path from its
// candidates (the rolling scheduler scores them by exact marginal energy).
//
// The residual relaxation's Frank–Wolfe solves observe cancellation at
// every iteration boundary and the wrapped context error is returned
// instead of a partial plan.
func SolveDCFSRPartialCtx(ctx context.Context, in DCFSRPartialInput) (*DCFSRPartialResult, error) {
	if in.Graph == nil {
		return nil, fmt.Errorf("%w: nil graph", ErrBadInput)
	}
	if err := in.Model.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadInput, err)
	}
	if math.IsNaN(in.Now) || math.IsInf(in.Now, 0) {
		return nil, fmt.Errorf("%w: bad re-plan instant %v", ErrBadInput, in.Now)
	}
	compiled, err := compiledView(in.Compiled, in.Graph)
	if err != nil {
		return nil, err
	}
	opts := in.Opts.withDefaults()

	// Reduce every active flow to its residual instance.
	var (
		active []residual
		seen   = make(map[flow.ID]bool, len(in.Flows))
	)
	res := &DCFSRPartialResult{}
	for _, f := range in.Flows {
		if err := f.Validate(); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadInput, err)
		}
		if seen[f.ID] {
			return nil, fmt.Errorf("%w: duplicate flow id %d", ErrBadInput, f.ID)
		}
		seen[f.ID] = true
		r := residual{f: f, start: math.Max(f.Release, in.Now), demand: f.Size}
		var fixedDemand float64
		if pc, ok := in.Pinned[f.ID]; ok {
			if err := pc.Path.Validate(in.Graph, f.Src, f.Dst); err != nil {
				return nil, fmt.Errorf("%w: pinned flow %d: %v", ErrBadInput, f.ID, err)
			}
			if pc.Transmitted < 0 || pc.Transmitted > f.Size*(1+1e-9) {
				return nil, fmt.Errorf("%w: pinned flow %d transmitted %v of %v", ErrBadInput, f.ID, pc.Transmitted, f.Size)
			}
			r.demand = f.Size - pc.Transmitted
			r.pinned = true
			fixedDemand = pc.Demand
		}
		if r.demand <= f.Size*1e-9 {
			continue // already complete; nothing left to plan
		}
		span := f.Deadline - r.start
		if span <= timeline.Eps {
			return nil, fmt.Errorf("%w: flow %d has %v residual data but its deadline %v has passed at %v",
				ErrInfeasible, f.ID, r.demand, f.Deadline, in.Now)
		}
		r.density = r.demand / span
		if fixedDemand > 0 {
			r.density = fixedDemand
		}
		active = append(active, r)
	}
	if len(active) == 0 {
		res.State = &RelaxationState{}
		return res, nil
	}
	sort.Slice(active, func(a, b int) bool { return active[a].f.ID < active[b].f.ID })

	// Residual-horizon segmentation: the caller's incremental one, or a
	// rebuild from the residual spans.
	intervals := in.Intervals
	if intervals == nil {
		var times []float64
		for _, r := range active {
			times = append(times, r.start, r.f.Deadline)
		}
		intervals = timeline.Decompose(timeline.Breakpoints(times))
	}

	rel := &relaxation{
		intervals: intervals,
		comms:     make([][]mcfsolve.Commodity, len(intervals)),
		results:   make([]*mcfsolve.Result, len(intervals)),
	}
	for k, iv := range intervals {
		for _, r := range active {
			if r.start <= iv.Start+timeline.Eps && r.f.Deadline >= iv.End-timeline.Eps {
				rel.comms[k] = append(rel.comms[k], mcfsolve.Commodity{
					ID: r.f.ID, Src: r.f.Src, Dst: r.f.Dst, Demand: r.density,
				})
			}
		}
	}

	// Localized delta path: with a background-load callback the instance is
	// an arrival batch riding on frozen commitments, and the previous
	// epoch's fingerprinted state lets the solve touch only the intervals
	// the batch invalidates. The full path below is never reached with a
	// BaseLoad — a batch-only instance without the background reuse would
	// plan the arrivals as if the network were empty.
	if in.BaseLoad != nil {
		if len(in.Pinned) != 0 {
			return nil, fmt.Errorf("%w: BaseLoad requires an empty Pinned set (the background load replaces pinned commodities)", ErrBadInput)
		}
		if in.Delta.Enabled && in.Delta.DriftBound > 0 && in.Intervals != nil {
			out, used, err := solveDelta(ctx, compiled, in, opts, active, rel, res)
			if err != nil {
				return nil, err
			}
			if used {
				return out, nil
			}
		}
		return &DCFSRPartialResult{}, nil
	}

	// Cross-epoch warm seeds, resolved serially up front so the concurrent
	// fan-out only reads them.
	var seeds []mcfsolve.WarmStart
	if opts.WarmStart && in.Prev != nil {
		seeds = make([]mcfsolve.WarmStart, len(intervals))
		for k, iv := range intervals {
			if len(rel.comms[k]) == 0 {
				continue
			}
			seeds[k] = in.Prev.seedFor(iv, rel.comms[k])
			if seeds[k].Result != nil {
				res.SeededIntervals++
			}
		}
	}
	if err := solveIntervalRelaxation(ctx, compiled, in.Model, opts, rel, seeds); err != nil {
		return nil, err
	}
	for _, r := range rel.results {
		if r != nil {
			res.FWIters += r.Iters
		}
	}
	res.ResidualLowerBound = rel.fractional
	res.Intervals = len(intervals)
	res.State = &RelaxationState{
		Intervals: rel.intervals,
		Comms:     rel.comms,
		Results:   rel.results,
	}
	if in.Delta.Enabled {
		// Delta bookkeeping: one fingerprint per interval lets the next
		// epoch localize. Load vectors are left for the caller to refresh
		// once its admissions are in (see IntervalFingerprint.Load);
		// stamping changes nothing about this solve's outputs.
		res.State.Fingerprints = make([]IntervalFingerprint, len(intervals))
	}

	if err := freeCandidates(rel, active, res); err != nil {
		return nil, err
	}
	return res, nil
}

// freeCandidates is the shared tail of both epoch paths. It aggregates the
// free flows' candidate paths from rel into res.Candidates and records
// their residual densities in res.Rates. A free flow without a candidate
// makes the solve infeasible.
func freeCandidates(rel *relaxation, active []residual, res *DCFSRPartialResult) error {
	spans := make(map[flow.ID]float64, len(active))
	for _, r := range active {
		if !r.pinned {
			spans[r.f.ID] = r.f.Deadline - r.start
		}
	}
	interner := graph.NewPathInterner()
	cands := aggregateCandidates(rel, spans, interner)
	res.Candidates = make(map[flow.ID][]CandidatePath, len(spans))
	res.Rates = make(map[flow.ID]float64, len(spans))
	for _, r := range active {
		if r.pinned {
			continue
		}
		list := cands[r.f.ID]
		if len(list) == 0 {
			return fmt.Errorf("%w: flow %d received no candidate paths", ErrInfeasible, r.f.ID)
		}
		out := make([]CandidatePath, len(list))
		for i, c := range list {
			out[i] = CandidatePath{Path: interner.Path(c.handle), Weight: c.weight}
		}
		res.Candidates[r.f.ID] = out
		res.Rates[r.f.ID] = r.density
	}
	return nil
}

// relLoadDev is the drift metric of the delta path: the largest per-edge
// absolute load change, normalized by the larger of the two load peaks so
// the measure is scale-free. Zero when both vectors are all-zero.
func relLoadDev(old, cur []float64) float64 {
	var num, den float64
	for e := range cur {
		o := old[e]
		if d := math.Abs(cur[e] - o); d > num {
			num = d
		}
		if o > den {
			den = o
		}
		if cur[e] > den {
			den = cur[e]
		}
	}
	if den <= 0 {
		return 0
	}
	return num / den
}

// solveDelta is the localized epoch re-solve. The instance holds only the
// arrival batch (free), in.BaseLoad supplies the committed background load,
// and in.Prev's intervals identify which intervals the batch leaves
// untouched: an interval is touched when no previous interval shares its
// right breakpoint or when a batch flow covers it. Untouched intervals are
// reused verbatim — sound because a sub-interval of a previous interval
// inherits its rate-based solution, and every commodity of a previous epoch
// started at that epoch's Now, so coverage (hence the multiset) depends
// only on the shared right breakpoint. The solve declines — (nil, false,
// nil), caller falls back to a full re-plan — when an untouched interval
// exceeds the stale cap or its background load drifted past DriftBound;
// such an interval cannot be re-solved here because its commodities are not
// part of the batch-only instance.
func solveDelta(ctx context.Context, compiled *graph.Compiled, in DCFSRPartialInput, opts DCFSROptions, free []residual, rel *relaxation, res *DCFSRPartialResult) (*DCFSRPartialResult, bool, error) {
	prev := in.Prev
	if prev == nil || len(prev.Intervals) == 0 || len(prev.Fingerprints) != len(prev.Intervals) {
		return nil, false, nil
	}
	intervals := rel.intervals
	nE := in.Graph.NumEdges()
	K := len(intervals)
	touched := make([]bool, K)
	matched := make([]int, K)
	loads := make([][]float64, K)
	p := 0
	for k, iv := range intervals {
		for p < len(prev.Intervals) && prev.Intervals[p].End < iv.End-timeline.Eps {
			p++
		}
		matched[k] = -1
		if p < len(prev.Intervals) && math.Abs(prev.Intervals[p].End-iv.End) <= timeline.Eps {
			matched[k] = p
		}
		loads[k] = make([]float64, nE)
		in.BaseLoad(iv, loads[k])
		touched[k] = matched[k] < 0 || len(rel.comms[k]) > 0
	}

	var totalLen float64
	for _, iv := range intervals {
		totalLen += iv.Length()
	}
	var drift float64
	for k, iv := range intervals {
		if touched[k] {
			continue
		}
		fp := &prev.Fingerprints[matched[k]]
		if in.Delta.MaxStaleEpochs > 0 && fp.Stale+1 > in.Delta.MaxStaleEpochs {
			return nil, false, nil
		}
		if fp.Load == nil {
			continue // never stamped: nothing to measure drift against
		}
		d := relLoadDev(fp.Load, loads[k])
		if d > in.Delta.DriftBound {
			return nil, false, nil
		}
		if totalLen > 0 {
			drift += d * iv.Length() / totalLen
		}
	}

	state := &RelaxationState{
		Intervals:    intervals,
		Comms:        make([][]mcfsolve.Commodity, K),
		Results:      make([]*mcfsolve.Result, K),
		Fingerprints: make([]IntervalFingerprint, K),
	}
	// Warm seeding of touched intervals (gated behind opts.WarmStart like
	// every other warm mechanism): a touched interval tries the previous
	// epoch's time-aligned decomposition (seedFor — exact commodity-multiset
	// match required); a changed multiset always runs cold. Seeds are
	// resolved serially up front so the concurrent fan-out only reads them.
	var (
		todo  []int
		seeds []mcfsolve.WarmStart
	)
	for k, iv := range intervals {
		if !touched[k] {
			fp := prev.Fingerprints[matched[k]]
			state.Comms[k] = prev.Comms[matched[k]]
			state.Results[k] = prev.Results[matched[k]]
			// Load is carried over verbatim — NOT restamped — so drift keeps
			// accumulating against the last fully-solved snapshot.
			state.Fingerprints[k] = IntervalFingerprint{Load: fp.Load, Stale: fp.Stale + 1}
			res.ReusedIntervals++
			continue
		}
		state.Comms[k] = rel.comms[k]
		state.Fingerprints[k] = IntervalFingerprint{Load: loads[k]}
		if len(rel.comms[k]) == 0 {
			continue
		}
		var warm mcfsolve.WarmStart
		if opts.WarmStart {
			warm = prev.seedFor(iv, rel.comms[k])
		}
		if warm.Result != nil {
			res.SeededIntervals++
		}
		todo = append(todo, k)
		seeds = append(seeds, warm)
	}
	// Solve the touched intervals against their background loads, fanned
	// out across workers like a full solve's intervals.
	err := solveIntervals(ctx, compiled, in.Model, opts, len(todo), func(s *mcfsolve.Solver, i int) error {
		k := todo[i]
		r, err := s.SolveBaseWarmCtx(ctx, rel.comms[k], loads[k], seeds[i])
		if err != nil {
			return fmt.Errorf("delta interval %d: %w", k, err)
		}
		state.Results[k] = r
		return nil
	})
	if err != nil {
		return nil, false, err
	}
	for _, k := range todo {
		res.FWIters += state.Results[k].Iters
	}
	res.State = state
	res.Intervals = K
	res.DeltaUsed = true
	res.Drift = drift

	// Candidates come from the touched solves only: an untouched interval
	// holds no batch commodity (rel.comms[k] is empty there), and every
	// interval a batch flow covers is touched by construction.
	rel.results = state.Results
	if err := freeCandidates(rel, free, res); err != nil {
		return nil, false, err
	}
	return res, true, nil
}
