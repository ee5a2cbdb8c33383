package online

import (
	"context"
	"fmt"
	"math"
	"sort"

	"dcnflow/internal/core"
	"dcnflow/internal/decision"
	"dcnflow/internal/flow"
	"dcnflow/internal/graph"
	"dcnflow/internal/mcfsolve"
	"dcnflow/internal/power"
	"dcnflow/internal/schedule"
	"dcnflow/internal/sim"
	"dcnflow/internal/timeline"
)

// ReplanPolicy decides when the rolling-horizon scheduler re-optimises.
// Implementations must be deterministic functions of their inputs so runs
// are reproducible.
type ReplanPolicy interface {
	// NextBoundary returns the absolute time of the next scheduled epoch
	// boundary after a re-plan (or the run start) at now. +Inf disables
	// time-driven boundaries; arrivals then drive re-plans entirely via
	// BatchReady and the urgency guard.
	NextBoundary(now float64) float64
	// BatchReady reports whether the pending batch warrants an immediate
	// re-plan, given the number of queued arrivals.
	BatchReady(pending int) bool
}

// FixedPeriod re-plans every Period time units — the classic rolling
// horizon. Smaller periods admit arrivals sooner (less span compression)
// at the price of more epoch re-solves.
type FixedPeriod struct{ Period float64 }

// NextBoundary implements ReplanPolicy.
func (p FixedPeriod) NextBoundary(now float64) float64 { return now + p.Period }

// BatchReady implements ReplanPolicy: fixed-period epochs never re-plan
// early on batch size.
func (FixedPeriod) BatchReady(int) bool { return false }

// ArrivalCount re-plans as soon as N arrivals are queued. N = 1 degenerates
// to per-arrival re-optimisation (no batching delay, maximum solve count).
type ArrivalCount struct{ N int }

// NextBoundary implements ReplanPolicy: count-driven epochs have no
// time-driven boundary.
func (ArrivalCount) NextBoundary(float64) float64 { return math.Inf(1) }

// BatchReady implements ReplanPolicy.
func (p ArrivalCount) BatchReady(pending int) bool {
	n := p.N
	if n <= 0 {
		n = 1
	}
	return pending >= n
}

// RollingOptions tunes the rolling-horizon scheduler.
type RollingOptions struct {
	// Policy picks the re-plan trigger; default FixedPeriod with a period
	// of 1/50 of the horizon.
	Policy ReplanPolicy
	// DCFSR configures the epoch re-solves (solver options, WarmStart for
	// cross-epoch Frank–Wolfe seeding, parallelism, progress). The epoch
	// re-solve draws no path, so Seed and MaxRoundingAttempts are not read.
	DCFSR core.DCFSROptions
	// RejectOverCapacity enables admission control: a new flow whose
	// density does not fit under the link capacity C on its planned path
	// (given everything already committed) is rejected instead of admitted
	// over capacity.
	RejectOverCapacity bool
	// Recorder, when non-nil, receives a typed decision.Record at every
	// epoch boundary and per-flow admission decision, in decision order
	// (epoch order, then deadline-sorted batch order) with deterministic
	// sequence numbers — byte-identical logs at any DCFSR parallelism.
	// Nil disables tracing at zero cost.
	Recorder decision.Recorder
	// Overrides, when non-nil, forces specific decisions during a
	// counterfactual re-run (decision.Replay builds these): a forced path
	// replaces the candidate scoring.
	Overrides *decision.Overrides
	// Delta enables the sensitivity-bounded incremental re-solve: epochs
	// whose arrival batch touches only some intervals reuse the previous
	// epoch's relaxation state for the rest and solve the batch against the
	// committed load as a fixed background. Off by default; the zero value
	// keeps every epoch a full re-plan, and DriftBound = 0 keeps the delta
	// path disabled even with Enabled set (see core.DeltaOptions).
	Delta core.DeltaOptions
}

func (o RollingOptions) withDefaults(horizon timeline.Interval) RollingOptions {
	if o.Policy == nil {
		p := horizon.Length() / 50
		if p <= 0 {
			p = 1
		}
		o.Policy = FixedPeriod{Period: p}
	}
	return o
}

// maxDelayFraction bounds how long an arrival may wait for the next
// boundary: a flow is force-planned once this fraction of its span has
// elapsed since release, whatever the policy says. Waiting compresses the
// residual span (raising the density rate and its energy), so the guard
// caps the compression; it also guarantees short-span flows are admitted
// before their deadline becomes unreachable.
const maxDelayFraction = 0.25

// RollingStats aggregates per-epoch diagnostics of one rolling run.
type RollingStats struct {
	// Epochs counts re-plan boundaries that actually solved something.
	Epochs int
	// FWIters is the total Frank–Wolfe iterations across every epoch's
	// interval solves — the cost driver of the re-optimizer; compare warm
	// vs cold runs on slowly-varying workloads.
	FWIters int
	// SeededIntervals counts interval solves warm-seeded from the previous
	// epoch's decompositions.
	SeededIntervals int
	// SolvedIntervals counts interval solves across all epochs.
	SolvedIntervals int
	// DeltaEpochs counts the epochs handled by the incremental delta path
	// (a subset of Epochs); ReusedIntervals counts the interval solves those
	// epochs skipped by carrying the previous state verbatim.
	DeltaEpochs, ReusedIntervals int
	// Admitted and Rejected count flows.
	Admitted, Rejected int
	// FirstResidualLB is the residual relaxation value of the first epoch
	// (the full remaining horizon at that instant; the first epoch is
	// always a full one) — a diagnostic, not a certified bound (see
	// core.DCFSRPartialResult.ResidualLowerBound), and not comparable to
	// the offline clairvoyant LowerBound.
	FirstResidualLB float64
}

// RollingResult is the outcome of a rolling-horizon run.
type RollingResult struct {
	// Schedule covers every admitted flow.
	Schedule *schedule.Schedule
	// Stats aggregates the epoch diagnostics.
	Stats RollingStats
	// RejectedIDs lists flows refused by admission control, ascending.
	RejectedIDs []flow.ID
}

// commitment is one admitted flow's irrevocable state: the pinned path and
// the frozen (possibly load-shaped) rate profile.
type commitment struct {
	f        flow.Flow
	path     graph.Path
	nominal  float64 // residual density at admission: the relaxation demand
	segments []schedule.RateSegment
}

// transmittedBy integrates the frozen profile up to t.
func (c *commitment) transmittedBy(t float64) float64 {
	var sum float64
	for _, seg := range c.segments {
		if seg.Interval.End <= t {
			sum += seg.Rate * seg.Interval.Length()
		} else if seg.Interval.Start < t {
			sum += seg.Rate * (t - seg.Interval.Start)
		}
	}
	return sum
}

// RollingScheduler is the rolling-horizon online DCFSR scheduler — the
// re-optimizing big sibling of the marginal-cost greedy Scheduler. Arrivals
// are queued into the current epoch; at each epoch boundary (fixed period
// or arrival count — see ReplanPolicy) the Random-Schedule relaxation is
// re-run over the remaining horizon via core.SolveDCFSRPartialCtx with
// every in-flight flow's path and transmitted data frozen, and the queued
// arrivals are routed on the resulting candidate distributions. With
// DCFSR.WarmStart set, each epoch's per-interval Frank–Wolfe solves are
// seeded from the previous epoch's decompositions — consecutive residual
// instances are near-identical, which is exactly the workload warm starts
// pay on.
//
// RollingScheduler implements sim.OnlineEngine; drive it with
// sim.ReplayOnline or call Arrive/AdvanceTo/Finish directly in release
// order. The zero value is not usable; use NewRollingCtx.
type RollingScheduler struct {
	g *graph.Graph
	// compiled is the graph's artifact bundle, compiled once at
	// construction and reused by every epoch re-solve; pool feeds the
	// epoch solves reusable F-MCF solvers the same way (unless the caller
	// already supplied one via DCFSR.Solvers). Both are speed levers only.
	compiled *graph.Compiled
	model    power.Model
	horizon  timeline.Interval
	opts     RollingOptions
	// ctx bounds the run: every epoch re-solve checks it first and the
	// Frank–Wolfe solves inside observe it per iteration. The engine stores
	// it (against the usual convention) because the sim.OnlineEngine methods
	// Arrive/AdvanceTo/Finish — where re-plans actually fire — carry no
	// context of their own.
	ctx context.Context

	now          float64
	nextBoundary float64
	urgent       float64 // earliest forced re-plan among pending arrivals

	bset      timeline.BreakpointSet
	pending   []flow.Flow
	committed map[flow.ID]*commitment
	res       map[graph.EdgeID]*reservation
	sched     *schedule.Schedule
	prev      *core.RelaxationState

	// Delta-mode bookkeeping: accumDrift sums the load drift absorbed since
	// the last full re-plan and sinceFull counts the delta epochs in the
	// current streak; either crossing its bound forces the next epoch full.
	accumDrift float64
	sinceFull  int

	stats    RollingStats
	rejected []flow.ID
	finished bool
	recSeq   int
}

// record stamps the next sequence number on rec and emits it; call only when
// a recorder is configured. Records are built and emitted serially in the
// epoch admission loop (deadline-sorted batch order), so sequence numbers
// never depend on solver parallelism.
func (s *RollingScheduler) record(rec decision.Record) {
	rec.Seq = s.recSeq
	s.recSeq++
	s.opts.Recorder.Record(rec)
}

// pathMarginalEnergy sums the exact marginal energy of reserving rate d over
// [a, b] on every edge of p, against the current reservations — the same
// metric bestPath ranks candidates by.
func (s *RollingScheduler) pathMarginalEnergy(p graph.Path, a, b, d float64) float64 {
	var sum float64
	for _, eid := range p.Edges {
		sum += s.res[eid].marginalEnergy(a, b, d, s.cost)
	}
	return sum
}

// alternatives scores the unchosen relaxation candidates for one admission
// record, best (highest relaxation weight) first, capped at maxAlternatives.
func (s *RollingScheduler) alternatives(chosen graph.Path, cands []core.CandidatePath, a, b, d float64) []decision.Alternative {
	var alts []decision.Alternative
	for _, c := range cands {
		if graph.ComparePathKeys(c.Path.Edges, chosen.Edges) == 0 {
			continue
		}
		alts = append(alts, decision.Alternative{
			Path:           c.Path.Edges,
			Weight:         c.Weight,
			MarginalEnergy: s.pathMarginalEnergy(c.Path, a, b, d),
		})
		if len(alts) == maxAlternatives {
			break
		}
	}
	return alts
}

// maxAlternatives caps the candidate paths recorded per admission; the
// relaxation distribution is weight-sorted, so the head is what a replay
// would try anyway.
const maxAlternatives = 3

// NewRollingCtx creates a rolling-horizon scheduler over the given
// horizon. Once ctx ends, the next epoch boundary (and every Frank–Wolfe
// iteration of a re-solve already in flight) aborts the run with the
// wrapped context error. A nil ctx is treated as context.Background().
func NewRollingCtx(ctx context.Context, g *graph.Graph, model power.Model, horizon timeline.Interval, opts RollingOptions) (*RollingScheduler, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if g == nil {
		return nil, fmt.Errorf("%w: nil graph", ErrBadInput)
	}
	if err := model.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadInput, err)
	}
	if horizon.Empty() {
		return nil, fmt.Errorf("%w: empty horizon %v", ErrBadInput, horizon)
	}
	opts = opts.withDefaults(horizon)
	nextBoundary, err := checkBoundary(opts.Policy, horizon.Start)
	if err != nil {
		return nil, err
	}
	compiled := graph.Compile(g)
	if opts.DCFSR.Solvers == nil || !opts.DCFSR.Solvers.Matches(g, model, opts.DCFSR.Solver) {
		// Compile-once/solve-many across epochs: one pool of F-MCF solvers
		// feeds every epoch's per-interval fan-out, so consecutive re-plans
		// recycle scratch instead of reallocating it. Pooling never affects
		// results, so installing it here is invisible to callers.
		pool, err := mcfsolve.NewPoolCompiled(compiled, model, opts.DCFSR.Solver)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadInput, err)
		}
		opts.DCFSR.Solvers = pool
	}
	return &RollingScheduler{
		g:            g,
		compiled:     compiled,
		model:        model,
		horizon:      horizon,
		opts:         opts,
		ctx:          ctx,
		now:          horizon.Start,
		nextBoundary: nextBoundary,
		urgent:       math.Inf(1),
		committed:    make(map[flow.ID]*commitment),
		res:          make(map[graph.EdgeID]*reservation),
		sched:        schedule.New(horizon),
	}, nil
}

// checkBoundary returns the policy's next boundary after now. A boundary
// that is neither +Inf nor more than timeline.Eps past now is ErrBadInput:
// AdvanceTo would re-plan at it forever (NaN, or a non-advancing value) or
// step forward by less than the time resolution per empty epoch.
func checkBoundary(p ReplanPolicy, now float64) (float64, error) {
	nb := p.NextBoundary(now)
	if !math.IsInf(nb, 1) && !(nb > now+timeline.Eps) {
		return 0, fmt.Errorf("%w: replan policy boundary %v does not advance past %v", ErrBadInput, nb, now)
	}
	return nb, nil
}

// Stats returns the accumulated epoch diagnostics.
func (s *RollingScheduler) Stats() RollingStats { return s.stats }

// cost is the admission-scoring metric: the full power function when idle
// power is charged (consolidation matters), the dynamic part otherwise.
func (s *RollingScheduler) cost(x float64) float64 {
	if s.model.Sigma > 0 {
		return s.model.F(x)
	}
	return s.model.G(x)
}

// Arrive queues one newly released flow for the next epoch re-solve. Flows
// must arrive in non-decreasing release order (interleave with AdvanceTo).
func (s *RollingScheduler) Arrive(f flow.Flow) error {
	if s.finished {
		return fmt.Errorf("%w: Arrive after Finish", ErrBadInput)
	}
	if err := f.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadInput, err)
	}
	if f.Release < s.now-timeline.Eps {
		return fmt.Errorf("%w: flow %d released at %v arrived at %v (out of order)", ErrBadInput, f.ID, f.Release, s.now)
	}
	if _, dup := s.committed[f.ID]; dup {
		return fmt.Errorf("%w: flow %d already admitted", ErrBadInput, f.ID)
	}
	// A same-ID flow already queued into this epoch would be planned twice:
	// the second commitment overwrites the first while the first's
	// reservation stays leaked on its links.
	for _, q := range s.pending {
		if q.ID == f.ID {
			return fmt.Errorf("%w: flow %d already queued for the next epoch", ErrBadInput, f.ID)
		}
	}
	if err := s.AdvanceTo(f.Release); err != nil {
		return err
	}
	s.pending = append(s.pending, f)
	s.bset.Insert(f.Deadline)
	// Urgency guard: this arrival must be planned before maxDelayFraction
	// of its span elapses.
	if u := f.Release + maxDelayFraction*f.Span(); u < s.urgent {
		s.urgent = u
	}
	if s.opts.Policy.BatchReady(len(s.pending)) {
		return s.replan(s.now)
	}
	return nil
}

// AdvanceTo moves simulated time forward to t, running every epoch re-solve
// due on the way (scheduled boundaries and urgency-guard deadlines, in
// order).
func (s *RollingScheduler) AdvanceTo(t float64) error {
	if s.finished {
		return fmt.Errorf("%w: AdvanceTo after Finish", ErrBadInput)
	}
	for {
		due := math.Min(s.nextBoundary, s.urgent)
		if due > t || math.IsInf(due, 1) {
			break
		}
		if err := s.replan(math.Max(due, s.now)); err != nil {
			return err
		}
	}
	if t > s.now {
		s.now = t
	}
	return nil
}

// Finish force-plans any still-queued arrivals, assembles the final
// schedule from the commitments (each flow's transmitted prefix plus its
// last re-balanced suffix), and returns it.
func (s *RollingScheduler) Finish() (*schedule.Schedule, error) {
	if !s.finished {
		if len(s.pending) > 0 {
			if err := s.replan(s.now); err != nil {
				return nil, err
			}
		}
		ids := make([]flow.ID, 0, len(s.committed))
		for id := range s.committed {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
		for _, id := range ids {
			c := s.committed[id]
			if err := s.sched.SetFlow(&schedule.FlowSchedule{
				FlowID: id, Path: c.path, Segments: mergeSegments(c.segments),
			}); err != nil {
				return nil, fmt.Errorf("online: installing flow %d: %w", id, err)
			}
		}
		s.sched.AssignPriorities()
		s.finished = true
	}
	return s.sched, nil
}

// mergeSegments coalesces adjacent equal-rate pieces left behind by
// epoch-boundary splits.
func mergeSegments(segs []schedule.RateSegment) []schedule.RateSegment {
	out := make([]schedule.RateSegment, 0, len(segs))
	for _, seg := range segs {
		if n := len(out); n > 0 && math.Abs(out[n-1].Rate-seg.Rate) < 1e-12 &&
			math.Abs(out[n-1].Interval.End-seg.Interval.Start) <= timeline.Eps {
			out[n-1].Interval.End = seg.Interval.End
			continue
		}
		out = append(out, seg)
	}
	return out
}

// Result finalises the run and packages the schedule with the diagnostics.
func (s *RollingScheduler) Result() (*RollingResult, error) {
	sched, err := s.Finish()
	if err != nil {
		return nil, err
	}
	ids := make([]flow.ID, len(s.rejected))
	copy(ids, s.rejected)
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	return &RollingResult{Schedule: sched, Stats: s.stats, RejectedIDs: ids}, nil
}

// replan is one epoch boundary at time tau: re-solve the residual instance
// with frozen commitments, then admit the queued arrivals on the resulting
// paths.
func (s *RollingScheduler) replan(tau float64) error {
	// Cancellation boundary: one epoch is the promised response granularity
	// of a rolling run; the Frank–Wolfe iteration checks inside the partial
	// solve bound the latency within an epoch already solving.
	if err := s.ctx.Err(); err != nil {
		return fmt.Errorf("online: epoch re-solve at %v interrupted: %w", tau, err)
	}
	s.now = tau
	nb, err := checkBoundary(s.opts.Policy, tau)
	if err != nil {
		// The constructor can only vet the first boundary.
		return err
	}
	s.nextBoundary = nb
	s.urgent = math.Inf(1)

	// Reservation history wholly before tau can never affect a future
	// marginal-energy or capacity query (all later windows start at tau);
	// dropping it bounds memory and per-epoch scan work on long-running
	// horizons, mirroring timeline.BreakpointSet.Prune.
	for _, r := range s.res {
		r.prune(tau)
	}

	// Sensitivity-bounded delta epoch: with a previous fingerprinted state
	// and the streak within its drift and staleness budgets, try to localize
	// the re-plan to the intervals the arrival batch touches. A decline
	// (drift past the bound, stale intervals, unmatched grid) falls through
	// to the full re-plan below.
	if d := s.opts.Delta; d.Enabled && d.DriftBound > 0 && s.prev != nil &&
		len(s.prev.Fingerprints) > 0 && s.accumDrift <= d.DriftBound &&
		(d.MaxStaleEpochs <= 0 || s.sinceFull < d.MaxStaleEpochs) {
		ok, err := s.replanDelta(tau)
		if err != nil || ok {
			return err
		}
	}

	// Collect the active residual instance: in-flight commitments plus the
	// queued arrivals. Completed commitments drop out of the pinned set.
	var (
		flows  []flow.Flow
		pinned = make(map[flow.ID]core.PinnedCommitment)
	)
	for _, c := range s.committed {
		transmitted := c.transmittedBy(tau)
		if c.f.Deadline <= tau+timeline.Eps || transmitted >= c.f.Size*(1-1e-12) {
			continue // completed
		}
		flows = append(flows, c.f)
		pinned[c.f.ID] = core.PinnedCommitment{
			Path:        c.path,
			Transmitted: transmitted,
			Demand:      c.nominal,
		}
	}
	flows = append(flows, s.pending...)
	if len(flows) == 0 {
		return nil
	}

	// Incremental re-segmentation of the remaining horizon: deadlines were
	// inserted at arrival; stale past breakpoints are pruned, never
	// re-sorted.
	s.bset.Prune(tau)
	intervals := s.bset.IntervalsFrom(tau)

	res, err := core.SolveDCFSRPartialCtx(s.ctx, core.DCFSRPartialInput{
		Graph:     s.g,
		Compiled:  s.compiled,
		Flows:     flows,
		Model:     s.model,
		Now:       tau,
		Pinned:    pinned,
		Intervals: intervals,
		Prev:      s.prev,
		Delta:     s.opts.Delta,
		Opts:      s.opts.DCFSR,
	})
	if err != nil {
		return fmt.Errorf("online: epoch re-solve at %v: %w", tau, err)
	}
	s.prev = res.State
	s.stats.Epochs++
	s.stats.FWIters += res.FWIters
	s.stats.SeededIntervals += res.SeededIntervals
	s.stats.SolvedIntervals += res.Intervals
	if s.stats.Epochs == 1 {
		s.stats.FirstResidualLB = res.ResidualLowerBound
	}
	if s.opts.DCFSR.Progress != nil {
		s.opts.DCFSR.Progress(core.ProgressEvent{
			Stage: "epoch", Index: s.stats.Epochs, FWIters: res.FWIters, Time: tau,
		})
	}

	if err := s.admitBatch(tau, res, "boundary"); err != nil {
		return err
	}
	// With every arrival placed, re-level the future of the whole system.
	s.rebalance(tau)
	// A full epoch resets the delta streak and re-anchors the drift
	// baselines at the post-rebalance reservations.
	s.sinceFull = 0
	s.accumDrift = 0
	if s.opts.Delta.Enabled {
		s.stampLoads(res.State, false)
	}
	return nil
}

// admitBatch admits the queued arrivals on their planned paths, most urgent
// first — the shared tail of the full and delta epoch boundaries. reason
// labels the epoch's replan record ("boundary" or "delta").
func (s *RollingScheduler) admitBatch(tau float64, res *core.DCFSRPartialResult, reason string) error {
	batch := s.pending
	s.pending = nil
	sort.Slice(batch, func(a, b int) bool {
		if batch[a].Deadline != batch[b].Deadline {
			return batch[a].Deadline < batch[b].Deadline
		}
		return batch[a].ID < batch[b].ID
	})
	if s.opts.Recorder != nil {
		s.record(decision.Record{
			Time: tau, Epoch: s.stats.Epochs, Kind: decision.KindReplan,
			Flow: decision.NoFlow, Reason: reason, Pending: len(batch),
		})
	}
	for _, f := range batch {
		rate := res.Rates[f.ID]
		cands, ok := res.Candidates[f.ID]
		if !ok || rate <= 0 {
			return fmt.Errorf("%w: epoch at %v produced no plan for flow %d", ErrBadInput, tau, f.ID)
		}
		p := s.bestPath(f, rate, cands, tau)
		reason := "marginal-cost"
		if forced, fok := s.opts.Overrides.ForcedPath(f.ID); fok {
			if err := forced.Validate(s.g, f.Src, f.Dst); err != nil {
				return fmt.Errorf("%w: forced path for flow %d: %v", ErrBadInput, f.ID, err)
			}
			p = forced
			reason = "forced"
		}
		// The frozen rate profile: load-shaped against the committed
		// reservations on the chosen path, or the flat residual density.
		segs := s.shapeRates(p, tau, f.Deadline, rate*(f.Deadline-tau))
		if segs == nil {
			if s.opts.RejectOverCapacity && s.model.Capped() && !s.fits(p, rate, tau, f.Deadline) {
				if s.opts.Recorder != nil {
					s.record(decision.Record{
						Time: tau, Epoch: s.stats.Epochs, Kind: decision.KindReject,
						Flow: f.ID, Reason: "over-capacity", Slack: f.Deadline - tau,
					})
				}
				s.rejected = append(s.rejected, f.ID)
				s.stats.Rejected++
				continue
			}
			segs = []schedule.RateSegment{{
				Interval: timeline.Interval{Start: tau, End: f.Deadline},
				Rate:     rate,
			}}
		}
		if s.opts.Recorder != nil {
			// Score choice and candidates against the pre-reserve state —
			// exactly the metric bestPath compared them on.
			s.record(decision.Record{
				Time: tau, Epoch: s.stats.Epochs, Kind: decision.KindAdmit,
				Flow: f.ID, Reason: reason, Path: p.Edges, Rate: rate,
				MarginalEnergy: s.pathMarginalEnergy(p, tau, f.Deadline, rate),
				Slack:          f.Deadline - tau,
				Alternatives:   s.alternatives(p, cands, tau, f.Deadline, rate),
			})
		}
		s.reserve(p, segs, 1)
		s.committed[f.ID] = &commitment{f: f, path: p, nominal: rate, segments: segs}
		s.stats.Admitted++
	}
	return nil
}

// replanDelta is the localized epoch boundary: the arrival batch is solved
// against the committed load as a fixed background (no pinned commodities),
// touching only the intervals the batch covers, while the previous epoch's
// state carries every other interval verbatim. Returns false when the core
// declines (drift past the bound, stale or unmatched intervals) and the
// caller must run the full re-plan instead.
func (s *RollingScheduler) replanDelta(tau float64) (bool, error) {
	if len(s.pending) == 0 {
		// Nothing to place: the previous plan is still exact, and invoking
		// the solver on an empty instance would only wipe the carried state.
		return true, nil
	}
	s.bset.Prune(tau)
	intervals := s.bset.IntervalsFrom(tau)
	res, err := core.SolveDCFSRPartialCtx(s.ctx, core.DCFSRPartialInput{
		Graph:     s.g,
		Compiled:  s.compiled,
		Flows:     s.pending,
		Model:     s.model,
		Now:       tau,
		Intervals: intervals,
		Prev:      s.prev,
		BaseLoad:  s.baseLoadDuring,
		Delta:     s.opts.Delta,
		Opts:      s.opts.DCFSR,
	})
	if err != nil {
		return false, fmt.Errorf("online: delta re-solve at %v: %w", tau, err)
	}
	if !res.DeltaUsed {
		return false, nil
	}
	s.prev = res.State
	s.stats.Epochs++
	s.stats.DeltaEpochs++
	s.stats.FWIters += res.FWIters
	s.stats.SeededIntervals += res.SeededIntervals
	s.stats.SolvedIntervals += res.Intervals - res.ReusedIntervals
	s.stats.ReusedIntervals += res.ReusedIntervals
	s.accumDrift += res.Drift
	s.sinceFull++
	if s.opts.DCFSR.Progress != nil {
		s.opts.DCFSR.Progress(core.ProgressEvent{
			Stage: "epoch-delta", Index: s.stats.Epochs, FWIters: res.FWIters, Time: tau,
		})
	}
	if err := s.admitBatch(tau, res, "delta"); err != nil {
		return false, err
	}
	// No rebalance here: reshaping in-flight profiles would shift the very
	// loads the reused intervals were solved against. The next full epoch
	// re-levels the whole system.
	s.stampLoads(res.State, true)
	return true, nil
}

// stampLoads refreshes the per-interval load fingerprints of st from the
// reservations as they stand after this epoch's admissions (and rebalance,
// when one ran) — the baseline the next delta epoch measures drift against.
// freshOnly limits the stamp to intervals this epoch actually re-solved, so
// reused intervals stay anchored at their last solved snapshot and drift
// accumulates instead of being hidden.
func (s *RollingScheduler) stampLoads(st *core.RelaxationState, freshOnly bool) {
	if st == nil || len(st.Fingerprints) != len(st.Intervals) {
		return
	}
	for k := range st.Fingerprints {
		fp := &st.Fingerprints[k]
		if freshOnly && fp.Stale > 0 {
			continue
		}
		if fp.Load == nil {
			fp.Load = make([]float64, s.g.NumEdges())
		}
		s.baseLoadDuring(st.Intervals[k], fp.Load)
	}
}

// baseLoadDuring writes the committed per-edge load during iv into out —
// the background the delta path solves an arrival batch against. Committed
// reservations only change rate at past admission instants (all ≤ now ≤
// iv.Start) and at flow deadlines (all grid breakpoints), so they are
// constant within iv and the midpoint sample is exact.
func (s *RollingScheduler) baseLoadDuring(iv timeline.Interval, out []float64) {
	for i := range out {
		out[i] = 0
	}
	mid := (iv.Start + iv.End) / 2
	for eid, r := range s.res {
		out[eid] = r.rateAt(mid)
	}
}

// reserve adds (sign +1) or releases (sign -1) a rate profile on every
// link of a path.
func (s *RollingScheduler) reserve(p graph.Path, segs []schedule.RateSegment, sign float64) {
	for _, seg := range segs {
		for _, eid := range p.Edges {
			r := s.res[eid]
			if r == nil {
				r = &reservation{}
				s.res[eid] = r
			}
			r.add(seg.Interval.Start, seg.Interval.End, sign*seg.Rate)
		}
	}
}

// splitAt cuts a frozen profile at time tau into the immutable transmitted
// prefix and the still-replannable suffix.
func splitAt(segs []schedule.RateSegment, tau float64) (prefix, suffix []schedule.RateSegment) {
	for _, seg := range segs {
		switch {
		case seg.Interval.End <= tau+timeline.Eps:
			prefix = append(prefix, seg)
		case seg.Interval.Start >= tau-timeline.Eps:
			suffix = append(suffix, seg)
		default:
			pre, post := seg, seg
			pre.Interval.End = tau
			post.Interval.Start = tau
			prefix = append(prefix, pre)
			suffix = append(suffix, post)
		}
	}
	return prefix, suffix
}

// rebalance re-optimises the future rate profiles of every in-flight
// commitment at the epoch boundary tau — the decisions that are NOT frozen:
// paths and transmitted prefixes stay fixed, but each flow's remaining data
// is re-shaped against the current committed load. One ascending-ID sweep
// of exact single-flow water-fills is a block-coordinate-descent step on
// the convex rate-allocation problem for the fixed routing; arrivals that
// came after a flow's admission are what make this worthwhile, and it is
// the capability the irrevocable greedy fundamentally lacks.
func (s *RollingScheduler) rebalance(tau float64) {
	ids := make([]flow.ID, 0, len(s.committed))
	for id, c := range s.committed {
		if c.f.Deadline > tau+timeline.Eps {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	for _, id := range ids {
		c := s.committed[id]
		prefix, oldSuffix := splitAt(c.segments, tau)
		var transmitted float64
		for _, seg := range prefix {
			transmitted += seg.Rate * seg.Interval.Length()
		}
		w := c.f.Size - transmitted
		if w <= c.f.Size*1e-12 || len(oldSuffix) == 0 {
			continue
		}
		s.reserve(c.path, oldSuffix, -1)
		newSuffix := s.shapeRates(c.path, tau, c.f.Deadline, w)
		if newSuffix == nil {
			newSuffix = oldSuffix
		}
		s.reserve(c.path, newSuffix, 1)
		c.segments = append(prefix, newSuffix...)
	}
}

// shapeRates computes the energy-minimal frozen transmission profile for
// one new flow on path p over [a, b]: minimize the marginal dynamic energy
//
//	∫ sum_e [g(cur_e(t) + x(t)) − g(cur_e(t))] dt
//
// subject to ∫ x dt = w and 0 ≤ x(t) ≤ C − max_e cur_e(t), where cur_e is
// the committed load already reserved on edge e. The optimum is a
// water-filling: on every transmitting segment the aggregate marginal cost
// sum_e g'(cur_e + x) equals a common level λ, so the flow pushes harder
// through load troughs and backs off under peaks — the temporal twin of
// the spatial load balancing the relaxation does across paths. With an
// idle committed path the profile degenerates to the flat density w/(b−a).
//
// It returns nil when shaping is impossible under the capacity bound (the
// caller falls back to the flat profile and its admission control).
func (s *RollingScheduler) shapeRates(p graph.Path, a, b, w float64) []schedule.RateSegment {
	if b-a <= timeline.Eps || w <= 0 {
		return nil
	}
	// Segment the window at every committed rate change on the path.
	times := []float64{a, b}
	for _, eid := range p.Edges {
		if r := s.res[eid]; r != nil {
			for _, seg := range r.segs {
				if seg.Interval.Start > a && seg.Interval.Start < b {
					times = append(times, seg.Interval.Start)
				}
				if seg.Interval.End > a && seg.Interval.End < b {
					times = append(times, seg.Interval.End)
				}
			}
		}
	}
	bounds := timeline.Breakpoints(times)
	type piece struct {
		iv   timeline.Interval
		cur  []float64 // committed rate per path edge
		xmax float64   // capacity headroom
	}
	pieces := make([]piece, 0, len(bounds)-1)
	var capTotal float64
	for i := 0; i+1 < len(bounds); i++ {
		pc := piece{
			iv:   timeline.Interval{Start: bounds[i], End: bounds[i+1]},
			cur:  make([]float64, len(p.Edges)),
			xmax: math.Inf(1),
		}
		mid := (pc.iv.Start + pc.iv.End) / 2
		var peak float64
		for j, eid := range p.Edges {
			if r := s.res[eid]; r != nil {
				pc.cur[j] = r.rateAt(mid)
			}
			if pc.cur[j] > peak {
				peak = pc.cur[j]
			}
		}
		if s.model.Capped() {
			pc.xmax = s.model.C - peak
			if pc.xmax < 0 {
				pc.xmax = 0
			}
		}
		capTotal += pc.xmax * pc.iv.Length()
		pieces = append(pieces, pc)
	}
	if capTotal < w*(1-1e-9) {
		return nil // cannot fit under capacity even with shaping
	}
	// marginal is the aggregate marginal cost of pushing rate x through a
	// piece; strictly increasing in x (g is strictly convex).
	marginal := func(pc *piece, x float64) float64 {
		var m float64
		for _, c := range pc.cur {
			m += s.model.GDeriv(c + x)
		}
		return m
	}
	density := w / (b - a)
	hiX := density
	for _, pc := range pieces {
		if pc.xmax < math.Inf(1) && pc.xmax > hiX {
			hiX = pc.xmax
		}
	}
	if !s.model.Capped() {
		// Uncapped: the level never needs to push a piece beyond delivering
		// the whole residual in that piece alone.
		for _, pc := range pieces {
			if x := w / pc.iv.Length(); x > hiX {
				hiX = x
			}
		}
	}
	// rateAtLevel inverts marginal on [0, min(xmax, hiX)] by bisection.
	rateAtLevel := func(pc *piece, lambda float64) float64 {
		hi := math.Min(pc.xmax, hiX)
		if hi <= 0 || marginal(pc, 0) >= lambda {
			return 0
		}
		if marginal(pc, hi) <= lambda {
			return hi
		}
		lo := 0.0
		for i := 0; i < 60; i++ {
			mid := (lo + hi) / 2
			if marginal(pc, mid) < lambda {
				lo = mid
			} else {
				hi = mid
			}
		}
		return (lo + hi) / 2
	}
	delivered := func(lambda float64) float64 {
		var sum float64
		for i := range pieces {
			sum += rateAtLevel(&pieces[i], lambda) * pieces[i].iv.Length()
		}
		return sum
	}
	// Bisect the water level λ until the profile delivers w.
	loL, hiL := math.Inf(1), 0.0
	for i := range pieces {
		if m0 := marginal(&pieces[i], 0); m0 < loL {
			loL = m0
		}
		if mh := marginal(&pieces[i], math.Min(pieces[i].xmax, hiX)); mh > hiL {
			hiL = mh
		}
	}
	for i := 0; i < 80; i++ {
		mid := (loL + hiL) / 2
		if delivered(mid) < w {
			loL = mid
		} else {
			hiL = mid
		}
	}
	lambda := hiL
	// Assemble, rescaling the bisection residue onto the transmitting
	// pieces so the profile delivers exactly w.
	rates := make([]float64, len(pieces))
	var total float64
	for i := range pieces {
		rates[i] = rateAtLevel(&pieces[i], lambda)
		total += rates[i] * pieces[i].iv.Length()
	}
	if total <= 0 {
		return nil
	}
	scale := w / total
	var out []schedule.RateSegment
	for i, pc := range pieces {
		x := rates[i] * scale
		if x <= 1e-12 {
			continue
		}
		if s.model.Capped() && x > pc.xmax {
			x = pc.xmax // scale may nudge a saturated piece past headroom
		}
		out = append(out, schedule.RateSegment{Interval: pc.iv, Rate: x})
	}
	if len(out) == 0 {
		return nil
	}
	return mergeSegments(out)
}

// fits reports whether reserving rate d over [a, b] on every link of p
// stays under the model's capacity given the current commitments.
func (s *RollingScheduler) fits(p graph.Path, d, a, b float64) bool {
	for _, eid := range p.Edges {
		var cur float64
		if r := s.res[eid]; r != nil {
			cur = r.maxDuring(a, b)
		}
		if cur+d > s.model.C*(1+1e-9) {
			return false
		}
	}
	return true
}

// bestPath picks the admission path for one new flow: every relaxation
// candidate — plus the marginal-cost shortest path as a safety net — is
// scored by the exact marginal energy of reserving rate d over
// [tau, f.Deadline] against the current commitments, and the cheapest
// fitting path wins. The relaxation supplies globally load-aware candidates
// (its fractional solve saw every active flow and the whole remaining
// horizon); the exact scoring then replaces a single randomized draw with
// the locally optimal member of that set — strictly better information
// than the greedy's span-maximum heuristic. Near-ties keep the earlier
// entry (candidates arrive weight-sorted, the safety net goes last), so
// the choice is deterministic.
func (s *RollingScheduler) bestPath(f flow.Flow, d float64, cands []core.CandidatePath, tau float64) graph.Path {
	paths := make([]graph.Path, 0, len(cands)+1)
	for _, c := range cands {
		paths = append(paths, c.Path)
	}
	if fb, err := s.g.ShortestPathWeighted(f.Src, f.Dst, func(e graph.Edge) float64 {
		return s.res[e.ID].marginalEnergy(tau, f.Deadline, d, s.cost) + 1e-9
	}); err == nil {
		dup := false
		for _, p := range paths {
			if graph.ComparePathKeys(p.Edges, fb.Edges) == 0 {
				dup = true
				break
			}
		}
		if !dup {
			paths = append(paths, fb)
		}
	}
	checkCap := s.opts.RejectOverCapacity && s.model.Capped()
	bestIdx := -1
	bestScore := math.Inf(1)
	anyFits := false
	for i, p := range paths {
		ok := !checkCap || s.fits(p, d, tau, f.Deadline)
		if checkCap && anyFits && !ok {
			continue // never trade a fitting path for a rejected one
		}
		sc := s.pathMarginalEnergy(p, tau, f.Deadline, d)
		if bestIdx == -1 || (ok && !anyFits) || sc < bestScore-1e-9*(1+bestScore) {
			bestIdx, bestScore, anyFits = i, sc, ok || anyFits
		}
	}
	return paths[bestIdx]
}

// RunRollingCtx replays a whole flow set through the rolling-horizon
// scheduler via the event-driven simulator and returns the validated
// outcome — the offline-comparable entry point, mirroring RunCtx for the
// greedy scheduler. The replay aborts with the wrapped context error at the
// first epoch boundary after ctx ends (or within one Frank–Wolfe iteration
// of a re-solve already in flight). A non-nil horizon overrides the run
// window (it must contain the flow span — a wider window changes the
// default FixedPeriod replan cadence and the idle-energy accounting span);
// nil derives it from the flows.
func RunRollingCtx(ctx context.Context, g *graph.Graph, flows *flow.Set, model power.Model, horizon *timeline.Interval, opts RollingOptions) (*RollingResult, *sim.ReplayResult, error) {
	if flows == nil {
		return nil, nil, fmt.Errorf("%w: nil flows", ErrBadInput)
	}
	t0, t1 := flows.Horizon()
	window := timeline.Interval{Start: t0, End: t1}
	if horizon != nil {
		window = *horizon
	}
	rs, err := NewRollingCtx(ctx, g, model, window, opts)
	if err != nil {
		return nil, nil, err
	}
	rep, err := sim.ReplayOnline(g, flows, model, rs, sim.Options{})
	if err != nil {
		return nil, nil, err
	}
	res, err := rs.Result()
	if err != nil {
		return nil, nil, err
	}
	return res, rep, nil
}
