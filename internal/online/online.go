// Package online implements an online variant of DCFSR — the extension the
// paper defers to future work ("we leave more exhaustive evaluation and
// further implementation as future work"; its related-work section surveys
// online deadline scheduling). Flows are revealed only at their release
// times; the scheduler must fix each flow's path and rate immediately and
// irrevocably.
//
// The package offers two schedulers at opposite ends of the
// effort/quality spectrum:
//
//   - Scheduler (marginal-cost greedy): when a flow arrives, route it on
//     the path minimising the *increase* of the power-function cost given
//     the rates currently reserved by admitted flows, then reserve the
//     flow's density D_i on every link of that path for its whole span.
//     Deadlines are met by construction (density rates), decisions are
//     instantaneous and irrevocable.
//   - RollingScheduler (rolling horizon): arrivals are batched into
//     epochs; each epoch boundary re-runs the Random-Schedule relaxation
//     over the remaining horizon with frozen commitments
//     (core.SolveDCFSRPartialCtx) and routes the batch on the resulting
//     candidate distributions, warm-starting the per-interval Frank–Wolfe
//     solves from the previous epoch.
//
// Both implement sim.OnlineEngine and can be driven by sim.ReplayOnline.
package online

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"dcnflow/internal/decision"
	"dcnflow/internal/flow"
	"dcnflow/internal/graph"
	"dcnflow/internal/power"
	"dcnflow/internal/schedule"
	"dcnflow/internal/timeline"
)

// Options tunes the online scheduler.
type Options struct {
	// CostFull uses the full power function f — including the idle charge
	// sigma paid when a dark link powers on — as the marginal-cost metric.
	// It makes the greedy consolidate onto already-active links; the
	// default metric is the dynamic-only g (load balancing).
	CostFull bool
	// RejectOverCapacity makes Schedule return ErrOverCapacity when a
	// flow's density cannot fit under C on any path; by default the flow
	// is admitted anyway (capacity relaxed, like DCFS).
	RejectOverCapacity bool
	// Recorder, when non-nil, receives a typed decision.Record for every
	// admission decision, in arrival order with deterministic sequence
	// numbers. Nil disables tracing at zero cost.
	Recorder decision.Recorder
	// Overrides, when non-nil, forces specific decisions during a
	// counterfactual re-run (decision.Replay builds these): a forced path
	// replaces the marginal-cost choice.
	Overrides *decision.Overrides
}

// Errors returned by Schedule.
var (
	ErrBadInput      = errors.New("online: invalid input")
	ErrOverCapacity  = errors.New("online: flow cannot fit under link capacity")
	ErrNoRouteOnline = errors.New("online: no route for flow")
)

// Result is the outcome of the online scheduler.
type Result struct {
	Schedule *schedule.Schedule
	// Admitted counts flows placed under capacity; with
	// RejectOverCapacity=false this equals the flow count.
	Admitted int
	// PeakRate is the maximum reserved aggregate rate on any link.
	PeakRate float64
}

// reservation tracks, per link, the piecewise-constant aggregate rate
// reserved by admitted flows.
type reservation struct {
	// segs are the reserved (interval, rate) pieces kept disjoint/sorted.
	segs []schedule.RateSegment
}

// rateAt returns the reserved rate at instant t. The pieces are disjoint
// and sorted, so the first piece whose end reaches t is the only one that
// can contain it.
func (r *reservation) rateAt(t float64) float64 {
	i := sort.Search(len(r.segs), func(k int) bool { return r.segs[k].Interval.End >= t-timeline.Eps })
	if i < len(r.segs) && r.segs[i].Interval.Contains(t) {
		return r.segs[i].Rate
	}
	return 0
}

// rateIn is rateAt restricted to a window of pieces (used by the localized
// rebuild in add, whose probe points never fall outside the window).
func rateIn(segs []schedule.RateSegment, t float64) float64 {
	for _, s := range segs {
		if s.Interval.Contains(t) {
			return s.Rate
		}
	}
	return 0
}

// add reserves rate over [a, b] (negative rate releases), splitting existing
// pieces as needed. The rebuild is localized: pieces further than 2*Eps from
// [a, b] cannot interact with the insertion — their boundaries are outside
// the Breakpoints dedup reach of a and b, no probe point inside them gains
// the new rate, and surviving adjacent pieces are never re-mergeable (the
// merge below is what built them, so its condition already failed between
// them) — so only the overlapping window is re-derived and spliced back,
// turning the old O(n) full rebuild per insertion into O(log n + window)
// probe work plus a tail move. One extra piece on each side rides along so
// boundary-sharing neighbours see the exact probe context the full rebuild
// gave them.
func (r *reservation) add(a, b, rate float64) {
	const slack = 2 * timeline.Eps
	i := sort.Search(len(r.segs), func(k int) bool { return r.segs[k].Interval.End >= a-slack })
	j := sort.Search(len(r.segs), func(k int) bool { return r.segs[k].Interval.Start > b+slack })
	if i > 0 {
		i--
	}
	if j < len(r.segs) {
		j++
	}
	window := r.segs[i:j]
	bounds := make([]float64, 0, 2*len(window)+2)
	bounds = append(bounds, a, b)
	for _, s := range window {
		bounds = append(bounds, s.Interval.Start, s.Interval.End)
	}
	bounds = timeline.Breakpoints(bounds)
	out := make([]schedule.RateSegment, 0, len(window)+2)
	for k := 0; k+1 < len(bounds); k++ {
		lo, hi := bounds[k], bounds[k+1]
		mid := (lo + hi) / 2
		cur := rateIn(window, mid)
		if mid >= a && mid <= b {
			cur += rate
		}
		if cur > timeline.Eps {
			if len(out) > 0 && math.Abs(out[len(out)-1].Rate-cur) < 1e-12 &&
				math.Abs(out[len(out)-1].Interval.End-lo) <= timeline.Eps {
				out[len(out)-1].Interval.End = hi
			} else {
				out = append(out, schedule.RateSegment{
					Interval: timeline.Interval{Start: lo, End: hi},
					Rate:     cur,
				})
			}
		}
	}
	// Splice the rebuilt window over [i, j) in place; copy is memmove-safe
	// in both shift directions.
	switch delta := len(out) - (j - i); {
	case delta == 0:
		copy(r.segs[i:j], out)
	case delta < 0:
		copy(r.segs[i:], out)
		r.segs = append(r.segs[:i+len(out)], r.segs[j:]...)
	default:
		r.segs = append(r.segs, make([]schedule.RateSegment, delta)...)
		copy(r.segs[i+len(out):], r.segs[j:len(r.segs)-delta])
		copy(r.segs[i:], out)
	}
}

// marginalEnergy integrates cost(cur(t)+d) - cost(cur(t)) over [a, b],
// where cur is the reserved piecewise-constant rate (zero in the gaps
// between pieces): the exact energy increase of adding rate d to this link
// for the whole window. A nil receiver is an empty reservation.
func (r *reservation) marginalEnergy(a, b, d float64, cost func(float64) float64) float64 {
	if b <= a {
		return 0
	}
	gapDelta := cost(d) - cost(0)
	var sum float64
	cur := a
	if r != nil {
		i := sort.Search(len(r.segs), func(k int) bool { return r.segs[k].Interval.End > a+timeline.Eps })
		for ; i < len(r.segs); i++ {
			s := r.segs[i]
			if s.Interval.End <= cur+timeline.Eps {
				continue
			}
			if s.Interval.Start >= b-timeline.Eps {
				break
			}
			lo := math.Max(s.Interval.Start, cur)
			hi := math.Min(s.Interval.End, b)
			if lo > cur {
				sum += gapDelta * (lo - cur)
			}
			sum += (cost(s.Rate+d) - cost(s.Rate)) * (hi - lo)
			cur = hi
			if cur >= b-timeline.Eps {
				break
			}
		}
	}
	if cur < b {
		sum += gapDelta * (b - cur)
	}
	return sum
}

// prune discards pieces that end at or before t; callers must only query
// windows starting at or after t afterwards.
func (r *reservation) prune(t float64) {
	keep := r.segs[:0]
	for _, s := range r.segs {
		if s.Interval.End > t+timeline.Eps {
			keep = append(keep, s)
		}
	}
	r.segs = keep
}

// maxDuring returns the maximum reserved rate within [a, b]. Only pieces
// overlapping the window by more than timeline.Eps count: a piece ending
// exactly at a (or starting exactly at b) is a zero-measure touch, so a flow
// starting exactly when another finishes must not see the finished flow's
// rate (the back-to-back knife edge that would otherwise spuriously trip
// RejectOverCapacity). The strict-overlap guard is stated explicitly here
// rather than inherited from Interval.Intersect's non-empty contract, and
// the binary search makes the query O(log n + overlap) on long
// reservations.
func (r *reservation) maxDuring(a, b float64) float64 {
	var max float64
	i := sort.Search(len(r.segs), func(k int) bool { return r.segs[k].Interval.End > a+timeline.Eps })
	for ; i < len(r.segs); i++ {
		s := r.segs[i]
		if s.Interval.Start >= b-timeline.Eps {
			break
		}
		if math.Min(s.Interval.End, b)-math.Max(s.Interval.Start, a) > timeline.Eps && s.Rate > max {
			max = s.Rate
		}
	}
	return max
}

// Scheduler admits flows one at a time. The zero value is not usable; use
// New. It implements sim.OnlineEngine (Arrive/AdvanceTo/Finish), so it can
// be driven by sim.ReplayOnline interchangeably with RollingScheduler.
type Scheduler struct {
	g     *graph.Graph
	c     *graph.Compiled
	scr   *graph.SSSPScratch // routes every admission on c's hot view
	model power.Model
	opts  Options
	// res is indexed by edge id; nil means nothing reserved on the link.
	res      []*reservation
	sched    *schedule.Schedule
	peak     float64
	rejected int
	recSeq   int

	pathBuf []graph.EdgeID // AppendPathTo's buffer, reused
}

// New creates an online scheduler over the given horizon. It binds g the
// way mcfsolve.Solver does: it routes on graph.Compile(g), which is cached
// on the graph, and sizes its per-link state and shortest-path scratch for
// g as it is now, so g must not be mutated while the scheduler is in use.
func New(g *graph.Graph, model power.Model, horizon timeline.Interval, opts Options) (*Scheduler, error) {
	if g == nil {
		return nil, fmt.Errorf("%w: nil graph", ErrBadInput)
	}
	if err := model.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadInput, err)
	}
	c := graph.Compile(g)
	return &Scheduler{
		g:     g,
		c:     c,
		scr:   graph.NewSSSPScratch(c.Hot()),
		model: model,
		opts:  opts,
		res:   make([]*reservation, g.NumEdges()),
		sched: schedule.New(horizon),
	}, nil
}

// cost evaluates the marginal-cost metric at rate x.
func (s *Scheduler) cost(x float64) float64 {
	if s.opts.CostFull {
		return s.model.F(x)
	}
	return s.model.G(x)
}

// pathMarginalEnergy sums the exact marginal energy of reserving rate d over
// [a, b] on every edge of p, against the current reservations.
func (s *Scheduler) pathMarginalEnergy(p graph.Path, a, b, d float64) float64 {
	var sum float64
	for _, eid := range p.Edges {
		sum += s.res[eid].marginalEnergy(a, b, d, s.cost)
	}
	return sum
}

// record stamps the next sequence number on rec and emits it; call only when
// a recorder is configured.
func (s *Scheduler) record(rec decision.Record) {
	rec.Seq = s.recSeq
	s.recSeq++
	s.opts.Recorder.Record(rec)
}

// route returns the minimum-weight path for flow f, whose density is d.
// The weight of a link is the marginal cost of adding rate d to it during
// the flow's span, evaluated at the span-maximum reserved rate cur =
// maxDuring(release, deadline): cost(cur+d) - cost(cur) + 1e-9, a
// conservative estimate that is exact for the common case of constant
// reservation over the span.
//
// The search is the stub-aware heap Tree on the compiled hot view with an
// early exit at the destination. It yields the path Graph.ShortestPathWeighted
// yields under the same weights: both finalise labels by minimum distance,
// then minimum original edge id, and never rewrite a finalised label, and
// Tree falls back to the historical search order whenever absorption could
// make the order matter (every weight here is at least 1e-9, so its guard
// is well defined). The historical search also dropped every offer of
// 1e308 or more as unreachable. Every offer made before the destination
// is finalised is at most its distance plus the largest weight, so when
// that sum stays below 1e308 no offer was dropped and the paths agree;
// otherwise, and for a weight that is not finite, the marginal costs have
// left the range the search can order and route reports an error.
func (s *Scheduler) route(f flow.Flow, d float64) (graph.Path, error) {
	if !s.g.HasNode(f.Src) || !s.g.HasNode(f.Dst) {
		return graph.Path{}, fmt.Errorf("shortest path %d->%d: %w", f.Src, f.Dst, graph.ErrNodeNotFound)
	}
	hot := s.c.Hot()
	// Every link without a reservation has cur = 0; cost(0+d) is cost(d)
	// bit for bit, so one evaluation serves them all.
	idle := s.cost(d) - s.cost(0) + 1e-9
	var maxW float64
	w := s.scr.SlotWeights()
	for i, eid := range hot.SlotEdges() {
		wt := idle
		if r := s.res[eid]; r != nil {
			cur := r.maxDuring(f.Release, f.Deadline)
			wt = s.cost(cur+d) - s.cost(cur) + 1e-9
		}
		if wt > maxW {
			maxW = wt
		} else if !(wt >= 0) {
			if wt < 0 {
				return graph.Path{}, fmt.Errorf("shortest path: negative weight %v on edge %d", wt, eid)
			}
			return graph.Path{}, fmt.Errorf("marginal cost on edge %d is NaN", eid)
		}
		w[i] = wt
	}
	s.scr.ScanWeights()
	src, dst := s.c.ToHot(f.Src), s.c.ToHot(f.Dst)
	s.scr.Tree(src, []graph.NodeID{dst})
	buf, ok := s.scr.AppendPathTo(dst, s.pathBuf[:0])
	s.pathBuf = buf
	if !ok {
		return graph.Path{}, fmt.Errorf("shortest path %d->%d: %w", f.Src, f.Dst, graph.ErrNoPath)
	}
	if dist := s.scr.Dist(dst); !(dist+maxW < 1e308) {
		return graph.Path{}, fmt.Errorf("shortest path %d->%d: distance %v is too close to the float range", f.Src, f.Dst, dist)
	}
	return graph.Path{Edges: slices.Clone(buf)}, nil
}

// Admit routes and schedules one newly released flow. The decision is
// irrevocable: the flow's density is reserved on the chosen path across
// its span.
func (s *Scheduler) Admit(f flow.Flow) error {
	if err := f.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadInput, err)
	}
	d := f.Density()
	p, err := s.route(f, d)
	if err != nil {
		return fmt.Errorf("%w: flow %d: %v", ErrNoRouteOnline, f.ID, err)
	}
	reason := "marginal-cost"
	if forced, ok := s.opts.Overrides.ForcedPath(f.ID); ok {
		if err := forced.Validate(s.g, f.Src, f.Dst); err != nil {
			return fmt.Errorf("%w: forced path for flow %d: %v", ErrBadInput, f.ID, err)
		}
		p = forced
		reason = "forced"
	}
	if s.opts.RejectOverCapacity && s.model.Capped() {
		for _, eid := range p.Edges {
			var cur float64
			if r := s.res[eid]; r != nil {
				cur = r.maxDuring(f.Release, f.Deadline)
			}
			if cur+d > s.model.C*(1+1e-9) {
				if s.opts.Recorder != nil {
					s.record(decision.Record{
						Time: f.Release, Kind: decision.KindReject, Flow: f.ID,
						Reason: "over-capacity", Slack: f.Deadline - f.Release,
					})
				}
				return fmt.Errorf("%w: flow %d needs %v on link %d", ErrOverCapacity, f.ID, cur+d, eid)
			}
		}
	}
	if s.opts.Recorder != nil {
		// Score the choice and its alternative before reserving: marginal
		// energies are against the pre-admission reservations. The greedy's
		// only other natural candidate is the min-hop path.
		rec := decision.Record{
			Time: f.Release, Kind: decision.KindAdmit, Flow: f.ID,
			Reason: reason, Path: p.Edges, Rate: d,
			MarginalEnergy: s.pathMarginalEnergy(p, f.Release, f.Deadline, d),
			Slack:          f.Deadline - f.Release,
		}
		if alt, err := s.c.ShortestPath(f.Src, f.Dst); err == nil && alt.Key() != p.Key() {
			rec.Alternatives = []decision.Alternative{{
				Path:           alt.Edges,
				MarginalEnergy: s.pathMarginalEnergy(alt, f.Release, f.Deadline, d),
			}}
		}
		s.record(rec)
	}
	for _, eid := range p.Edges {
		r := s.res[eid]
		if r == nil {
			r = &reservation{}
			s.res[eid] = r
		}
		r.add(f.Release, f.Deadline, d)
		if m := r.maxDuring(f.Release, f.Deadline); m > s.peak {
			s.peak = m
		}
	}
	return s.sched.SetFlow(&schedule.FlowSchedule{
		FlowID: f.ID,
		Path:   p,
		Segments: []schedule.RateSegment{{
			Interval: timeline.Interval{Start: f.Release, End: f.Deadline},
			Rate:     d,
		}},
	})
}

// Arrive implements the sim.OnlineEngine reveal event: the flow is admitted
// immediately (the greedy decides at arrival, there is no batching), and a
// capacity rejection under RejectOverCapacity is recorded rather than
// returned as an error.
func (s *Scheduler) Arrive(f flow.Flow) error {
	if err := s.Admit(f); err != nil {
		if errors.Is(err, ErrOverCapacity) {
			s.rejected++
			return nil
		}
		return err
	}
	return nil
}

// AdvanceTo implements sim.OnlineEngine; the greedy has no internal
// boundaries, so advancing time is a no-op.
func (s *Scheduler) AdvanceTo(float64) error { return nil }

// Finish implements sim.OnlineEngine: it assigns packet priorities and
// returns the accumulated schedule.
func (s *Scheduler) Finish() (*schedule.Schedule, error) {
	s.sched.AssignPriorities()
	return s.sched, nil
}

// Rejected returns the number of flows refused under RejectOverCapacity
// since the scheduler was created.
func (s *Scheduler) Rejected() int { return s.rejected }

// RunCtx replays a whole flow set in release order through the online
// scheduler — the offline-comparable entry point. Cancellation is checked
// before each admission, so the replay stops within one flow of ctx ending
// and returns the wrapped context error instead of a partial schedule. A
// non-nil horizon overrides the run window (it must contain the flow
// span); nil derives it from the flows.
func RunCtx(ctx context.Context, g *graph.Graph, flows *flow.Set, model power.Model, horizon *timeline.Interval, opts Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if flows == nil {
		return nil, fmt.Errorf("%w: nil flows", ErrBadInput)
	}
	t0, t1 := flows.Horizon()
	window := timeline.Interval{Start: t0, End: t1}
	if horizon != nil {
		window = *horizon
	}
	s, err := New(g, model, window, opts)
	if err != nil {
		return nil, err
	}
	ordered := flows.Flows()
	sort.SliceStable(ordered, func(a, b int) bool {
		if ordered[a].Release != ordered[b].Release {
			return ordered[a].Release < ordered[b].Release
		}
		return ordered[a].ID < ordered[b].ID
	})
	admitted := 0
	for _, f := range ordered {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("online: greedy replay interrupted at flow %d: %w", f.ID, err)
		}
		if err := s.Admit(f); err != nil {
			if errors.Is(err, ErrOverCapacity) {
				continue
			}
			return nil, err
		}
		admitted++
	}
	s.sched.AssignPriorities()
	return &Result{Schedule: s.sched, Admitted: admitted, PeakRate: s.peak}, nil
}
