// Package schedule defines the schedule representation shared by all
// algorithms (Section II-B, Eq. 2): per-flow piecewise-constant
// transmission-rate functions s_i(t) plus a routing path P_i per flow. It
// also implements energy accounting (Eq. 5) and feasibility verification
// (Eq. 3).
package schedule

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"dcnflow/internal/flow"
	"dcnflow/internal/graph"
	"dcnflow/internal/power"
	"dcnflow/internal/timeline"
)

// RateSegment is one piece of a piecewise-constant rate function: the flow
// transmits at Rate during Interval.
type RateSegment struct {
	Interval timeline.Interval
	Rate     float64
}

// FlowSchedule is the schedule of a single flow: its chosen path and rate
// function.
type FlowSchedule struct {
	FlowID flow.ID
	// Path is the single routing path P_i carrying the flow.
	Path graph.Path
	// Segments is the piecewise-constant rate function, sorted by start
	// time with disjoint intervals.
	Segments []RateSegment
	// Priority is the packet priority derived from the flow's first
	// transmission time (Section III-C: earlier start = higher priority =
	// smaller value). It is advisory metadata for packet-switched
	// deployment.
	Priority int
}

// DataTransferred integrates the rate function: total data sent.
func (fs *FlowSchedule) DataTransferred() float64 {
	var sum float64
	for _, seg := range fs.Segments {
		sum += seg.Rate * seg.Interval.Length()
	}
	return sum
}

// Start returns the first transmission instant, or +Inf when the flow never
// transmits.
func (fs *FlowSchedule) Start() float64 {
	if len(fs.Segments) == 0 {
		return math.Inf(1)
	}
	return fs.Segments[0].Interval.Start
}

// End returns the last transmission instant, or -Inf when the flow never
// transmits.
func (fs *FlowSchedule) End() float64 {
	if len(fs.Segments) == 0 {
		return math.Inf(-1)
	}
	return fs.Segments[len(fs.Segments)-1].Interval.End
}

// MaxRate returns the largest segment rate.
func (fs *FlowSchedule) MaxRate() float64 {
	var max float64
	for _, seg := range fs.Segments {
		if seg.Rate > max {
			max = seg.Rate
		}
	}
	return max
}

// normalize sorts segments and validates them: finite times and rates,
// positive rates, non-empty and disjoint intervals.
func (fs *FlowSchedule) normalize() error {
	sort.Slice(fs.Segments, func(a, b int) bool {
		return fs.Segments[a].Interval.Start < fs.Segments[b].Interval.Start
	})
	for i, seg := range fs.Segments {
		if !finite(seg.Interval.Start) || !finite(seg.Interval.End) || !finite(seg.Rate) {
			return fmt.Errorf("flow %d segment %d: non-finite interval %v or rate %v", fs.FlowID, i, seg.Interval, seg.Rate)
		}
		if seg.Rate <= 0 {
			return fmt.Errorf("flow %d segment %d: rate %v must be positive", fs.FlowID, i, seg.Rate)
		}
		if seg.Interval.Empty() {
			return fmt.Errorf("flow %d segment %d: empty interval %v", fs.FlowID, i, seg.Interval)
		}
		if i > 0 && seg.Interval.Start < fs.Segments[i-1].Interval.End-timeline.Eps {
			return fmt.Errorf("flow %d segments %d and %d overlap", fs.FlowID, i-1, i)
		}
	}
	return nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Schedule is a complete solution: one FlowSchedule per flow plus the
// horizon [T0, T1] over which idle power is charged.
type Schedule struct {
	// Horizon is the period of interest [T0, T1].
	Horizon timeline.Interval
	flows   map[flow.ID]*FlowSchedule
}

// New creates an empty schedule over the given horizon.
func New(horizon timeline.Interval) *Schedule {
	return &Schedule{Horizon: horizon, flows: make(map[flow.ID]*FlowSchedule)}
}

// Errors returned by schedule operations.
var (
	ErrDuplicateFlow = errors.New("schedule: flow already scheduled")
	ErrInfeasible    = errors.New("schedule: infeasible")
)

// SetFlow installs the schedule of one flow. Segments are sorted and
// validated.
func (s *Schedule) SetFlow(fs *FlowSchedule) error {
	if _, ok := s.flows[fs.FlowID]; ok {
		return fmt.Errorf("%w: %d", ErrDuplicateFlow, fs.FlowID)
	}
	if err := fs.normalize(); err != nil {
		return err
	}
	s.flows[fs.FlowID] = fs
	return nil
}

// FlowSchedule returns the schedule of one flow, or nil when absent.
func (s *Schedule) FlowSchedule(id flow.ID) *FlowSchedule { return s.flows[id] }

// Len returns the number of scheduled flows.
func (s *Schedule) Len() int { return len(s.flows) }

// FlowIDs returns the scheduled flow ids in ascending order.
func (s *Schedule) FlowIDs() []flow.ID {
	out := make([]flow.ID, 0, len(s.flows))
	for id := range s.flows {
		out = append(out, id)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// AssignPriorities sets packet priorities by first transmission time
// (Section III-C): the flow with the earliest start gets priority 0.
func (s *Schedule) AssignPriorities() {
	ids := s.FlowIDs()
	sort.SliceStable(ids, func(a, b int) bool {
		return s.flows[ids[a]].Start() < s.flows[ids[b]].Start()
	})
	for rank, id := range ids {
		s.flows[id].Priority = rank
	}
}

// linkEvent is a rate change used when sweeping per-link rates.
type linkEvent struct {
	t     float64
	delta float64
}

// LinkRates aggregates the per-link transmission rate x_e(t) as a
// piecewise-constant function. A flow transmitting at rate s occupies every
// link of its path at rate s simultaneously (fluid view). Flows are swept
// in ascending id order (and coincident rate changes accumulated in that
// order — see sweep), so the floating-point rate values are deterministic;
// iterating the flow map directly would let three or more coincident
// segment boundaries on one link sum in map order and change the last bits
// of x_e(t) from run to run.
func (s *Schedule) LinkRates() map[graph.EdgeID][]RateSegment {
	events := make(map[graph.EdgeID][]linkEvent)
	for _, id := range s.FlowIDs() {
		fs := s.flows[id]
		for _, eid := range fs.Path.Edges {
			for _, seg := range fs.Segments {
				events[eid] = append(events[eid],
					linkEvent{t: seg.Interval.Start, delta: seg.Rate},
					linkEvent{t: seg.Interval.End, delta: -seg.Rate},
				)
			}
		}
	}
	out := make(map[graph.EdgeID][]RateSegment, len(events))
	for eid, evs := range events {
		out[eid] = sweep(evs)
	}
	return out
}

// sweep converts rate-change events into disjoint constant-rate segments
// (zero-rate gaps omitted). The sort must be stable: events at equal times
// keep their insertion order, so coincident deltas accumulate in a
// reproducible sequence. Each group consumes the event that opens it
// unconditionally, so a NaN event time, which compares false to
// everything, still advances the sweep.
func sweep(evs []linkEvent) []RateSegment {
	sort.SliceStable(evs, func(a, b int) bool { return evs[a].t < evs[b].t })
	var (
		out  []RateSegment
		rate float64
		prev float64
	)
	i := 0
	for i < len(evs) {
		t := evs[i].t
		if rate > timeline.Eps && t-prev > timeline.Eps {
			out = append(out, RateSegment{Interval: timeline.Interval{Start: prev, End: t}, Rate: rate})
		}
		rate += evs[i].delta
		i++
		for i < len(evs) && evs[i].t-t <= timeline.Eps {
			rate += evs[i].delta
			i++
		}
		prev = t
	}
	return out
}

// ActiveLinks returns the ids of links that carry traffic at some point, in
// ascending order — the set E_a of Eq. 4.
func (s *Schedule) ActiveLinks() []graph.EdgeID {
	seen := make(map[graph.EdgeID]bool)
	for _, fs := range s.flows {
		if len(fs.Segments) == 0 {
			continue
		}
		for _, eid := range fs.Path.Edges {
			seen[eid] = true
		}
	}
	out := make([]graph.EdgeID, 0, len(seen))
	for eid := range seen {
		out = append(out, eid)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// EnergyDynamic returns the speed-scaling energy
// sum_e integral g(x_e(t)) dt (the Phi_g objective of Eq. 6). Links are
// accumulated in id order so the floating-point sum is deterministic.
func (s *Schedule) EnergyDynamic(m power.Model) float64 {
	rates := s.LinkRates()
	ids := make([]graph.EdgeID, 0, len(rates))
	for eid := range rates {
		ids = append(ids, eid)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	var sum float64
	for _, eid := range ids {
		for _, seg := range rates[eid] {
			sum += m.G(seg.Rate) * seg.Interval.Length()
		}
	}
	return sum
}

// EnergyTotal returns the full objective Phi_f of Eq. 5: idle power sigma
// for every active link over the whole horizon plus the dynamic energy.
func (s *Schedule) EnergyTotal(m power.Model) float64 {
	idle := float64(len(s.ActiveLinks())) * m.Sigma * s.Horizon.Length()
	return idle + s.EnergyDynamic(m)
}

// VerifyOptions controls Verify's strictness.
type VerifyOptions struct {
	// EnforceCapacity checks x_e(t) <= C on every link. DCFS legitimately
	// relaxes this (Section III-A), so it is optional.
	EnforceCapacity bool
	// ExclusiveLinks checks the virtual-circuit property: at most one flow
	// transmits on a link at any time (holds for Most-Critical-First
	// schedules, not for the fluid Random-Schedule view).
	ExclusiveLinks bool
	// Tol is the numeric tolerance for data-completion checks; zero
	// selects 1e-6.
	Tol float64
}

// Verify checks that the schedule is feasible for the given flows on the
// given network: every flow's data is fully transferred within its span
// along a valid path (Eq. 3), plus the optional capacity and exclusivity
// invariants.
func (s *Schedule) Verify(g *graph.Graph, flows *flow.Set, m power.Model, opts VerifyOptions) error {
	tol := opts.Tol
	if tol <= 0 {
		tol = 1e-6
	}
	for _, f := range flows.Flows() {
		fs := s.flows[f.ID]
		if fs == nil {
			return fmt.Errorf("%w: flow %d not scheduled", ErrInfeasible, f.ID)
		}
		if err := fs.Path.Validate(g, f.Src, f.Dst); err != nil {
			return fmt.Errorf("%w: flow %d path: %v", ErrInfeasible, f.ID, err)
		}
		for _, seg := range fs.Segments {
			if seg.Interval.Start < f.Release-timeline.Eps || seg.Interval.End > f.Deadline+timeline.Eps {
				return fmt.Errorf("%w: flow %d transmits in %v outside span [%g, %g]",
					ErrInfeasible, f.ID, seg.Interval, f.Release, f.Deadline)
			}
		}
		got := fs.DataTransferred()
		if got < f.Size*(1-tol)-tol {
			return fmt.Errorf("%w: flow %d transfers %v of %v", ErrInfeasible, f.ID, got, f.Size)
		}
	}
	if opts.EnforceCapacity && m.Capped() {
		for eid, segs := range s.LinkRates() {
			e, err := g.Edge(eid)
			if err != nil {
				return fmt.Errorf("%w: unknown link %d", ErrInfeasible, eid)
			}
			cap := math.Min(e.Capacity, m.C)
			for _, seg := range segs {
				if seg.Rate > cap*(1+tol) {
					return fmt.Errorf("%w: link %d rate %v exceeds capacity %v during %v",
						ErrInfeasible, eid, seg.Rate, cap, seg.Interval)
				}
			}
		}
	}
	if opts.ExclusiveLinks {
		if err := s.verifyExclusive(); err != nil {
			return err
		}
	}
	return nil
}

// verifyExclusive checks the virtual-circuit property: per link, flow
// transmission intervals never overlap.
func (s *Schedule) verifyExclusive() error {
	type occ struct {
		iv timeline.Interval
		id flow.ID
	}
	perLink := make(map[graph.EdgeID][]occ)
	for _, fs := range s.flows {
		for _, eid := range fs.Path.Edges {
			for _, seg := range fs.Segments {
				perLink[eid] = append(perLink[eid], occ{iv: seg.Interval, id: fs.FlowID})
			}
		}
	}
	for eid, occs := range perLink {
		sort.Slice(occs, func(a, b int) bool { return occs[a].iv.Start < occs[b].iv.Start })
		for i := 1; i < len(occs); i++ {
			if occs[i].iv.Start < occs[i-1].iv.End-timeline.Eps {
				return fmt.Errorf("%w: link %d shared by flows %d and %d during overlap",
					ErrInfeasible, eid, occs[i-1].id, occs[i].id)
			}
		}
	}
	return nil
}

// MaxLinkRate returns the maximum instantaneous rate over all links, useful
// for reporting how far a relaxed schedule exceeds capacity.
func (s *Schedule) MaxLinkRate() float64 {
	var max float64
	for _, segs := range s.LinkRates() {
		for _, seg := range segs {
			if seg.Rate > max {
				max = seg.Rate
			}
		}
	}
	return max
}
