// Package core implements the paper's two contributions: the optimal
// Most-Critical-First algorithm for Deadline-Constrained Flow Scheduling
// (DCFS, Section III) and the Random-Schedule approximation for joint
// Deadline-Constrained Flow Scheduling and Routing (DCFSR, Section V),
// together with the fractional lower bound used to normalise the
// evaluation.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"dcnflow/internal/flow"
	"dcnflow/internal/graph"
	"dcnflow/internal/power"
	"dcnflow/internal/schedule"
	"dcnflow/internal/timeline"
)

// taskInfo is a critical-round flow with its required transmission duration
// and the union of blocked slots across its path links.
type taskInfo struct {
	f        flow.Flow
	duration float64
	avail    *timeline.SlotSet // union of blocked slots over path links
}

// Errors returned by the core solvers.
var (
	ErrInfeasible = errors.New("core: infeasible instance")
	ErrBadInput   = errors.New("core: invalid input")
)

// errNoCandidate signals that no (link, window) candidate with positive
// availability remains — the surviving flows can only be scheduled by
// sharing links (the packet-switching extension of Section III-C).
var errNoCandidate = errors.New("core: no candidate critical interval")

// DCFSInput is an instance of the Deadline-Constrained Flow Scheduling
// problem: routing paths are given, transmission rates are to be chosen.
type DCFSInput struct {
	Graph *graph.Graph
	Flows *flow.Set
	// Paths maps every flow to its (given) routing path P_i.
	Paths map[flow.ID]graph.Path
	Model power.Model
}

// CriticalRound records one iteration of Most-Critical-First for
// diagnostics: the critical link, the critical interval, the intensity and
// the flows scheduled in the round.
type CriticalRound struct {
	Link      graph.EdgeID
	Window    timeline.Interval
	Intensity float64
	FlowIDs   []flow.ID
}

// DCFSResult is the output of Most-Critical-First.
type DCFSResult struct {
	Schedule *schedule.Schedule
	// Rounds logs the critical intervals in scheduling order.
	Rounds []CriticalRound
	// Conflicts counts flows whose execution could not be placed fully
	// conflict-free across all their path links (see the package note on
	// the virtual-circuit assumption); their remainders were placed using
	// the paper-literal critical-link availability.
	Conflicts int
}

// validate checks the DCFS input.
func (in DCFSInput) validate() error {
	if in.Graph == nil || in.Flows == nil {
		return fmt.Errorf("%w: nil graph or flows", ErrBadInput)
	}
	if err := in.Model.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadInput, err)
	}
	for _, f := range in.Flows.Flows() {
		p, ok := in.Paths[f.ID]
		if !ok {
			return fmt.Errorf("%w: flow %d has no path", ErrBadInput, f.ID)
		}
		if err := p.Validate(in.Graph, f.Src, f.Dst); err != nil {
			return fmt.Errorf("%w: flow %d: %v", ErrBadInput, f.ID, err)
		}
		if p.Len() == 0 {
			return fmt.Errorf("%w: flow %d has empty path", ErrBadInput, f.ID)
		}
	}
	return nil
}

// SolveDCFSCtx runs the Most-Critical-First algorithm (Algorithm 1): it
// iteratively finds the (link, interval) pair with the highest intensity
// delta(I, e) = sum of contained virtual weights / available time
// (Definitions 1-2), schedules the contained flows with preemptive EDF at
// the rates of Theorem 1,
//
//	s_i = sum_j w'_j / (|P_i|^(1/alpha) * (a ~ b)),
//
// and marks the execution slots unavailable on every link of each
// scheduled flow's path. The resulting schedule is optimal for DCFS
// (Corollary 1). The maximum-rate constraint is relaxed, as justified in
// Section III-A.
//
// Cancellation is checked between Most-Critical-First rounds and the
// wrapped context error is returned instead of a partial schedule. A nil
// ctx is treated as context.Background().
func SolveDCFSCtx(ctx context.Context, in DCFSInput) (*DCFSResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := in.validate(); err != nil {
		return nil, err
	}
	t0, t1 := in.Flows.Horizon()
	sched := schedule.New(timeline.Interval{Start: t0, End: t1})
	res := &DCFSResult{Schedule: sched}
	if in.Flows.Len() == 0 {
		return res, nil
	}

	flows := in.Flows.Flows()
	// Virtual weights w'_i = w_i * |P_i|^(1/alpha).
	vweight := make(map[flow.ID]float64, len(flows))
	for _, f := range flows {
		vweight[f.ID] = in.Model.VirtualWeight(f.Size, in.Paths[f.ID].Len())
	}
	search := newCritSearch(in, flows, vweight)

	pending := make(map[flow.ID]flow.Flow, len(flows))
	for _, f := range flows {
		pending[f.ID] = f
	}
	blocked := make(map[graph.EdgeID]*timeline.SlotSet)
	blockedOn := func(eid graph.EdgeID) *timeline.SlotSet {
		b, ok := blocked[eid]
		if !ok {
			b = &timeline.SlotSet{}
			blocked[eid] = b
		}
		return b
	}

	for len(pending) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: MCF interrupted with %d flows pending: %w", len(pending), err)
		}
		round, err := search.next(pending, blockedOn)
		if errors.Is(err, errNoCandidate) {
			// Every remaining flow's span is fully blocked on all its
			// links by earlier virtual circuits. Exclusive occupancy is
			// impossible; fall back to link sharing (packet-switching
			// extension): transmit each flow at its density rate across
			// its whole span and account the superposed energy honestly.
			if ferr := scheduleSharedFallback(in, sched, pending, blockedOn); ferr != nil {
				return nil, ferr
			}
			res.Conflicts += len(pending)
			pending = map[flow.ID]flow.Flow{}
			break
		}
		if err != nil {
			return nil, err
		}
		avail := blockedOn(round.Link).AvailableWithin(round.Window.Start, round.Window.End)
		var sumW float64
		for _, id := range round.FlowIDs {
			sumW += vweight[id]
		}

		// Rates and durations (Theorem 1): duration_i = w'_i * avail / sumW.
		slots, conflicts, err := packCritical(in, round, pending, vweight, sumW, avail, blocked, blockedOn)
		if err != nil {
			return nil, err
		}
		res.Conflicts += conflicts

		for _, fid := range round.FlowIDs {
			// Rate = size / scheduled time. For unclamped flows this equals
			// the Theorem 1 closed form sumW / (|P|^(1/alpha) * avail); for
			// span-clamped flows it rises to at least the density, keeping
			// the data-completion identity exact either way.
			var placed float64
			for _, iv := range slots[fid] {
				placed += iv.Length()
			}
			if placed <= timeline.Eps {
				return nil, fmt.Errorf("%w: flow %d received no transmission time", ErrInfeasible, fid)
			}
			rate := pending[fid].Size / placed
			segs := make([]schedule.RateSegment, 0, len(slots[fid]))
			for _, iv := range slots[fid] {
				segs = append(segs, schedule.RateSegment{Interval: iv, Rate: rate})
			}
			if err := sched.SetFlow(&schedule.FlowSchedule{
				FlowID:   fid,
				Path:     in.Paths[fid].Clone(),
				Segments: segs,
			}); err != nil {
				return nil, fmt.Errorf("core: installing flow %d: %w", fid, err)
			}
			// Block the slots on every link of the path (virtual circuit).
			// Only these links lose a pending flow or gain blocked time, so
			// only their candidate windows need recomputing.
			for _, eid := range in.Paths[fid].Edges {
				blockedOn(eid).AddAll(slots[fid])
				search.touch(eid)
			}
			delete(pending, fid)
		}
		res.Rounds = append(res.Rounds, round)
	}
	sched.AssignPriorities()
	return res, nil
}

// critSearch is Most-Critical-First's candidate search (Definitions 1-2),
// kept across rounds. A round changes the pending set and the blocked slots
// only on the links of the flows it schedules, so every other link's
// candidate windows and intensities carry over unchanged; touch marks the
// changed links and next recomputes just those before the global scan.
type critSearch struct {
	links []linkCands // every path link, in ascending edge id
	at    []int32     // edge id -> index into links, -1 for unused edges

	// Scratch reused by recompute.
	active, later       []linkFlow
	releases, deadlines []float64
}

// linkCands is one link's share of the search: its flows and its cached
// candidate windows.
type linkCands struct {
	eid graph.EdgeID
	// flows lists the flows routed over the link in flow-id order (a flow
	// appears once per occurrence of the link on its path).
	flows []linkFlow
	// cands are the link's candidates in scan order: release a ascending,
	// then deadline b ascending. A candidate contains at least one pending
	// flow and has availability above timeline.Eps.
	cands []critWindow
	// max is the largest candidate intensity, -Inf when there is none.
	max   float64
	dirty bool
}

// linkFlow is a flow's window and virtual weight w'_i, copied out of the
// flow set and the weight map so the window scan reads one slice.
type linkFlow struct {
	id                flow.ID
	release, deadline float64
	w                 float64
}

// critWindow is one candidate (window, intensity) pair of a link.
type critWindow struct {
	a, b, delta float64
}

// newCritSearch indexes every flow under the links of its path. All links
// start dirty.
func newCritSearch(in DCFSInput, flows []flow.Flow, vweight map[flow.ID]float64) *critSearch {
	at := make([]int32, in.Graph.NumEdges())
	for i := range at {
		at[i] = -1
	}
	var links []linkCands
	for _, f := range flows {
		lf := linkFlow{id: f.ID, release: f.Release, deadline: f.Deadline, w: vweight[f.ID]}
		for _, eid := range in.Paths[f.ID].Edges {
			if at[eid] < 0 {
				at[eid] = int32(len(links))
				links = append(links, linkCands{eid: eid, dirty: true})
			}
			l := &links[at[eid]]
			l.flows = append(l.flows, lf)
		}
	}
	sort.Slice(links, func(a, b int) bool { return links[a].eid < links[b].eid })
	for i := range links {
		at[links[i].eid] = int32(i)
	}
	return &critSearch{links: links, at: at}
}

// touch marks a link whose pending flows or blocked slots changed.
func (s *critSearch) touch(eid graph.EdgeID) {
	s.links[s.at[eid]].dirty = true
}

// next returns the most critical (link, window) pair: windows start at a
// pending release and end at a pending deadline of flows on the link, and
// the first candidate in (link, a, b) order that beats the running best by
// more than timeline.Eps wins. A link whose cached maximum does not beat
// the running best is skipped whole: none of its candidates could pass
// that test, and the best only grows.
func (s *critSearch) next(
	pending map[flow.ID]flow.Flow,
	blockedOn func(graph.EdgeID) *timeline.SlotSet,
) (CriticalRound, error) {
	best := CriticalRound{Intensity: -1}
	var bestLink *linkCands
	for i := range s.links {
		l := &s.links[i]
		if l.dirty {
			s.recompute(l, pending, blockedOn)
		}
		if l.max <= best.Intensity+timeline.Eps {
			continue
		}
		for _, c := range l.cands {
			if c.delta > best.Intensity+timeline.Eps {
				best = CriticalRound{Link: l.eid, Window: timeline.Interval{Start: c.a, End: c.b}, Intensity: c.delta}
				bestLink = l
			}
		}
	}
	if bestLink == nil {
		return CriticalRound{}, errNoCandidate
	}
	// Collect the flow set of the winning candidate.
	for _, f := range bestLink.flows {
		if _, ok := pending[f.id]; !ok {
			continue
		}
		if f.release >= best.Window.Start-timeline.Eps && f.deadline <= best.Window.End+timeline.Eps {
			best.FlowIDs = append(best.FlowIDs, f.id)
		}
	}
	if len(best.FlowIDs) == 0 {
		// Only a stale cache can get here; scheduling nothing would repeat
		// the round forever.
		return CriticalRound{}, fmt.Errorf("core: critical window %v on link %d holds no pending flow", best.Window, best.Link)
	}
	sort.Slice(best.FlowIDs, func(a, b int) bool { return best.FlowIDs[a] < best.FlowIDs[b] })
	return best, nil
}

// recompute rebuilds l's candidates from its pending flows and blocked
// slots. The contained weights are summed in the link's flow order, so an
// intensity has the same bits however often it is recomputed; dropping the
// flows released before a first only skips terms that would not be added.
func (s *critSearch) recompute(l *linkCands, pending map[flow.ID]flow.Flow, blockedOn func(graph.EdgeID) *timeline.SlotSet) {
	l.dirty = false
	l.cands = l.cands[:0]
	l.max = math.Inf(-1)
	active, releases, deadlines := s.active[:0], s.releases[:0], s.deadlines[:0]
	for _, f := range l.flows {
		if _, ok := pending[f.id]; ok {
			active = append(active, f)
			releases = append(releases, f.release)
			deadlines = append(deadlines, f.deadline)
		}
	}
	s.active, s.releases, s.deadlines = active, releases, deadlines
	if len(active) == 0 {
		return
	}
	releases = timeline.Breakpoints(releases)
	deadlines = timeline.Breakpoints(deadlines)
	blk := blockedOn(l.eid)
	for _, a := range releases {
		later := s.later[:0]
		for _, f := range active {
			if f.release >= a-timeline.Eps {
				later = append(later, f)
			}
		}
		s.later = later
		for _, b := range deadlines {
			if b <= a {
				continue
			}
			var sumW float64
			contained := false
			for _, f := range later {
				if f.deadline <= b+timeline.Eps {
					sumW += f.w
					contained = true
				}
			}
			if !contained {
				continue
			}
			avail := blk.AvailableWithin(a, b)
			if avail <= timeline.Eps {
				// Fully blocked window: a larger window may still cover
				// the contained flows; if none does, the caller falls back
				// to link sharing.
				continue
			}
			delta := sumW / avail
			l.cands = append(l.cands, critWindow{a: a, b: b, delta: delta})
			if delta > l.max {
				l.max = delta
			}
		}
	}
}

// packCritical places the critical flows' execution slots. It first runs a
// path-aware preemptive EDF (a flow may transmit only while every link of
// its path is free), then falls back to the paper-literal critical-link
// availability for any remainder, counting such flows as conflicts.
func packCritical(
	in DCFSInput,
	round CriticalRound,
	pending map[flow.ID]flow.Flow,
	vweight map[flow.ID]float64,
	sumW, avail float64,
	blocked map[graph.EdgeID]*timeline.SlotSet,
	blockedOn func(graph.EdgeID) *timeline.SlotSet,
) (map[flow.ID][]timeline.Interval, int, error) {
	// Per-flow availability: complement of the union of blocked slots over
	// the flow's path links, within the critical window.
	window := round.Window
	tasks := make([]taskInfo, 0, len(round.FlowIDs))
	for _, fid := range round.FlowIDs {
		f := pending[fid]
		// Theorem 1 duration, clamped to the flow's span: when earlier
		// rounds blocked most of the flow's span on this link, the
		// critical window's availability can exceed what the flow can
		// physically use, and the un-clamped duration would overrun the
		// deadline. Clamping raises the flow's rate to at least its
		// density.
		dur := math.Min(vweight[fid]*avail/sumW, f.Span())
		union := &timeline.SlotSet{}
		for _, eid := range in.Paths[fid].Edges {
			if b, ok := blocked[eid]; ok {
				union.AddAll(b.Slots())
			}
		}
		tasks = append(tasks, taskInfo{f: f, duration: dur, avail: union})
	}

	out, remaining := edfPathAware(tasks, window)

	conflicts := 0
	if len(remaining) > 0 {
		// Fallback: place remainders on the critical link's availability
		// (the paper-literal rule), avoiding each flow's already-assigned
		// slots.
		critBlocked := blockedOn(round.Link)
		for _, ti := range tasks {
			rem := remaining[ti.f.ID]
			if rem <= timeline.Eps {
				continue
			}
			conflicts++
			own := &timeline.SlotSet{}
			own.AddAll(critBlocked.Slots())
			own.AddAll(out[ti.f.ID])
			free := own.Complement(math.Max(window.Start, ti.f.Release), math.Min(window.End, ti.f.Deadline))
			rem = placeGreedy(out, ti.f.ID, free, rem)
			if rem > timeline.Eps {
				// Last resort: ignore the critical link's other flows and
				// respect only this flow's own occupancy within its span.
				own2 := &timeline.SlotSet{}
				own2.AddAll(out[ti.f.ID])
				free2 := own2.Complement(ti.f.Release, ti.f.Deadline)
				rem = placeGreedy(out, ti.f.ID, free2, rem)
			}
			if rem > 1e-6 {
				return nil, conflicts, fmt.Errorf("%w: flow %d cannot place %v units of transmission time",
					ErrInfeasible, ti.f.ID, rem)
			}
		}
	}
	// Normalise slot lists.
	for fid, slots := range out {
		set := &timeline.SlotSet{}
		set.AddAll(slots)
		out[fid] = set.Slots()
	}
	return out, conflicts, nil
}

// scheduleSharedFallback installs the remaining flows at their density
// rates across their whole spans, sharing links with earlier virtual
// circuits. Deadlines are still met (density completes exactly at the
// deadline); the superposed link rates raise the measured energy, which the
// accounting reflects.
func scheduleSharedFallback(
	in DCFSInput,
	sched *schedule.Schedule,
	pending map[flow.ID]flow.Flow,
	blockedOn func(graph.EdgeID) *timeline.SlotSet,
) error {
	for _, fid := range sortedIDs(pending) {
		f := pending[fid]
		iv := timeline.Interval{Start: f.Release, End: f.Deadline}
		if err := sched.SetFlow(&schedule.FlowSchedule{
			FlowID:   fid,
			Path:     in.Paths[fid].Clone(),
			Segments: []schedule.RateSegment{{Interval: iv, Rate: f.Density()}},
		}); err != nil {
			return fmt.Errorf("core: installing shared-fallback flow %d: %w", fid, err)
		}
		for _, eid := range in.Paths[fid].Edges {
			blockedOn(eid).Add(iv)
		}
	}
	return nil
}

// placeGreedy assigns up to rem time from the free slots (ascending) to the
// flow and returns the remaining unplaced time.
func placeGreedy(out map[flow.ID][]timeline.Interval, fid flow.ID, free []timeline.Interval, rem float64) float64 {
	for _, iv := range free {
		if rem <= timeline.Eps {
			break
		}
		take := math.Min(rem, iv.Length())
		out[fid] = append(out[fid], timeline.Interval{Start: iv.Start, End: iv.Start + take})
		rem -= take
	}
	return rem
}
