package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"dcnflow/internal/flow"
	"dcnflow/internal/graph"
	"dcnflow/internal/power"
	"dcnflow/internal/schedule"
	"dcnflow/internal/timeline"
	"dcnflow/internal/topology"
)

// referenceSolveDCFS is Most-Critical-First as it was before the candidate
// search became incremental: every round rebuilds every link's candidate
// windows with findCritical. It returns whether the run ended in the
// shared-link fallback.
func referenceSolveDCFS(in DCFSInput) (*DCFSResult, bool, error) {
	if err := in.validate(); err != nil {
		return nil, false, err
	}
	t0, t1 := in.Flows.Horizon()
	sched := schedule.New(timeline.Interval{Start: t0, End: t1})
	res := &DCFSResult{Schedule: sched}
	if in.Flows.Len() == 0 {
		return res, false, nil
	}

	flows := in.Flows.Flows()
	linkFlows := make(map[graph.EdgeID][]flow.ID)
	for _, f := range flows {
		for _, eid := range in.Paths[f.ID].Edges {
			linkFlows[eid] = append(linkFlows[eid], f.ID)
		}
	}
	vweight := make(map[flow.ID]float64, len(flows))
	for _, f := range flows {
		vweight[f.ID] = in.Model.VirtualWeight(f.Size, in.Paths[f.ID].Len())
	}
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

	fellBack := false
	for len(pending) > 0 {
		round, err := findCritical(pending, linkFlows, vweight, blockedOn)
		if errors.Is(err, errNoCandidate) {
			if ferr := scheduleSharedFallback(in, sched, pending, blockedOn); ferr != nil {
				return nil, false, ferr
			}
			res.Conflicts += len(pending)
			fellBack = true
			break
		}
		if err != nil {
			return nil, false, err
		}
		avail := blockedOn(round.Link).AvailableWithin(round.Window.Start, round.Window.End)
		var sumW float64
		for _, id := range round.FlowIDs {
			sumW += vweight[id]
		}
		slots, conflicts, err := packCritical(in, round, pending, vweight, sumW, avail, blocked, blockedOn)
		if err != nil {
			return nil, false, err
		}
		res.Conflicts += conflicts
		for _, fid := range round.FlowIDs {
			var placed float64
			for _, iv := range slots[fid] {
				placed += iv.Length()
			}
			if placed <= timeline.Eps {
				return nil, false, fmt.Errorf("%w: flow %d received no transmission time", ErrInfeasible, fid)
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
				return nil, false, err
			}
			for _, eid := range in.Paths[fid].Edges {
				blockedOn(eid).AddAll(slots[fid])
			}
			delete(pending, fid)
		}
		res.Rounds = append(res.Rounds, round)
	}
	sched.AssignPriorities()
	return res, fellBack, nil
}

// findCritical scans all (link, window) candidates and returns the most
// critical one. Windows start at a pending release and end at a pending
// deadline of flows on the link.
func findCritical(
	pending map[flow.ID]flow.Flow,
	linkFlows map[graph.EdgeID][]flow.ID,
	vweight map[flow.ID]float64,
	blockedOn func(graph.EdgeID) *timeline.SlotSet,
) (CriticalRound, error) {
	best := CriticalRound{Intensity: -1}
	found := false

	// Deterministic link order.
	links := make([]graph.EdgeID, 0, len(linkFlows))
	for eid := range linkFlows {
		links = append(links, eid)
	}
	sort.Slice(links, func(a, b int) bool { return links[a] < links[b] })

	for _, eid := range links {
		var active []flow.Flow
		for _, fid := range linkFlows[eid] {
			if f, ok := pending[fid]; ok {
				active = append(active, f)
			}
		}
		if len(active) == 0 {
			continue
		}
		releases := make([]float64, 0, len(active))
		deadlines := make([]float64, 0, len(active))
		for _, f := range active {
			releases = append(releases, f.Release)
			deadlines = append(deadlines, f.Deadline)
		}
		releases = timeline.Breakpoints(releases)
		deadlines = timeline.Breakpoints(deadlines)
		blk := blockedOn(eid)

		for _, a := range releases {
			for _, b := range deadlines {
				if b <= a {
					continue
				}
				var sumW float64
				contained := false
				for _, f := range active {
					if f.Release >= a-timeline.Eps && f.Deadline <= b+timeline.Eps {
						sumW += vweight[f.ID]
						contained = true
					}
				}
				if !contained {
					continue
				}
				avail := blk.AvailableWithin(a, b)
				if avail <= timeline.Eps {
					// Fully blocked window: a larger window may still
					// cover the contained flows; if none does, the caller
					// falls back to link sharing.
					continue
				}
				delta := sumW / avail
				if delta > best.Intensity+timeline.Eps {
					best = CriticalRound{Link: eid, Window: timeline.Interval{Start: a, End: b}, Intensity: delta}
					found = true
				}
			}
		}
	}
	if !found {
		return CriticalRound{}, errNoCandidate
	}
	// Collect the flow set of the winning candidate.
	for _, fid := range linkFlows[best.Link] {
		f, ok := pending[fid]
		if !ok {
			continue
		}
		if f.Release >= best.Window.Start-timeline.Eps && f.Deadline <= best.Window.End+timeline.Eps {
			best.FlowIDs = append(best.FlowIDs, fid)
		}
	}
	sort.Slice(best.FlowIDs, func(a, b int) bool { return best.FlowIDs[a] < best.FlowIDs[b] })
	return best, nil
}

// sameRound reports whether two critical rounds agree bit for bit.
func sameRound(a, b CriticalRound) bool {
	if a.Link != b.Link ||
		math.Float64bits(a.Window.Start) != math.Float64bits(b.Window.Start) ||
		math.Float64bits(a.Window.End) != math.Float64bits(b.Window.End) ||
		math.Float64bits(a.Intensity) != math.Float64bits(b.Intensity) ||
		len(a.FlowIDs) != len(b.FlowIDs) {
		return false
	}
	for i := range a.FlowIDs {
		if a.FlowIDs[i] != b.FlowIDs[i] {
			return false
		}
	}
	return true
}

// sameSchedule reports whether two schedules agree bit for bit: flow set,
// paths, priorities and every rate segment.
func sameSchedule(a, b *schedule.Schedule) error {
	ids := a.FlowIDs()
	if len(ids) != len(b.FlowIDs()) {
		return fmt.Errorf("%d flows vs %d", len(ids), len(b.FlowIDs()))
	}
	for _, id := range ids {
		fa, fb := a.FlowSchedule(id), b.FlowSchedule(id)
		if fb == nil {
			return fmt.Errorf("flow %d missing", id)
		}
		if fa.Path.Key() != fb.Path.Key() || fa.Priority != fb.Priority || len(fa.Segments) != len(fb.Segments) {
			return fmt.Errorf("flow %d: path/priority/segment count differ", id)
		}
		for i, sa := range fa.Segments {
			sb := fb.Segments[i]
			if math.Float64bits(sa.Interval.Start) != math.Float64bits(sb.Interval.Start) ||
				math.Float64bits(sa.Interval.End) != math.Float64bits(sb.Interval.End) ||
				math.Float64bits(sa.Rate) != math.Float64bits(sb.Rate) {
				return fmt.Errorf("flow %d segment %d: %+v vs %+v", id, i, sa, sb)
			}
		}
	}
	return nil
}

// randomRouting picks, per flow, one of the k shortest paths uniformly, so
// routings other than shortest-path (and their conflicts) are covered.
func randomRouting(t *testing.T, g *graph.Graph, fs *flow.Set, k int, rng *rand.Rand) map[flow.ID]graph.Path {
	t.Helper()
	paths := make(map[flow.ID]graph.Path, fs.Len())
	for _, f := range fs.Flows() {
		cands, err := g.KShortestPaths(f.Src, f.Dst, k, nil)
		if err != nil {
			t.Fatal(err)
		}
		paths[f.ID] = cands[rng.Intn(len(cands))]
	}
	return paths
}

// randomLineFlows draws n flows on a line's hosts with independent windows,
// the shape the shared fallback needs: narrow spans blocked by wider ones.
func randomLineFlows(t *testing.T, hosts []graph.NodeID, n int, rng *rand.Rand) *flow.Set {
	t.Helper()
	raw := make([]flow.Flow, 0, n)
	for i := 0; i < n; i++ {
		s := rng.Intn(len(hosts) - 1)
		d := s + 1 + rng.Intn(len(hosts)-1-s)
		r := rng.Float64() * 20
		raw = append(raw, flow.Flow{
			Src: hosts[s], Dst: hosts[d],
			Release: r, Deadline: r + 0.5 + rng.Float64()*15,
			Size: 0.2 + rng.Float64()*20,
		})
	}
	fs, err := flow.NewSet(raw)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

// TestMostCriticalFirstMatchesReference runs the incremental candidate
// search and the per-round rebuild (findCritical, kept above verbatim) on
// randomized instances and requires every round to agree bit for bit —
// link, window, intensity bits and flow set — along with the conflict
// count and the whole schedule. The corpus must include instances with
// path conflicts and instances that end in the shared-link fallback.
func TestMostCriticalFirstMatchesReference(t *testing.T) {
	ft4, err := topology.FatTree(4, 1e12)
	if err != nil {
		t.Fatal(err)
	}
	ls, err := topology.LeafSpine(2, 4, 4, 1e12)
	if err != nil {
		t.Fatal(err)
	}
	jf, err := topology.Jellyfish(12, 3, 2, 1e12, 5)
	if err != nil {
		t.Fatal(err)
	}
	line, err := topology.Line(5, 1e12)
	if err != nil {
		t.Fatal(err)
	}
	line3, err := topology.Line(3, 1e12)
	if err != nil {
		t.Fatal(err)
	}
	type instance struct {
		name  string
		g     *graph.Graph
		fs    *flow.Set
		paths map[flow.ID]graph.Path
		m     power.Model
	}
	rng := rand.New(rand.NewSource(11))
	var corpus []instance
	for seed := int64(1); seed <= 6; seed++ {
		alpha := []float64{2, 2.5, 3}[seed%3]
		m := power.Model{Mu: 1, Alpha: alpha}
		for _, top := range []*topology.Topology{ft4, ls, jf} {
			for _, n := range []int{5, 20, 60} {
				fs, err := flow.Uniform(flow.GenConfig{
					N: n, T0: 1, T1: 50, SizeMean: 8, SizeStddev: 3,
					Hosts: top.Hosts, Seed: seed*100 + int64(n),
				})
				if err != nil {
					t.Fatal(err)
				}
				corpus = append(corpus, instance{
					name: fmt.Sprintf("uniform-n%d-seed%d", n, seed),
					g:    top.Graph, fs: fs, m: m,
					paths: randomRouting(t, top.Graph, fs, 1+int(seed%3), rng),
				})
			}
		}
		for _, n := range []int{4, 10, 16} {
			fs := randomLineFlows(t, line.Hosts, n, rng)
			corpus = append(corpus, instance{
				name: fmt.Sprintf("line-n%d-seed%d", n, seed),
				g:    line.Graph, fs: fs, m: m,
				paths: randomRouting(t, line.Graph, fs, 1, rng),
			})
		}
		shuffle, err := flow.Shuffle(ls.Hosts[:3+int(seed)], 1, 10, 2+float64(seed))
		if err != nil {
			t.Fatal(err)
		}
		corpus = append(corpus, instance{
			name: fmt.Sprintf("leafspine-shuffle-seed%d", seed),
			g:    ls.Graph, fs: shuffle, m: m,
			paths: randomRouting(t, ls.Graph, shuffle, 2, rng),
		})
		// TestDCFSSharedFallbackSynthetic's shape with random sizes and
		// spans: a heavy two-link flow and a medium one make the second
		// link critical first, and the heavy flow's slots then block the
		// narrow spans of the light flows on the first link.
		a, b, c := line3.Hosts[0], line3.Hosts[1], line3.Hosts[2]
		raw := []flow.Flow{
			{Src: a, Dst: c, Release: 0, Deadline: 10, Size: 100 * (1 + rng.Float64())},
			{Src: b, Dst: c, Release: 0, Deadline: 10, Size: 50 * (1 + rng.Float64())},
		}
		for i := 0; i < 1+int(seed%3); i++ {
			r := 3 + 2*rng.Float64()
			raw = append(raw, flow.Flow{Src: a, Dst: b, Release: r, Deadline: r + 0.5 + rng.Float64(), Size: 0.1 + rng.Float64()})
		}
		blocked, err := flow.NewSet(raw)
		if err != nil {
			t.Fatal(err)
		}
		corpus = append(corpus, instance{
			name: fmt.Sprintf("line-blocked-seed%d", seed),
			g:    line3.Graph, fs: blocked, m: m,
			paths: randomRouting(t, line3.Graph, blocked, 1, rng),
		})
		incast, err := flow.PartitionAggregate(ft4.Hosts[0], ft4.Hosts[1:4+2*int(seed)], 0, 5+float64(seed), 3)
		if err != nil {
			t.Fatal(err)
		}
		corpus = append(corpus, instance{
			name: fmt.Sprintf("fattree-incast-seed%d", seed),
			g:    ft4.Graph, fs: incast, m: m,
			paths: randomRouting(t, ft4.Graph, incast, 4, rng),
		})
	}

	var rounds, withConflicts, withFallback int
	for _, in := range corpus {
		dcfs := DCFSInput{Graph: in.g, Flows: in.fs, Paths: in.paths, Model: in.m}
		want, fellBack, err := referenceSolveDCFS(dcfs)
		if err != nil {
			t.Fatalf("%s: reference: %v", in.name, err)
		}
		got, err := SolveDCFSCtx(context.Background(), dcfs)
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		if len(got.Rounds) != len(want.Rounds) {
			t.Fatalf("%s: %d rounds, reference %d", in.name, len(got.Rounds), len(want.Rounds))
		}
		for i := range want.Rounds {
			if !sameRound(got.Rounds[i], want.Rounds[i]) {
				t.Fatalf("%s: round %d is %+v, reference %+v", in.name, i, got.Rounds[i], want.Rounds[i])
			}
		}
		if got.Conflicts != want.Conflicts {
			t.Fatalf("%s: %d conflicts, reference %d", in.name, got.Conflicts, want.Conflicts)
		}
		if err := sameSchedule(got.Schedule, want.Schedule); err != nil {
			t.Fatalf("%s: schedule differs from the reference: %v", in.name, err)
		}
		rounds += len(want.Rounds)
		if want.Conflicts > 0 {
			withConflicts++
		}
		if fellBack {
			withFallback++
		}
	}
	t.Logf("%d instances, %d rounds, %d with conflicts, %d ending in the shared fallback",
		len(corpus), rounds, withConflicts, withFallback)
	if withConflicts == 0 || withFallback == 0 {
		t.Fatalf("corpus lost its coverage: %d instances with conflicts, %d with the shared fallback",
			withConflicts, withFallback)
	}
}
