package schedule

import (
	"errors"
	"math"
	"testing"
	"time"

	"dcnflow/internal/flow"
	"dcnflow/internal/graph"
	"dcnflow/internal/power"
	"dcnflow/internal/timeline"
)

// lineFixture builds a 3-node line (paper Fig. 1) and the two Example 1
// flows.
func lineFixture(t *testing.T) (*graph.Graph, *flow.Set, graph.Path, graph.Path) {
	t.Helper()
	g := graph.New()
	a := g.AddNode("A", graph.KindHost)
	b := g.AddNode("B", graph.KindHost)
	c := g.AddNode("C", graph.KindHost)
	ab, _, err := g.AddBiEdge(a, b, 100)
	if err != nil {
		t.Fatal(err)
	}
	bc, _, err := g.AddBiEdge(b, c, 100)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := flow.NewSet([]flow.Flow{
		{Src: a, Dst: c, Release: 2, Deadline: 4, Size: 6}, // j1
		{Src: a, Dst: b, Release: 1, Deadline: 3, Size: 8}, // j2
	})
	if err != nil {
		t.Fatal(err)
	}
	return g, fs, graph.Path{Edges: []graph.EdgeID{ab, bc}}, graph.Path{Edges: []graph.EdgeID{ab}}
}

func TestFlowScheduleAccessors(t *testing.T) {
	fs := &FlowSchedule{
		FlowID: 1,
		Segments: []RateSegment{
			{Interval: timeline.Interval{Start: 2, End: 3}, Rate: 4},
			{Interval: timeline.Interval{Start: 5, End: 7}, Rate: 1},
		},
	}
	if got := fs.DataTransferred(); got != 6 {
		t.Fatalf("DataTransferred = %v, want 6", got)
	}
	if fs.Start() != 2 || fs.End() != 7 {
		t.Fatalf("Start/End = %v/%v, want 2/7", fs.Start(), fs.End())
	}
	if fs.MaxRate() != 4 {
		t.Fatalf("MaxRate = %v, want 4", fs.MaxRate())
	}
	empty := &FlowSchedule{}
	if !math.IsInf(empty.Start(), 1) || !math.IsInf(empty.End(), -1) {
		t.Fatal("empty schedule Start/End should be +/-Inf")
	}
}

func TestSetFlowValidation(t *testing.T) {
	s := New(timeline.Interval{Start: 0, End: 10})
	bad := &FlowSchedule{FlowID: 0, Segments: []RateSegment{
		{Interval: timeline.Interval{Start: 0, End: 1}, Rate: -1},
	}}
	if err := s.SetFlow(bad); err == nil {
		t.Fatal("negative rate accepted")
	}
	overlap := &FlowSchedule{FlowID: 0, Segments: []RateSegment{
		{Interval: timeline.Interval{Start: 0, End: 2}, Rate: 1},
		{Interval: timeline.Interval{Start: 1, End: 3}, Rate: 1},
	}}
	if err := s.SetFlow(overlap); err == nil {
		t.Fatal("overlapping segments accepted")
	}
	ok := &FlowSchedule{FlowID: 0, Segments: []RateSegment{
		{Interval: timeline.Interval{Start: 3, End: 4}, Rate: 1},
		{Interval: timeline.Interval{Start: 0, End: 1}, Rate: 1},
	}}
	if err := s.SetFlow(ok); err != nil {
		t.Fatalf("valid flow rejected: %v", err)
	}
	// Segments must now be sorted.
	if ok.Segments[0].Interval.Start != 0 {
		t.Fatal("segments not normalized to sorted order")
	}
	if err := s.SetFlow(&FlowSchedule{FlowID: 0}); !errors.Is(err, ErrDuplicateFlow) {
		t.Fatalf("duplicate flow err = %v, want ErrDuplicateFlow", err)
	}
}

// TestSetFlowRejectsNonFinite: a segment with a NaN or infinite time or
// rate is rejected before it can reach the link-rate sweep.
func TestSetFlowRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for name, seg := range map[string]RateSegment{
		"nan start": {Interval: timeline.Interval{Start: nan, End: 1}, Rate: 1},
		"inf end":   {Interval: timeline.Interval{Start: 0, End: inf}, Rate: 1},
		"nan rate":  {Interval: timeline.Interval{Start: 0, End: 1}, Rate: nan},
		"inf rate":  {Interval: timeline.Interval{Start: 0, End: 1}, Rate: inf},
	} {
		s := New(timeline.Interval{Start: 0, End: 10})
		if err := s.SetFlow(&FlowSchedule{FlowID: 0, Segments: []RateSegment{seg}}); err == nil {
			t.Errorf("%s: segment accepted", name)
		}
	}
}

// TestSweepNaNEventTerminates: an event time that compares false to
// everything must not stall the link-rate sweep.
func TestSweepNaNEventTerminates(t *testing.T) {
	done := make(chan []RateSegment, 1)
	go func() {
		done <- sweep([]linkEvent{{t: 0, delta: 1}, {t: math.NaN(), delta: 2}, {t: 1, delta: -1}, {t: math.NaN(), delta: -2}})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("sweep did not terminate on a NaN event time")
	}
	// Finite events keep their segments exactly.
	got := sweep([]linkEvent{{t: 0, delta: 1}, {t: 2, delta: 1}, {t: 1, delta: -1}, {t: 3, delta: -1}})
	want := []RateSegment{
		{Interval: timeline.Interval{Start: 0, End: 1}, Rate: 1},
		{Interval: timeline.Interval{Start: 2, End: 3}, Rate: 1},
	}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("sweep = %v, want %v", got, want)
	}
}

func TestLinkRatesAggregation(t *testing.T) {
	g, _, p1, p2 := lineFixture(t)
	_ = g
	s := New(timeline.Interval{Start: 0, End: 10})
	mustSet := func(fs *FlowSchedule) {
		t.Helper()
		if err := s.SetFlow(fs); err != nil {
			t.Fatal(err)
		}
	}
	// Flow 0 at rate 2 on both links during [0, 4]; flow 1 at rate 3 on
	// link ab during [2, 6]: ab rate must be 2, then 5, then 3.
	mustSet(&FlowSchedule{FlowID: 0, Path: p1, Segments: []RateSegment{
		{Interval: timeline.Interval{Start: 0, End: 4}, Rate: 2},
	}})
	mustSet(&FlowSchedule{FlowID: 1, Path: p2, Segments: []RateSegment{
		{Interval: timeline.Interval{Start: 2, End: 6}, Rate: 3},
	}})
	rates := s.LinkRates()
	ab := p2.Edges[0]
	segs := rates[ab]
	want := []RateSegment{
		{Interval: timeline.Interval{Start: 0, End: 2}, Rate: 2},
		{Interval: timeline.Interval{Start: 2, End: 4}, Rate: 5},
		{Interval: timeline.Interval{Start: 4, End: 6}, Rate: 3},
	}
	if len(segs) != len(want) {
		t.Fatalf("link ab segments = %+v, want %+v", segs, want)
	}
	for i := range want {
		if math.Abs(segs[i].Rate-want[i].Rate) > 1e-9 ||
			math.Abs(segs[i].Interval.Start-want[i].Interval.Start) > 1e-9 ||
			math.Abs(segs[i].Interval.End-want[i].Interval.End) > 1e-9 {
			t.Fatalf("segment %d = %+v, want %+v", i, segs[i], want[i])
		}
	}
	bc := p1.Edges[1]
	if len(rates[bc]) != 1 || rates[bc][0].Rate != 2 {
		t.Fatalf("link bc segments = %+v", rates[bc])
	}
}

func TestActiveLinks(t *testing.T) {
	_, _, p1, p2 := lineFixture(t)
	s := New(timeline.Interval{Start: 0, End: 10})
	if err := s.SetFlow(&FlowSchedule{FlowID: 0, Path: p1, Segments: []RateSegment{
		{Interval: timeline.Interval{Start: 0, End: 1}, Rate: 1},
	}}); err != nil {
		t.Fatal(err)
	}
	// Flow with no segments does not activate links.
	if err := s.SetFlow(&FlowSchedule{FlowID: 1, Path: p2}); err != nil {
		t.Fatal(err)
	}
	active := s.ActiveLinks()
	if len(active) != 2 {
		t.Fatalf("active links = %v, want the 2 links of p1", active)
	}
}

func TestEnergyAccounting(t *testing.T) {
	_, _, p1, _ := lineFixture(t)
	m := power.Model{Sigma: 1, Mu: 1, Alpha: 2, C: 100}
	s := New(timeline.Interval{Start: 0, End: 10})
	// One flow, rate 3 for 2 time units on a 2-link path:
	// dynamic = 2 links * 3^2 * 2 = 36; idle = 2 links * sigma * 10 = 20.
	if err := s.SetFlow(&FlowSchedule{FlowID: 0, Path: p1, Segments: []RateSegment{
		{Interval: timeline.Interval{Start: 1, End: 3}, Rate: 3},
	}}); err != nil {
		t.Fatal(err)
	}
	if got := s.EnergyDynamic(m); math.Abs(got-36) > 1e-9 {
		t.Fatalf("EnergyDynamic = %v, want 36", got)
	}
	if got := s.EnergyTotal(m); math.Abs(got-56) > 1e-9 {
		t.Fatalf("EnergyTotal = %v, want 56", got)
	}
}

func TestEnergySuperposition(t *testing.T) {
	// Two flows overlapping on a shared link: energy must use the summed
	// rate, not the sum of per-flow energies (alpha > 1 is superadditive).
	_, _, _, p2 := lineFixture(t)
	m := power.Model{Sigma: 0, Mu: 1, Alpha: 2, C: 100}
	s := New(timeline.Interval{Start: 0, End: 10})
	for id := 0; id < 2; id++ {
		if err := s.SetFlow(&FlowSchedule{FlowID: flow.ID(id), Path: p2, Segments: []RateSegment{
			{Interval: timeline.Interval{Start: 0, End: 1}, Rate: 1},
		}}); err != nil {
			t.Fatal(err)
		}
	}
	// x = 2 on one link for 1 unit: energy = 4 (not 1+1).
	if got := s.EnergyDynamic(m); math.Abs(got-4) > 1e-9 {
		t.Fatalf("EnergyDynamic = %v, want 4", got)
	}
}

func TestVerifyHappyPath(t *testing.T) {
	g, fset, p1, p2 := lineFixture(t)
	m := power.Model{Sigma: 1, Mu: 1, Alpha: 2, C: 100}
	s := New(timeline.Interval{Start: 1, End: 4})
	// Feasible: flow 0 (w=6, span [2,4]) at rate 3; flow 1 (w=8, span
	// [1,3]) at rate 4.
	if err := s.SetFlow(&FlowSchedule{FlowID: 0, Path: p1, Segments: []RateSegment{
		{Interval: timeline.Interval{Start: 2, End: 4}, Rate: 3},
	}}); err != nil {
		t.Fatal(err)
	}
	if err := s.SetFlow(&FlowSchedule{FlowID: 1, Path: p2, Segments: []RateSegment{
		{Interval: timeline.Interval{Start: 1, End: 3}, Rate: 4},
	}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Verify(g, fset, m, VerifyOptions{EnforceCapacity: true}); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestVerifyFailures(t *testing.T) {
	g, fset, p1, p2 := lineFixture(t)
	m := power.Model{Sigma: 1, Mu: 1, Alpha: 2, C: 100}

	t.Run("missing flow", func(t *testing.T) {
		s := New(timeline.Interval{Start: 1, End: 4})
		if err := s.Verify(g, fset, m, VerifyOptions{}); !errors.Is(err, ErrInfeasible) {
			t.Fatalf("err = %v, want ErrInfeasible", err)
		}
	})
	t.Run("incomplete data", func(t *testing.T) {
		s := New(timeline.Interval{Start: 1, End: 4})
		_ = s.SetFlow(&FlowSchedule{FlowID: 0, Path: p1, Segments: []RateSegment{
			{Interval: timeline.Interval{Start: 2, End: 4}, Rate: 1}, // only 2 of 6
		}})
		_ = s.SetFlow(&FlowSchedule{FlowID: 1, Path: p2, Segments: []RateSegment{
			{Interval: timeline.Interval{Start: 1, End: 3}, Rate: 4},
		}})
		if err := s.Verify(g, fset, m, VerifyOptions{}); !errors.Is(err, ErrInfeasible) {
			t.Fatalf("err = %v, want ErrInfeasible", err)
		}
	})
	t.Run("outside span", func(t *testing.T) {
		s := New(timeline.Interval{Start: 1, End: 4})
		_ = s.SetFlow(&FlowSchedule{FlowID: 0, Path: p1, Segments: []RateSegment{
			{Interval: timeline.Interval{Start: 0, End: 2}, Rate: 3}, // before release 2
		}})
		_ = s.SetFlow(&FlowSchedule{FlowID: 1, Path: p2, Segments: []RateSegment{
			{Interval: timeline.Interval{Start: 1, End: 3}, Rate: 4},
		}})
		if err := s.Verify(g, fset, m, VerifyOptions{}); !errors.Is(err, ErrInfeasible) {
			t.Fatalf("err = %v, want ErrInfeasible", err)
		}
	})
	t.Run("wrong path", func(t *testing.T) {
		s := New(timeline.Interval{Start: 1, End: 4})
		_ = s.SetFlow(&FlowSchedule{FlowID: 0, Path: p2 /* ends at B, not C */, Segments: []RateSegment{
			{Interval: timeline.Interval{Start: 2, End: 4}, Rate: 3},
		}})
		_ = s.SetFlow(&FlowSchedule{FlowID: 1, Path: p2, Segments: []RateSegment{
			{Interval: timeline.Interval{Start: 1, End: 3}, Rate: 4},
		}})
		if err := s.Verify(g, fset, m, VerifyOptions{}); !errors.Is(err, ErrInfeasible) {
			t.Fatalf("err = %v, want ErrInfeasible", err)
		}
	})
	t.Run("capacity violation", func(t *testing.T) {
		tight := power.Model{Sigma: 1, Mu: 1, Alpha: 2, C: 3.5}
		s := New(timeline.Interval{Start: 1, End: 4})
		_ = s.SetFlow(&FlowSchedule{FlowID: 0, Path: p1, Segments: []RateSegment{
			{Interval: timeline.Interval{Start: 2, End: 4}, Rate: 3},
		}})
		_ = s.SetFlow(&FlowSchedule{FlowID: 1, Path: p2, Segments: []RateSegment{
			{Interval: timeline.Interval{Start: 1, End: 3}, Rate: 4},
		}})
		// Combined ab rate in [2,3] is 7 > C.
		if err := s.Verify(g, fset, tight, VerifyOptions{EnforceCapacity: true}); !errors.Is(err, ErrInfeasible) {
			t.Fatalf("err = %v, want ErrInfeasible", err)
		}
		// Without capacity enforcement it passes.
		if err := s.Verify(g, fset, tight, VerifyOptions{}); err != nil {
			t.Fatalf("relaxed Verify: %v", err)
		}
	})
	t.Run("exclusivity violation", func(t *testing.T) {
		s := New(timeline.Interval{Start: 1, End: 4})
		_ = s.SetFlow(&FlowSchedule{FlowID: 0, Path: p1, Segments: []RateSegment{
			{Interval: timeline.Interval{Start: 2, End: 4}, Rate: 3},
		}})
		_ = s.SetFlow(&FlowSchedule{FlowID: 1, Path: p2, Segments: []RateSegment{
			{Interval: timeline.Interval{Start: 1, End: 3}, Rate: 4},
		}})
		// Flows 0 and 1 share link ab during [2, 3].
		if err := s.Verify(g, fset, m, VerifyOptions{ExclusiveLinks: true}); !errors.Is(err, ErrInfeasible) {
			t.Fatalf("err = %v, want ErrInfeasible", err)
		}
	})
}

func TestAssignPriorities(t *testing.T) {
	_, _, p1, p2 := lineFixture(t)
	s := New(timeline.Interval{Start: 0, End: 10})
	_ = s.SetFlow(&FlowSchedule{FlowID: 0, Path: p1, Segments: []RateSegment{
		{Interval: timeline.Interval{Start: 5, End: 6}, Rate: 1},
	}})
	_ = s.SetFlow(&FlowSchedule{FlowID: 1, Path: p2, Segments: []RateSegment{
		{Interval: timeline.Interval{Start: 1, End: 2}, Rate: 1},
	}})
	s.AssignPriorities()
	if s.FlowSchedule(1).Priority != 0 || s.FlowSchedule(0).Priority != 1 {
		t.Fatalf("priorities = %d, %d; earlier start should get 0",
			s.FlowSchedule(1).Priority, s.FlowSchedule(0).Priority)
	}
}

func TestMaxLinkRate(t *testing.T) {
	_, _, _, p2 := lineFixture(t)
	s := New(timeline.Interval{Start: 0, End: 10})
	_ = s.SetFlow(&FlowSchedule{FlowID: 0, Path: p2, Segments: []RateSegment{
		{Interval: timeline.Interval{Start: 0, End: 1}, Rate: 7},
	}})
	if got := s.MaxLinkRate(); got != 7 {
		t.Fatalf("MaxLinkRate = %v, want 7", got)
	}
	if got := New(timeline.Interval{}).MaxLinkRate(); got != 0 {
		t.Fatalf("empty MaxLinkRate = %v, want 0", got)
	}
}

func TestFlowIDsSorted(t *testing.T) {
	_, _, p1, _ := lineFixture(t)
	s := New(timeline.Interval{Start: 0, End: 10})
	for _, id := range []flow.ID{3, 0, 2} {
		if err := s.SetFlow(&FlowSchedule{FlowID: id, Path: p1, Segments: []RateSegment{
			{Interval: timeline.Interval{Start: 0, End: 1}, Rate: 1},
		}}); err != nil {
			t.Fatal(err)
		}
	}
	ids := s.FlowIDs()
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Fatalf("FlowIDs not sorted: %v", ids)
		}
	}
}

// TestEnergyDeterministicUnderMapOrder guards the determinism contract of
// LinkRates/EnergyDynamic: with several flows sharing segment boundaries on
// one link, the per-link rate accumulation must not depend on the flow
// map's iteration order. Before flows were swept in id order (and sweep
// made stable), three-plus coincident deltas summed in map order and the
// energy drifted in its last bits from run to run.
func TestEnergyDeterministicUnderMapOrder(t *testing.T) {
	g := graph.New()
	a := g.AddNode("A", graph.KindHost)
	b := g.AddNode("B", graph.KindHost)
	ab, _, err := g.AddBiEdge(a, b, 100)
	if err != nil {
		t.Fatal(err)
	}
	m := power.Model{Mu: 1, Alpha: 2, C: 100}
	build := func() *Schedule {
		s := New(timeline.Interval{Start: 0, End: 10})
		// Rates chosen so the sum's low bits depend on association order.
		for i, rate := range []float64{0.1, 0.2, 0.3, 0.7, 1e-9, 3.3333333333333335} {
			if err := s.SetFlow(&FlowSchedule{
				FlowID: flow.ID(i),
				Path:   graph.Path{Edges: []graph.EdgeID{ab}},
				Segments: []RateSegment{{
					Interval: timeline.Interval{Start: 1, End: 9},
					Rate:     rate,
				}},
			}); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	want := build().EnergyDynamic(m)
	for i := 0; i < 100; i++ {
		if got := build().EnergyDynamic(m); got != want {
			t.Fatalf("EnergyDynamic nondeterministic: %v != %v (iteration %d)", got, want, i)
		}
	}
}
