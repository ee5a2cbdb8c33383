package online

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"dcnflow/internal/core"
	"dcnflow/internal/flow"
	"dcnflow/internal/power"
	"dcnflow/internal/schedule"
	"dcnflow/internal/sim"
	"dcnflow/internal/timeline"
	"dcnflow/internal/topology"
)

func TestOnlineMeetsDeadlines(t *testing.T) {
	ft, err := topology.FatTree(4, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := flow.Uniform(flow.GenConfig{
		N: 30, T0: 1, T1: 100, SizeMean: 10, SizeStddev: 3,
		Hosts: ft.Hosts, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := power.Model{Sigma: 0.2, Mu: 1, Alpha: 2, C: 1e9}
	res, err := RunCtx(context.Background(), ft.Graph, fs, m, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Admitted != fs.Len() {
		t.Fatalf("admitted = %d, want %d", res.Admitted, fs.Len())
	}
	if err := res.Schedule.Verify(ft.Graph, fs, m, schedule.VerifyOptions{}); err != nil {
		t.Fatal(err)
	}
	simRes, err := sim.Run(ft.Graph, fs, res.Schedule, m, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if simRes.DeadlinesMissed != 0 {
		t.Fatalf("online schedule missed %d deadlines", simRes.DeadlinesMissed)
	}
}

func TestOnlineMarginalCostSpreadsLoad(t *testing.T) {
	// Two same-span flows between the same pair over parallel links: the
	// second flow must avoid the first one's link (marginal cost of a
	// loaded link is higher under convex g).
	top, src, dst, err := topology.ParallelLinks(2, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := flow.NewSet([]flow.Flow{
		{Src: src, Dst: dst, Release: 0, Deadline: 10, Size: 20},
		{Src: src, Dst: dst, Release: 0, Deadline: 10, Size: 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	m := power.Model{Mu: 1, Alpha: 2, C: 1e9}
	res, err := RunCtx(context.Background(), top.Graph, fs, m, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	p0 := res.Schedule.FlowSchedule(0).Path
	p1 := res.Schedule.FlowSchedule(1).Path
	if p0.Key() == p1.Key() {
		t.Fatalf("both flows on the same link: %s", p0)
	}
	if res.PeakRate > 2+1e-9 {
		t.Fatalf("peak rate %v, want 2 (each link one density-2 flow)", res.PeakRate)
	}
}

func TestOnlineFullCostConsolidates(t *testing.T) {
	// With idle power and full-f costing, a light second flow prefers the
	// link already powered by the first one (it avoids paying sigma to
	// light a dark link).
	top, src, dst, err := topology.ParallelLinks(2, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := flow.NewSet([]flow.Flow{
		{Src: src, Dst: dst, Release: 0, Deadline: 10, Size: 2}, // density 0.2
		{Src: src, Dst: dst, Release: 0, Deadline: 10, Size: 1}, // density 0.1
	})
	if err != nil {
		t.Fatal(err)
	}
	m := power.Model{Sigma: power.SigmaForRopt(1, 2, 5), Mu: 1, Alpha: 2, C: 1e9} // Ropt = 5
	res, err := RunCtx(context.Background(), top.Graph, fs, m, nil, Options{CostFull: true})
	if err != nil {
		t.Fatal(err)
	}
	p0 := res.Schedule.FlowSchedule(0).Path
	p1 := res.Schedule.FlowSchedule(1).Path
	if p0.Key() != p1.Key() {
		t.Fatalf("full-cost metric should consolidate: %s vs %s", p0, p1)
	}
}

func TestOnlineRejectOverCapacity(t *testing.T) {
	top, src, dst, err := topology.ParallelLinks(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	m := power.Model{Mu: 1, Alpha: 2, C: 2}
	fs, err := flow.NewSet([]flow.Flow{
		{Src: src, Dst: dst, Release: 0, Deadline: 1, Size: 1.5},
		{Src: src, Dst: dst, Release: 0, Deadline: 1, Size: 1.5}, // would push rate to 3 > C
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunCtx(context.Background(), top.Graph, fs, m, nil, Options{RejectOverCapacity: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Admitted != 1 {
		t.Fatalf("admitted = %d, want 1", res.Admitted)
	}
	// Without rejection both are admitted (capacity relaxed).
	res2, err := RunCtx(context.Background(), top.Graph, fs, m, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Admitted != 2 {
		t.Fatalf("relaxed admitted = %d, want 2", res2.Admitted)
	}
}

func TestOnlineErrors(t *testing.T) {
	m := power.Model{Mu: 1, Alpha: 2}
	if _, err := New(nil, m, timeline.Interval{}, Options{}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("nil graph err = %v", err)
	}
	line, err := topology.Line(2, 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(line.Graph, power.Model{Mu: 1, Alpha: 0.3}, timeline.Interval{}, Options{}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("bad model err = %v", err)
	}
	s, err := New(line.Graph, m, timeline.Interval{Start: 0, End: 10}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Admit(flow.Flow{Src: 0, Dst: 0, Release: 0, Deadline: 1, Size: 1}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("invalid flow err = %v", err)
	}
	if _, err := RunCtx(context.Background(), line.Graph, nil, m, nil, Options{}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("nil flows err = %v", err)
	}
}

// TestPropertyOnlineNeverBeatsOfflineBadly: on random fat-tree workloads
// the online greedy is within a sane factor of offline Random-Schedule and
// always deadline-feasible.
func TestPropertyOnlineVsOffline(t *testing.T) {
	ft, err := topology.FatTree(4, 1e12)
	if err != nil {
		t.Fatal(err)
	}
	m := power.Model{Mu: 1, Alpha: 2, C: 1e12}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(15)
		fs, err := flow.Uniform(flow.GenConfig{
			N: n, T0: 1, T1: 60, SizeMean: 8, SizeStddev: 2,
			Hosts: ft.Hosts, Seed: seed,
		})
		if err != nil {
			return false
		}
		on, err := RunCtx(context.Background(), ft.Graph, fs, m, nil, Options{})
		if err != nil {
			return false
		}
		if err := on.Schedule.Verify(ft.Graph, fs, m, schedule.VerifyOptions{}); err != nil {
			return false
		}
		off, err := core.SolveDCFSRCtx(context.Background(), core.DCFSRInput{Graph: ft.Graph, Flows: fs, Model: m})
		if err != nil {
			return false
		}
		onE := on.Schedule.EnergyTotal(m)
		offE := off.Schedule.EnergyTotal(m)
		// The online heuristic must stay within 3x of offline RS on these
		// mild instances, and never below the fractional bound.
		return onE <= 3*offE && onE >= off.LowerBound*(1-1e-6)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}
