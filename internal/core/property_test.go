package core

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"dcnflow/internal/flow"
	"dcnflow/internal/graph"
	"dcnflow/internal/mcfsolve"
	"dcnflow/internal/power"
	"dcnflow/internal/schedule"
	"dcnflow/internal/sim"
	"dcnflow/internal/topology"
)

// TestPropertyDCFSRAlwaysMeetsDeadlines is Theorem 4 as a property: for
// random workloads and rounding seeds, Random-Schedule never misses a
// deadline (capacity relaxed).
func TestPropertyDCFSRAlwaysMeetsDeadlines(t *testing.T) {
	ft, err := topology.FatTree(4, 1e12)
	if err != nil {
		t.Fatal(err)
	}
	m := power.Model{Sigma: 0.2, Mu: 1, Alpha: 2, C: 1e12}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(15)
		fs, err := flow.Uniform(flow.GenConfig{
			N: n, T0: 1, T1: 50, SizeMean: 8, SizeStddev: 3,
			Hosts: ft.Hosts, Seed: seed,
		})
		if err != nil {
			return false
		}
		res, err := SolveDCFSRCtx(context.Background(), DCFSRInput{
			Graph: ft.Graph, Flows: fs, Model: m,
			Opts: DCFSROptions{Seed: seed, Solver: mcfsolve.Options{MaxIters: 15}},
		})
		if err != nil {
			return false
		}
		if err := res.Schedule.Verify(ft.Graph, fs, m, schedule.VerifyOptions{}); err != nil {
			return false
		}
		simRes, err := sim.Run(ft.Graph, fs, res.Schedule, m, sim.Options{})
		if err != nil {
			return false
		}
		return simRes.DeadlinesMissed == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyDCFSAlwaysFeasible: Most-Critical-First output is always
// deadline-feasible on random line-network instances, with or without the
// shared fallback.
func TestPropertyDCFSAlwaysFeasible(t *testing.T) {
	m := power.Model{Mu: 1, Alpha: 2.5}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		line, err := topology.Line(5, 1e12)
		if err != nil {
			return false
		}
		n := 2 + rng.Intn(10)
		raw := make([]flow.Flow, 0, n)
		for i := 0; i < n; i++ {
			s := rng.Intn(4)
			d := s + 1 + rng.Intn(4-s)
			r := rng.Float64() * 20
			raw = append(raw, flow.Flow{
				Src: line.Hosts[s], Dst: line.Hosts[d],
				Release: r, Deadline: r + 0.5 + rng.Float64()*15,
				Size: 0.2 + rng.Float64()*20,
			})
		}
		fs, err := flow.NewSet(raw)
		if err != nil {
			return false
		}
		paths := make(map[flow.ID]graph.Path, fs.Len())
		for _, f := range fs.Flows() {
			p, err := line.Graph.ShortestPath(f.Src, f.Dst)
			if err != nil {
				return false
			}
			paths[f.ID] = p
		}
		res, err := SolveDCFSCtx(context.Background(), DCFSInput{Graph: line.Graph, Flows: fs, Paths: paths, Model: m})
		if err != nil {
			return false
		}
		return res.Schedule.Verify(line.Graph, fs, m, schedule.VerifyOptions{}) == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertySplittingNeverHurtsOnParallelLinks: splitting one big flow
// into k sub-flows (Section II-B) lets DCFSR spread load across parallel
// links; with convex dynamic power this must not increase energy.
func TestPropertySplittingNeverHurtsOnParallelLinks(t *testing.T) {
	m := power.Model{Mu: 1, Alpha: 2, C: 1e12}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		top, src, dst, err := topology.ParallelLinks(4, 1e12)
		if err != nil {
			return false
		}
		size := 4 + rng.Float64()*12
		whole, err := flow.NewSet([]flow.Flow{
			{Src: src, Dst: dst, Release: 0, Deadline: 2, Size: size},
		})
		if err != nil {
			return false
		}
		parts, err := flow.SplitSet(whole, size/4)
		if err != nil {
			return false
		}
		solve := func(fs *flow.Set) float64 {
			res, err := SolveDCFSRCtx(context.Background(), DCFSRInput{
				Graph: top.Graph, Flows: fs, Model: m,
				Opts: DCFSROptions{Seed: seed},
			})
			if err != nil {
				return -1
			}
			return res.Schedule.EnergyTotal(m)
		}
		eWhole := solve(whole)
		eSplit := solve(parts)
		if eWhole < 0 || eSplit < 0 {
			return false
		}
		return eSplit <= eWhole*(1+1e-6)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestDCFSConflictInstance exercises the cross-link conflict scenario the
// packCritical path-aware EDF resolves: two flows share a critical link
// while one of them also traverses a link already blocked by an earlier
// round. The path-aware packer must place it without overlap.
func TestDCFSConflictInstance(t *testing.T) {
	// Nodes: a-b-c-d line; flows:
	//   J (b->c, [0,1], w=10): round 1, blocks bc during [0,1].
	//   I1 (a->d, [0,2], w=2): traverses ab, bc, cd.
	//   I2 (a->b, [0,2], w=3): traverses ab only.
	// Round 2's critical link is ab with both I1, I2; I1 can only use
	// [1,2] because bc is blocked in [0,1].
	line, err := topology.Line(4, 1e12)
	if err != nil {
		t.Fatal(err)
	}
	a, b, c, d := line.Hosts[0], line.Hosts[1], line.Hosts[2], line.Hosts[3]
	fs, err := flow.NewSet([]flow.Flow{
		{Src: b, Dst: c, Release: 0, Deadline: 1, Size: 10}, // J
		{Src: a, Dst: d, Release: 0, Deadline: 2, Size: 2},  // I1
		{Src: a, Dst: b, Release: 0, Deadline: 2, Size: 3},  // I2
	})
	if err != nil {
		t.Fatal(err)
	}
	paths := make(map[flow.ID]graph.Path, fs.Len())
	for _, f := range fs.Flows() {
		p, err := line.Graph.ShortestPath(f.Src, f.Dst)
		if err != nil {
			t.Fatal(err)
		}
		paths[f.ID] = p
	}
	m := power.Model{Mu: 1, Alpha: 2}
	res, err := SolveDCFSCtx(context.Background(), DCFSInput{Graph: line.Graph, Flows: fs, Paths: paths, Model: m})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Schedule.Verify(line.Graph, fs, m, schedule.VerifyOptions{}); err != nil {
		t.Fatal(err)
	}
	// I1 must not transmit while bc is blocked by J ([0,1]) if the
	// path-aware packer did its job (no conflicts reported).
	if res.Conflicts == 0 {
		i1 := res.Schedule.FlowSchedule(1)
		for _, seg := range i1.Segments {
			if seg.Interval.Start < 1-1e-9 {
				t.Fatalf("I1 transmits during J's bc occupation: %+v", i1.Segments)
			}
		}
	}
}
