package core

import (
	"context"
	"math"
	"testing"

	"dcnflow/internal/flow"
	"dcnflow/internal/graph"
	"dcnflow/internal/mcfsolve"
	"dcnflow/internal/power"
	"dcnflow/internal/topology"
)

// warmInstance builds the canonical 40-flow fat-tree relaxation workload.
func warmInstance(t *testing.T) (*topology.Topology, *flow.Set, power.Model) {
	t.Helper()
	ft, err := topology.FatTree(4, 1e12)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := flow.Uniform(flow.GenConfig{
		N: 40, T0: 1, T1: 100, SizeMean: 10, SizeStddev: 3,
		Hosts: ft.Hosts, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ft, fs, power.Model{Mu: 1, Alpha: 2, C: 1e12}
}

// TestWarmStartDeterministicAcrossParallelism: the interval fan-out must make
// relaxation results independent of the worker count.
func TestWarmStartDeterministicAcrossParallelism(t *testing.T) {
	ft, fs, m := warmInstance(t)
	var ref float64
	for i, par := range []int{1, 2, 7} {
		opts := DCFSROptions{
			Seed:        1,
			Solver:      mcfsolve.Options{MaxIters: 25},
			Parallelism: par,
		}.withDefaults()
		rel, err := solveRelaxation(context.Background(), graph.Compile(ft.Graph), fs, m, opts, relaxFull)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			ref = rel.fractional
		} else if rel.fractional != ref {
			t.Fatalf("LB depends on Parallelism: %v (par=1) vs %v (par=%d)", ref, rel.fractional, par)
		}
	}
}

// TestOfflineWarmStartIsCold: WarmStart seeds only rolling re-plans, so an
// offline relaxation is bit-identical with and without it — which is what
// lets the Engine key memoised lower bounds by solver options alone.
func TestOfflineWarmStartIsCold(t *testing.T) {
	ft, fs, m := warmInstance(t)
	var lbs [2]float64
	for i, warm := range []bool{false, true} {
		lb, err := LowerBoundCtx(context.Background(), ft.Graph, fs, m, DCFSROptions{
			Seed: 1, Solver: mcfsolve.Options{MaxIters: 25}, WarmStart: warm,
		})
		if err != nil {
			t.Fatal(err)
		}
		lbs[i] = lb
	}
	if math.Float64bits(lbs[0]) != math.Float64bits(lbs[1]) {
		t.Fatalf("offline LB: cold %v, WarmStart %v", lbs[0], lbs[1])
	}
}

// TestWarmStartSolverAPI: a solve warm-seeded with a previous result must
// reproduce a feasible decomposition for matching commodities.
func TestWarmStartSolverAPI(t *testing.T) {
	ft, _, m := warmInstance(t)
	comms := []mcfsolve.Commodity{
		{ID: 1, Src: ft.Hosts[0], Dst: ft.Hosts[9], Demand: 2},
		{ID: 2, Src: ft.Hosts[3], Dst: ft.Hosts[12], Demand: 1.5},
	}
	s, err := mcfsolve.NewSolverCompiled(graph.Compile(ft.Graph), m, mcfsolve.Options{MaxIters: 40})
	if err != nil {
		t.Fatal(err)
	}
	first, err := s.Solve(comms)
	if err != nil {
		t.Fatal(err)
	}
	// Second instance: shared flow 1 (warm-startable), new flow 3 (cold).
	comms2 := []mcfsolve.Commodity{
		{ID: 1, Src: ft.Hosts[0], Dst: ft.Hosts[9], Demand: 2},
		{ID: 3, Src: ft.Hosts[5], Dst: ft.Hosts[14], Demand: 1},
	}
	second, err := s.SolveBaseWarmCtx(context.Background(), comms2, nil, mcfsolve.WarmStart{Commodities: comms, Result: first})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range comms2 {
		var total float64
		for _, wp := range second.PathsByCommodity[i] {
			if err := wp.Path.Validate(ft.Graph, c.Src, c.Dst); err != nil {
				t.Fatalf("commodity %d: invalid path: %v", i, err)
			}
			total += wp.Weight
		}
		if math.Abs(total-c.Demand) > 1e-6*c.Demand {
			t.Fatalf("commodity %d: decomposition weight %v != demand %v", i, total, c.Demand)
		}
	}
}
