package core

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dcnflow/internal/flow"
	"dcnflow/internal/graph"
	"dcnflow/internal/mcfsolve"
	"dcnflow/internal/power"
	"dcnflow/internal/topology"
)

// metamorphic workload helper: a small fat-tree instance.
func smallInstance(t *testing.T, seed int64, n int) (*topology.Topology, *flow.Set) {
	t.Helper()
	ft, err := topology.FatTree(4, 1e12)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := flow.Uniform(flow.GenConfig{
		N: n, T0: 1, T1: 50, SizeMean: 8, SizeStddev: 2,
		Hosts: ft.Hosts, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ft, fs
}

// shiftFlows translates every span by delta.
func shiftFlows(t *testing.T, fs *flow.Set, delta float64) *flow.Set {
	t.Helper()
	raw := fs.Flows()
	for i := range raw {
		raw[i].Release += delta
		raw[i].Deadline += delta
	}
	out, err := flow.NewSet(raw)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// scaleFlows multiplies every size by c.
func scaleFlows(t *testing.T, fs *flow.Set, c float64) *flow.Set {
	t.Helper()
	raw := fs.Flows()
	for i := range raw {
		raw[i].Size *= c
	}
	out, err := flow.NewSet(raw)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestMetamorphicDCFSTimeShiftInvariant: shifting all spans by a constant
// leaves the Most-Critical-First energy unchanged.
func TestMetamorphicDCFSTimeShiftInvariant(t *testing.T) {
	ft, fs := smallInstance(t, 31, 15)
	m := power.Model{Mu: 1, Alpha: 2}
	paths := make(map[flow.ID]graph.Path, fs.Len())
	for _, f := range fs.Flows() {
		p, err := ft.Graph.ShortestPath(f.Src, f.Dst)
		if err != nil {
			t.Fatal(err)
		}
		paths[f.ID] = p
	}
	solve := func(set *flow.Set) float64 {
		res, err := SolveDCFSCtx(context.Background(), DCFSInput{Graph: ft.Graph, Flows: set, Paths: paths, Model: m})
		if err != nil {
			t.Fatal(err)
		}
		return res.Schedule.EnergyDynamic(m)
	}
	base := solve(fs)
	shifted := solve(shiftFlows(t, fs, 123.5))
	if math.Abs(base-shifted)/base > 1e-9 {
		t.Fatalf("time shift changed energy: %v vs %v", base, shifted)
	}
}

// TestMetamorphicDCFSSizeScaling: with sigma = 0, scaling all sizes by c
// scales the optimal dynamic energy by exactly c^alpha (rates scale
// linearly, energy = sum w * s^(alpha-1)).
func TestMetamorphicDCFSSizeScaling(t *testing.T) {
	const alpha = 2.5
	ft, fs := smallInstance(t, 32, 12)
	m := power.Model{Mu: 1, Alpha: alpha}
	paths := make(map[flow.ID]graph.Path, fs.Len())
	for _, f := range fs.Flows() {
		p, err := ft.Graph.ShortestPath(f.Src, f.Dst)
		if err != nil {
			t.Fatal(err)
		}
		paths[f.ID] = p
	}
	solve := func(set *flow.Set) float64 {
		res, err := SolveDCFSCtx(context.Background(), DCFSInput{Graph: ft.Graph, Flows: set, Paths: paths, Model: m})
		if err != nil {
			t.Fatal(err)
		}
		return res.Schedule.EnergyDynamic(m)
	}
	base := solve(fs)
	const c = 3.0
	scaled := solve(scaleFlows(t, fs, c))
	want := base * math.Pow(c, alpha)
	if math.Abs(scaled-want)/want > 1e-9 {
		t.Fatalf("scaling law violated: got %v, want %v", scaled, want)
	}
}

// TestMetamorphicLowerBoundScaling: the fractional LB obeys the same
// c^alpha law under sigma = 0 (densities scale linearly, envelope = g).
func TestMetamorphicLowerBoundScaling(t *testing.T) {
	ft, fs := smallInstance(t, 33, 10)
	m := power.Model{Mu: 1, Alpha: 2}
	opts := DCFSROptions{Solver: mcfsolve.Options{MaxIters: 40, Tol: 1e-8}}
	base, err := LowerBoundCtx(context.Background(), ft.Graph, fs, m, opts)
	if err != nil {
		t.Fatal(err)
	}
	const c = 2.0
	scaled, err := LowerBoundCtx(context.Background(), ft.Graph, scaleFlows(t, fs, c), m, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := base * c * c
	if math.Abs(scaled-want)/want > 1e-2 { // Frank–Wolfe tolerance
		t.Fatalf("LB scaling: got %v, want ~%v", scaled, want)
	}
}

// TestMetamorphicDCFSRSubsetMonotone: removing flows never increases the
// Random-Schedule lower bound.
func TestMetamorphicDCFSRSubsetMonotone(t *testing.T) {
	ft, fs := smallInstance(t, 34, 10)
	m := power.Model{Mu: 1, Alpha: 2}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		raw := fs.Flows()
		keep := raw[:0]
		for _, f := range raw {
			if rng.Float64() < 0.7 {
				keep = append(keep, f)
			}
		}
		if len(keep) == 0 {
			return true
		}
		sub, err := flow.NewSet(keep)
		if err != nil {
			return false
		}
		full, err := LowerBoundCtx(context.Background(), ft.Graph, fs, m, DCFSROptions{Solver: mcfsolve.Options{MaxIters: 25}})
		if err != nil {
			return false
		}
		partial, err := LowerBoundCtx(context.Background(), ft.Graph, sub, m, DCFSROptions{Solver: mcfsolve.Options{MaxIters: 25}})
		if err != nil {
			return false
		}
		// 2% slack for solver tolerance.
		return partial <= full*1.02
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}
