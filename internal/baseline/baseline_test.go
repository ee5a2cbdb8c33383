package baseline

import (
	"context"
	"errors"
	"math"
	"testing"

	"dcnflow/internal/core"
	"dcnflow/internal/flow"
	"dcnflow/internal/graph"
	"dcnflow/internal/power"
	"dcnflow/internal/schedule"
	"dcnflow/internal/topology"
)

func fixture(t *testing.T, n int, seed int64) (*topology.Topology, *flow.Set) {
	t.Helper()
	ft, err := topology.FatTree(4, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := flow.Uniform(flow.GenConfig{
		N: n, T0: 1, T1: 100, SizeMean: 10, SizeStddev: 3,
		Hosts: ft.Hosts, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ft, fs
}

func TestShortestPathsValid(t *testing.T) {
	ft, fs := fixture(t, 20, 1)
	paths, err := ShortestPaths(ft.Graph, fs)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fs.Flows() {
		if err := paths[f.ID].Validate(ft.Graph, f.Src, f.Dst); err != nil {
			t.Fatalf("flow %d: %v", f.ID, err)
		}
	}
	if _, err := ShortestPaths(nil, fs); !errors.Is(err, ErrBadInput) {
		t.Fatalf("nil graph err = %v, want ErrBadInput", err)
	}
}

func TestECMPPathsValidAndMinimal(t *testing.T) {
	ft, fs := fixture(t, 20, 2)
	ref, err := ShortestPaths(ft.Graph, fs)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := ECMPPaths(ft.Graph, fs, 8, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fs.Flows() {
		if err := paths[f.ID].Validate(ft.Graph, f.Src, f.Dst); err != nil {
			t.Fatalf("flow %d: %v", f.ID, err)
		}
		if paths[f.ID].Len() != ref[f.ID].Len() {
			t.Fatalf("flow %d: ECMP path length %d != shortest %d", f.ID, paths[f.ID].Len(), ref[f.ID].Len())
		}
	}
	if _, err := ECMPPaths(ft.Graph, fs, 0, 7); !errors.Is(err, ErrBadInput) {
		t.Fatalf("k=0 err = %v, want ErrBadInput", err)
	}
}

func TestECMPDiversity(t *testing.T) {
	// On a fat-tree, cross-pod flows have several equal-cost paths; with
	// many flows, ECMP should pick at least two distinct routes for some
	// source-destination pair seen twice.
	ft, err := topology.FatTree(4, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	raw := make([]flow.Flow, 20)
	for i := range raw {
		raw[i] = flow.Flow{
			Src: ft.Hosts[0], Dst: ft.Hosts[15],
			Release: float64(i), Deadline: float64(i + 10), Size: 1,
		}
	}
	fs, err := flow.NewSet(raw)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := ECMPPaths(ft.Graph, fs, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]bool{}
	for _, p := range paths {
		keys[p.Key()] = true
	}
	if len(keys) < 2 {
		t.Fatalf("ECMP used %d distinct paths for 20 identical flows, want >= 2", len(keys))
	}
}

// spmcf runs the SP+MCF scheme: shortest-path routing, then the optimal
// Most-Critical-First schedule on those routes.
func spmcf(t *testing.T, g *graph.Graph, fs *flow.Set, m power.Model) *core.DCFSResult {
	t.Helper()
	paths, err := ShortestPaths(g, fs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.SolveDCFSCtx(context.Background(), core.DCFSInput{Graph: g, Flows: fs, Paths: paths, Model: m})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSPMCFFeasible(t *testing.T) {
	ft, fs := fixture(t, 25, 3)
	m := power.Model{Sigma: 0.5, Mu: 1, Alpha: 2, C: 1e9}
	res := spmcf(t, ft.Graph, fs, m)
	if err := res.Schedule.Verify(ft.Graph, fs, m, schedule.VerifyOptions{}); err != nil {
		t.Fatal(err)
	}
	if res.Schedule.EnergyTotal(m) <= 0 {
		t.Fatal("SP+MCF energy should be positive")
	}
}

func TestAlwaysOnFullRate(t *testing.T) {
	line, err := topology.Line(3, 10)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := flow.NewSet([]flow.Flow{
		{Src: line.Hosts[0], Dst: line.Hosts[2], Release: 0, Deadline: 10, Size: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	m := power.Model{Sigma: 2, Mu: 1, Alpha: 2, C: 10}
	res, err := AlwaysOnFullRate(line.Graph, fs, m)
	if err != nil {
		t.Fatal(err)
	}
	// Idle: 4 directed edges * sigma 2 * horizon 10 = 80.
	// Dynamic: 2 links * 10^2 * 0.5 = 100.
	if math.Abs(res.Energy-180) > 1e-9 {
		t.Fatalf("energy = %v, want 180", res.Energy)
	}
	if err := res.Schedule.Verify(line.Graph, fs, m, schedule.VerifyOptions{EnforceCapacity: true}); err != nil {
		t.Fatal(err)
	}
}

func TestAlwaysOnErrors(t *testing.T) {
	line, err := topology.Line(3, 10)
	if err != nil {
		t.Fatal(err)
	}
	okFlows, err := flow.NewSet([]flow.Flow{
		{Src: line.Hosts[0], Dst: line.Hosts[2], Release: 0, Deadline: 10, Size: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Run("uncapped model", func(t *testing.T) {
		if _, err := AlwaysOnFullRate(line.Graph, okFlows, power.Model{Sigma: 1, Mu: 1, Alpha: 2}); !errors.Is(err, ErrBadInput) {
			t.Fatalf("err = %v, want ErrBadInput", err)
		}
	})
	t.Run("impossible deadline", func(t *testing.T) {
		tight, err := flow.NewSet([]flow.Flow{
			{Src: line.Hosts[0], Dst: line.Hosts[2], Release: 0, Deadline: 0.1, Size: 5},
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := AlwaysOnFullRate(line.Graph, tight, power.Model{Sigma: 1, Mu: 1, Alpha: 2, C: 10}); err == nil {
			t.Fatal("impossible deadline accepted")
		}
	})
	t.Run("nil graph", func(t *testing.T) {
		if _, err := AlwaysOnFullRate(nil, okFlows, power.Model{Sigma: 1, Mu: 1, Alpha: 2, C: 10}); !errors.Is(err, ErrBadInput) {
			t.Fatalf("err = %v, want ErrBadInput", err)
		}
	})
}

// TestBaselinesCoincideOnLine exercises both baselines on a
// congested single-rack pattern where they coincide (sanity: deterministic
// vs randomized routing with one candidate path).
func TestBaselinesCoincideOnLine(t *testing.T) {
	line, err := topology.Line(4, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := flow.NewSet([]flow.Flow{
		{Src: line.Hosts[0], Dst: line.Hosts[3], Release: 0, Deadline: 10, Size: 5},
		{Src: line.Hosts[1], Dst: line.Hosts[3], Release: 2, Deadline: 9, Size: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	m := power.Model{Sigma: 0.1, Mu: 1, Alpha: 2}
	sp := spmcf(t, line.Graph, fs, m)
	paths, err := ECMPPaths(line.Graph, fs, 4, 99)
	if err != nil {
		t.Fatal(err)
	}
	ecmp, err := core.SolveDCFSCtx(context.Background(), core.DCFSInput{Graph: line.Graph, Flows: fs, Paths: paths, Model: m})
	if err != nil {
		t.Fatal(err)
	}
	a := sp.Schedule.EnergyTotal(m)
	b := ecmp.Schedule.EnergyTotal(m)
	if math.Abs(a-b) > 1e-9 {
		t.Fatalf("line baselines differ: %v vs %v", a, b)
	}
}
