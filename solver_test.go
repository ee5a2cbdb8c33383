package dcnflow_test

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"dcnflow"
)

// tinyInstance is a fat-tree workload small enough for every registered
// solver, including the brute-force "exact" (4^6 assignments).
func tinyInstance(t *testing.T) *dcnflow.Instance {
	t.Helper()
	ft, err := dcnflow.FatTree(4, 1000)
	if err != nil {
		t.Fatal(err)
	}
	flows, err := dcnflow.UniformWorkload(dcnflow.WorkloadConfig{
		N: 6, T0: 1, T1: 100, SizeMean: 10, SizeStddev: 3,
		Hosts: ft.Hosts, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := dcnflow.NewInstanceBuilder().
		Topology(ft).
		Flows(flows).
		Model(dcnflow.PowerModel{Sigma: 0.5, Mu: 1, Alpha: 2, C: 1000}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// mediumWorkload builds a workload large enough that a DCFSR solve spans
// many intervals and Frank–Wolfe iterations.
func mediumWorkload(t *testing.T) (*dcnflow.Topology, *dcnflow.FlowSet, dcnflow.PowerModel) {
	t.Helper()
	ft, err := dcnflow.FatTree(4, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	flows, err := dcnflow.UniformWorkload(dcnflow.WorkloadConfig{
		N: 40, T0: 1, T1: 100, SizeMean: 10, SizeStddev: 3,
		Hosts: ft.Hosts, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ft, flows, dcnflow.PowerModel{Mu: 1, Alpha: 2, C: 1e9}
}

// TestRegistryListsAllFamilies pins the acceptance criterion: all eight
// solver families are registered.
func TestRegistryListsAllFamilies(t *testing.T) {
	want := []string{
		dcnflow.SolverAlwaysOn, dcnflow.SolverDCFSMCF, dcnflow.SolverDCFSR,
		dcnflow.SolverECMPMCF, dcnflow.SolverExact, dcnflow.SolverGreedyOnline,
		dcnflow.SolverRollingOnline, dcnflow.SolverSPMCF,
	}
	if got := dcnflow.SolverNames(); !reflect.DeepEqual(got, want) {
		t.Errorf("SolverNames() = %v, want %v", got, want)
	}
}

// TestAllSolversRunViaRegistry runs every built-in family on one tiny
// instance through Solve(ctx, name, instance).
func TestAllSolversRunViaRegistry(t *testing.T) {
	inst := tinyInstance(t)
	for _, name := range dcnflow.SolverNames() {
		t.Run(name, func(t *testing.T) {
			sol, err := dcnflow.Solve(context.Background(), name, inst, dcnflow.WithSeed(1))
			if err != nil {
				t.Fatalf("Solve(%s): %v", name, err)
			}
			if sol.Solver != name {
				t.Errorf("Solution.Solver = %q, want %q", sol.Solver, name)
			}
			if sol.Schedule == nil {
				t.Fatal("nil schedule")
			}
			if sol.Energy <= 0 {
				t.Errorf("energy %v not positive", sol.Energy)
			}
			if got := sol.Schedule.Len(); got != inst.Flows().Len() {
				t.Errorf("schedule covers %d flows, want %d", got, inst.Flows().Len())
			}
			if _, ok := sol.Stats["links_on"]; !ok {
				t.Error("missing links_on stat")
			}
			switch name {
			case dcnflow.SolverDCFSR:
				if sol.LowerBound <= 0 || sol.Energy < sol.LowerBound {
					t.Errorf("dcfsr energy %v vs LB %v inconsistent", sol.Energy, sol.LowerBound)
				}
			}
		})
	}
}

// TestNamedSolverIsReusable solves twice with one configuration — a
// solver family must be deterministic per configuration across calls.
func TestNamedSolverIsReusable(t *testing.T) {
	inst := tinyInstance(t)
	solve := func() *dcnflow.Solution {
		t.Helper()
		sol, err := dcnflow.Solve(context.Background(), dcnflow.SolverDCFSR, inst, dcnflow.WithSeed(3))
		if err != nil {
			t.Fatal(err)
		}
		if sol.Solver != dcnflow.SolverDCFSR {
			t.Errorf("Solution.Solver = %q", sol.Solver)
		}
		return sol
	}
	a, b := solve(), solve()
	if a.Energy != b.Energy || a.LowerBound != b.LowerBound {
		t.Errorf("repeat solve diverged: %v/%v vs %v/%v", a.Energy, a.LowerBound, b.Energy, b.LowerBound)
	}
}

// TestContextCancelDCFSR pins the cancellation acceptance criterion for a
// large offline solve: a context cancelled mid-solve (from the progress
// callback, after the first interval finishes) aborts within one
// Frank–Wolfe iteration / interval boundary and surfaces ctx.Err() wrapped,
// never a partial result.
func TestContextCancelDCFSR(t *testing.T) {
	ft, flows, m := mediumWorkload(t)
	inst, err := dcnflow.NewInstanceBuilder().Topology(ft).Flows(flows).Model(m).Build()
	if err != nil {
		t.Fatal(err)
	}

	t.Run("pre-cancelled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		sol, err := dcnflow.Solve(ctx, dcnflow.SolverDCFSR, inst, dcnflow.WithSeed(1))
		if sol != nil || err == nil {
			t.Fatalf("cancelled solve returned %v, %v", sol, err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("error does not wrap context.Canceled: %v", err)
		}
	})

	t.Run("mid-solve", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		events := 0
		sol, err := dcnflow.Solve(ctx, dcnflow.SolverDCFSR, inst,
			dcnflow.WithSeed(1),
			dcnflow.WithProgress(func(ev dcnflow.ProgressEvent) {
				events++
				cancel() // cancel as soon as the first interval completes
			}))
		if events == 0 {
			t.Fatal("progress callback never fired")
		}
		if sol != nil || err == nil {
			t.Fatalf("cancelled solve returned %v, %v", sol, err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("error does not wrap context.Canceled: %v", err)
		}
	})

	t.Run("lower-bound", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := dcnflow.Solve(ctx, dcnflow.SolverDCFSR, inst); !errors.Is(err, context.Canceled) {
			t.Errorf("error does not wrap context.Canceled: %v", err)
		}
	})
}

// TestContextCancelRollingReplay pins the cancellation criterion for the
// online re-optimizer: cancelling after the first epoch re-plan stops the
// replay at the next epoch boundary with ctx.Err() wrapped.
func TestContextCancelRollingReplay(t *testing.T) {
	ft, err := dcnflow.FatTree(4, 1000)
	if err != nil {
		t.Fatal(err)
	}
	flows, err := dcnflow.DiurnalWorkload(dcnflow.DiurnalConfig{
		N: 20, T0: 0, T1: 100, PeakFactor: 5,
		SizeMean: 8, SizeStddev: 2, Hosts: ft.Hosts, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := dcnflow.NewInstanceBuilder().Topology(ft).
		Flows(flows).Model(dcnflow.PowerModel{Mu: 1, Alpha: 2, C: 1000}).Build()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	epochs := 0
	sol, err := dcnflow.Solve(ctx, dcnflow.SolverRollingOnline, inst,
		dcnflow.WithRollingOptions(dcnflow.RollingOptions{Policy: dcnflow.ArrivalCount{N: 1}}),
		dcnflow.WithSeed(1),
		dcnflow.WithProgress(func(ev dcnflow.ProgressEvent) {
			if ev.Stage == "epoch" {
				epochs++
				cancel() // cancel after the first epoch completes
			}
		}))
	if epochs == 0 {
		t.Fatal("no epoch event fired")
	}
	if epochs > 1 {
		t.Errorf("replay ran %d epochs after cancellation (want stop at the next boundary)", epochs)
	}
	if sol != nil || err == nil {
		t.Fatalf("cancelled replay returned %v, %v", sol, err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error does not wrap context.Canceled: %v", err)
	}
}

// TestHorizonOverrideReachesOnlineSolvers: the builder's horizon override
// is the online solvers' run window, so with idle power a wider horizon
// must be charged for (idle energy spans the window, not the flow span).
func TestHorizonOverrideReachesOnlineSolvers(t *testing.T) {
	ft, _ := dcnflow.FatTree(4, 1000)
	flows, err := dcnflow.UniformWorkload(dcnflow.WorkloadConfig{
		N: 6, T0: 10, T1: 90, SizeMean: 10, SizeStddev: 3, Hosts: ft.Hosts, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := dcnflow.PowerModel{Sigma: 1, Mu: 1, Alpha: 2, C: 1000}
	build := func(b *dcnflow.InstanceBuilder) *dcnflow.Instance {
		t.Helper()
		inst, err := b.Topology(ft).Flows(flows).Model(m).Build()
		if err != nil {
			t.Fatal(err)
		}
		return inst
	}
	narrow := build(dcnflow.NewInstanceBuilder())
	wide := build(dcnflow.NewInstanceBuilder().Horizon(dcnflow.Interval{Start: 0, End: 200}))
	for _, name := range []string{dcnflow.SolverGreedyOnline, dcnflow.SolverRollingOnline} {
		a, err := dcnflow.Solve(context.Background(), name, narrow, dcnflow.WithSeed(1))
		if err != nil {
			t.Fatalf("%s narrow: %v", name, err)
		}
		b, err := dcnflow.Solve(context.Background(), name, wide, dcnflow.WithSeed(1))
		if err != nil {
			t.Fatalf("%s wide: %v", name, err)
		}
		if b.Energy <= a.Energy {
			t.Errorf("%s: wide-horizon energy %v not above flow-span energy %v (idle span ignored)", name, b.Energy, a.Energy)
		}
	}
}

// TestUnknownSolver pins the solver table's error surface.
func TestUnknownSolver(t *testing.T) {
	_, err := dcnflow.Solve(context.Background(), "simulated-annealing", tinyInstance(t))
	if !errors.Is(err, dcnflow.ErrUnknownSolver) {
		t.Fatalf("error does not wrap ErrUnknownSolver: %v", err)
	}
	if !strings.Contains(err.Error(), dcnflow.SolverDCFSR) {
		t.Errorf("error %q does not list the registered solvers", err)
	}
}

// TestInstanceValidation guards the validate-once contract.
func TestInstanceValidation(t *testing.T) {
	ft, _ := dcnflow.FatTree(4, 1000)
	flows, _ := dcnflow.UniformWorkload(dcnflow.WorkloadConfig{
		N: 4, T0: 1, T1: 50, SizeMean: 5, SizeStddev: 1, Hosts: ft.Hosts, Seed: 1,
	})
	m := dcnflow.PowerModel{Mu: 1, Alpha: 2, C: 1000}
	cases := []struct {
		name  string
		build func() (*dcnflow.Instance, error)
	}{
		{"nil graph", func() (*dcnflow.Instance, error) { return dcnflow.NewInstance(nil, flows, m) }},
		{"nil flows", func() (*dcnflow.Instance, error) { return dcnflow.NewInstance(ft.Graph, nil, m) }},
		{"bad model", func() (*dcnflow.Instance, error) {
			return dcnflow.NewInstance(ft.Graph, flows, dcnflow.PowerModel{Mu: -1, Alpha: 2})
		}},
		{"short horizon", func() (*dcnflow.Instance, error) {
			return dcnflow.NewInstanceBuilder().Graph(ft.Graph).Flows(flows).Model(m).
				Horizon(dcnflow.Interval{Start: 40, End: 45}).Build()
		}},
		{"incomplete routing", func() (*dcnflow.Instance, error) {
			return dcnflow.NewInstanceBuilder().Graph(ft.Graph).Flows(flows).Model(m).
				Routing(map[dcnflow.FlowID]dcnflow.Path{}).Build()
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := tc.build(); !errors.Is(err, dcnflow.ErrBadInstance) {
				t.Errorf("error does not wrap ErrBadInstance: %v", err)
			}
		})
	}
	// Nil instance through a solver.
	if _, err := dcnflow.Solve(context.Background(), dcnflow.SolverDCFSR, nil); !errors.Is(err, dcnflow.ErrBadInstance) {
		t.Errorf("nil instance error: %v", err)
	}
}
