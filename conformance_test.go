package dcnflow_test

import (
	"context"
	"reflect"
	"testing"

	"dcnflow"
)

// conformanceSpec is the randomized corpus of the cross-solver conformance
// suite: sweep-generated scenarios (three topology families, two randomized
// workload kinds, two deadline-tightness levels, two seeds) crossed with
// every registered solver family. Randomized-release workloads keep the
// corpus feasible for the always-on strawman, which transmits each flow at
// the full link rate C from its release — a shared-release pattern
// (shuffle, incast) would stack those bursts past C by construction.
func conformanceSpec() *dcnflow.SweepSpec {
	return &dcnflow.SweepSpec{
		Name: "conformance",
		Topologies: []dcnflow.TopologySpec{
			{Kind: "line", K: 4, Capacity: 1000},
			{Kind: "star", K: 4, Capacity: 1000},
			{Kind: "leafspine", Spines: 2, Leaves: 2, HostsPerLeaf: 2, Capacity: 1000},
		},
		Workloads: []dcnflow.WorkloadSpec{
			{Kind: "uniform", N: 5, T0: 1, T1: 40, SizeMean: 4, SizeStddev: 1},
			{Kind: "diurnal", N: 5, T0: 0, T1: 40, PeakFactor: 3, SizeMean: 3, SizeStddev: 1, SpanMean: 8},
		},
		Model:     dcnflow.ModelSpec{Mu: 1, Alpha: 2, C: 1000},
		Tightness: []float64{1, 0.7},
		Seeds:     []int64{1, 2},
		Solvers:   dcnflow.SolverNames(),
	}
}

func conformanceOptions(keep bool) dcnflow.SweepOptions {
	return dcnflow.SweepOptions{
		Workers:       4,
		KeepSolutions: keep,
		Options: []dcnflow.SolveOption{
			dcnflow.WithSolverOptions(dcnflow.SolverOptions{MaxIters: 20}),
		},
	}
}

// TestConformanceAllSolvers is the cross-solver conformance suite: on every
// randomized corpus scenario, every registered solver family must return a
// schedule the simulator validates — every deadline met, every demand
// completed, no link-capacity violation — and report an energy no smaller
// than its own lower bound when it produces one.
func TestConformanceAllSolvers(t *testing.T) {
	spec := conformanceSpec()
	if len(spec.Solvers) < 8 {
		t.Fatalf("solver table lists %d solvers, want the eight built-in families: %v", len(spec.Solvers), spec.Solvers)
	}
	res, err := dcnflow.Sweep(context.Background(), spec, conformanceOptions(true))
	if err != nil {
		t.Fatal(err)
	}

	// Scenario instances are rebuilt per cell group for the independent
	// simulator pass (the engine's own instances are not exposed).
	cells := spec.Cells()
	instances := make(map[string]*dcnflow.Instance)
	for _, c := range res.Cells {
		if c.Err != "" {
			t.Errorf("cell %d: solver %s failed on %s: %s", c.Cell, c.Solver, c.Scenario, c.Err)
			continue
		}
		sol := c.Solution
		if sol == nil || sol.Schedule == nil {
			t.Errorf("cell %d: %s on %s returned no schedule", c.Cell, c.Solver, c.Scenario)
			continue
		}
		inst, ok := instances[c.Scenario]
		if !ok {
			var err error
			inst, err = cells[c.Cell].Scenario.Instance()
			if err != nil {
				t.Fatalf("rebuilding scenario %s: %v", c.Scenario, err)
			}
			instances[c.Scenario] = inst
		}

		sim, err := dcnflow.Simulate(inst.Graph(), inst.Flows(), sol.Schedule, inst.Model(), dcnflow.SimOptions{})
		if err != nil {
			t.Errorf("cell %d: %s on %s: simulator rejected the schedule: %v", c.Cell, c.Solver, c.Scenario, err)
			continue
		}
		if sim.DeadlinesMissed != 0 {
			t.Errorf("cell %d: %s on %s missed %d deadlines", c.Cell, c.Solver, c.Scenario, sim.DeadlinesMissed)
		}
		if sim.CapacityViolations != 0 {
			t.Errorf("cell %d: %s on %s violated link capacity in %d event segments", c.Cell, c.Solver, c.Scenario, sim.CapacityViolations)
		}
		for _, fs := range sim.Flows {
			if !fs.DeadlineMet {
				t.Errorf("cell %d: %s on %s left flow %d incomplete (%.6g delivered)", c.Cell, c.Solver, c.Scenario, fs.ID, fs.Completed)
			}
		}
		if sol.LowerBound > 0 && sol.Energy < sol.LowerBound*(1-1e-9) {
			t.Errorf("cell %d: %s on %s reported energy %v below its own lower bound %v",
				c.Cell, c.Solver, c.Scenario, sol.Energy, sol.LowerBound)
		}
	}
}

// TestConformanceSeedReproducibility: the corpus solved twice — once
// through two independent sweep runs, once through back-to-back requests
// on one (scratch-reusing) Engine — must be bit-identical per seed: same
// energies, same bounds, same stats, same schedules.
func TestConformanceSeedReproducibility(t *testing.T) {
	spec := conformanceSpec()
	run := func() *dcnflow.SweepResult {
		t.Helper()
		res, err := dcnflow.Sweep(context.Background(), spec, conformanceOptions(true))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if len(a.Cells) != len(b.Cells) {
		t.Fatalf("cell counts differ: %d vs %d", len(a.Cells), len(b.Cells))
	}
	for i := range a.Cells {
		ca, cb := a.Cells[i], b.Cells[i]
		if ca.Energy != cb.Energy || ca.LB != cb.LB || ca.LBRatio != cb.LBRatio || ca.Err != cb.Err {
			t.Errorf("cell %d (%s/%s) not bit-identical across runs: energy %v vs %v, LB %v vs %v",
				i, ca.Scenario, ca.Solver, ca.Energy, cb.Energy, ca.LB, cb.LB)
		}
		if !reflect.DeepEqual(ca.Stats, cb.Stats) {
			t.Errorf("cell %d (%s/%s) stats differ: %v vs %v", i, ca.Scenario, ca.Solver, ca.Stats, cb.Stats)
		}
		if ca.Solution != nil && cb.Solution != nil && !reflect.DeepEqual(ca.Solution.Schedule, cb.Solution.Schedule) {
			t.Errorf("cell %d (%s/%s) schedules differ across identically-seeded runs", i, ca.Scenario, ca.Solver)
		}
	}

	// Scratch-reuse half: one Engine, same instance, two requests per
	// family. Instance requests draw the engine's pooled F-MCF solvers, so
	// a relaxation family's second solve runs on the scratch its first
	// solve released — pooled reuse must never leak state.
	inst, err := spec.Cells()[0].Scenario.Instance()
	if err != nil {
		t.Fatal(err)
	}
	eng := dcnflow.NewEngine(dcnflow.EngineOptions{})
	for _, name := range spec.Solvers {
		req := dcnflow.Request{Instance: inst, Solver: name, Options: []dcnflow.SolveOption{
			dcnflow.WithSolverOptions(dcnflow.SolverOptions{MaxIters: 20}),
			dcnflow.WithSeed(1),
		}}
		r1 := eng.Solve(context.Background(), req)
		if r1.Err != nil {
			t.Fatalf("%s: %v", name, r1.Err)
		}
		r2 := eng.Solve(context.Background(), req)
		if r2.Err != nil {
			t.Fatalf("%s (second solve): %v", name, r2.Err)
		}
		s1, s2 := r1.Solution, r2.Solution
		if s1.Energy != s2.Energy || s1.LowerBound != s2.LowerBound {
			t.Errorf("%s: repeated solves on one instance diverged: energy %v vs %v", name, s1.Energy, s2.Energy)
		}
		if !reflect.DeepEqual(s1.Stats, s2.Stats) {
			t.Errorf("%s: repeated solves changed stats: %v vs %v", name, s1.Stats, s2.Stats)
		}
		if !reflect.DeepEqual(s1.Schedule, s2.Schedule) {
			t.Errorf("%s: repeated solves produced different schedules", name)
		}
	}
}
