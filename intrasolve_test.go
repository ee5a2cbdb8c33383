package dcnflow_test

import (
	"context"
	"math"
	"reflect"
	"runtime"
	"testing"

	"dcnflow"
)

// intraSolveScenarios are the large-fabric corpus of the intra-solve
// determinism suite: a FatTree k=16 (1344 nodes) and a Jellyfish random
// graph, each with a randomized workload — big enough that the parallel
// oracle actually engages many source groups per sweep.
func intraSolveScenarios() []*dcnflow.ScenarioSpec {
	return []*dcnflow.ScenarioSpec{
		{
			Name:     "intrasolve-fattree16",
			Topology: dcnflow.TopologySpec{Kind: "fattree", K: 16, Capacity: 1000},
			Workload: dcnflow.WorkloadSpec{Kind: "uniform", N: 24, T0: 0, T1: 50, SizeMean: 6, SizeStddev: 2, Seed: 11},
			Model:    dcnflow.ModelSpec{Mu: 1, Alpha: 2, C: 1000},
			Seed:     7,
		},
		{
			Name:     "intrasolve-jellyfish",
			Topology: dcnflow.TopologySpec{Kind: "jellyfish", Switches: 300, Degree: 8, HostsPerSwitch: 2, Capacity: 1000, Seed: 5},
			Workload: dcnflow.WorkloadSpec{Kind: "uniform", N: 20, T0: 0, T1: 40, SizeMean: 5, SizeStddev: 1, Seed: 13},
			Model:    dcnflow.ModelSpec{Mu: 1, Alpha: 2, C: 1000},
			Seed:     7,
		},
	}
}

// TestIntraSolveWorkerDeterminism asserts the tentpole contract end to end:
// the dcfsr pipeline — relaxation, rounding, scheduling — produces a
// bit-identical Solution at intra-solve parallelism 1, 2, and NumCPU. The
// oracle's parallel sweep merges in ascending-source order, so worker count
// must never leak into schedules, energies, bounds, or stats.
func TestIntraSolveWorkerDeterminism(t *testing.T) {
	counts := []int{1, 2}
	if n := runtime.NumCPU(); n > 2 {
		counts = append(counts, n)
	}
	for _, spec := range intraSolveScenarios() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			inst, err := spec.Instance()
			if err != nil {
				t.Fatal(err)
			}
			var ref *dcnflow.Solution
			var refWorkers int
			for _, w := range counts {
				sol, err := dcnflow.Solve(context.Background(), dcnflow.SolverDCFSR, inst,
					dcnflow.WithSeed(spec.Seed),
					dcnflow.WithSolverOptions(dcnflow.SolverOptions{MaxIters: 10, OracleWorkers: w}))
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				if ref == nil {
					ref, refWorkers = sol, w
					continue
				}
				if math.Float64bits(sol.Energy) != math.Float64bits(ref.Energy) {
					t.Errorf("workers=%d vs %d: energy %v vs %v (bits differ)", w, refWorkers, sol.Energy, ref.Energy)
				}
				if math.Float64bits(sol.LowerBound) != math.Float64bits(ref.LowerBound) {
					t.Errorf("workers=%d vs %d: lower bound %v vs %v (bits differ)", w, refWorkers, sol.LowerBound, ref.LowerBound)
				}
				if !reflect.DeepEqual(sol.Schedule, ref.Schedule) {
					t.Errorf("workers=%d vs %d: schedules diverge", w, refWorkers)
				}
				if !reflect.DeepEqual(sol.Stats, ref.Stats) {
					t.Errorf("workers=%d vs %d: stats diverge", w, refWorkers)
				}
			}
		})
	}
}
