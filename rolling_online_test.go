package dcnflow_test

import (
	"context"
	"reflect"
	"testing"

	"dcnflow"
)

// TestRollingOnlineReadsNoSeed: "rolling-online" admits every flow on the
// cheapest relaxation candidate by exact marginal energy, and its epoch
// re-solve draws no path, so the seed cannot reach its output. Two seeds
// must give the same energy bits, schedule and stats, with every epoch a
// full re-plan and with the online-delta settings, uncapacitated and under
// a capacity tight enough to bind.
func TestRollingOnlineReadsNoSeed(t *testing.T) {
	settings := []struct {
		name string
		opts dcnflow.RollingOptions
	}{
		{"full", dcnflow.RollingOptions{
			DCFSR: dcnflow.DCFSROptions{Solver: dcnflow.SolverOptions{MaxIters: 25}},
		}},
		{"online-delta", dcnflow.RollingOptions{
			Policy: dcnflow.ArrivalCount{N: 1},
			DCFSR: dcnflow.DCFSROptions{
				Solver: dcnflow.SolverOptions{MaxIters: 30}, WarmStart: true,
			},
			Delta: dcnflow.DeltaOptions{Enabled: true, DriftBound: 0.25, MaxStaleEpochs: 16},
		}},
	}
	for _, capacity := range []float64{1e12, 2} {
		spec := dcnflow.ScenarioSpec{
			Name:     "ft4-diurnal-n60",
			Topology: dcnflow.TopologySpec{Kind: "fattree", K: 4, Capacity: capacity},
			Workload: dcnflow.WorkloadSpec{
				Kind: "diurnal", N: 60, T0: 0, T1: 100, PeakFactor: 5, SizeMean: 8, SizeStddev: 2, Seed: 31,
			},
			Model: dcnflow.ModelSpec{Mu: 1, Alpha: 2, C: capacity},
		}
		inst, err := spec.Instance()
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range settings {
			solve := func(seed int64) *dcnflow.Solution {
				t.Helper()
				sol, err := dcnflow.Solve(context.Background(), dcnflow.SolverRollingOnline, inst,
					dcnflow.WithRollingOptions(s.opts), dcnflow.WithSeed(seed))
				if err != nil {
					t.Fatalf("C=%v %s seed %d: %v", capacity, s.name, seed, err)
				}
				return sol
			}
			a, b := solve(1), solve(99)
			if a.Energy != b.Energy {
				t.Errorf("C=%v %s: energy %v at seed 1, %v at seed 99", capacity, s.name, a.Energy, b.Energy)
			}
			if !reflect.DeepEqual(a.Schedule, b.Schedule) {
				t.Errorf("C=%v %s: schedules differ between seeds 1 and 99", capacity, s.name)
			}
			if !reflect.DeepEqual(a.Stats, b.Stats) {
				t.Errorf("C=%v %s: stats %v at seed 1, %v at seed 99", capacity, s.name, a.Stats, b.Stats)
			}
		}
	}
}
