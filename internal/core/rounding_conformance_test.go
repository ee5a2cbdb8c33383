package core_test

import (
	"context"
	"testing"

	"dcnflow"
	"dcnflow/internal/core"
)

// TestDerandomizedBelowRandomRounding: on the conformance corpus's dcfsr
// cells (the corpus of the root package's TestConformanceAllSolvers, alpha
// 2), the derandomized schedule's energy is at most the exact expected
// energy of the paper's random rounding on the same candidates — the
// guarantee of the method of conditional expectations.
func TestDerandomizedBelowRandomRounding(t *testing.T) {
	spec := &dcnflow.SweepSpec{
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
		Solvers:   []string{dcnflow.SolverDCFSR},
	}
	cells := spec.Cells()
	if len(cells) == 0 {
		t.Fatal("empty corpus")
	}
	var gained int
	for _, c := range cells {
		inst, err := c.Scenario.Instance()
		if err != nil {
			t.Fatal(err)
		}
		in := core.DCFSRInput{
			Graph: inst.Graph(), Flows: inst.Flows(), Model: inst.Model(),
			Opts: core.DCFSROptions{Seed: c.Scenario.Seed, Solver: dcnflow.SolverOptions{MaxIters: 20}},
		}
		res, err := core.SolveDCFSRCtx(context.Background(), in)
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.ExpectedRandomRounding(context.Background(), in)
		if err != nil {
			t.Fatal(err)
		}
		got := res.Schedule.EnergyTotal(in.Model)
		if got > want*(1+1e-9) {
			t.Errorf("%s: derandomized energy %v above the random rounding's expectation %v", c.Scenario.Name, got, want)
		}
		if got < want*(1-1e-9) {
			gained++
		}
	}
	t.Logf("%d cells; the derandomized energy is below the expectation on %d", len(cells), gained)
}
