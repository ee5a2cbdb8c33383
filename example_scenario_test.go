package dcnflow_test

import (
	"context"
	"fmt"
	"strings"

	"dcnflow"
)

// ExampleLoadScenario loads a declarative JSON scenario spec, builds the
// typed Instance it describes and solves it with a registered solver — the
// whole experiment as data.
func ExampleLoadScenario() {
	spec, err := dcnflow.LoadScenario(strings.NewReader(`{
	  "name": "line-demo",
	  "topology": {"kind": "line", "k": 3, "capacity": 1000},
	  "workload": {"kind": "shuffle", "hosts": 2, "release": 0, "deadline": 10, "size": 40},
	  "model": {"mu": 1, "alpha": 2, "c": 1000},
	  "seed": 1
	}`))
	if err != nil {
		panic(err)
	}
	inst, _ := spec.Instance()
	sol, _ := dcnflow.Solve(context.Background(), dcnflow.SolverDCFSR, inst, dcnflow.WithSeed(spec.Seed))
	fmt.Printf("%s on %q: %d flows, energy %.0f\n", sol.Solver, spec.Name, inst.Flows().Len(), sol.Energy)
	// Output: dcfsr on "line-demo": 2 flows, energy 320
}

// ExampleSolve runs two solver families on the same typed Instance and
// compares them against Random-Schedule's lower bound — the uniform
// comparison loop the Scenario/Solver API exists for. That bound is
// certified for schedules that send each flow on one path at its density;
// SP+MCF shapes rates, so its ratio is a comparison, not a bound.
func ExampleSolve() {
	ft, _ := dcnflow.FatTree(4, 1000)
	flows, _ := dcnflow.UniformWorkload(dcnflow.WorkloadConfig{
		N: 20, T0: 1, T1: 100, SizeMean: 10, SizeStddev: 3,
		Hosts: ft.Hosts, Seed: 42,
	})
	model := dcnflow.PowerModel{Mu: 1, Alpha: 2, C: 1000}
	inst, _ := dcnflow.NewInstance(ft.Graph, flows, model)

	ctx := context.Background()
	rs, _ := dcnflow.Solve(ctx, dcnflow.SolverDCFSR, inst, dcnflow.WithSeed(1))
	sp, _ := dcnflow.Solve(ctx, dcnflow.SolverSPMCF, inst)
	fmt.Printf("%s: %.2fx of the density-rate bound\n", rs.Solver, rs.Energy/rs.LowerBound)
	fmt.Printf("%s: %.2fx of the density-rate bound\n", sp.Solver, sp.Energy/rs.LowerBound)
	// Output:
	// dcfsr: 1.06x of the density-rate bound
	// sp-mcf: 1.28x of the density-rate bound
}

// ExampleSaveScenario round-trips a spec through its canonical JSON form:
// saving and re-loading reproduces the identical experiment.
func ExampleSaveScenario() {
	spec := &dcnflow.ScenarioSpec{
		Name:     "roundtrip",
		Topology: dcnflow.TopologySpec{Kind: "star", K: 4, Capacity: 100},
		Workload: dcnflow.WorkloadSpec{Kind: "incast", Hosts: 3, Release: 0, Deadline: 5, Size: 10},
		Model:    dcnflow.ModelSpec{Sigma: 1, Mu: 1, Alpha: 2, C: 100},
	}
	var buf strings.Builder
	if err := dcnflow.SaveScenario(&buf, spec); err != nil {
		panic(err)
	}
	back, _ := dcnflow.LoadScenario(strings.NewReader(buf.String()))
	fmt.Printf("round-trip identical: %v\n", *back == *spec)
	// Output: round-trip identical: true
}
