package dcnflow_test

import (
	"context"
	"fmt"

	"dcnflow"
)

// ExampleSolve_dcfsMCF reproduces the paper's Example 1: two flows on a
// line network scheduled optimally by Most-Critical-First on fixed routing.
func ExampleSolve_dcfsMCF() {
	line, _ := dcnflow.Line(3, 1000)
	a, b, c := line.Hosts[0], line.Hosts[1], line.Hosts[2]
	flows, _ := dcnflow.NewFlowSet([]dcnflow.Flow{
		{Src: a, Dst: c, Release: 2, Deadline: 4, Size: 6},
		{Src: a, Dst: b, Release: 1, Deadline: 3, Size: 8},
	})
	paths, _ := dcnflow.ShortestPathRouting(line.Graph, flows)
	model := dcnflow.PowerModel{Mu: 1, Alpha: 2, C: 1000} // f(x) = x^2

	inst, _ := dcnflow.NewInstanceBuilder().
		Graph(line.Graph).Flows(flows).Model(model).Routing(paths).Build()
	sol, _ := dcnflow.Solve(context.Background(), dcnflow.SolverDCFSMCF, inst)
	fmt.Printf("energy %.4f over %.0f critical rounds\n",
		sol.Schedule.EnergyDynamic(model), sol.Stats["rounds"])
	// Output: energy 90.5882 over 1 critical rounds
}

// ExampleSolve_dcfsr jointly routes and schedules a small workload on a
// fat-tree with Random-Schedule and reports the approximation ratio against
// its certified lower bound.
func ExampleSolve_dcfsr() {
	ft, _ := dcnflow.FatTree(4, 1000)
	flows, _ := dcnflow.UniformWorkload(dcnflow.WorkloadConfig{
		N: 20, T0: 1, T1: 100, SizeMean: 10, SizeStddev: 3,
		Hosts: ft.Hosts, Seed: 42,
	})
	model := dcnflow.PowerModel{Mu: 1, Alpha: 2, C: 1000}

	inst, _ := dcnflow.NewInstance(ft.Graph, flows, model)
	sol, _ := dcnflow.Solve(context.Background(), dcnflow.SolverDCFSR, inst, dcnflow.WithSeed(1))
	fmt.Printf("deadlines guaranteed, ratio %.1fx of the lower bound\n",
		sol.Energy/sol.LowerBound)
	// Output: deadlines guaranteed, ratio 1.1x of the lower bound
}

// ExampleLowerBound computes the fractional relaxation value on its own:
// the denominator every evaluation curve of the paper's Fig. 2 is
// normalised by. It is a Frank–Wolfe primal value of the density-rate
// relaxation, not a certified bound; dcfsr's Solution.LowerBound is the
// certified one.
func ExampleLowerBound() {
	ft, _ := dcnflow.FatTree(4, 1000)
	flows, _ := dcnflow.UniformWorkload(dcnflow.WorkloadConfig{
		N: 20, T0: 1, T1: 100, SizeMean: 10, SizeStddev: 3,
		Hosts: ft.Hosts, Seed: 42,
	})
	model := dcnflow.PowerModel{Mu: 1, Alpha: 2, C: 1000}

	lb, _ := dcnflow.LowerBound(context.Background(), ft.Graph, flows, model, dcnflow.DCFSROptions{})
	inst, _ := dcnflow.NewInstance(ft.Graph, flows, model)
	sol, _ := dcnflow.Solve(context.Background(), dcnflow.SolverDCFSR, inst, dcnflow.WithSeed(1))
	fmt.Printf("fractional relaxation value %.1f (Fig. 2's normaliser); Random-Schedule achieves %.1fx of it\n",
		lb, sol.Energy/lb)
	// Output: fractional relaxation value 510.4 (Fig. 2's normaliser); Random-Schedule achieves 1.5x of it
}

// ExampleSolve_rollingOnline runs the rolling-horizon online scheduler on a
// diurnal arrival pattern: flows are revealed at release time, every epoch
// boundary re-runs the relaxation over the remaining horizon with frozen
// commitments, and the simulator independently validates the outcome.
func ExampleSolve_rollingOnline() {
	ft, _ := dcnflow.FatTree(4, 1000)
	flows, _ := dcnflow.DiurnalWorkload(dcnflow.DiurnalConfig{
		N: 30, T0: 0, T1: 100, PeakFactor: 5,
		SizeMean: 8, SizeStddev: 2, Hosts: ft.Hosts, Seed: 7,
	})
	model := dcnflow.PowerModel{Mu: 1, Alpha: 2, C: 1000}

	inst, _ := dcnflow.NewInstance(ft.Graph, flows, model)
	sol, _ := dcnflow.Solve(context.Background(), dcnflow.SolverRollingOnline, inst,
		dcnflow.WithRollingOptions(dcnflow.RollingOptions{
			Policy: dcnflow.ArrivalCount{N: 1}, // re-optimize at every arrival
			DCFSR:  dcnflow.DCFSROptions{Seed: 1, WarmStart: true},
		}))
	fmt.Printf("admitted %.0f/%d flows over %.0f epochs\n",
		sol.Stats["admitted"], flows.Len(), sol.Stats["epochs"])
	fmt.Printf("deadline violations: %.0f, capacity violations: %.0f\n",
		sol.Stats["deadline_violations"], sol.Stats["capacity_violations"])
	// Output:
	// admitted 30/30 flows over 30 epochs
	// deadline violations: 0, capacity violations: 0
}

// ExampleSigmaForRopt positions the energy-optimal link rate (Lemma 3) for
// a combined speed-scaling + power-down model.
func ExampleSigmaForRopt() {
	sigma := dcnflow.SigmaForRopt(1, 2, 2) // mu=1, alpha=2, Ropt=2
	model := dcnflow.PowerModel{Sigma: sigma, Mu: 1, Alpha: 2, C: 1000}
	fmt.Printf("sigma=%.0f, power rate at Ropt: %.0f\n", sigma, model.PowerRate(2))
	// Output: sigma=4, power rate at Ropt: 4
}
