// Command quickstart is the smallest end-to-end use of dcnflow's
// Scenario/Solver API: build a fat-tree, draw a random deadline-constrained
// workload, package both as a validated Instance, and fan it across two
// registered solvers — Random-Schedule and the shortest-path baseline —
// comparing energies against Random-Schedule's lower bound (certified for
// schedules that send each flow on one path at its density; SP+MCF shapes
// rates, so its ratio is a comparison, not a bound).
package main

import (
	"context"
	"fmt"
	"log"

	"dcnflow"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// A k=4 fat-tree: 20 switches, 16 hosts, uniform link capacity.
	ft, err := dcnflow.FatTree(4, 1000)
	if err != nil {
		return err
	}
	fmt.Printf("topology: %s — %d switches, %d hosts, %d links\n",
		ft.Name, len(ft.Switches), len(ft.Hosts), ft.NumPhysicalLinks())

	// 50 flows over the horizon [1, 100]; sizes ~ N(10, 3).
	flows, err := dcnflow.UniformWorkload(dcnflow.WorkloadConfig{
		N: 50, T0: 1, T1: 100,
		SizeMean: 10, SizeStddev: 3,
		Hosts: ft.Hosts, Seed: 42,
	})
	if err != nil {
		return err
	}

	// The paper's evaluation power function f(x) = x^2 (speed scaling
	// only). Set Sigma (e.g. via dcnflow.SigmaForRopt) to add power-down
	// idle energy — the combined model of Section II-A.
	model := dcnflow.PowerModel{Mu: 1, Alpha: 2, C: 1000}

	// One validated instance, fanned across interchangeable solvers.
	inst, err := dcnflow.NewInstance(ft.Graph, flows, model)
	if err != nil {
		return err
	}
	ctx := context.Background()
	// Joint scheduling and routing (the paper's Random-Schedule).
	rs, err := dcnflow.Solve(ctx, dcnflow.SolverDCFSR, inst, dcnflow.WithSeed(1))
	if err != nil {
		return err
	}
	// The SP+MCF comparison scheme: shortest paths + optimal scheduling.
	sp, err := dcnflow.Solve(ctx, dcnflow.SolverSPMCF, inst)
	if err != nil {
		return err
	}

	fmt.Printf("density-rate bound:      %10.1f\n", rs.LowerBound)
	fmt.Printf("Random-Schedule energy:  %10.1f  (%.2fx LB, %.0f links on)\n",
		rs.Energy, rs.Energy/rs.LowerBound, rs.Stats["links_on"])
	fmt.Printf("SP+MCF baseline energy:  %10.1f  (%.2fx LB, %.0f links on)\n",
		sp.Energy, sp.Energy/rs.LowerBound, sp.Stats["links_on"])

	// Independent verification with the discrete-event simulator.
	simRes, err := dcnflow.Simulate(ft.Graph, flows, rs.Schedule, model, dcnflow.SimOptions{})
	if err != nil {
		return err
	}
	fmt.Printf("simulated: %d/%d deadlines met, energy %.1f, peak link rate %.2f\n",
		simRes.DeadlinesMet, flows.Len(), simRes.TotalEnergy, simRes.MaxLinkRate)
	return nil
}
