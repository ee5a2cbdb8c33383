// Command onlinearrivals demonstrates the online extension: flows are
// revealed one at a time at their release instants (a diurnal arrival
// pattern) and must be scheduled without knowledge of the future. Three
// schedulers compete on the same workload:
//
//   - the marginal-cost greedy, which routes each flow irrevocably the
//     moment it arrives and transmits at constant density;
//   - the rolling-horizon re-optimizer, which re-runs the Random-Schedule
//     relaxation over the remaining horizon at every epoch boundary with
//     frozen commitments (pinned paths, transmitted data), re-balancing the
//     future rate profiles of in-flight flows around newly arrived load;
//   - the offline Random-Schedule, which sees the whole future — together
//     with its lower bound, which no schedule sending each flow on one
//     path at its density can beat (the rolling re-optimizer shapes rates,
//     so its ratio is a comparison, not a bound).
//
// Every schedule is validated by the discrete-event simulator: deadlines
// and capacities are checked independently of the schedulers' own
// accounting.
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
	ft, err := dcnflow.FatTree(4, 1000)
	if err != nil {
		return err
	}
	// A time-varying (sinusoidal) arrival pattern: busy edges, quiet
	// middle — the load variation that motivates powering links down.
	flows, err := dcnflow.DiurnalWorkload(dcnflow.DiurnalConfig{
		N: 80, T0: 0, T1: 100, PeakFactor: 5,
		SizeMean: 8, SizeStddev: 2,
		Hosts: ft.Hosts, Seed: 11,
	})
	if err != nil {
		return err
	}
	model := dcnflow.PowerModel{Mu: 1, Alpha: 2, C: 1000}
	inst, err := dcnflow.NewInstance(ft.Graph, flows, model)
	if err != nil {
		return err
	}
	ctx := context.Background()

	// Offline: the paper's Random-Schedule with full knowledge.
	offline, err := dcnflow.Solve(ctx, dcnflow.SolverDCFSR, inst, dcnflow.WithSeed(1))
	if err != nil {
		return err
	}
	// Online, irrevocable: the marginal-cost greedy.
	greedy, err := dcnflow.Solve(ctx, dcnflow.SolverGreedyOnline, inst)
	if err != nil {
		return err
	}
	// Online, re-optimizing: the rolling horizon (re-plan at every
	// arrival, warm-starting each epoch's Frank–Wolfe solves from the
	// previous epoch's decompositions). The solver replays the arrivals
	// through the simulator and reports its violation counts in Stats.
	rolling, err := dcnflow.Solve(ctx, dcnflow.SolverRollingOnline, inst,
		dcnflow.WithRollingOptions(dcnflow.RollingOptions{
			Policy: dcnflow.ArrivalCount{N: 1},
			DCFSR:  dcnflow.DCFSROptions{Seed: 1, WarmStart: true},
		}))
	if err != nil {
		return err
	}

	lb := offline.LowerBound
	offE, grE, roE := offline.Energy, greedy.Energy, rolling.Energy
	fmt.Printf("workload: %d flows, diurnal arrivals over [0, 100]\n", flows.Len())
	fmt.Printf("%-36s %12s %8s\n", "scheme", "energy", "vs LB")
	fmt.Printf("%-36s %12.1f %8s\n", "density-rate lower bound", lb, "1.00x")
	fmt.Printf("%-36s %12.1f %7.2fx\n", "offline Random-Schedule (paper)", offE, offE/lb)
	fmt.Printf("%-36s %12.1f %7.2fx\n", "online marginal-cost greedy", grE, grE/lb)
	fmt.Printf("%-36s %12.1f %7.2fx\n", "online rolling-horizon", roE, roE/lb)
	fmt.Printf("rolling: %.0f epochs, %.0f Frank-Wolfe iterations, %.0f/%.0f warm-seeded interval solves\n",
		rolling.Stats["epochs"], rolling.Stats["fw_iters"],
		rolling.Stats["seeded_intervals"], rolling.Stats["solved_intervals"])

	// Every scheme must meet every deadline — verify with the simulator.
	// (The rolling replay has already been validated the same way.)
	if missed := rolling.Stats["deadline_violations"]; missed > 0 {
		return fmt.Errorf("rolling missed %.0f deadlines", missed)
	}
	for name, sched := range map[string]*dcnflow.Schedule{
		"offline": offline.Schedule, "greedy": greedy.Schedule,
	} {
		simRes, err := dcnflow.Simulate(ft.Graph, flows, sched, model, dcnflow.SimOptions{})
		if err != nil {
			return err
		}
		if simRes.DeadlinesMissed > 0 {
			return fmt.Errorf("%s missed %d deadlines", name, simRes.DeadlinesMissed)
		}
	}
	fmt.Println("all deadlines met by all three schemes")
	return nil
}
