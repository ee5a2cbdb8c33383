// Command searchagg models the workload the paper's introduction
// motivates: a web-search front end fans a query out to many workers, and
// every worker's response must reach the aggregator before a hard latency
// budget — the classic partition/aggregate pattern. The example runs three
// consecutive query waves on a k=8 fat-tree (the paper's 80-switch /
// 128-server evaluation topology) and compares the energy of
// Random-Schedule against SP+MCF and the always-on status quo.
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
	ft, err := dcnflow.FatTree(8, 1000)
	if err != nil {
		return err
	}
	fmt.Printf("topology: %s — %d switches, %d servers\n",
		ft.Name, len(ft.Switches), len(ft.Hosts))

	// Three query waves. Each wave: one aggregator, 32 workers, a 25-unit
	// latency budget for all responses of the wave.
	var all []dcnflow.Flow
	for wave := 0; wave < 3; wave++ {
		aggregator := ft.Hosts[wave*40]
		release := float64(1 + 30*wave)
		deadline := release + 25
		for w := 0; w < 32; w++ {
			worker := ft.Hosts[(wave*40+7*w+1)%len(ft.Hosts)]
			if worker == aggregator {
				worker = ft.Hosts[(wave*40+7*w+2)%len(ft.Hosts)]
			}
			all = append(all, dcnflow.Flow{
				Src: worker, Dst: aggregator,
				Release: release, Deadline: deadline,
				Size: 8,
			})
		}
	}
	flows, err := dcnflow.NewFlowSet(all)
	if err != nil {
		return err
	}
	fmt.Printf("workload: %d response flows in 3 waves, hard deadline 25 units/wave\n", flows.Len())

	model := dcnflow.PowerModel{
		Sigma: dcnflow.SigmaForRopt(1, 2, 3*flows.MeanDensity()),
		Mu:    1, Alpha: 2, C: 1000,
	}

	inst, err := dcnflow.NewInstanceBuilder().Topology(ft).Flows(flows).Model(model).Build()
	if err != nil {
		return err
	}
	ctx := context.Background()
	rs, err := dcnflow.Solve(ctx, dcnflow.SolverDCFSR, inst, dcnflow.WithSeed(7))
	if err != nil {
		return err
	}
	sp, err := dcnflow.Solve(ctx, dcnflow.SolverSPMCF, inst)
	if err != nil {
		return err
	}
	ao, err := dcnflow.Solve(ctx, dcnflow.SolverAlwaysOn, inst)
	if err != nil {
		return err
	}

	// Random-Schedule's bound holds for schedules that send each flow on
	// one path at its density; SP+MCF shapes rates, so its ratio is a
	// comparison, not a bound.
	lb := rs.LowerBound
	fmt.Printf("%-28s %12s %10s %12s\n", "scheme", "energy", "vs LB", "links on")
	fmt.Printf("%-28s %12.1f %10s %12d\n", "density-rate lower bound", lb, "1.00x", 0)
	for _, row := range []struct {
		name string
		sol  *dcnflow.Solution
	}{
		{"Random-Schedule (paper)", rs},
		{"SP+MCF baseline", sp},
		{"always-on full rate", ao},
	} {
		fmt.Printf("%-28s %12.1f %9.2fx %12.0f\n", row.name, row.sol.Energy, row.sol.Energy/lb, row.sol.Stats["links_on"])
	}

	// Where does the energy go? Attribute it to fat-tree tiers.
	breakdown, err := rs.Schedule.Breakdown(ft.Graph, model)
	if err != nil {
		return err
	}
	fmt.Println("\nRandom-Schedule energy by link tier:")
	fmt.Print(breakdown.Table())

	// Every wave must meet its latency budget: verify via simulation.
	simRes, err := dcnflow.Simulate(ft.Graph, flows, rs.Schedule, model, dcnflow.SimOptions{})
	if err != nil {
		return err
	}
	fmt.Printf("deadlines: %d met, %d missed (hard requirement)\n",
		simRes.DeadlinesMet, simRes.DeadlinesMissed)
	if simRes.DeadlinesMissed > 0 {
		return fmt.Errorf("searchagg: %d responses missed the latency budget", simRes.DeadlinesMissed)
	}
	return nil
}
