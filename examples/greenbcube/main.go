// Command greenbcube runs a MapReduce-style shuffle on a BCube(4, 1)
// server-centric topology and shows how joint scheduling and routing
// (Random-Schedule) exploits BCube's path diversity to finish every
// transfer by its deadline with less energy than shortest-path routing.
// It also demonstrates the Theorem 4 EDF time-sharing check.
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
	bc, err := dcnflow.BCube(4, 1, 1000)
	if err != nil {
		return err
	}
	fmt.Printf("topology: %s — %d servers, %d switches, %d links\n",
		bc.Name, len(bc.Hosts), len(bc.Switches), bc.NumPhysicalLinks())

	// Shuffle stage: 8 mappers each send an equal partition to 8 reducers
	// within a common window.
	mappers := bc.Hosts[:8]
	reducers := bc.Hosts[8:16]
	var raw []dcnflow.Flow
	for _, m := range mappers {
		for _, r := range reducers {
			raw = append(raw, dcnflow.Flow{
				Src: m, Dst: r,
				Release: 0, Deadline: 40,
				Size: 6,
			})
		}
	}
	flows, err := dcnflow.NewFlowSet(raw)
	if err != nil {
		return err
	}
	fmt.Printf("workload: %d shuffle flows, deadline 40 units\n", flows.Len())

	model := dcnflow.PowerModel{
		Sigma: dcnflow.SigmaForRopt(1, 2, 3*flows.MeanDensity()),
		Mu:    1, Alpha: 2, C: 1000,
	}

	inst, err := dcnflow.NewInstanceBuilder().Topology(bc).Flows(flows).Model(model).Build()
	if err != nil {
		return err
	}
	ctx := context.Background()
	rs, err := dcnflow.Solve(ctx, dcnflow.SolverDCFSR, inst, dcnflow.WithSeed(3))
	if err != nil {
		return err
	}
	sp, err := dcnflow.Solve(ctx, dcnflow.SolverSPMCF, inst)
	if err != nil {
		return err
	}

	fmt.Printf("Random-Schedule: energy %.1f (%.2fx LB), %.0f links on\n",
		rs.Energy, rs.Energy/rs.LowerBound, rs.Stats["links_on"])
	fmt.Printf("SP+MCF:          energy %.1f (%.2fx LB), %.0f links on\n",
		sp.Energy, sp.Energy/rs.LowerBound, sp.Stats["links_on"])

	// Theorem 4: per-link EDF time sharing serialises every interval's
	// data by the interval end — validate it explicitly.
	report, err := dcnflow.VerifyEDFTimeSharing(bc.Graph, flows, rs.Schedule)
	if err != nil {
		return err
	}
	fmt.Printf("EDF time-sharing check: %d links, %d (link, interval) pairs, violations: %d\n",
		report.LinksChecked, report.IntervalsChecked, len(report.Violations))
	if !report.OK() {
		return fmt.Errorf("greenbcube: EDF discipline violated: %v", report.Violations[0])
	}

	simRes, err := dcnflow.Simulate(bc.Graph, flows, rs.Schedule, model, dcnflow.SimOptions{})
	if err != nil {
		return err
	}
	fmt.Printf("simulated: %d/%d deadlines met, peak link rate %.2f (C=%g)\n",
		simRes.DeadlinesMet, flows.Len(), simRes.MaxLinkRate, model.C)
	return nil
}
