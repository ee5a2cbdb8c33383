// Command linenet reproduces the paper's Fig. 1 / Example 1 in full
// detail: two flows on a three-node line network with f(x) = x^2, whose
// optimal schedule is known in closed form (sqrt(2)*s1 = s2 = (8+6√2)/3).
// It schedules them with Most-Critical-First on the fixed routing and
// compares the result against the analytic optimum.
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"dcnflow"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	line, err := dcnflow.Line(3, 1000)
	if err != nil {
		return err
	}
	a, b, c := line.Hosts[0], line.Hosts[1], line.Hosts[2]
	fmt.Println("topology: A --- B --- C (paper Fig. 1)")

	flows, err := dcnflow.NewFlowSet([]dcnflow.Flow{
		{Src: a, Dst: c, Release: 2, Deadline: 4, Size: 6}, // j1: A->C
		{Src: a, Dst: b, Release: 1, Deadline: 3, Size: 8}, // j2: A->B
	})
	if err != nil {
		return err
	}
	fmt.Println("j1 = (A->C, r=2, d=4, w=6)   j2 = (A->B, r=1, d=3, w=8)")

	paths, err := dcnflow.ShortestPathRouting(line.Graph, flows)
	if err != nil {
		return err
	}
	model := dcnflow.PowerModel{Mu: 1, Alpha: 2, C: 1000} // f(x) = x^2
	inst, err := dcnflow.NewInstanceBuilder().
		Graph(line.Graph).Flows(flows).Model(model).Routing(paths).Build()
	if err != nil {
		return err
	}
	res, err := dcnflow.Solve(context.Background(), dcnflow.SolverDCFSMCF, inst)
	if err != nil {
		return err
	}
	fmt.Printf("Most-Critical-First: %.0f critical round(s)\n", res.Stats["rounds"])

	wantS2 := (8 + 6*math.Sqrt2) / 3
	wantS1 := wantS2 / math.Sqrt2
	s1 := res.Schedule.FlowSchedule(0).MaxRate()
	s2 := res.Schedule.FlowSchedule(1).MaxRate()
	fmt.Printf("s1: computed %.6f, analytic %.6f\n", s1, wantS1)
	fmt.Printf("s2: computed %.6f, analytic %.6f\n", s2, wantS2)

	energy := res.Schedule.EnergyDynamic(model)
	want := 12*wantS1 + 8*wantS2
	fmt.Printf("energy: computed %.6f, analytic %.6f (rel. err %.2e)\n",
		energy, want, math.Abs(energy-want)/want)

	// Show the actual transmission windows chosen by EDF.
	for _, id := range res.Schedule.FlowIDs() {
		fs := res.Schedule.FlowSchedule(id)
		fmt.Printf("flow %d (priority %d) transmits:", id, fs.Priority)
		for _, seg := range fs.Segments {
			fmt.Printf("  %v @ %.4f", seg.Interval, seg.Rate)
		}
		fmt.Println()
	}
	fmt.Print(res.Schedule.Gantt(60))
	return nil
}
