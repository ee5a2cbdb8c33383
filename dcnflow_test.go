package dcnflow_test

import (
	"context"
	"errors"
	"math"
	"testing"

	"dcnflow"
)

// TestFacadeEndToEnd exercises the full public API path a downstream user
// would follow: build a topology, draw a workload, solve DCFSR, compare
// against SP+MCF, and cross-check with the simulator.
func TestFacadeEndToEnd(t *testing.T) {
	ft, err := dcnflow.FatTree(4, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	flows, err := dcnflow.UniformWorkload(dcnflow.WorkloadConfig{
		N: 20, T0: 1, T1: 100, SizeMean: 10, SizeStddev: 3,
		Hosts: ft.Hosts, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	model := dcnflow.PowerModel{
		Sigma: dcnflow.SigmaForRopt(1, 2, 1),
		Mu:    1, Alpha: 2, C: 1e9,
	}

	inst, err := dcnflow.NewInstance(ft.Graph, flows, model)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rs, err := dcnflow.Solve(ctx, dcnflow.SolverDCFSR, inst, dcnflow.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	sp, err := dcnflow.Solve(ctx, dcnflow.SolverSPMCF, inst)
	if err != nil {
		t.Fatal(err)
	}
	rsEnergy, spEnergy := rs.Energy, sp.Energy
	if rsEnergy < rs.LowerBound*(1-1e-6) {
		t.Fatalf("RS energy %v below LB %v", rsEnergy, rs.LowerBound)
	}
	if spEnergy <= 0 {
		t.Fatal("SP+MCF energy not positive")
	}

	simRes, err := dcnflow.Simulate(ft.Graph, flows, rs.Schedule, model, dcnflow.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if simRes.DeadlinesMissed != 0 {
		t.Fatalf("simulator saw %d missed deadlines", simRes.DeadlinesMissed)
	}
	if math.Abs(simRes.TotalEnergy-rsEnergy)/rsEnergy > 1e-6 {
		t.Fatalf("sim energy %v != analytic %v", simRes.TotalEnergy, rsEnergy)
	}

	report, err := dcnflow.VerifyEDFTimeSharing(ft.Graph, flows, rs.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	if !report.OK() {
		t.Fatalf("EDF time-sharing violated: %v", report.Violations)
	}
}

func TestFacadeDCFSWithExplicitRouting(t *testing.T) {
	line, err := dcnflow.Line(3, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	flows, err := dcnflow.NewFlowSet([]dcnflow.Flow{
		{Src: line.Hosts[0], Dst: line.Hosts[2], Release: 2, Deadline: 4, Size: 6},
		{Src: line.Hosts[0], Dst: line.Hosts[1], Release: 1, Deadline: 3, Size: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	paths, err := dcnflow.ShortestPathRouting(line.Graph, flows)
	if err != nil {
		t.Fatal(err)
	}
	model := dcnflow.PowerModel{Mu: 1, Alpha: 2, C: 1e9}
	inst, err := dcnflow.NewInstanceBuilder().
		Graph(line.Graph).Flows(flows).Model(model).Routing(paths).Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := dcnflow.Solve(context.Background(), dcnflow.SolverDCFSMCF, inst)
	if err != nil {
		t.Fatal(err)
	}
	want := 12*(8+6*math.Sqrt2)/3/math.Sqrt2 + 8*(8+6*math.Sqrt2)/3
	if got := res.Schedule.EnergyDynamic(model); math.Abs(got-want)/want > 1e-9 {
		t.Fatalf("Example 1 energy = %v, want %v", got, want)
	}
}

func TestFacadeLowerBoundAndAlwaysOn(t *testing.T) {
	ft, err := dcnflow.FatTree(4, 100)
	if err != nil {
		t.Fatal(err)
	}
	flows, err := dcnflow.UniformWorkload(dcnflow.WorkloadConfig{
		N: 10, T0: 1, T1: 100, SizeMean: 5, SizeStddev: 1,
		Hosts: ft.Hosts, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	model := dcnflow.PowerModel{Sigma: 1, Mu: 1, Alpha: 2, C: 100}
	lb, err := dcnflow.LowerBound(context.Background(), ft.Graph, flows, model, dcnflow.DCFSROptions{})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := dcnflow.NewInstance(ft.Graph, flows, model)
	if err != nil {
		t.Fatal(err)
	}
	ao, err := dcnflow.Solve(context.Background(), dcnflow.SolverAlwaysOn, inst)
	if err != nil {
		t.Fatal(err)
	}
	if ao.Energy <= lb {
		t.Fatalf("always-on energy %v should exceed the lower bound %v", ao.Energy, lb)
	}
}

// TestFacadeLowerBoundCancelled: a cancelled context ends the bound's
// relaxation with an error wrapping context.Canceled and no bound.
func TestFacadeLowerBoundCancelled(t *testing.T) {
	ft, err := dcnflow.FatTree(4, 100)
	if err != nil {
		t.Fatal(err)
	}
	flows, err := dcnflow.UniformWorkload(dcnflow.WorkloadConfig{
		N: 10, T0: 1, T1: 100, SizeMean: 5, SizeStddev: 1,
		Hosts: ft.Hosts, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	lb, err := dcnflow.LowerBound(ctx, ft.Graph, flows, dcnflow.PowerModel{Mu: 1, Alpha: 2, C: 100}, dcnflow.DCFSROptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("LowerBound on a cancelled context: err = %v, want context.Canceled", err)
	}
	if lb != 0 {
		t.Fatalf("LowerBound on a cancelled context returned bound %v, want none", lb)
	}
}

func TestFacadeWorkloadHelpers(t *testing.T) {
	ft, err := dcnflow.FatTree(4, 100)
	if err != nil {
		t.Fatal(err)
	}
	pa, err := dcnflow.PartitionAggregateWorkload(ft.Hosts[0], ft.Hosts[1:5], 0, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	if pa.Len() != 4 {
		t.Fatalf("partition-aggregate flows = %d, want 4", pa.Len())
	}
	sh, err := dcnflow.ShuffleWorkload(ft.Hosts[:3], 0, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sh.Len() != 6 {
		t.Fatalf("shuffle flows = %d, want 6", sh.Len())
	}
}
