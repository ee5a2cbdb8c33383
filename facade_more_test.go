package dcnflow_test

import (
	"bytes"
	"context"
	"math"
	"testing"

	"dcnflow"
)

func TestFacadeTopologies(t *testing.T) {
	vl2, err := dcnflow.VL2(2, 4, 8, 4, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(vl2.Hosts) != 32 {
		t.Fatalf("VL2 hosts = %d, want 32", len(vl2.Hosts))
	}
	jf, err := dcnflow.Jellyfish(10, 3, 2, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(jf.Hosts) != 20 {
		t.Fatalf("Jellyfish hosts = %d, want 20", len(jf.Hosts))
	}
	st, err := dcnflow.Star(4, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Hosts) != 4 {
		t.Fatalf("Star hosts = %d, want 4", len(st.Hosts))
	}
	ls, err := dcnflow.LeafSpine(2, 4, 4, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(ls.Hosts) != 16 {
		t.Fatalf("LeafSpine hosts = %d, want 16", len(ls.Hosts))
	}
	bc, err := dcnflow.BCube(2, 1, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(bc.Hosts) != 4 {
		t.Fatalf("BCube hosts = %d, want 4", len(bc.Hosts))
	}
}

func TestFacadeOnlineAndECMP(t *testing.T) {
	ft, err := dcnflow.FatTree(4, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	flows, err := dcnflow.UniformWorkload(dcnflow.WorkloadConfig{
		N: 15, T0: 1, T1: 100, SizeMean: 8, SizeStddev: 2,
		Hosts: ft.Hosts, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := dcnflow.PowerModel{Mu: 1, Alpha: 2, C: 1e9}
	inst, err := dcnflow.NewInstance(ft.Graph, flows, m)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	on, err := dcnflow.Solve(ctx, dcnflow.SolverGreedyOnline, inst)
	if err != nil {
		t.Fatal(err)
	}
	if int(on.Stats["admitted"]) != flows.Len() {
		t.Fatalf("online admitted %v of %d", on.Stats["admitted"], flows.Len())
	}
	ecmp, err := dcnflow.Solve(ctx, dcnflow.SolverECMPMCF, inst, dcnflow.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if ecmp.Energy <= 0 {
		t.Fatal("ECMP energy not positive")
	}
	// Incremental online admission through the scheduler type.
	t0, t1 := flows.Horizon()
	sch, err := dcnflow.NewOnlineScheduler(ft.Graph, m, dcnflow.Interval{Start: t0, End: t1}, dcnflow.OnlineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range flows.Flows() {
		if err := sch.Admit(f); err != nil {
			t.Fatalf("Admit(%d): %v", f.ID, err)
		}
	}
}

func TestFacadePacketLevel(t *testing.T) {
	ft, err := dcnflow.FatTree(4, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	flows, err := dcnflow.UniformWorkload(dcnflow.WorkloadConfig{
		N: 8, T0: 1, T1: 50, SizeMean: 5, SizeStddev: 1,
		Hosts: ft.Hosts, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := dcnflow.PowerModel{Mu: 1, Alpha: 2, C: 1e9}
	inst, err := dcnflow.NewInstance(ft.Graph, flows, m)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := dcnflow.Solve(context.Background(), dcnflow.SolverDCFSR, inst, dcnflow.WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	pl, err := dcnflow.SimulatePacketLevel(ft.Graph, flows, rs.Schedule, dcnflow.PacketLevelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for fid, c := range pl.Completion {
		if math.IsInf(c, 1) {
			t.Fatalf("flow %d undelivered", fid)
		}
	}
}

func TestFacadeTraceRoundTrip(t *testing.T) {
	flows, err := dcnflow.NewFlowSet([]dcnflow.Flow{
		{Src: 0, Dst: 1, Release: 1, Deadline: 5, Size: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := dcnflow.WriteTrace(&buf, flows); err != nil {
		t.Fatal(err)
	}
	back, err := dcnflow.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 1 {
		t.Fatalf("round trip len = %d", back.Len())
	}
}

func TestFacadeWorkloadVariants(t *testing.T) {
	ft, err := dcnflow.FatTree(4, 100)
	if err != nil {
		t.Fatal(err)
	}
	di, err := dcnflow.DiurnalWorkload(dcnflow.DiurnalConfig{
		N: 30, T0: 0, T1: 100, SizeMean: 5, SizeStddev: 1,
		Hosts: ft.Hosts, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if di.Len() != 30 {
		t.Fatalf("diurnal len = %d", di.Len())
	}
	in, err := dcnflow.IncastWorkload(ft.Hosts[0], ft.Hosts[1:5], 0, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	if in.Len() != 4 {
		t.Fatalf("incast len = %d", in.Len())
	}
	parts, err := dcnflow.SplitFlow(dcnflow.Flow{Src: 0, Dst: 1, Release: 0, Deadline: 4, Size: 8}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 4 || parts[0].Size != 2 {
		t.Fatalf("split = %+v", parts)
	}
	splitSet, err := dcnflow.SplitFlowSet(in, 1)
	if err != nil {
		t.Fatal(err)
	}
	if splitSet.Len() != 8 {
		t.Fatalf("split set len = %d, want 8", splitSet.Len())
	}
}

func TestFacadeExactSolver(t *testing.T) {
	top, src, dst, err := dcnflow.ParallelLinks(2, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	flows, err := dcnflow.NewFlowSet([]dcnflow.Flow{
		{Src: src, Dst: dst, Release: 0, Deadline: 1, Size: 2},
		{Src: src, Dst: dst, Release: 0, Deadline: 1, Size: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	m := dcnflow.PowerModel{Mu: 1, Alpha: 2, C: 1e9}
	inst, err := dcnflow.NewInstance(top.Graph, flows, m)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := dcnflow.Solve(context.Background(), dcnflow.SolverExact, inst)
	if err != nil {
		t.Fatal(err)
	}
	// Optimal: one flow per link at rate 2: 2 * (2^2 * 1) = 8.
	if math.Abs(exact.Energy-8) > 1e-9 {
		t.Fatalf("exact energy = %v, want 8", exact.Energy)
	}
	if got := exact.Stats["assignments"]; got != 4 {
		t.Fatalf("assignments = %v, want 4", got)
	}
}

func TestFacadeRelaxationCostKinds(t *testing.T) {
	ft, err := dcnflow.FatTree(4, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	flows, err := dcnflow.UniformWorkload(dcnflow.WorkloadConfig{
		N: 8, T0: 1, T1: 50, SizeMean: 5, SizeStddev: 1,
		Hosts: ft.Hosts, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := dcnflow.PowerModel{Sigma: 1, Mu: 1, Alpha: 2, C: 1e9}
	inst, err := dcnflow.NewInstance(ft.Graph, flows, m)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []dcnflow.CostKind{dcnflow.CostDynamic, dcnflow.CostEnvelope} {
		res, err := dcnflow.Solve(context.Background(), dcnflow.SolverDCFSR, inst,
			dcnflow.WithSeed(1), dcnflow.WithSolverOptions(dcnflow.SolverOptions{Cost: kind, MaxIters: 15}))
		if err != nil {
			t.Fatalf("cost kind %v: %v", kind, err)
		}
		if res.LowerBound <= 0 {
			t.Fatalf("cost kind %v: LB = %v", kind, res.LowerBound)
		}
	}
}
