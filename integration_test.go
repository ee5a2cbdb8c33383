package dcnflow_test

import (
	"context"
	"math"
	"testing"

	"dcnflow"
)

// TestIntegrationFatTreePipeline runs the full pipeline (topology ->
// workload -> RS -> baselines -> simulator -> breakdown -> packet level ->
// EDF check) on one instance and cross-validates every measurement against
// the others.
func TestIntegrationFatTreePipeline(t *testing.T) {
	ft, err := dcnflow.FatTree(4, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	flows, err := dcnflow.UniformWorkload(dcnflow.WorkloadConfig{
		N: 30, T0: 1, T1: 100, SizeMean: 10, SizeStddev: 3,
		Hosts: ft.Hosts, Seed: 77,
	})
	if err != nil {
		t.Fatal(err)
	}
	model := dcnflow.PowerModel{
		Sigma: dcnflow.SigmaForRopt(1, 2, 3*flows.MeanDensity()),
		Mu:    1, Alpha: 2, C: 1e9,
	}

	inst, err := dcnflow.NewInstance(ft.Graph, flows, model)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rs, err := dcnflow.Solve(ctx, dcnflow.SolverDCFSR, inst, dcnflow.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	analytic := rs.Energy

	// 1. Simulator agrees with analytic accounting.
	simRes, err := dcnflow.Simulate(ft.Graph, flows, rs.Schedule, model, dcnflow.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(simRes.TotalEnergy-analytic)/analytic > 1e-6 {
		t.Fatalf("sim %v vs analytic %v", simRes.TotalEnergy, analytic)
	}
	if simRes.DeadlinesMissed != 0 {
		t.Fatalf("missed %d deadlines", simRes.DeadlinesMissed)
	}

	// 2. Breakdown tiers sum to the analytic total and cover the three
	// fat-tree tiers.
	breakdown, err := rs.Schedule.Breakdown(ft.Graph, model)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(breakdown.Total()-analytic)/analytic > 1e-9 {
		t.Fatalf("breakdown %v vs analytic %v", breakdown.Total(), analytic)
	}
	tiers := map[string]bool{}
	for _, tier := range breakdown.Tiers {
		tiers[tier.Tier] = true
	}
	for _, want := range []string{"edge-host", "agg-edge", "agg-core"} {
		if !tiers[want] {
			t.Fatalf("missing tier %q in %v", want, tiers)
		}
	}

	// 3. The per-link EDF discipline holds (Theorem 4) and the
	// packet-level simulation delivers everything.
	report, err := dcnflow.VerifyEDFTimeSharing(ft.Graph, flows, rs.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	if !report.OK() {
		t.Fatalf("EDF violations: %v", report.Violations)
	}
	pl, err := dcnflow.SimulatePacketLevel(ft.Graph, flows, rs.Schedule, dcnflow.PacketLevelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for fid, c := range pl.Completion {
		if math.IsInf(c, 1) {
			t.Fatalf("flow %d undelivered at packet level", fid)
		}
	}

	// 4. Ordering sanity across schemes: LB <= RS; baselines feasible.
	if analytic < rs.LowerBound*(1-1e-9) {
		t.Fatalf("RS %v below LB %v", analytic, rs.LowerBound)
	}
	sp, err := dcnflow.Solve(ctx, dcnflow.SolverSPMCF, inst)
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.Schedule.Verify(ft.Graph, flows, model, dcnflow.VerifyOptions{}); err != nil {
		t.Fatal(err)
	}
	ao, err := dcnflow.Solve(ctx, dcnflow.SolverAlwaysOn, inst)
	if err != nil {
		t.Fatal(err)
	}
	if ao.Energy <= analytic {
		t.Fatalf("always-on %v not worse than RS %v", ao.Energy, analytic)
	}

	// 5. Schedule JSON round-trip preserves energy.
	data, err := rs.Schedule.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var restored dcnflow.Schedule
	if err := restored.UnmarshalJSON(data); err != nil {
		t.Fatal(err)
	}
	if math.Abs(restored.EnergyTotal(model)-analytic)/analytic > 1e-12 {
		t.Fatal("JSON round trip changed energy")
	}
}
