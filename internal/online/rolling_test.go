package online

import (
	"context"
	"errors"
	"math"
	"testing"

	"dcnflow/internal/core"
	"dcnflow/internal/flow"
	"dcnflow/internal/mcfsolve"
	"dcnflow/internal/power"
	"dcnflow/internal/schedule"
	"dcnflow/internal/sim"
	"dcnflow/internal/timeline"
	"dcnflow/internal/topology"
)

func diurnalWorkload(t *testing.T, n int, seed int64) (*topology.Topology, *flow.Set) {
	t.Helper()
	ft, err := topology.FatTree(4, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := flow.Diurnal(flow.DiurnalConfig{
		N: n, T0: 0, T1: 100, PeakFactor: 5,
		SizeMean: 8, SizeStddev: 2, Hosts: ft.Hosts, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ft, fs
}

func rollingOpts(policy ReplanPolicy) RollingOptions {
	return RollingOptions{
		Policy: policy,
		DCFSR: core.DCFSROptions{
			Seed:      1,
			Solver:    mcfsolve.Options{MaxIters: 30},
			WarmStart: true,
		},
	}
}

// TestRollingMeetsAllDeadlines: every admitted flow's deadline must hold,
// verified by both the analytic Verify and the discrete-event simulator.
func TestRollingMeetsAllDeadlines(t *testing.T) {
	ft, fs := diurnalWorkload(t, 40, 3)
	m := power.Model{Mu: 1, Alpha: 2, C: 1e9}
	res, rep, err := RunRollingCtx(context.Background(), ft.Graph, fs, m, nil, rollingOpts(FixedPeriod{Period: 2}))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rejected != 0 {
		t.Fatalf("uncapped-scale run rejected %d flows", rep.Rejected)
	}
	if rep.DeadlineViolations != 0 {
		t.Fatalf("%d deadline violations", rep.DeadlineViolations)
	}
	if err := res.Schedule.Verify(ft.Graph, fs, m, schedule.VerifyOptions{EnforceCapacity: true}); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if res.Stats.Epochs == 0 || res.Stats.Admitted != fs.Len() {
		t.Fatalf("stats: %+v", res.Stats)
	}
}

// TestRollingBeatsGreedyOnDiurnal is the headline comparison: with
// re-optimization at epoch boundaries the rolling scheduler must spend
// strictly less energy than the irrevocable marginal-cost greedy on the
// slowly varying diurnal workload.
func TestRollingBeatsGreedyOnDiurnal(t *testing.T) {
	ft, fs := diurnalWorkload(t, 60, 11)
	m := power.Model{Mu: 1, Alpha: 2, C: 1e9}
	roll, _, err := RunRollingCtx(context.Background(), ft.Graph, fs, m, nil, rollingOpts(ArrivalCount{N: 1}))
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := RunCtx(context.Background(), ft.Graph, fs, m, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rollE := roll.Schedule.EnergyTotal(m)
	greedyE := greedy.Schedule.EnergyTotal(m)
	if rollE >= greedyE {
		t.Fatalf("rolling energy %v >= greedy %v", rollE, greedyE)
	}
}

// TestRollingWarmStartFewerIterations: on the slowly-varying diurnal chain
// the warm-started run must spend strictly fewer Frank–Wolfe iterations
// across its epoch re-solves than the cold-started one — the workload the
// WarmStart knob exists for.
func TestRollingWarmStartFewerIterations(t *testing.T) {
	ft, fs := diurnalWorkload(t, 40, 7)
	m := power.Model{Mu: 1, Alpha: 2, C: 1e9}
	run := func(warm bool) RollingStats {
		opts := rollingOpts(FixedPeriod{Period: 2})
		opts.DCFSR.WarmStart = warm
		res, _, err := RunRollingCtx(context.Background(), ft.Graph, fs, m, nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats
	}
	warm, cold := run(true), run(false)
	if warm.SeededIntervals == 0 {
		t.Fatal("warm run seeded no intervals")
	}
	if warm.FWIters >= cold.FWIters {
		t.Fatalf("warm run used %d FW iters, cold used %d", warm.FWIters, cold.FWIters)
	}
	t.Logf("FW iterations: warm %d vs cold %d over %d epochs (%d seeded intervals)",
		warm.FWIters, cold.FWIters, warm.Epochs, warm.SeededIntervals)
}

// TestRollingUrgencyGuard: with an absurdly long period, short-span flows
// must still be admitted in time via the maxDelayFraction guard.
func TestRollingUrgencyGuard(t *testing.T) {
	ft, fs := diurnalWorkload(t, 20, 5)
	m := power.Model{Mu: 1, Alpha: 2, C: 1e9}
	_, rep, err := RunRollingCtx(context.Background(), ft.Graph, fs, m, nil, rollingOpts(FixedPeriod{Period: 1000}))
	if err != nil {
		t.Fatal(err)
	}
	if rep.DeadlineViolations != 0 || rep.Admitted != fs.Len() {
		t.Fatalf("urgency guard failed: %+v", rep)
	}
}

// TestRollingPolicies: the arrival-count trigger re-plans and produces a
// feasible schedule.
func TestRollingPolicies(t *testing.T) {
	ft, fs := diurnalWorkload(t, 24, 9)
	m := power.Model{Mu: 1, Alpha: 2, C: 1e9}
	res, rep, err := RunRollingCtx(context.Background(), ft.Graph, fs, m, nil, rollingOpts(ArrivalCount{N: 4}))
	if err != nil {
		t.Fatal(err)
	}
	if rep.DeadlineViolations != 0 {
		t.Fatalf("%d deadline violations", rep.DeadlineViolations)
	}
	if res.Stats.Epochs == 0 {
		t.Fatal("no epochs ran")
	}
}

// TestRollingAdmissionControl: on an incast overload with tight capacity,
// admission control must reject some flows and keep the rest feasible.
func TestRollingAdmissionControl(t *testing.T) {
	ft, err := topology.FatTree(4, 10)
	if err != nil {
		t.Fatal(err)
	}
	// 12 senders × density 5 into one receiver: the receiver's access link
	// fits at most 2 concurrent flows under C=10.
	fs, err := flow.Incast(ft.Hosts[0], ft.Hosts[1:13], 0, 10, 50)
	if err != nil {
		t.Fatal(err)
	}
	m := power.Model{Mu: 1, Alpha: 2, C: 10}
	opts := rollingOpts(FixedPeriod{Period: 1})
	opts.RejectOverCapacity = true
	res, rep, err := RunRollingCtx(context.Background(), ft.Graph, fs, m, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rejected == 0 {
		t.Fatal("overloaded incast rejected nothing")
	}
	if rep.Admitted == 0 {
		t.Fatal("admission control rejected everything")
	}
	if rep.CapacityViolations != 0 {
		t.Fatalf("admitted schedule violates capacity %d times", rep.CapacityViolations)
	}
	if rep.DeadlineViolations != 0 {
		t.Fatalf("admitted flows missed %d deadlines", rep.DeadlineViolations)
	}
	if len(res.RejectedIDs) != rep.Rejected {
		t.Fatalf("rejected ids %v vs count %d", res.RejectedIDs, rep.Rejected)
	}
}

// TestRollingMatchesGreedyThroughReplay: the greedy Scheduler driven
// through sim.ReplayOnline must produce exactly the schedule RunCtx
// builds.
func TestRollingMatchesGreedyThroughReplay(t *testing.T) {
	ft, fs := diurnalWorkload(t, 30, 13)
	m := power.Model{Mu: 1, Alpha: 2, C: 1e9}
	direct, err := RunCtx(context.Background(), ft.Graph, fs, m, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t0, t1 := fs.Horizon()
	eng, err := New(ft.Graph, m, timeline.Interval{Start: t0, End: t1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sim.ReplayOnline(ft.Graph, fs, m, eng, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dE := direct.Schedule.EnergyTotal(m)
	rE := rep.Schedule.EnergyTotal(m)
	if math.Abs(dE-rE) > 1e-9*dE {
		t.Fatalf("replayed greedy energy %v != direct %v", rE, dE)
	}
	if rep.DeadlineViolations != 0 {
		t.Fatalf("greedy replay violations: %d", rep.DeadlineViolations)
	}
}

// stuckPolicy advances once (passing the constructor's vet) and then
// returns now + step at every re-plan.
type stuckPolicy struct{ step float64 }

func (p stuckPolicy) NextBoundary(now float64) float64 {
	if now < 10 {
		return 10
	}
	return now + p.step
}
func (stuckPolicy) BatchReady(int) bool { return false }

// TestRollingValidation covers constructor and sequencing errors.
func TestRollingValidation(t *testing.T) {
	ft, fs := diurnalWorkload(t, 4, 1)
	m := power.Model{Mu: 1, Alpha: 2, C: 1e9}
	if _, err := NewRollingCtx(context.Background(), nil, m, timeline.Interval{End: 10}, RollingOptions{}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("nil graph: %v", err)
	}
	if _, err := NewRollingCtx(context.Background(), ft.Graph, m, timeline.Interval{}, RollingOptions{}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("empty horizon: %v", err)
	}
	// A period that is NaN or no more than timeline.Eps would keep
	// AdvanceTo re-planning without reaching its target.
	for _, period := range []float64{0, math.NaN(), 1e-300, timeline.Eps} {
		if _, err := NewRollingCtx(context.Background(), ft.Graph, m, timeline.Interval{End: 10}, RollingOptions{Policy: FixedPeriod{Period: period}}); !errors.Is(err, ErrBadInput) {
			t.Fatalf("FixedPeriod{Period: %v}: %v", period, err)
		}
	}
	// A policy whose boundary stops advancing after the first epoch must
	// produce an error, not hang AdvanceTo.
	for _, step := range []float64{0, math.NaN(), 1e-12} {
		stuck, err := NewRollingCtx(context.Background(), ft.Graph, m, timeline.Interval{Start: 0, End: 100}, RollingOptions{Policy: stuckPolicy{step: step}})
		if err != nil {
			t.Fatal(err)
		}
		if err := stuck.AdvanceTo(50); !errors.Is(err, ErrBadInput) {
			t.Fatalf("re-plan boundary step %v: %v", step, err)
		}
	}
	rs, err := NewRollingCtx(context.Background(), ft.Graph, m, timeline.Interval{Start: 0, End: 100}, RollingOptions{})
	if err != nil {
		t.Fatal(err)
	}
	flows := fs.Flows()
	if err := rs.Arrive(flows[0]); err != nil {
		t.Fatal(err)
	}
	// Out-of-order reveal: a release in the past must be refused.
	if err := rs.AdvanceTo(99); err != nil {
		t.Fatal(err)
	}
	if err := rs.Arrive(flows[1]); !errors.Is(err, ErrBadInput) {
		t.Fatalf("out-of-order arrival: %v", err)
	}
	if _, err := rs.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := rs.Arrive(flows[2]); !errors.Is(err, ErrBadInput) {
		t.Fatalf("arrive after finish: %v", err)
	}
}
