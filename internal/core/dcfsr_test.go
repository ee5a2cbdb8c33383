package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"dcnflow/internal/flow"
	"dcnflow/internal/graph"
	"dcnflow/internal/mcfsolve"
	"dcnflow/internal/power"
	"dcnflow/internal/schedule"
	"dcnflow/internal/topology"
)

func fatTreeWorkload(t *testing.T, k, n int, seed int64) (*topology.Topology, *flow.Set) {
	t.Helper()
	ft, err := topology.FatTree(k, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := flow.Uniform(flow.GenConfig{
		N: n, T0: 1, T1: 100, SizeMean: 10, SizeStddev: 3,
		Hosts: ft.Hosts, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ft, fs
}

func TestDCFSRMeetsAllDeadlines(t *testing.T) {
	// Theorem 4: every deadline is met by Random-Schedule.
	ft, fs := fatTreeWorkload(t, 4, 20, 1)
	m := power.Model{Sigma: 1, Mu: 1, Alpha: 2, C: 1e9}
	res, err := SolveDCFSRCtx(context.Background(), DCFSRInput{Graph: ft.Graph, Flows: fs, Model: m})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Schedule.Verify(ft.Graph, fs, m, schedule.VerifyOptions{EnforceCapacity: true}); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if !res.CapacityFeasible {
		t.Fatal("uncongested instance should be capacity feasible")
	}
}

func TestDCFSREnergyAtLeastLowerBound(t *testing.T) {
	ft, fs := fatTreeWorkload(t, 4, 15, 2)
	m := power.Model{Sigma: 0.5, Mu: 1, Alpha: 2, C: 1e9}
	res, err := SolveDCFSRCtx(context.Background(), DCFSRInput{Graph: ft.Graph, Flows: fs, Model: m})
	if err != nil {
		t.Fatal(err)
	}
	if res.LowerBound <= 0 {
		t.Fatalf("LowerBound = %v, want > 0", res.LowerBound)
	}
	energy := res.Schedule.EnergyTotal(m)
	if energy < res.LowerBound*(1-1e-6) {
		t.Fatalf("energy %v below lower bound %v", energy, res.LowerBound)
	}
}

func TestDCFSRDeterministicPerSeed(t *testing.T) {
	ft, fs := fatTreeWorkload(t, 4, 12, 3)
	m := power.Model{Sigma: 0.5, Mu: 1, Alpha: 2, C: 1e9}
	run := func(seed int64) float64 {
		res, err := SolveDCFSRCtx(context.Background(), DCFSRInput{
			Graph: ft.Graph, Flows: fs, Model: m,
			Opts: DCFSROptions{Seed: seed},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Schedule.EnergyTotal(m)
	}
	if run(7) != run(7) {
		t.Fatal("same seed produced different energies")
	}
}

func TestDCFSRSingleFlowUsesSinglePath(t *testing.T) {
	line, err := topology.Line(4, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := flow.NewSet([]flow.Flow{
		{Src: line.Hosts[0], Dst: line.Hosts[3], Release: 0, Deadline: 10, Size: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	m := power.Model{Sigma: 0.5, Mu: 1, Alpha: 2, C: 1e9}
	res, err := SolveDCFSRCtx(context.Background(), DCFSRInput{Graph: line.Graph, Flows: fs, Model: m})
	if err != nil {
		t.Fatal(err)
	}
	fsch := res.Schedule.FlowSchedule(0)
	if fsch.Path.Len() != 3 {
		t.Fatalf("path length = %d, want 3 (the only route)", fsch.Path.Len())
	}
	// Rate must equal the density 0.5 over the whole span.
	if len(fsch.Segments) != 1 || fsch.Segments[0].Rate != 0.5 {
		t.Fatalf("segments = %+v, want single density-rate segment", fsch.Segments)
	}
	if res.Intervals != 1 {
		t.Fatalf("intervals = %d, want 1", res.Intervals)
	}
}

func TestDCFSRHardnessGadgetConsolidates(t *testing.T) {
	// Theorem 2 setup: 3m flows, sizes ~B/3 each, one unit of time, k >> m
	// parallel links, Ropt = B. RS should approach the m*alpha*mu*B^alpha
	// optimum by using about m links at rate about B.
	const (
		mPart = 3
		B     = 3.0
		alpha = 2.0
	)
	top, src, dst, err := topology.ParallelLinks(12, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	sizes := []float64{1, 1, 1, 1, 1, 1, 1, 1, 1} // 3m = 9 flows of B/3 = 1
	fs, err := flow.HardnessInstance(src, dst, sizes)
	if err != nil {
		t.Fatal(err)
	}
	model := power.Model{
		Sigma: power.SigmaForRopt(1, alpha, B), // Ropt = B
		Mu:    1,
		Alpha: alpha,
		C:     1e9,
	}
	res, err := SolveDCFSRCtx(context.Background(), DCFSRInput{Graph: top.Graph, Flows: fs, Model: model})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Schedule.Verify(top.Graph, fs, model, schedule.VerifyOptions{}); err != nil {
		t.Fatal(err)
	}
	optimal := float64(mPart) * alpha * model.Mu * B * B // m * alpha*mu*B^alpha
	energy := res.Schedule.EnergyTotal(model)
	if energy < optimal*(1-1e-6) {
		t.Fatalf("energy %v below the Theorem 2 optimum %v", energy, optimal)
	}
	// The fractional bound must also be at or below the integral optimum.
	if res.LowerBound > optimal*(1+1e-6) {
		t.Fatalf("lower bound %v above integral optimum %v", res.LowerBound, optimal)
	}
	// Consolidation sanity: no more links than flows get used.
	if used := len(res.Schedule.ActiveLinks()); used > len(sizes) {
		t.Fatalf("active links = %d, want <= %d", used, len(sizes))
	}
}

func TestDCFSRCapacityRetries(t *testing.T) {
	// Tight capacity forces spreading across the parallel links; the
	// rounding loop must find a feasible assignment.
	top, src, dst, err := topology.ParallelLinks(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := flow.NewSet([]flow.Flow{
		{Src: src, Dst: dst, Release: 0, Deadline: 1, Size: 1.5},
		{Src: src, Dst: dst, Release: 0, Deadline: 1, Size: 1.5},
		{Src: src, Dst: dst, Release: 0, Deadline: 1, Size: 1.5},
		{Src: src, Dst: dst, Release: 0, Deadline: 1, Size: 1.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	m := power.Model{Sigma: 1, Mu: 1, Alpha: 2, C: 2}
	res, err := SolveDCFSRCtx(context.Background(), DCFSRInput{
		Graph: top.Graph, Flows: fs, Model: m,
		Opts: DCFSROptions{Seed: 1, MaxRoundingAttempts: 200},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.CapacityFeasible {
		t.Fatalf("no feasible rounding found (max rate %v, C=2)", res.MaxRate)
	}
	if err := res.Schedule.Verify(top.Graph, fs, m, schedule.VerifyOptions{EnforceCapacity: true}); err != nil {
		t.Fatal(err)
	}
}

func TestDCFSREmptyFlows(t *testing.T) {
	line, err := topology.Line(3, 10)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := flow.NewSet(nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SolveDCFSRCtx(context.Background(), DCFSRInput{
		Graph: line.Graph, Flows: fs,
		Model: power.Model{Mu: 1, Alpha: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedule.Len() != 0 || !res.CapacityFeasible {
		t.Fatal("empty instance should yield empty feasible schedule")
	}
}

func TestDCFSRInputValidation(t *testing.T) {
	line, err := topology.Line(3, 10)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := flow.NewSet(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SolveDCFSRCtx(context.Background(), DCFSRInput{Flows: fs, Model: power.Model{Mu: 1, Alpha: 2}}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("nil graph err = %v, want ErrBadInput", err)
	}
	if _, err := SolveDCFSRCtx(context.Background(), DCFSRInput{Graph: line.Graph, Flows: fs, Model: power.Model{Mu: 0, Alpha: 2}}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("bad model err = %v, want ErrBadInput", err)
	}
}

// TestLowerBoundStandalone tests each bound against its own contract.
// LowerBoundCtx is the paper's fractional value: the FractionalObjective
// of a solve whose interval solves run to the iteration cap, which they do
// whenever the cap is at most the stop rule's budget. The solve's
// LowerBound is certified: at most its energy and at least LB_iso, the
// isolated-flow bound computed here from plain minimum-hop paths.
func TestLowerBoundStandalone(t *testing.T) {
	ft, fs := fatTreeWorkload(t, 4, 10, 4)
	m := power.Model{Sigma: 0.5, Mu: 1, Alpha: 2, C: 1e9}
	capped := DCFSROptions{Solver: mcfsolve.Options{MaxIters: 10}}
	lb, err := LowerBoundCtx(context.Background(), ft.Graph, fs, m, capped)
	if err != nil {
		t.Fatal(err)
	}
	if lb <= 0 {
		t.Fatalf("LowerBound = %v, want > 0", lb)
	}
	res, err := SolveDCFSRCtx(context.Background(), DCFSRInput{Graph: ft.Graph, Flows: fs, Model: m, Opts: capped})
	if err != nil {
		t.Fatal(err)
	}
	if lb != res.FractionalObjective {
		t.Fatalf("standalone LB %v != solver fractional objective %v at a 10-iteration cap", lb, res.FractionalObjective)
	}

	iso := isoLowerBound(t, ft.Graph, fs, m)
	for _, sets := range []DCFSROptions{{}, capped} {
		res, err := SolveDCFSRCtx(context.Background(), DCFSRInput{Graph: ft.Graph, Flows: fs, Model: m, Opts: sets})
		if err != nil {
			t.Fatal(err)
		}
		energy := res.Schedule.EnergyTotal(m)
		if res.LowerBound > energy*(1+1e-9) || res.LowerBound < iso*(1-1e-12) {
			t.Fatalf("%d iterations: certified bound %v outside [LB_iso %v, energy %v]", sets.Solver.MaxIters, res.LowerBound, iso, energy)
		}
	}
	if _, err := LowerBoundCtx(context.Background(), nil, fs, m, DCFSROptions{}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("nil graph err = %v, want ErrBadInput", err)
	}
}

func TestSolveDCFSRWithFractionalMatches(t *testing.T) {
	// One relaxation run on past each stop must give SolveDCFSRCtx's result
	// and LowerBoundCtx's value bit for bit, whether every interval solve,
	// some or none stopped on iso_k.
	ctx := context.Background()
	var stopped, ran bool
	for _, tc := range []struct {
		n     int
		m     power.Model
		iters int
		par   int
	}{
		{40, power.Model{Sigma: 0.5, Mu: 1, Alpha: 2, C: 1e9}, 0, 1},
		{60, power.Model{Mu: 1, Alpha: 4}, 30, 3},
		{60, power.Model{Mu: 1, Alpha: 3}, 12, 2},
		{30, power.Model{Mu: 1, Alpha: 2}, 8, 1},
		{0, power.Model{Mu: 1, Alpha: 2}, 0, 1},
	} {
		ft, fs := fatTreeWorkload(t, 4, max(tc.n, 1), int64(tc.n))
		if tc.n == 0 {
			fs, _ = flow.NewSet(nil)
		}
		opts := DCFSROptions{Seed: 3, Parallelism: tc.par, Solver: mcfsolve.Options{MaxIters: tc.iters}}
		in := DCFSRInput{Graph: ft.Graph, Flows: fs, Model: tc.m, Opts: opts}
		got, frac, err := SolveDCFSRWithFractionalCtx(ctx, in)
		if err != nil {
			t.Fatal(err)
		}
		want, err := SolveDCFSRCtx(ctx, in)
		if err != nil {
			t.Fatal(err)
		}
		lb, err := LowerBoundCtx(ctx, ft.Graph, fs, tc.m, opts)
		if err != nil {
			t.Fatal(err)
		}
		where := fmt.Sprintf("n=%d alpha=%v iters=%d", tc.n, tc.m.Alpha, tc.iters)
		if math.Float64bits(frac) != math.Float64bits(lb) {
			t.Fatalf("%s: fractional value %v, LowerBoundCtx %v", where, frac, lb)
		}
		ge, we := got.Schedule.EnergyTotal(tc.m), want.Schedule.EnergyTotal(tc.m)
		if math.Float64bits(ge) != math.Float64bits(we) ||
			math.Float64bits(got.LowerBound) != math.Float64bits(want.LowerBound) ||
			math.Float64bits(got.FractionalObjective) != math.Float64bits(want.FractionalObjective) ||
			got.Attempts != want.Attempts || got.FWIters != want.FWIters || got.BoundStops != want.BoundStops {
			t.Fatalf("%s: got energy %v bound %v fractional %v attempts %d fw %d stops %d; SolveDCFSRCtx %v %v %v %d %d %d",
				where, ge, got.LowerBound, got.FractionalObjective, got.Attempts, got.FWIters, got.BoundStops,
				we, want.LowerBound, want.FractionalObjective, want.Attempts, want.FWIters, want.BoundStops)
		}
		for _, f := range fs.Flows() {
			if graph.ComparePathKeys(got.Schedule.FlowSchedule(f.ID).Path.Edges, want.Schedule.FlowSchedule(f.ID).Path.Edges) != 0 {
				t.Fatalf("%s: flow %d routed differently", where, f.ID)
			}
		}
		t.Logf("%s: %d of %d interval solves stopped", where, got.BoundStops, got.Intervals)
		stopped = stopped || got.BoundStops > 0
		ran = ran || got.BoundStops < got.Intervals
	}
	if !stopped || !ran {
		t.Fatalf("cases cover stopped interval solves %v and ones run to the cap %v; want both", stopped, ran)
	}
}

// isoLowerBound is LB_iso = sum over flows of mu * D_j^alpha * h_j * span_j,
// with h_j the hop count of the graph's own minimum-hop path.
func isoLowerBound(t *testing.T, g *graph.Graph, fs *flow.Set, m power.Model) float64 {
	t.Helper()
	var lb float64
	for _, f := range fs.Flows() {
		p, err := g.ShortestPath(f.Src, f.Dst)
		if err != nil {
			t.Fatal(err)
		}
		lb += m.G(f.Density()) * float64(p.Len()) * f.Span()
	}
	return lb
}

func TestDCFSRAttemptsSemantics(t *testing.T) {
	// Uncongested instance: the first draw is feasible, so exactly one
	// attempt is consumed.
	ft, fs := fatTreeWorkload(t, 4, 10, 6)
	m := power.Model{Sigma: 0.5, Mu: 1, Alpha: 2, C: 1e9}
	res, err := SolveDCFSRCtx(context.Background(), DCFSRInput{Graph: ft.Graph, Flows: fs, Model: m})
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempts != 1 {
		t.Fatalf("attempts = %d, want 1 on an uncongested instance", res.Attempts)
	}
	// Uncapped model: always feasible on the first draw.
	un := power.Model{Sigma: 0.5, Mu: 1, Alpha: 2}
	res2, err := SolveDCFSRCtx(context.Background(), DCFSRInput{Graph: ft.Graph, Flows: fs, Model: un})
	if err != nil {
		t.Fatal(err)
	}
	if !res2.CapacityFeasible || res2.Attempts != 1 {
		t.Fatalf("uncapped: feasible=%v attempts=%d", res2.CapacityFeasible, res2.Attempts)
	}
}

func TestDCFSRInfeasibleStillReturnsBestEffort(t *testing.T) {
	// Pigeonhole-infeasible: 3 density-1.5 flows on 2 links of C=2. Every
	// draw violates capacity; the solver must return its least-violating
	// assignment with CapacityFeasible=false.
	top, src, dst, err := topology.ParallelLinks(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := flow.NewSet([]flow.Flow{
		{Src: src, Dst: dst, Release: 0, Deadline: 1, Size: 1.5},
		{Src: src, Dst: dst, Release: 0, Deadline: 1, Size: 1.5},
		{Src: src, Dst: dst, Release: 0, Deadline: 1, Size: 1.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	m := power.Model{Sigma: 1, Mu: 1, Alpha: 2, C: 2}
	res, err := SolveDCFSRCtx(context.Background(), DCFSRInput{
		Graph: top.Graph, Flows: fs, Model: m,
		Opts: DCFSROptions{Seed: 1, MaxRoundingAttempts: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.CapacityFeasible {
		t.Fatal("pigeonhole-infeasible instance reported feasible")
	}
	// Deadlines still hold (capacity is the only violation).
	if verr := res.Schedule.Verify(top.Graph, fs, m, schedule.VerifyOptions{}); verr != nil {
		t.Fatalf("Verify: %v", verr)
	}
	// Least-violating: max rate 3 (two flows on one link), not 4.5 (all
	// three together).
	if res.MaxRate > 3+1e-9 {
		t.Fatalf("max rate = %v, want <= 3 (best-effort spreading)", res.MaxRate)
	}
}

func TestDCFSRLambdaAndIntervals(t *testing.T) {
	line, err := topology.Line(3, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	// Two flows: breakpoints {0, 1, 4, 10} -> 3 intervals, lambda = 10/1.
	fs, err := flow.NewSet([]flow.Flow{
		{Src: line.Hosts[0], Dst: line.Hosts[2], Release: 0, Deadline: 4, Size: 2},
		{Src: line.Hosts[2], Dst: line.Hosts[0], Release: 1, Deadline: 10, Size: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := SolveDCFSRCtx(context.Background(), DCFSRInput{
		Graph: line.Graph, Flows: fs,
		Model: power.Model{Sigma: 0.5, Mu: 1, Alpha: 2, C: 1e9},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Intervals != 3 {
		t.Fatalf("intervals = %d, want 3", res.Intervals)
	}
	if !almostEqual(res.Lambda, 10, 1e-9) {
		t.Fatalf("lambda = %v, want 10", res.Lambda)
	}
}

func TestDCFSRRedrawAfterInfeasibleDerandomized(t *testing.T) {
	// Six density-0.9 flows over four C=2 links fit iff no link carries
	// three. With idle power well above dynamic power the conditional
	// expectation stacks three flows on a link, past C; the seeded draws
	// after it must still find a spreading that fits, and the derandomized
	// attempt must not count against their budget.
	top, src, dst, err := topology.ParallelLinks(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	raw := make([]flow.Flow, 6)
	for i := range raw {
		raw[i] = flow.Flow{Src: src, Dst: dst, Release: 0, Deadline: 1, Size: 0.9}
	}
	fs, err := flow.NewSet(raw)
	if err != nil {
		t.Fatal(err)
	}
	m := power.Model{Sigma: 10, Mu: 1, Alpha: 2, C: 2}
	solve := func(budget int) *DCFSRResult {
		t.Helper()
		res, err := SolveDCFSRCtx(context.Background(), DCFSRInput{
			Graph: top.Graph, Flows: fs, Model: m,
			Opts: DCFSROptions{Seed: 1, MaxRoundingAttempts: budget},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	one := solve(1)
	if one.Attempts != 2 || one.CapacityFeasible || one.MaxRate <= 2 {
		t.Fatalf("budget 1: attempts %d, feasible %v, max rate %v; want the derandomized assignment past C and one draw after it",
			one.Attempts, one.CapacityFeasible, one.MaxRate)
	}
	res := solve(50)
	if res.Attempts <= 2 || !res.CapacityFeasible {
		t.Fatalf("budget 50: attempts %d, feasible %v; want a later draw that fits", res.Attempts, res.CapacityFeasible)
	}
	if err := res.Schedule.Verify(top.Graph, fs, m, schedule.VerifyOptions{EnforceCapacity: true}); err != nil {
		t.Fatal(err)
	}
	// The fitting draw was draw Attempts - 1: a budget of exactly that many
	// draws reaches it, one fewer does not.
	draws := res.Attempts - 1
	if got := solve(draws); got.Attempts != res.Attempts || !got.CapacityFeasible || got.Schedule.EnergyTotal(m) != res.Schedule.EnergyTotal(m) {
		t.Fatalf("budget %d: attempts %d, feasible %v; want attempts %d, feasible", draws, got.Attempts, got.CapacityFeasible, res.Attempts)
	}
	if got := solve(draws - 1); got.Attempts != draws || got.CapacityFeasible {
		t.Fatalf("budget %d: attempts %d, feasible %v; want attempts %d, infeasible", draws-1, got.Attempts, got.CapacityFeasible, draws)
	}
}
