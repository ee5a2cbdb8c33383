package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"dcnflow/internal/flow"
	"dcnflow/internal/graph"
	"dcnflow/internal/mcfsolve"
	"dcnflow/internal/power"
	"dcnflow/internal/timeline"
)

func partialModel() power.Model { return power.Model{Mu: 1, Alpha: 2, C: 1e9} }

// TestPartialMatchesFullRelaxationAtStart: with Now at the horizon start and
// nothing pinned, the residual instance IS the full instance, so the
// residual lower bound must equal LowerBoundCtx exactly.
func TestPartialMatchesFullRelaxationAtStart(t *testing.T) {
	ft, fs := fatTreeWorkload(t, 4, 12, 7)
	m := partialModel()
	opts := DCFSROptions{Seed: 1, Solver: mcfsolve.Options{MaxIters: 25}}
	lb, err := LowerBoundCtx(context.Background(), ft.Graph, fs, m, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SolveDCFSRPartialCtx(context.Background(), DCFSRPartialInput{
		Graph: ft.Graph, Flows: fs.Flows(), Model: m, Now: 0, Opts: opts,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ResidualLowerBound != lb {
		t.Fatalf("residual LB %v != offline LB %v", res.ResidualLowerBound, lb)
	}
	if !res.CapacityFeasible {
		t.Fatal("uncapped-scale instance reported infeasible")
	}
	for _, f := range fs.Flows() {
		p, ok := res.Paths[f.ID]
		if !ok {
			t.Fatalf("flow %d has no planned path", f.ID)
		}
		if err := p.Validate(ft.Graph, f.Src, f.Dst); err != nil {
			t.Fatalf("flow %d path invalid: %v", f.ID, err)
		}
		if got, want := res.Rates[f.ID], f.Density(); math.Abs(got-want) > 1e-9*want {
			t.Fatalf("flow %d rate %v, want density %v", f.ID, got, want)
		}
	}
}

// TestPartialFrozenCommitments: pinned flows keep their path and only their
// residual data is re-planned.
func TestPartialFrozenCommitments(t *testing.T) {
	ft, fs := fatTreeWorkload(t, 4, 8, 3)
	m := partialModel()
	flows := fs.Flows()
	// Pin flow 0 to a deterministic shortest path with half its data sent.
	f0 := flows[0]
	pinPath, err := ft.Graph.ShortestPath(f0.Src, f0.Dst)
	if err != nil {
		t.Fatal(err)
	}
	now := (f0.Release + f0.Deadline) / 2
	// Keep only flows still alive at now.
	var active []flow.Flow
	for _, f := range flows {
		if f.Deadline > now+1 {
			active = append(active, f)
		}
	}
	if len(active) == 0 || active[0].ID != f0.ID && f0.Deadline <= now+1 {
		t.Skip("degenerate draw: pinned flow not alive at midpoint")
	}
	pinned := map[flow.ID]PinnedCommitment{
		f0.ID: {Path: pinPath, Transmitted: f0.Size / 2},
	}
	res, err := SolveDCFSRPartialCtx(context.Background(), DCFSRPartialInput{
		Graph: ft.Graph, Flows: active, Model: m, Now: now, Pinned: pinned,
		Opts: DCFSROptions{Seed: 2, Solver: mcfsolve.Options{MaxIters: 20}},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := res.Paths[f0.ID]
	if len(got.Edges) != len(pinPath.Edges) {
		t.Fatalf("pinned path not preserved: %v vs %v", got, pinPath)
	}
	for i := range got.Edges {
		if got.Edges[i] != pinPath.Edges[i] {
			t.Fatalf("pinned path not preserved: %v vs %v", got, pinPath)
		}
	}
	wantRate := (f0.Size / 2) / (f0.Deadline - now)
	if math.Abs(res.Rates[f0.ID]-wantRate) > 1e-9*wantRate {
		t.Fatalf("pinned residual rate %v, want %v", res.Rates[f0.ID], wantRate)
	}
}

// TestPartialCompletedFlowSkipped: a pinned flow with zero residual is
// complete and produces no plan entries.
func TestPartialCompletedFlowSkipped(t *testing.T) {
	ft, fs := fatTreeWorkload(t, 4, 4, 5)
	m := partialModel()
	flows := fs.Flows()
	f0 := flows[0]
	p, err := ft.Graph.ShortestPath(f0.Src, f0.Dst)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SolveDCFSRPartialCtx(context.Background(), DCFSRPartialInput{
		Graph: ft.Graph, Flows: flows, Model: m, Now: 0,
		Pinned: map[flow.ID]PinnedCommitment{f0.ID: {Path: p, Transmitted: f0.Size}},
		Opts:   DCFSROptions{Seed: 1, Solver: mcfsolve.Options{MaxIters: 15}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Paths[f0.ID]; ok {
		t.Fatal("completed flow received a plan")
	}
	if len(res.Paths) != len(flows)-1 {
		t.Fatalf("planned %d flows, want %d", len(res.Paths), len(flows)-1)
	}
}

// TestPartialExpiredDeadline: residual data past the deadline is infeasible.
func TestPartialExpiredDeadline(t *testing.T) {
	ft, fs := fatTreeWorkload(t, 4, 4, 9)
	m := partialModel()
	flows := fs.Flows()
	var latest float64
	for _, f := range flows {
		latest = math.Max(latest, f.Deadline)
	}
	_, err := SolveDCFSRPartialCtx(context.Background(), DCFSRPartialInput{
		Graph: ft.Graph, Flows: flows, Model: m, Now: latest + 1,
		Opts: DCFSROptions{Seed: 1},
	})
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

// TestPartialBadInput covers the validation paths.
func TestPartialBadInput(t *testing.T) {
	ft, fs := fatTreeWorkload(t, 4, 4, 11)
	m := partialModel()
	flows := fs.Flows()
	if _, err := SolveDCFSRPartialCtx(context.Background(), DCFSRPartialInput{Flows: flows, Model: m}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("nil graph: %v", err)
	}
	dup := append([]flow.Flow{flows[0]}, flows...)
	if _, err := SolveDCFSRPartialCtx(context.Background(), DCFSRPartialInput{Graph: ft.Graph, Flows: dup, Model: m}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("duplicate id: %v", err)
	}
	bad := map[flow.ID]PinnedCommitment{flows[0].ID: {Path: graph.Path{}, Transmitted: 0}}
	if _, err := SolveDCFSRPartialCtx(context.Background(), DCFSRPartialInput{Graph: ft.Graph, Flows: flows, Model: m, Pinned: bad}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("bad pinned path: %v", err)
	}
	// Empty instance: everything complete is fine, not an error.
	res, err := SolveDCFSRPartialCtx(context.Background(), DCFSRPartialInput{Graph: ft.Graph, Flows: nil, Model: m, Now: 5})
	if err != nil || len(res.Paths) != 0 {
		t.Fatalf("empty instance: %v, %v", res, err)
	}
}

// TestPartialArgmaxDeterministic: modal rounding is deterministic across
// runs and seeds.
func TestPartialArgmaxDeterministic(t *testing.T) {
	ft, fs := fatTreeWorkload(t, 4, 10, 13)
	m := partialModel()
	run := func(seed int64) map[flow.ID]string {
		res, err := SolveDCFSRPartialCtx(context.Background(), DCFSRPartialInput{
			Graph: ft.Graph, Flows: fs.Flows(), Model: m, Now: 0, Argmax: true,
			Opts: DCFSROptions{Seed: seed, Solver: mcfsolve.Options{MaxIters: 20}},
		})
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[flow.ID]string, len(res.Paths))
		for id, p := range res.Paths {
			out[id] = p.Key()
		}
		return out
	}
	a, b := run(1), run(99)
	for id := range a {
		if a[id] != b[id] {
			t.Fatalf("argmax rounding differs across seeds for flow %d", id)
		}
	}
}

// TestPartialWarmSeedingReducesIterations: a second epoch on a
// near-identical residual instance, seeded from the first epoch's
// decompositions, must converge in no more Frank–Wolfe iterations than the
// cold re-solve — the rolling-horizon payoff DESIGN.md promises.
func TestPartialWarmSeedingReducesIterations(t *testing.T) {
	ft, fs := fatTreeWorkload(t, 4, 24, 17)
	m := partialModel()
	base := DCFSROptions{Seed: 1, Solver: mcfsolve.Options{MaxIters: 60, Tol: 1e-4}, WarmStart: true}

	first, err := SolveDCFSRPartialCtx(context.Background(), DCFSRPartialInput{
		Graph: ft.Graph, Flows: fs.Flows(), Model: m, Now: 0, Opts: base,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Shift the re-plan instant slightly: same flows, near-identical
	// intervals.
	epoch2 := func(prev *RelaxationState, warm bool) *DCFSRPartialResult {
		opts := base
		opts.WarmStart = warm
		res, err := SolveDCFSRPartialCtx(context.Background(), DCFSRPartialInput{
			Graph: ft.Graph, Flows: fs.Flows(), Model: m, Now: 0.5,
			Prev: prev, Opts: opts,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	warm := epoch2(first.State, true)
	cold := epoch2(nil, false)
	if warm.SeededIntervals == 0 {
		t.Fatal("no interval received a cross-epoch seed")
	}
	if warm.FWIters > cold.FWIters {
		t.Fatalf("warm-seeded epoch used %d FW iters, cold used %d", warm.FWIters, cold.FWIters)
	}
	// The warm epoch must reach a lower-or-equal objective: seeding never
	// degrades the bound materially.
	if warm.ResidualLowerBound > cold.ResidualLowerBound*1.01 {
		t.Fatalf("warm LB %v much worse than cold %v", warm.ResidualLowerBound, cold.ResidualLowerBound)
	}
}

// TestPartialExternalIntervals: caller-supplied segmentation (the
// incremental BreakpointSet path) gives the same lower bound as the
// internally rebuilt one when the segmentations agree.
func TestPartialExternalIntervals(t *testing.T) {
	ft, fs := fatTreeWorkload(t, 4, 10, 19)
	m := partialModel()
	opts := DCFSROptions{Seed: 1, Solver: mcfsolve.Options{MaxIters: 20}}
	now := 2.0
	var alive []flow.Flow
	var bset timeline.BreakpointSet
	for _, f := range fs.Flows() {
		if f.Deadline > now+1e-6 {
			alive = append(alive, f)
			bset.Insert(math.Max(f.Release, now), f.Deadline)
		}
	}
	auto, err := SolveDCFSRPartialCtx(context.Background(), DCFSRPartialInput{
		Graph: ft.Graph, Flows: alive, Model: m, Now: now, Opts: opts,
	})
	if err != nil {
		t.Fatal(err)
	}
	manual, err := SolveDCFSRPartialCtx(context.Background(), DCFSRPartialInput{
		Graph: ft.Graph, Flows: alive, Model: m, Now: now,
		Intervals: bset.IntervalsFrom(now), Opts: opts,
	})
	if err != nil {
		t.Fatal(err)
	}
	if auto.ResidualLowerBound != manual.ResidualLowerBound {
		t.Fatalf("external intervals LB %v != internal %v", manual.ResidualLowerBound, auto.ResidualLowerBound)
	}
}
