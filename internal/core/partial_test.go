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
	for _, f := range fs.Flows() {
		cands := res.Candidates[f.ID]
		if len(cands) == 0 {
			t.Fatalf("flow %d has no candidate path", f.ID)
		}
		for _, c := range cands {
			if err := c.Path.Validate(ft.Graph, f.Src, f.Dst); err != nil {
				t.Fatalf("flow %d candidate invalid: %v", f.ID, err)
			}
		}
		if got, want := res.Rates[f.ID], f.Density(); math.Abs(got-want) > 1e-9*want {
			t.Fatalf("flow %d rate %v, want density %v", f.ID, got, want)
		}
	}
}

// TestPartialFrozenCommitments: a pinned flow gets no candidates (its path
// stays the caller's), and the relaxation carries only its residual data.
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
	if _, ok := res.Candidates[f0.ID]; ok {
		t.Fatal("pinned flow received candidates")
	}
	if _, ok := res.Rates[f0.ID]; ok {
		t.Fatal("pinned flow received a planning rate")
	}
	for _, f := range active[1:] {
		if len(res.Candidates[f.ID]) == 0 {
			t.Fatalf("free flow %d has no candidate path", f.ID)
		}
	}
	wantRate := (f0.Size / 2) / (f0.Deadline - now)
	var solved int
	for _, comms := range res.State.Comms {
		for _, c := range comms {
			if c.ID != f0.ID {
				continue
			}
			solved++
			if math.Abs(c.Demand-wantRate) > 1e-9*wantRate {
				t.Fatalf("pinned residual demand %v, want %v", c.Demand, wantRate)
			}
		}
	}
	if solved == 0 {
		t.Fatal("pinned flow absent from the relaxation")
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
	if _, ok := res.Candidates[f0.ID]; ok {
		t.Fatal("completed flow received candidates")
	}
	if len(res.Candidates) != len(flows)-1 {
		t.Fatalf("%d flows got candidates, want %d", len(res.Candidates), len(flows)-1)
	}
	for _, comms := range res.State.Comms {
		for _, c := range comms {
			if c.ID == f0.ID {
				t.Fatal("completed flow entered the relaxation")
			}
		}
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
	if err != nil || len(res.Candidates) != 0 {
		t.Fatalf("empty instance: %v, %v", res, err)
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
