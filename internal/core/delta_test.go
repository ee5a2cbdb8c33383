package core

import (
	"context"
	"errors"
	"testing"

	"dcnflow/internal/flow"
	"dcnflow/internal/graph"
	"dcnflow/internal/mcfsolve"
	"dcnflow/internal/timeline"
	"dcnflow/internal/topology"
)

// deltaFixture builds a two-interval delta scenario on parallel links: a
// previous full solve over [0, 10] and [10, 20] with stamped fingerprints,
// and one batch arrival whose deadline 10 touches only the first interval.
func deltaFixture(t *testing.T) (*topology.Topology, graph.NodeID, graph.NodeID, *RelaxationState, []timeline.Interval) {
	t.Helper()
	top, src, dst, err := topology.ParallelLinks(2, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	full, err := SolveDCFSRPartialCtx(context.Background(), DCFSRPartialInput{
		Graph: top.Graph,
		Flows: []flow.Flow{
			{ID: 1, Src: src, Dst: dst, Release: 0, Deadline: 10, Size: 20},
			{ID: 2, Src: src, Dst: dst, Release: 0, Deadline: 20, Size: 30},
		},
		Model: partialModel(),
		Now:   0,
		Delta: DeltaOptions{Enabled: true, DriftBound: 0.5},
		Opts:  DCFSROptions{Seed: 1, Solver: mcfsolve.Options{MaxIters: 20}},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := full.State
	if len(st.Fingerprints) != len(st.Intervals) {
		t.Fatalf("classic solve with Delta.Enabled stamped %d fingerprints for %d intervals",
			len(st.Fingerprints), len(st.Intervals))
	}
	// Stamp the loads the way the rolling scheduler does after admissions:
	// a flat committed load of 1 on every edge in both intervals.
	nE := top.Graph.NumEdges()
	for k := range st.Fingerprints {
		load := make([]float64, nE)
		for e := range load {
			load[e] = 1
		}
		st.Fingerprints[k].Load = load
	}
	return top, src, dst, st, st.Intervals
}

// deltaInput assembles the batch-only delta input against the fixture state.
func deltaInput(top *topology.Topology, src, dst graph.NodeID, st *RelaxationState, intervals []timeline.Interval, base func(timeline.Interval, []float64)) DCFSRPartialInput {
	return DCFSRPartialInput{
		Graph:     top.Graph,
		Flows:     []flow.Flow{{ID: 9, Src: src, Dst: dst, Release: 0, Deadline: 10, Size: 10}},
		Model:     partialModel(),
		Now:       0,
		Intervals: intervals,
		Prev:      st,
		BaseLoad:  base,
		Delta:     DeltaOptions{Enabled: true, DriftBound: 0.5},
		Opts:      DCFSROptions{Seed: 1, Solver: mcfsolve.Options{MaxIters: 20}},
	}
}

// TestDeltaBaseLoadRejectsPinned: the background load replaces pinned
// commodities, so supplying both is a contract violation.
func TestDeltaBaseLoadRejectsPinned(t *testing.T) {
	top, src, dst, st, intervals := deltaFixture(t)
	in := deltaInput(top, src, dst, st, intervals, func(iv timeline.Interval, out []float64) {})
	in.Pinned = map[flow.ID]PinnedCommitment{
		2: {Path: graph.Path{Edges: []graph.EdgeID{0}}, Demand: 1.5},
	}
	if _, err := SolveDCFSRPartialCtx(context.Background(), in); !errors.Is(err, ErrBadInput) {
		t.Fatalf("BaseLoad with Pinned: err = %v, want ErrBadInput", err)
	}
}

// TestDeltaDeclinesWithoutPrev: a BaseLoad instance with no previous
// fingerprinted state must come back unused (thin result, no candidates) instead
// of silently planning the batch on an empty network.
func TestDeltaDeclinesWithoutPrev(t *testing.T) {
	top, src, dst, _, intervals := deltaFixture(t)
	in := deltaInput(top, src, dst, nil, intervals, func(iv timeline.Interval, out []float64) {})
	res, err := SolveDCFSRPartialCtx(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if res.DeltaUsed {
		t.Fatal("DeltaUsed = true without a previous state")
	}
	if len(res.Candidates) != 0 {
		t.Fatalf("declined delta carried candidates for %d flows", len(res.Candidates))
	}
}

// TestDeltaDeclinesOnDrift: when an untouched interval's background load
// moved past DriftBound relative to its stamped snapshot, the delta solve
// must decline so the caller re-plans fully.
func TestDeltaDeclinesOnDrift(t *testing.T) {
	top, src, dst, st, intervals := deltaFixture(t)
	in := deltaInput(top, src, dst, st, intervals, func(iv timeline.Interval, out []float64) {
		for e := range out {
			out[e] = 1
		}
		if iv.Start >= 10-timeline.Eps {
			// The untouched interval [10, 20]: stamped at 1, now 10 —
			// relative deviation 0.9 > DriftBound 0.5.
			for e := range out {
				out[e] = 10
			}
		}
	})
	res, err := SolveDCFSRPartialCtx(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if res.DeltaUsed {
		t.Fatal("DeltaUsed = true despite drift past the bound")
	}
}

// TestDeltaDeclinesOnStale: an untouched interval already reused up to
// MaxStaleEpochs forces a decline.
func TestDeltaDeclinesOnStale(t *testing.T) {
	top, src, dst, st, intervals := deltaFixture(t)
	st.Fingerprints[1].Stale = 3
	in := deltaInput(top, src, dst, st, intervals, func(iv timeline.Interval, out []float64) {
		for e := range out {
			out[e] = 1
		}
	})
	in.Delta.MaxStaleEpochs = 3
	res, err := SolveDCFSRPartialCtx(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if res.DeltaUsed {
		t.Fatal("DeltaUsed = true despite the stale cap")
	}
}

// TestDeltaSolveLocalizes: with matching grids and unchanged loads the
// delta path must run, reuse the uncovered interval verbatim, and give the
// batch flow candidates.
func TestDeltaSolveLocalizes(t *testing.T) {
	top, src, dst, st, intervals := deltaFixture(t)
	in := deltaInput(top, src, dst, st, intervals, func(iv timeline.Interval, out []float64) {
		for e := range out {
			out[e] = 1
		}
	})
	res, err := SolveDCFSRPartialCtx(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if !res.DeltaUsed {
		t.Fatal("DeltaUsed = false on an unchanged instance")
	}
	if res.ReusedIntervals != 1 {
		t.Fatalf("ReusedIntervals = %d, want 1 (the uncovered [10, 20])", res.ReusedIntervals)
	}
	if res.Drift != 0 {
		t.Fatalf("Drift = %v, want 0 for identical loads", res.Drift)
	}
	cands := res.Candidates[9]
	if len(cands) == 0 {
		t.Fatal("batch flow 9 has no candidate path")
	}
	for _, c := range cands {
		if err := c.Path.Validate(top.Graph, src, dst); err != nil {
			t.Fatalf("candidate path invalid: %v", err)
		}
	}
	if got, want := res.Rates[9], 1.0; got != want { // 10 data over span 10
		t.Fatalf("rate = %v, want %v", got, want)
	}
	// The carried state must be full-length with the reused interval staler
	// by one and the touched interval fresh.
	if len(res.State.Fingerprints) != 2 {
		t.Fatalf("state has %d fingerprints, want 2", len(res.State.Fingerprints))
	}
	if res.State.Fingerprints[1].Stale != 1 {
		t.Fatalf("reused interval Stale = %d, want 1", res.State.Fingerprints[1].Stale)
	}
	if res.State.Fingerprints[0].Stale != 0 {
		t.Fatalf("touched interval Stale = %d, want 0", res.State.Fingerprints[0].Stale)
	}
	if res.State.Results[1] != st.Results[1] {
		t.Fatal("uncovered interval's result was not carried verbatim")
	}
}
