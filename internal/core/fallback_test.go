package core

import (
	"context"
	"testing"

	"dcnflow/internal/flow"
	"dcnflow/internal/graph"
	"dcnflow/internal/power"
	"dcnflow/internal/schedule"
	"dcnflow/internal/topology"
)

// TestDCFSSharedFallbackRegression reproduces the workload that exposed
// the zero-availability window case (Fig. 2 harness, n=40, seed 40001 on
// the k=8 fat-tree with shortest-path routing): cross-link slot blocking
// left a flow's span fully occupied on a link, which the paper's literal
// Algorithm 1 cannot schedule exclusively. The solver must fall back to
// link sharing, keep every deadline, and report the conflicts.
func TestDCFSSharedFallbackRegression(t *testing.T) {
	ft, err := topology.FatTree(8, 1e12)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := flow.Uniform(flow.GenConfig{
		N: 40, T0: 1, T1: 100, SizeMean: 10, SizeStddev: 3,
		Hosts: ft.Hosts, Seed: 40001,
	})
	if err != nil {
		t.Fatal(err)
	}
	paths := make(map[flow.ID]graph.Path, fs.Len())
	for _, f := range fs.Flows() {
		p, err := ft.Graph.ShortestPath(f.Src, f.Dst)
		if err != nil {
			t.Fatal(err)
		}
		paths[f.ID] = p
	}
	m := power.Model{Mu: 1, Alpha: 2, C: 1e12}
	res, err := SolveDCFSCtx(context.Background(), DCFSInput{Graph: ft.Graph, Flows: fs, Paths: paths, Model: m})
	if err != nil {
		t.Fatalf("SolveDCFSCtx: %v", err)
	}
	// Every deadline must still hold (capacity/exclusivity relaxed).
	if err := res.Schedule.Verify(ft.Graph, fs, m, schedule.VerifyOptions{}); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

// TestDCFSDurationClampRegression pins the duration-overrun bug found by
// the time-seeded property tests (quick.Check seed 87933835583193213): a
// flow whose span is fully blocked on the critical link was handed a
// Theorem 1 duration larger than its span, which no placement can satisfy.
// The clamp caps the duration at the span (raising the rate to at least
// the density); the instance must now schedule feasibly.
func TestDCFSDurationClampRegression(t *testing.T) {
	line, err := topology.Line(5, 1e12)
	if err != nil {
		t.Fatal(err)
	}
	h := line.Hosts
	fs, err := flow.NewSet([]flow.Flow{
		{Src: h[1], Dst: h[2], Release: 18.41719795720834, Deadline: 23.54583362298806, Size: 15.747791988825334},
		{Src: h[1], Dst: h[2], Release: 3.7989828768778215, Deadline: 11.48989430754735, Size: 14.183158394440692},
		{Src: h[3], Dst: h[4], Release: 5.90213095888552, Deadline: 17.322220827061166, Size: 1.56470920654761},
		{Src: h[1], Dst: h[2], Release: 8.82339301586156, Deadline: 24.063581224317915, Size: 14.508051487110617},
		{Src: h[2], Dst: h[3], Release: 16.812522878261866, Deadline: 30.246625412235048, Size: 19.02256840397115},
		{Src: h[0], Dst: h[3], Release: 2.4645193067219893, Deadline: 17.165111619066987, Size: 15.306801978225765},
		{Src: h[2], Dst: h[4], Release: 0.766877840711427, Deadline: 2.9889070335834553, Size: 0.3760169875511735},
		{Src: h[0], Dst: h[4], Release: 0.492087654116743, Deadline: 14.206690484210275, Size: 9.45288248447926},
		{Src: h[0], Dst: h[1], Release: 11.122945343433273, Deadline: 11.988646488614567, Size: 2.4602205145128493},
		{Src: h[2], Dst: h[4], Release: 17.025312332568028, Deadline: 31.595154193343987, Size: 4.556727845484798},
	})
	if err != nil {
		t.Fatal(err)
	}
	paths := make(map[flow.ID]graph.Path, fs.Len())
	for _, f := range fs.Flows() {
		p, err := line.Graph.ShortestPath(f.Src, f.Dst)
		if err != nil {
			t.Fatal(err)
		}
		paths[f.ID] = p
	}
	m := power.Model{Mu: 1, Alpha: 2.5}
	res, err := SolveDCFSCtx(context.Background(), DCFSInput{Graph: line.Graph, Flows: fs, Paths: paths, Model: m})
	if err != nil {
		t.Fatalf("SolveDCFSCtx: %v", err)
	}
	if err := res.Schedule.Verify(line.Graph, fs, m, schedule.VerifyOptions{}); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

// TestDCFSSharedFallbackSynthetic builds a minimal instance that forces the
// fallback deterministically. Line A-B-C. Flow H (A->C, span [0,10],
// w=100) and flow K (B->C, span [0,10], w=50) make link BC the round-1
// critical link (combined weight beats AB, which only adds the tiny L).
// H's EDF slot [0, ~7.4] is blocked on BOTH its links, so link AB becomes
// fully blocked across the span [4, 6] of the light flow L (A->B) — whose
// own window is excluded from round 1 because H's span is not contained in
// it. L can then only be scheduled by sharing AB.
func TestDCFSSharedFallbackSynthetic(t *testing.T) {
	line, err := topology.Line(3, 1e12)
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := line.Hosts[0], line.Hosts[1], line.Hosts[2]
	fs, err := flow.NewSet([]flow.Flow{
		{Src: a, Dst: c, Release: 0, Deadline: 10, Size: 100}, // H: AB+BC
		{Src: b, Dst: c, Release: 0, Deadline: 10, Size: 50},  // K: BC
		{Src: a, Dst: b, Release: 4, Deadline: 6, Size: 0.5},  // L: AB, narrow span
	})
	if err != nil {
		t.Fatal(err)
	}
	paths := make(map[flow.ID]graph.Path, fs.Len())
	for _, f := range fs.Flows() {
		p, err := line.Graph.ShortestPath(f.Src, f.Dst)
		if err != nil {
			t.Fatal(err)
		}
		paths[f.ID] = p
	}
	m := power.Model{Mu: 1, Alpha: 2, C: 1e12}
	res, err := SolveDCFSCtx(context.Background(), DCFSInput{Graph: line.Graph, Flows: fs, Paths: paths, Model: m})
	if err != nil {
		t.Fatalf("SolveDCFSCtx: %v", err)
	}
	if err := res.Schedule.Verify(line.Graph, fs, m, schedule.VerifyOptions{}); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if res.Conflicts == 0 {
		t.Fatal("expected the light flow to be scheduled via the shared fallback")
	}
	light := res.Schedule.FlowSchedule(2)
	if light == nil || light.DataTransferred() < 0.5-1e-6 {
		t.Fatalf("light flow not fully transferred: %+v", light)
	}
	// Its rate must be the density 0.25 across its span [4, 6].
	if len(light.Segments) != 1 || light.Segments[0].Rate != 0.25 {
		t.Fatalf("light flow segments = %+v, want density rate 0.25 over [4,6]", light.Segments)
	}
}
