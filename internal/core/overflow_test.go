package core

import (
	"context"
	"testing"

	"dcnflow/internal/flow"
	"dcnflow/internal/mcfsolve"
	"dcnflow/internal/power"
	"dcnflow/internal/topology"
)

// overflowFlows are three flows of size 1.5e308 on [1, 3] whose shortest
// paths share the links 1->2->3 of a 4-node line: each density (7.5e307) is
// finite, but any two of them on one link sum past the largest float64, so
// every rounding attempt's link load overflows to +Inf. The sources differ,
// so one flow handed another flow's path would start at the wrong host.
func overflowFlows(t *testing.T) (*topology.Topology, []flow.Flow) {
	t.Helper()
	line, err := topology.Line(4, 10)
	if err != nil {
		t.Fatal(err)
	}
	h := line.Hosts
	return line, []flow.Flow{
		{ID: 0, Src: h[0], Dst: h[3], Release: 1, Deadline: 3, Size: 1.5e308},
		{ID: 1, Src: h[1], Dst: h[3], Release: 1, Deadline: 3, Size: 1.5e308},
		{ID: 2, Src: h[2], Dst: h[3], Release: 1, Deadline: 3, Size: 1.5e308},
	}
}

// overflowModels are a capped model (load - C overflows to +Inf) and an
// uncapped one (+Inf - +Inf is NaN).
var overflowModels = []power.Model{{Mu: 1, Alpha: 2, C: 10}, {Mu: 1, Alpha: 2}}

// TestDCFSROverflowingLinkRatesKeepFirstAttempt: when no rounding attempt's
// violation compares, Random-Schedule keeps the first attempt instead of
// dereferencing a nil best schedule, and every flow gets a path of its own.
func TestDCFSROverflowingLinkRatesKeepFirstAttempt(t *testing.T) {
	line, flows := overflowFlows(t)
	set, err := flow.NewSet(flows)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range overflowModels {
		res, err := SolveDCFSRCtx(context.Background(), DCFSRInput{Graph: line.Graph, Flows: set, Model: m, Opts: DCFSROptions{Solver: mcfsolve.Options{MaxIters: 10}}})
		if err != nil {
			t.Fatalf("C=%v: %v", m.C, err)
		}
		if res.Schedule == nil || res.CapacityFeasible {
			t.Fatalf("C=%v: schedule %v, capacity feasible %v; want a kept infeasible attempt", m.C, res.Schedule, res.CapacityFeasible)
		}
		for _, f := range flows {
			fs := res.Schedule.FlowSchedule(f.ID)
			if fs == nil {
				t.Fatalf("C=%v: flow %d unscheduled", m.C, f.ID)
			}
			if err := fs.Path.Validate(line.Graph, f.Src, f.Dst); err != nil {
				t.Fatalf("C=%v: flow %d: %v", m.C, f.ID, err)
			}
		}
	}
}

// TestPartialOverflowingLinkRatesCandidatesConnect: under link rates that
// overflow, every free flow still gets candidates, and each connects its
// own endpoints.
func TestPartialOverflowingLinkRatesCandidatesConnect(t *testing.T) {
	line, flows := overflowFlows(t)
	for _, m := range overflowModels {
		res, err := SolveDCFSRPartialCtx(context.Background(), DCFSRPartialInput{Graph: line.Graph, Flows: flows, Model: m, Now: 1, Opts: DCFSROptions{Solver: mcfsolve.Options{MaxIters: 10}}})
		if err != nil {
			t.Fatalf("C=%v: %v", m.C, err)
		}
		for _, f := range flows {
			cands := res.Candidates[f.ID]
			if len(cands) == 0 {
				t.Fatalf("C=%v: flow %d has no candidate path", m.C, f.ID)
			}
			for _, c := range cands {
				if err := c.Path.Validate(line.Graph, f.Src, f.Dst); err != nil {
					t.Fatalf("C=%v: flow %d: %v", m.C, f.ID, err)
				}
			}
		}
	}
}
