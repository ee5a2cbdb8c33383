package sim

import (
	"context"
	"errors"
	"math"
	"testing"

	"dcnflow/internal/baseline"
	"dcnflow/internal/core"
	"dcnflow/internal/flow"
	"dcnflow/internal/power"
	"dcnflow/internal/schedule"
	"dcnflow/internal/timeline"
	"dcnflow/internal/topology"
)

func almostEqual(a, b, tol float64) bool {
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale < 1 {
		scale = 1
	}
	return diff/scale <= tol
}

func TestRunMatchesAnalyticEnergy(t *testing.T) {
	ft, err := topology.FatTree(4, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := flow.Uniform(flow.GenConfig{
		N: 25, T0: 1, T1: 100, SizeMean: 10, SizeStddev: 3,
		Hosts: ft.Hosts, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := power.Model{Sigma: 0.5, Mu: 1, Alpha: 2, C: 1e9}
	paths, err := baseline.ShortestPaths(ft.Graph, fs)
	if err != nil {
		t.Fatal(err)
	}
	dres, err := core.SolveDCFSCtx(context.Background(), core.DCFSInput{Graph: ft.Graph, Flows: fs, Paths: paths, Model: m})
	if err != nil {
		t.Fatal(err)
	}
	sres, err := Run(ft.Graph, fs, dres.Schedule, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(sres.DynamicEnergy, dres.Schedule.EnergyDynamic(m), 1e-6) {
		t.Fatalf("sim dynamic %v vs analytic %v", sres.DynamicEnergy, dres.Schedule.EnergyDynamic(m))
	}
	if !almostEqual(sres.TotalEnergy, dres.Schedule.EnergyTotal(m), 1e-6) {
		t.Fatalf("sim total %v vs analytic %v", sres.TotalEnergy, dres.Schedule.EnergyTotal(m))
	}
	if sres.DeadlinesMissed != 0 {
		t.Fatalf("missed %d deadlines in an optimal schedule", sres.DeadlinesMissed)
	}
	if sres.DeadlinesMet != fs.Len() {
		t.Fatalf("met %d, want %d", sres.DeadlinesMet, fs.Len())
	}
}

func TestRunDetectsMissedDeadline(t *testing.T) {
	line, err := topology.Line(3, 10)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := flow.NewSet([]flow.Flow{
		{Src: line.Hosts[0], Dst: line.Hosts[2], Release: 0, Deadline: 2, Size: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := line.Graph.ShortestPath(line.Hosts[0], line.Hosts[2])
	if err != nil {
		t.Fatal(err)
	}
	// A schedule that transmits only half the data.
	sched := schedule.New(timeline.Interval{Start: 0, End: 2})
	if err := sched.SetFlow(&schedule.FlowSchedule{
		FlowID: 0, Path: p,
		Segments: []schedule.RateSegment{{Interval: timeline.Interval{Start: 0, End: 1}, Rate: 5}},
	}); err != nil {
		t.Fatal(err)
	}
	m := power.Model{Sigma: 0.1, Mu: 1, Alpha: 2, C: 10}
	res, err := Run(line.Graph, fs, sched, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.DeadlinesMissed != 1 || res.DeadlinesMet != 0 {
		t.Fatalf("met/missed = %d/%d, want 0/1", res.DeadlinesMet, res.DeadlinesMissed)
	}
	if !math.IsInf(res.Flows[0].CompletionTime, 1) {
		t.Fatalf("completion time = %v, want +Inf", res.Flows[0].CompletionTime)
	}
}

func TestRunDetectsCapacityViolation(t *testing.T) {
	line, err := topology.Line(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := flow.NewSet([]flow.Flow{
		{Src: line.Hosts[0], Dst: line.Hosts[2], Release: 0, Deadline: 2, Size: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := line.Graph.ShortestPath(line.Hosts[0], line.Hosts[2])
	if err != nil {
		t.Fatal(err)
	}
	sched := schedule.New(timeline.Interval{Start: 0, End: 2})
	if err := sched.SetFlow(&schedule.FlowSchedule{
		FlowID: 0, Path: p,
		Segments: []schedule.RateSegment{{Interval: timeline.Interval{Start: 0, End: 2}, Rate: 4}},
	}); err != nil {
		t.Fatal(err)
	}
	m := power.Model{Sigma: 0.1, Mu: 1, Alpha: 2, C: 2}
	res, err := Run(line.Graph, fs, sched, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.CapacityViolations == 0 {
		t.Fatal("rate 4 on C=2 link not flagged")
	}
	if !almostEqual(res.MaxLinkRate, 4, 1e-9) {
		t.Fatalf("MaxLinkRate = %v, want 4", res.MaxLinkRate)
	}
}

func TestRunCompletionInterpolation(t *testing.T) {
	line, err := topology.Line(2, 10)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := flow.NewSet([]flow.Flow{
		{Src: line.Hosts[0], Dst: line.Hosts[1], Release: 0, Deadline: 10, Size: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := line.Graph.ShortestPath(line.Hosts[0], line.Hosts[1])
	if err != nil {
		t.Fatal(err)
	}
	sched := schedule.New(timeline.Interval{Start: 0, End: 10})
	if err := sched.SetFlow(&schedule.FlowSchedule{
		FlowID: 0, Path: p,
		Segments: []schedule.RateSegment{{Interval: timeline.Interval{Start: 0, End: 10}, Rate: 1}},
	}); err != nil {
		t.Fatal(err)
	}
	m := power.Model{Sigma: 0, Mu: 1, Alpha: 2, C: 10}
	res, err := Run(line.Graph, fs, sched, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(res.Flows[0].CompletionTime, 3, 1e-9) {
		t.Fatalf("completion time = %v, want 3", res.Flows[0].CompletionTime)
	}
}

func TestRunBadInput(t *testing.T) {
	line, err := topology.Line(2, 10)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := flow.NewSet(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(nil, fs, schedule.New(timeline.Interval{}), power.Model{Mu: 1, Alpha: 2}, Options{}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("err = %v, want ErrBadInput", err)
	}
	if _, err := Run(line.Graph, fs, schedule.New(timeline.Interval{}), power.Model{Mu: 1, Alpha: 1}, Options{}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("bad model err = %v, want ErrBadInput", err)
	}
}

func TestVerifyEDFTimeSharingOnRandomSchedule(t *testing.T) {
	ft, err := topology.FatTree(4, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := flow.Uniform(flow.GenConfig{
		N: 20, T0: 1, T1: 100, SizeMean: 10, SizeStddev: 3,
		Hosts: ft.Hosts, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := power.Model{Sigma: 0.5, Mu: 1, Alpha: 2, C: 1e9}
	res, err := core.SolveDCFSRCtx(context.Background(), core.DCFSRInput{Graph: ft.Graph, Flows: fs, Model: m})
	if err != nil {
		t.Fatal(err)
	}
	report, err := VerifyEDFTimeSharing(ft.Graph, fs, res.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	if !report.OK() {
		t.Fatalf("Theorem 4 violated: %v", report.Violations)
	}
	if report.LinksChecked == 0 || report.IntervalsChecked == 0 {
		t.Fatal("EDF check examined nothing")
	}
}

func TestVerifyEDFTimeSharingBadInput(t *testing.T) {
	line, err := topology.Line(2, 10)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := flow.NewSet([]flow.Flow{
		{Src: line.Hosts[0], Dst: line.Hosts[1], Release: 0, Deadline: 1, Size: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyEDFTimeSharing(nil, fs, schedule.New(timeline.Interval{})); !errors.Is(err, ErrBadInput) {
		t.Fatalf("err = %v, want ErrBadInput", err)
	}
	// Unscheduled flow.
	if _, err := VerifyEDFTimeSharing(line.Graph, fs, schedule.New(timeline.Interval{})); !errors.Is(err, ErrBadInput) {
		t.Fatalf("err = %v, want ErrBadInput", err)
	}
}

func TestRunOnRandomScheduleOutput(t *testing.T) {
	// End-to-end: Random-Schedule output simulated; energies agree and all
	// deadlines hold.
	ft, err := topology.FatTree(4, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := flow.Uniform(flow.GenConfig{
		N: 15, T0: 1, T1: 100, SizeMean: 10, SizeStddev: 3,
		Hosts: ft.Hosts, Seed: 33,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := power.Model{Sigma: 0.5, Mu: 1, Alpha: 2, C: 1e9}
	res, err := core.SolveDCFSRCtx(context.Background(), core.DCFSRInput{Graph: ft.Graph, Flows: fs, Model: m})
	if err != nil {
		t.Fatal(err)
	}
	sres, err := Run(ft.Graph, fs, res.Schedule, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sres.DeadlinesMissed != 0 {
		t.Fatalf("Random-Schedule missed %d deadlines", sres.DeadlinesMissed)
	}
	if !almostEqual(sres.TotalEnergy, res.Schedule.EnergyTotal(m), 1e-6) {
		t.Fatalf("sim energy %v vs analytic %v", sres.TotalEnergy, res.Schedule.EnergyTotal(m))
	}
}
