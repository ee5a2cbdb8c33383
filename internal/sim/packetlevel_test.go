package sim

import (
	"context"
	"errors"
	"math"
	"testing"

	"dcnflow/internal/core"
	"dcnflow/internal/flow"
	"dcnflow/internal/power"
	"dcnflow/internal/schedule"
	"dcnflow/internal/timeline"
	"dcnflow/internal/topology"
)

func TestPacketLevelSingleFlow(t *testing.T) {
	line, err := topology.Line(3, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := flow.NewSet([]flow.Flow{
		{Src: line.Hosts[0], Dst: line.Hosts[2], Release: 0, Deadline: 10, Size: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	m := power.Model{Mu: 1, Alpha: 2, C: 1e9}
	res, err := core.SolveDCFSRCtx(context.Background(), core.DCFSRInput{Graph: line.Graph, Flows: fs, Model: m})
	if err != nil {
		t.Fatal(err)
	}
	pl, err := RunPacketLevel(line.Graph, fs, res.Schedule, PacketLevelOptions{StepsPerInterval: 100})
	if err != nil {
		t.Fatal(err)
	}
	if pl.DeadlinesMissed != 0 {
		t.Fatalf("single flow missed its deadline (completion %v)", pl.Completion[0])
	}
	// With 2 hops and fluid steps, completion lands near the deadline
	// (store-and-forward adds at most one step per hop).
	if c := pl.Completion[0]; c < 9 || c > 10+0.3 {
		t.Fatalf("completion = %v, want ~10", c)
	}
}

func TestPacketLevelRandomScheduleFatTree(t *testing.T) {
	ft, err := topology.FatTree(4, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := flow.Uniform(flow.GenConfig{
		N: 15, T0: 1, T1: 100, SizeMean: 10, SizeStddev: 3,
		Hosts: ft.Hosts, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := power.Model{Mu: 1, Alpha: 2, C: 1e9}
	res, err := core.SolveDCFSRCtx(context.Background(), core.DCFSRInput{Graph: ft.Graph, Flows: fs, Model: m})
	if err != nil {
		t.Fatal(err)
	}
	pl, err := RunPacketLevel(ft.Graph, fs, res.Schedule, PacketLevelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Store-and-forward introduces bounded per-hop lag; with the default
	// resolution the discipline should deliver everything with at most a
	// small tail past the deadline.
	if pl.DeadlinesMet == 0 {
		t.Fatal("no deadlines met at all")
	}
	if math.IsInf(pl.MaxLateness, 1) {
		t.Fatal("some flow never completed")
	}
	_, t1 := fs.Horizon()
	_ = t1
	for fid, c := range pl.Completion {
		if math.IsInf(c, 1) {
			t.Fatalf("flow %d undelivered", fid)
		}
	}
}

func TestPacketLevelBadInput(t *testing.T) {
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
	if _, err := RunPacketLevel(nil, fs, schedule.New(timeline.Interval{}), PacketLevelOptions{}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("err = %v, want ErrBadInput", err)
	}
	if _, err := RunPacketLevel(line.Graph, fs, schedule.New(timeline.Interval{}), PacketLevelOptions{}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("unscheduled flow err = %v, want ErrBadInput", err)
	}
}

func TestPacketLevelEmptyFlows(t *testing.T) {
	line, err := topology.Line(2, 10)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := flow.NewSet(nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunPacketLevel(line.Graph, fs, schedule.New(timeline.Interval{}), PacketLevelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.DeadlinesMet != 0 || res.DeadlinesMissed != 0 {
		t.Fatal("empty instance should have no deadline stats")
	}
}
