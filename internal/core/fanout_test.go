package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"dcnflow/internal/flow"
	"dcnflow/internal/graph"
	"dcnflow/internal/mcfsolve"
	"dcnflow/internal/power"
	"dcnflow/internal/timeline"
	"dcnflow/internal/topology"
)

// cancelAfterChecks is a context that cancels itself on its n-th Err call.
// The interval fan-out checks Err before every interval and Frank–Wolfe at
// every iteration, so n > 1 lands the cancellation after work has started.
type cancelAfterChecks struct {
	context.Context
	cancel context.CancelFunc
	left   atomic.Int64
}

func newCancelAfterChecks(n int64) *cancelAfterChecks {
	ctx, cancel := context.WithCancel(context.Background())
	c := &cancelAfterChecks{Context: ctx, cancel: cancel}
	c.left.Store(n)
	return c
}

func (c *cancelAfterChecks) Err() error {
	if c.left.Add(-1) == 0 {
		c.cancel()
	}
	return c.Context.Err()
}

// islandFatTree is a fat-tree k=4 plus one isolated node: any commodity
// bound for the island fails with mcfsolve.ErrNoRoute.
func islandFatTree(t *testing.T) (*topology.Topology, graph.NodeID) {
	t.Helper()
	ft, err := topology.FatTree(4, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	return ft, ft.Graph.AddNode("island", graph.KindHost)
}

var fanoutModel = power.Model{Mu: 1, Alpha: 2, C: 1e9}

// fanoutWidths are the interval fan-out widths every fan-out test runs at.
var fanoutWidths = []int{1, 2, 7}

// TestFanOutCancelFull: a context that ends while the full path's interval
// fan-out runs surfaces the wrapped context error and no result, at every
// fan-out width.
func TestFanOutCancelFull(t *testing.T) {
	ft, err := topology.FatTree(4, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := flow.Uniform(flow.GenConfig{
		N: 30, T0: 1, T1: 100, SizeMean: 10, SizeStddev: 3, Hosts: ft.Hosts, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range fanoutWidths {
		ctx := newCancelAfterChecks(40)
		res, err := SolveDCFSRCtx(ctx, DCFSRInput{
			Graph: ft.Graph, Flows: fs, Model: fanoutModel, Opts: DCFSROptions{Parallelism: p},
		})
		if res != nil || !errors.Is(err, context.Canceled) {
			t.Errorf("parallelism %d: cancelled solve returned %v, %v", p, res, err)
		}
		if _, err := LowerBoundCtx(newCancelAfterChecks(40), ft.Graph, fs, fanoutModel, DCFSROptions{Parallelism: p}); !errors.Is(err, context.Canceled) {
			t.Errorf("parallelism %d: cancelled lower bound returned %v", p, err)
		}
	}
}

// deltaFanOutInput is a delta re-solve on a fat-tree k=4: the previous
// epoch solved four intervals [0, 10], ..., [30, 40], and the batch adds
// its flows on top of a zero background load. Every interval a batch flow
// covers is touched and re-solved.
func deltaFanOutInput(t *testing.T, ft *topology.Topology, batch []flow.Flow, p int) DCFSRPartialInput {
	t.Helper()
	h := ft.Hosts
	var flows []flow.Flow
	for i, d := range []float64{10, 20, 30, 40} {
		flows = append(flows, flow.Flow{ID: flow.ID(i + 1), Src: h[i], Dst: h[15-i], Release: 0, Deadline: d, Size: 5})
	}
	opts := DCFSROptions{Seed: 1, Parallelism: p, WarmStart: true}
	full, err := SolveDCFSRPartialCtx(context.Background(), DCFSRPartialInput{
		Graph: ft.Graph, Flows: flows, Model: fanoutModel, Now: 0,
		Delta: DeltaOptions{Enabled: true, DriftBound: 0.5}, Opts: opts,
	})
	if err != nil {
		t.Fatal(err)
	}
	return DCFSRPartialInput{
		Graph: ft.Graph, Flows: batch, Model: fanoutModel, Now: 0,
		Intervals: full.State.Intervals, Prev: full.State,
		BaseLoad: func(timeline.Interval, []float64) {},
		Delta:    DeltaOptions{Enabled: true, DriftBound: 0.5},
		Opts:     opts,
	}
}

// TestFanOutCancelDelta: the delta path's fan-out obeys the same contract.
func TestFanOutCancelDelta(t *testing.T) {
	ft, err := topology.FatTree(4, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	h := ft.Hosts
	var batch []flow.Flow
	for i := 0; i < 8; i++ {
		batch = append(batch, flow.Flow{
			ID: flow.ID(100 + i), Src: h[i], Dst: h[(i+5)%16], Release: 0, Deadline: float64(10 * (1 + i%4)), Size: 8,
		})
	}
	for _, p := range fanoutWidths {
		in := deltaFanOutInput(t, ft, batch, p)
		if res, err := SolveDCFSRPartialCtx(context.Background(), in); err != nil || !res.DeltaUsed {
			t.Fatalf("parallelism %d: uncancelled delta solve: used=%v err=%v", p, res != nil && res.DeltaUsed, err)
		}
		res, err := SolveDCFSRPartialCtx(newCancelAfterChecks(5), in)
		if res != nil || !errors.Is(err, context.Canceled) {
			t.Errorf("parallelism %d: cancelled delta solve returned %v, %v", p, res, err)
		}
	}
}

// TestFanOutLowestIndexErrorFull: when several intervals fail, the full
// path returns the lowest-index failure, with the serial loop's text, at
// every fan-out width and on every run.
func TestFanOutLowestIndexErrorFull(t *testing.T) {
	ft, island := islandFatTree(t)
	fs, err := flow.Uniform(flow.GenConfig{
		N: 30, T0: 1, T1: 100, SizeMean: 10, SizeStddev: 3, Hosts: ft.Hosts, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	flows := fs.Flows()
	for i, w := range [][2]float64{{20, 25}, {50, 55}, {85, 90}} {
		flows = append(flows, flow.Flow{Src: ft.Hosts[i], Dst: island, Release: w[0], Deadline: w[1], Size: 2})
	}
	fs, err = flow.NewSet(flows)
	if err != nil {
		t.Fatal(err)
	}
	// The serial loop stops at the first interval inside [20, 25].
	var times []float64
	for _, f := range fs.Flows() {
		times = append(times, f.Release, f.Deadline)
	}
	first := -1
	for k, iv := range timeline.Decompose(timeline.Breakpoints(times)) {
		if iv.Start >= 20-timeline.Eps && iv.End <= 25+timeline.Eps {
			first = k
			break
		}
	}
	prefix := fmt.Sprintf("interval %d: ", first)

	var want string
	for _, p := range fanoutWidths {
		for run := 0; run < 5; run++ {
			res, err := SolveDCFSRCtx(context.Background(), DCFSRInput{
				Graph: ft.Graph, Flows: fs, Model: fanoutModel, Opts: DCFSROptions{Parallelism: p},
			})
			if res != nil || !errors.Is(err, mcfsolve.ErrNoRoute) || !strings.HasPrefix(err.Error(), prefix) {
				t.Fatalf("parallelism %d: returned %v, %v; want an ErrNoRoute starting %q", p, res, err, prefix)
			}
			if want == "" {
				want = err.Error()
			}
			if err.Error() != want {
				t.Fatalf("parallelism %d: error %q, want %q", p, err, want)
			}
		}
	}
}

// TestFanOutLowestIndexErrorDelta: the delta path reports its lowest-index
// failing interval the same way. The unroutable batch flows start at 20 and
// 30, so intervals 2 and 3 fail and interval 2 must be reported.
func TestFanOutLowestIndexErrorDelta(t *testing.T) {
	ft, island := islandFatTree(t)
	h := ft.Hosts
	batch := []flow.Flow{
		{ID: 100, Src: h[1], Dst: h[9], Release: 0, Deadline: 40, Size: 8},
		{ID: 101, Src: h[2], Dst: island, Release: 20, Deadline: 40, Size: 2},
		{ID: 102, Src: h[3], Dst: island, Release: 30, Deadline: 40, Size: 2},
	}
	var want string
	for _, p := range fanoutWidths {
		in := deltaFanOutInput(t, ft, batch, p)
		for run := 0; run < 5; run++ {
			res, err := SolveDCFSRPartialCtx(context.Background(), in)
			if res != nil || !errors.Is(err, mcfsolve.ErrNoRoute) || !strings.HasPrefix(err.Error(), "delta interval 2: ") {
				t.Fatalf("parallelism %d: returned %v, %v; want an ErrNoRoute starting %q", p, res, err, "delta interval 2: ")
			}
			if want == "" {
				want = err.Error()
			}
			if err.Error() != want {
				t.Fatalf("parallelism %d: error %q, want %q", p, err, want)
			}
		}
	}
}
