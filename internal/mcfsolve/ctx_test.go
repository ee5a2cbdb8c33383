package mcfsolve

import (
	"context"
	"errors"
	"testing"

	"dcnflow/internal/graph"
	"dcnflow/internal/power"
	"dcnflow/internal/topology"
)

// countingCtx is a context whose Err starts failing after failAfter calls —
// a deterministic probe for "cancellation is checked at every iteration
// boundary" without timing races.
type countingCtx struct {
	context.Context
	calls, failAfter int
}

func (c *countingCtx) Err() error {
	c.calls++
	if c.calls > c.failAfter {
		return context.Canceled
	}
	return nil
}

// TestSolveCtxChecksEveryIteration proves the promised cancellation
// granularity: with a context that expires after k Err checks, a solve
// capped at far more iterations stops after exactly k iteration boundaries
// and returns the wrapped context error, not a partial result.
func TestSolveCtxChecksEveryIteration(t *testing.T) {
	ft, err := topology.FatTree(4, 100)
	if err != nil {
		t.Fatal(err)
	}
	m := power.Model{Mu: 1, Alpha: 2, C: 100}
	comms := []Commodity{
		{ID: 0, Src: ft.Hosts[0], Dst: ft.Hosts[5], Demand: 3},
		{ID: 1, Src: ft.Hosts[1], Dst: ft.Hosts[9], Demand: 2},
		{ID: 2, Src: ft.Hosts[2], Dst: ft.Hosts[13], Demand: 4},
	}
	// Reference run: the instance genuinely needs many iterations.
	ref, err := solveOnce(ft.Graph, comms, m, Options{MaxIters: 60, Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if ref.Iters < 5 {
		t.Skipf("instance converges in %d iterations; too fast to probe", ref.Iters)
	}

	const failAfter = 3
	ctx := &countingCtx{Context: context.Background(), failAfter: failAfter}
	s, err := NewSolverCompiled(graph.Compile(ft.Graph), m, Options{MaxIters: 60, Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.SolveBaseWarmCtx(ctx, comms, nil, WarmStart{})
	if res != nil || err == nil {
		t.Fatalf("cancelled solve returned %v, %v", res, err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error does not wrap context.Canceled: %v", err)
	}
	if ctx.calls != failAfter+1 {
		t.Errorf("ctx.Err checked %d times before aborting, want %d (one per iteration)", ctx.calls, failAfter+1)
	}
}

// TestSolveCtxPreCancelled: a context already ended never starts iterating.
func TestSolveCtxPreCancelled(t *testing.T) {
	line, err := topology.Line(3, 100)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s, err := NewSolverCompiled(graph.Compile(line.Graph), power.Model{Mu: 1, Alpha: 2, C: 100}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.SolveBaseWarmCtx(ctx, []Commodity{{ID: 0, Src: line.Hosts[0], Dst: line.Hosts[2], Demand: 1}}, nil, WarmStart{})
	if res != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled solve returned %v, %v", res, err)
	}
}
