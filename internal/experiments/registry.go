package experiments

import (
	"context"
	"fmt"
	"sync"

	"dcnflow"
	"dcnflow/internal/flow"
	"dcnflow/internal/graph"
	"dcnflow/internal/power"
)

// sharedEngine is the one Engine every experiment runner dispatches
// through, so grids that revisit a topology (the fig2 flow-count ladder on
// one fat-tree, the ablations' repeated runs) share compiled graph
// artifacts and pooled solver scratch across cells. Engine dispatch never
// affects results (its determinism contract), which the grid
// worker-invariance tests in this package re-assert.
var (
	engineOnce sync.Once
	engineVal  *dcnflow.Engine
)

func sharedEngine() *dcnflow.Engine {
	engineOnce.Do(func() {
		engineVal = dcnflow.NewEngine(dcnflow.EngineOptions{})
	})
	return engineVal
}

// solve runs one built-in solver of the unified Scenario/Solver API on an
// ad-hoc (graph, flows, model) triple, dispatched through the shared
// Engine. The experiments harness consumes the same solver table as the CLI,
// so every runner exercises the public solving surface — one instance
// fanned across interchangeable algorithms — instead of re-wiring internal
// engines by hand.
func solve(name string, g *graph.Graph, fs *flow.Set, m power.Model, opts ...dcnflow.SolveOption) (*dcnflow.Solution, error) {
	inst, err := dcnflow.NewInstance(g, fs, m)
	if err != nil {
		return nil, fmt.Errorf("experiments: building instance: %w", err)
	}
	r := sharedEngine().Solve(context.Background(), dcnflow.Request{Instance: inst, Solver: name, Options: opts})
	return r.Solution, r.Err
}

// grid maps a (point, run) experiment lattice onto the flat index range of
// the sweep pool (internal/sweep.Map), runs innermost — the layout every
// runner in this package shares since the grids were rebased onto the sweep
// engine. Cell seeds derive from the coordinates the cell method returns,
// so execution order never leaks into results.
type grid struct {
	points []int
	runs   int
}

func newGrid(points []int, runs int) grid { return grid{points: points, runs: runs} }

// size returns the number of cells.
func (g grid) size() int { return len(g.points) * g.runs }

// cell maps a flat pool index back to its (point value, run) coordinates.
func (g grid) cell(i int) (point, run int) { return g.points[i/g.runs], i % g.runs }

// gridWorkers resolves a config's Workers field: experiments default to one
// pool worker because the relaxation underneath already fans out across
// intervals (DCFSROptions.Parallelism), so outer parallelism mostly
// oversubscribes; any positive value is honoured and never affects results.
func gridWorkers(w int) int {
	if w <= 0 {
		return 1
	}
	return w
}
