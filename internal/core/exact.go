package core

import (
	"context"
	"fmt"
	"math"

	"dcnflow/internal/flow"
	"dcnflow/internal/graph"
)

// ExactOptions bounds the brute-force DCFSR solver.
type ExactOptions struct {
	// PathsPerFlow bounds the candidate paths enumerated per flow (k
	// shortest, loopless); default 4.
	PathsPerFlow int
	// MaxAssignments aborts when the cross product of candidates exceeds
	// this bound; default 1 << 16.
	MaxAssignments int
}

func (o ExactOptions) withDefaults() ExactOptions {
	if o.PathsPerFlow <= 0 {
		o.PathsPerFlow = 4
	}
	if o.MaxAssignments <= 0 {
		o.MaxAssignments = 1 << 16
	}
	return o
}

// ExactResult is the brute-force optimum.
type ExactResult struct {
	// Energy is the minimum total energy Phi_f across all enumerated path
	// assignments (each scheduled optimally by Most-Critical-First).
	Energy float64
	// Paths is the optimal assignment.
	Paths map[flow.ID]graph.Path
	// Assignments is the number of assignments evaluated.
	Assignments int
	// Result is the Most-Critical-First output for the optimal assignment.
	Result *DCFSResult
}

// SolveDCFSRExactCtx computes the exact DCFSR optimum (within the paper's
// virtual-circuit model with the capacity constraint relaxed) for SMALL
// instances by enumerating per-flow candidate paths and scheduling every
// assignment optimally with Most-Critical-First. Because the idle-energy
// term depends only on the set of active links — fixed once paths are
// chosen — per-assignment optimal scheduling plus exhaustive enumeration
// yields the global optimum over the candidate path sets.
//
// It exists to validate Random-Schedule empirically; its cost is
// exponential in the number of flows.
//
// Cancellation is checked between path assignments and between the
// Most-Critical-First rounds of each, so the enumeration stops within one
// round of ctx ending and returns the wrapped context error instead of the
// best-so-far assignment.
func SolveDCFSRExactCtx(ctx context.Context, in DCFSRInput, opts ExactOptions) (*ExactResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if in.Graph == nil || in.Flows == nil {
		return nil, fmt.Errorf("%w: nil graph or flows", ErrBadInput)
	}
	if err := in.Model.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadInput, err)
	}
	opts = opts.withDefaults()

	flows := in.Flows.Flows()
	candidates := make([][]graph.Path, len(flows))
	total := 1
	for i, f := range flows {
		paths, err := in.Graph.KShortestPaths(f.Src, f.Dst, opts.PathsPerFlow, nil)
		if err != nil {
			return nil, fmt.Errorf("core: exact candidates for flow %d: %w", f.ID, err)
		}
		if len(paths) == 0 {
			return nil, fmt.Errorf("%w: flow %d has no path", ErrInfeasible, f.ID)
		}
		candidates[i] = paths
		total *= len(paths)
		if total > opts.MaxAssignments {
			return nil, fmt.Errorf("%w: assignment space exceeds %d", ErrBadInput, opts.MaxAssignments)
		}
	}

	best := &ExactResult{Energy: math.Inf(1)}
	if len(flows) == 0 {
		res, err := SolveDCFSCtx(ctx, DCFSInput{Graph: in.Graph, Flows: in.Flows, Paths: map[flow.ID]graph.Path{}, Model: in.Model})
		if err != nil {
			return nil, err
		}
		return &ExactResult{Energy: 0, Paths: map[flow.ID]graph.Path{}, Assignments: 1, Result: res}, nil
	}

	idx := make([]int, len(flows))
	for {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: exact enumeration interrupted after %d assignments: %w", best.Assignments, err)
		}
		assignment := make(map[flow.ID]graph.Path, len(flows))
		for i, f := range flows {
			assignment[f.ID] = candidates[i][idx[i]]
		}
		res, err := SolveDCFSCtx(ctx, DCFSInput{Graph: in.Graph, Flows: in.Flows, Paths: assignment, Model: in.Model})
		if err != nil {
			return nil, fmt.Errorf("core: exact scheduling: %w", err)
		}
		best.Assignments++
		// The first assignment is kept even when its energy does not
		// compare (an overflowing instance prices every assignment +Inf).
		if energy := res.Schedule.EnergyTotal(in.Model); best.Result == nil || energy < best.Energy {
			best.Energy = energy
			best.Paths = assignment
			best.Result = res
		}
		// Advance the mixed-radix counter.
		i := 0
		for ; i < len(idx); i++ {
			idx[i]++
			if idx[i] < len(candidates[i]) {
				break
			}
			idx[i] = 0
		}
		if i == len(idx) {
			break
		}
	}
	return best, nil
}
