package dcnflow

import (
	"context"

	"dcnflow/internal/baseline"
	"dcnflow/internal/core"
	"dcnflow/internal/online"
)

// Built-in solver names, the keys of the solver table. The constants exist
// so callers and the CLI can reference families without string literals;
// SolverNames() returns the same set.
const (
	// SolverDCFSR is the Random-Schedule relaxation/rounding approximation
	// for joint routing and scheduling (Algorithm 2).
	SolverDCFSR = "dcfsr"
	// SolverDCFSMCF schedules with Most-Critical-First on the instance's
	// fixed routing (Instance.Routing), falling back to shortest paths when
	// the instance fixes none.
	SolverDCFSMCF = "dcfs-mcf"
	// SolverSPMCF is the paper's comparison baseline: deterministic
	// shortest-path routing plus the optimal Most-Critical-First schedule.
	SolverSPMCF = "sp-mcf"
	// SolverECMPMCF is SP+MCF with randomised equal-cost multi-path routing.
	SolverECMPMCF = "ecmp-mcf"
	// SolverAlwaysOn is the no-energy-management baseline: full-rate
	// shortest-path transmission, every link powered the whole horizon.
	SolverAlwaysOn = "always-on"
	// SolverExact is the brute-force small-instance optimum (path
	// enumeration with optimal per-assignment scheduling).
	SolverExact = "exact"
	// SolverGreedyOnline is the irrevocable marginal-cost greedy online
	// scheduler.
	SolverGreedyOnline = "greedy-online"
	// SolverRollingOnline is the rolling-horizon online re-optimizer.
	SolverRollingOnline = "rolling-online"
)

// ecmpWidth is the equal-cost path fan-out of "ecmp-mcf": each flow
// takes one of the minimum-hop paths among its ecmpWidth shortest.
const ecmpWidth = 8

// solvers is the fixed table of the eight built-in solver families. Each
// entry runs one algorithm on a non-nil instance under a non-nil context;
// solve holds the checks they share. Solve, Engine.Solve and the
// ServeRequest and SweepSpec validators all read it.
var solvers = map[string]func(ctx context.Context, cfg SolverConfig, in *Instance) (*Solution, error){
	SolverDCFSR:         solveDCFSR,
	SolverDCFSMCF:       solveDCFSMCF,
	SolverSPMCF:         solveSPMCF,
	SolverECMPMCF:       solveECMPMCF,
	SolverAlwaysOn:      solveAlwaysOn,
	SolverExact:         solveExact,
	SolverGreedyOnline:  solveGreedyOnline,
	SolverRollingOnline: solveRollingOnline,
}

func boolStat(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func solveDCFSR(ctx context.Context, cfg SolverConfig, in *Instance) (*Solution, error) {
	opts := cfg.DCFSR
	if cfg.scratch != nil {
		// Engine-dispatched solve: draw the per-interval fan-out's solvers
		// from the pooled scratch bound to this instance's compiled graph.
		// Reuse never affects results.
		opts.Solvers = cfg.scratch.poolFor(in.graph, in.model, opts.Solver)
	}
	res, err := core.SolveDCFSRCtx(ctx, core.DCFSRInput{
		Graph: in.graph, Flows: in.flows, Model: in.model, Opts: opts,
	})
	if err != nil {
		return nil, err
	}
	return &Solution{
		Solver:     SolverDCFSR,
		Schedule:   res.Schedule,
		Energy:     res.Schedule.EnergyTotal(in.model),
		LowerBound: res.LowerBound,
		Stats: map[string]float64{
			"attempts":          float64(res.Attempts),
			"intervals":         float64(res.Intervals),
			"lambda":            res.Lambda,
			"max_rate":          res.MaxRate,
			"capacity_feasible": boolStat(res.CapacityFeasible),
			"links_on":          float64(len(res.Schedule.ActiveLinks())),
			"fw_iters":          float64(res.FWIters),
			"bound_stops":       float64(res.BoundStops),
		},
	}, nil
}

// solveMCF schedules in's flows on paths with Most-Critical-First: the
// shared tail of the three fixed-routing families.
func solveMCF(ctx context.Context, name string, in *Instance, paths map[FlowID]Path) (*Solution, error) {
	res, err := core.SolveDCFSCtx(ctx, core.DCFSInput{
		Graph: in.graph, Flows: in.flows, Paths: paths, Model: in.model,
	})
	if err != nil {
		return nil, err
	}
	return &Solution{
		Solver:   name,
		Schedule: res.Schedule,
		Energy:   res.Schedule.EnergyTotal(in.model),
		Stats: map[string]float64{
			"rounds":    float64(len(res.Rounds)),
			"conflicts": float64(res.Conflicts),
			"links_on":  float64(len(res.Schedule.ActiveLinks())),
		},
	}, nil
}

func solveDCFSMCF(ctx context.Context, _ SolverConfig, in *Instance) (*Solution, error) {
	paths := in.paths
	if paths == nil {
		var err error
		if paths, err = baseline.ShortestPaths(in.graph, in.flows); err != nil {
			return nil, err
		}
	}
	return solveMCF(ctx, SolverDCFSMCF, in, paths)
}

func solveSPMCF(ctx context.Context, _ SolverConfig, in *Instance) (*Solution, error) {
	paths, err := baseline.ShortestPaths(in.graph, in.flows)
	if err != nil {
		return nil, err
	}
	return solveMCF(ctx, SolverSPMCF, in, paths)
}

func solveECMPMCF(ctx context.Context, cfg SolverConfig, in *Instance) (*Solution, error) {
	paths, err := baseline.ECMPPaths(in.graph, in.flows, ecmpWidth, cfg.Seed)
	if err != nil {
		return nil, err
	}
	sol, err := solveMCF(ctx, SolverECMPMCF, in, paths)
	if err != nil {
		return nil, err
	}
	sol.Stats["ecmp_width"] = ecmpWidth
	return sol, nil
}

func solveAlwaysOn(_ context.Context, _ SolverConfig, in *Instance) (*Solution, error) {
	res, err := baseline.AlwaysOnFullRate(in.graph, in.flows, in.model)
	if err != nil {
		return nil, err
	}
	return &Solution{
		Solver:   SolverAlwaysOn,
		Schedule: res.Schedule,
		Energy:   res.Energy,
		Stats: map[string]float64{
			"links_on": float64(in.graph.NumEdges()),
		},
	}, nil
}

func solveExact(ctx context.Context, cfg SolverConfig, in *Instance) (*Solution, error) {
	res, err := core.SolveDCFSRExactCtx(ctx, core.DCFSRInput{
		Graph: in.graph, Flows: in.flows, Model: in.model,
	}, cfg.Exact)
	if err != nil {
		return nil, err
	}
	return &Solution{
		Solver:   SolverExact,
		Schedule: res.Result.Schedule,
		Energy:   res.Energy,
		Stats: map[string]float64{
			"assignments": float64(res.Assignments),
			"links_on":    float64(len(res.Result.Schedule.ActiveLinks())),
		},
	}, nil
}

func solveGreedyOnline(ctx context.Context, cfg SolverConfig, in *Instance) (*Solution, error) {
	horizon := in.horizon
	res, err := online.RunCtx(ctx, in.graph, in.flows, in.model, &horizon, cfg.Online)
	if err != nil {
		return nil, err
	}
	return &Solution{
		Solver:   SolverGreedyOnline,
		Schedule: res.Schedule,
		Energy:   res.Schedule.EnergyTotal(in.model),
		Stats: map[string]float64{
			"admitted":  float64(res.Admitted),
			"rejected":  float64(in.flows.Len() - res.Admitted),
			"peak_rate": res.PeakRate,
			"links_on":  float64(len(res.Schedule.ActiveLinks())),
		},
	}, nil
}

func solveRollingOnline(ctx context.Context, cfg SolverConfig, in *Instance) (*Solution, error) {
	horizon := in.horizon
	opts := cfg.Rolling
	opts.DCFSR = cfg.DCFSR
	if cfg.scratch != nil {
		// Engine-dispatched solve: hand the rolling scheduler the engine's
		// shared solver pool so epoch re-solves of repeated requests on one
		// topology recycle scratch across requests, not just across epochs.
		opts.DCFSR.Solvers = cfg.scratch.poolFor(in.graph, in.model, opts.DCFSR.Solver)
	}
	res, rep, err := online.RunRollingCtx(ctx, in.graph, in.flows, in.model, &horizon, opts)
	if err != nil {
		return nil, err
	}
	return &Solution{
		Solver:   SolverRollingOnline,
		Schedule: res.Schedule,
		Energy:   res.Schedule.EnergyTotal(in.model),
		Stats: map[string]float64{
			"epochs":              float64(res.Stats.Epochs),
			"fw_iters":            float64(res.Stats.FWIters),
			"seeded_intervals":    float64(res.Stats.SeededIntervals),
			"solved_intervals":    float64(res.Stats.SolvedIntervals),
			"admitted":            float64(rep.Admitted),
			"rejected":            float64(rep.Rejected),
			"deadline_violations": float64(rep.DeadlineViolations),
			"capacity_violations": float64(rep.CapacityViolations),
			"first_residual_lb":   res.Stats.FirstResidualLB,
			"links_on":            float64(len(res.Schedule.ActiveLinks())),
		},
	}, nil
}
