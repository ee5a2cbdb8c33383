package dcnflow

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
)

// ErrUnknownSolver reports a name that is not one of the built-in solver
// families (SolverNames).
var ErrUnknownSolver = errors.New("dcnflow: unknown solver")

// Solution is the common outcome every solver family returns, so
// algorithms and baselines are compared uniformly: one schedule, one energy
// figure, the solver's own lower bound when it produces one, and a flat bag
// of per-solver diagnostics.
type Solution struct {
	// Solver is the name of the family that produced this solution.
	Solver string
	// Schedule is the complete per-flow schedule (paths + rate functions).
	Schedule *Schedule
	// Energy is the solver's accounted total energy. For every solver this
	// equals Schedule.EnergyTotal(model) except "always-on", which charges
	// idle power for every link in the network whether used or not.
	Energy float64
	// LowerBound is the solver's own lower bound when it computes one (the
	// "dcfsr" family); zero otherwise. "dcfsr" reports a certified bound on
	// the energy of density-rate single-path schedules such as its own
	// (see core.DCFSRResult.LowerBound).
	LowerBound float64
	// Stats holds per-solver diagnostics (iteration counts, rounding
	// attempts, admission tallies, ...) under stable snake_case keys.
	Stats map[string]float64
}

// SolverConfig is the resolved configuration a solver family runs with; it
// is assembled by applying SolveOptions in order (later options win).
type SolverConfig struct {
	// Seed drives the seeded draws of the solvers that make any: "dcfsr"
	// reads it only for its random rounding draws (alpha not an integer up
	// to 8, or after a derandomized assignment violates C), and "ecmp-mcf"
	// for its path picks. "rolling-online", "greedy-online" and the other
	// families read no seed.
	Seed int64
	// DCFSR tunes the Random-Schedule pipeline (relaxation iterations,
	// rounding attempts, warm starts, progress callback); used by the
	// "dcfsr" and "rolling-online" solvers. "rolling-online" reads neither
	// its Seed nor its MaxRoundingAttempts: its epoch re-solves draw no
	// path.
	DCFSR DCFSROptions
	// Online tunes the marginal-cost greedy ("greedy-online").
	Online OnlineOptions
	// Rolling tunes the rolling-horizon scheduler ("rolling-online"); its
	// embedded DCFSR field is overwritten by the DCFSR field above at solve
	// time, so the relaxation knobs have one home.
	Rolling RollingOptions
	// Exact bounds the brute-force enumeration ("exact").
	Exact ExactOptions

	// scratch is the Engine's pooled per-solver scratch, set only by
	// Engine.Solve. The relaxation families draw reusable F-MCF solvers
	// from it per solve; nil (a direct Solve) keeps per-call construction.
	// Never affects results.
	scratch *enginePools
}

// SolveOption configures one solve.
type SolveOption func(*SolverConfig)

// WithSeed sets the randomization seed: dcfsr's random rounding draws (see
// SolverConfig.Seed for when it makes them) and ecmp-mcf's path picks.
// "rolling-online" and "greedy-online" read no seed.
func WithSeed(seed int64) SolveOption {
	return func(c *SolverConfig) {
		c.Seed = seed
		c.DCFSR.Seed = seed
	}
}

// WithSolverOptions sets the Frank–Wolfe relaxation options of the
// DCFSR-family solvers (iteration cap, tolerance, cost kind, ...).
func WithSolverOptions(o SolverOptions) SolveOption {
	return func(c *SolverConfig) { c.DCFSR.Solver = o }
}

// WithDCFSROptions replaces the full Random-Schedule option block
// (including its Seed — apply WithSeed afterwards to override it).
func WithDCFSROptions(o DCFSROptions) SolveOption {
	return func(c *SolverConfig) {
		c.DCFSR = o
		c.Seed = o.Seed
	}
}

// WithOnlineOptions sets the marginal-cost greedy options.
func WithOnlineOptions(o OnlineOptions) SolveOption {
	return func(c *SolverConfig) { c.Online = o }
}

// WithRollingOptions replaces the full rolling-horizon option block,
// including its embedded DCFSR options.
func WithRollingOptions(o RollingOptions) SolveOption {
	return func(c *SolverConfig) {
		c.Rolling = o
		c.DCFSR = o.DCFSR
		c.Seed = o.DCFSR.Seed
	}
}

// WithExactOptions bounds the brute-force enumeration of "exact".
func WithExactOptions(o ExactOptions) SolveOption {
	return func(c *SolverConfig) { c.Exact = o }
}

// WithProgress installs a progress observer: per-interval relaxation events
// and, for "rolling-online", per-epoch re-plan events.
func WithProgress(fn ProgressFunc) SolveOption {
	return func(c *SolverConfig) { c.DCFSR.Progress = fn }
}

// SolverNames lists the built-in solver families, sorted.
func SolverNames() []string {
	names := make([]string, 0, len(solvers))
	for name := range solvers {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Solve runs the named built-in solver on one instance — the one-call entry
// point of the Scenario/Solver API:
//
//	inst, _ := dcnflow.NewInstance(g, flows, model)
//	sol, err := dcnflow.Solve(ctx, "dcfsr", inst, dcnflow.WithSeed(1))
//
// Options apply in order (later ones win). An unknown name fails with
// ErrUnknownSolver; a nil instance, and an instance whose sizes overflow
// the energy accounting, fail with ErrBadInstance — never with a
// non-finite Energy or LowerBound. A nil ctx is treated as
// context.Background().
//
// Cancellation contract: when ctx ends mid-solve, Solve returns an error
// wrapping ctx.Err() — never a partial Solution — within one unit of
// algorithm-specific work (one Frank–Wolfe iteration for the relaxation
// solvers, one epoch re-solve for rolling, one admission for the greedy,
// one Most-Critical-First round for exact and the fixed-routing
// families).
func Solve(ctx context.Context, solver string, in *Instance, opts ...SolveOption) (*Solution, error) {
	return solve(ctx, solver, newSolverConfig(opts), in)
}

// newSolverConfig applies opts in order to the zero configuration.
func newSolverConfig(opts []SolveOption) SolverConfig {
	var cfg SolverConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	return cfg
}

// solve is the one path from a solver name to its table entry, shared by
// Solve and Engine.Solve: it holds the checks every family shares.
func solve(ctx context.Context, name string, cfg SolverConfig, in *Instance) (*Solution, error) {
	run, ok := solvers[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q (registered: %s)", ErrUnknownSolver, name, strings.Join(SolverNames(), ", "))
	}
	if in == nil {
		return nil, fmt.Errorf("%w: nil instance", ErrBadInstance)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	sol, err := run(ctx, cfg, in)
	if err != nil {
		return nil, err
	}
	if !finite(sol.Energy) || !finite(sol.LowerBound) {
		return nil, fmt.Errorf("%w: %s energy %v, lower bound %v: the instance overflows float64",
			ErrBadInstance, name, sol.Energy, sol.LowerBound)
	}
	return sol, nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
