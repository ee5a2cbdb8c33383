package dcnflow

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// ErrUnknownSolver reports a solver name absent from the registry.
var ErrUnknownSolver = errors.New("dcnflow: unknown solver")

// Solution is the common outcome every registered Solver returns, so
// algorithms and baselines are compared uniformly: one schedule, one energy
// figure, the solver's own lower bound when it produces one, and a flat bag
// of per-solver diagnostics.
type Solution struct {
	// Solver is the registered name that produced this solution.
	Solver string
	// Schedule is the complete per-flow schedule (paths + rate functions).
	Schedule *Schedule
	// Energy is the solver's accounted total energy. For every solver this
	// equals Schedule.EnergyTotal(model) except "always-on", which charges
	// idle power for every link in the network whether used or not.
	Energy float64
	// LowerBound is the fractional relaxation bound when the solver computes
	// one (the DCFSR family); zero otherwise.
	LowerBound float64
	// Stats holds per-solver diagnostics (iteration counts, rounding
	// attempts, admission tallies, ...) under stable snake_case keys.
	Stats map[string]float64
}

// Solver is one algorithm of the unified Scenario/Solver API: it consumes a
// validated Instance under a context and produces a Solution. Solvers are
// configured at construction (Registry.New + functional options) and must
// be safe to call Solve on repeatedly.
//
// Cancellation contract: when ctx ends mid-solve, Solve returns an error
// wrapping ctx.Err() — never a partial Solution — within one unit of
// algorithm-specific work (one Frank–Wolfe iteration for the relaxation
// solvers, one epoch re-solve for rolling, one admission for the greedy,
// one path assignment for exact).
type Solver interface {
	// Name returns the registered solver name.
	Name() string
	// Solve runs the algorithm on one instance.
	Solve(ctx context.Context, in *Instance) (*Solution, error)
}

// SolverConfig is the resolved configuration a SolverFactory receives; it
// is assembled by applying SolveOptions in order (later options win).
type SolverConfig struct {
	// Seed drives randomized rounding and randomized routing (ECMP).
	Seed int64
	// DCFSR tunes the Random-Schedule pipeline (relaxation iterations,
	// rounding attempts, warm starts, progress callback); used by the
	// "dcfsr" and "rolling-online" solvers.
	DCFSR DCFSROptions
	// Online tunes the marginal-cost greedy ("greedy-online").
	Online OnlineOptions
	// Rolling tunes the rolling-horizon scheduler ("rolling-online"); its
	// embedded DCFSR field is overwritten by the DCFSR field above at solve
	// time, so the relaxation knobs have one home.
	Rolling RollingOptions
	// Exact bounds the brute-force enumeration ("exact").
	Exact ExactOptions

	// scratch is the Engine's pooled per-solver scratch registry, set only
	// by engine-dispatched solves (see withScratch). The built-in
	// relaxation factories draw reusable F-MCF solvers from it per solve;
	// nil (every non-engine construction) keeps the historical per-call
	// construction. Never affects results.
	scratch *enginePools
}

// SolveOption configures a solver at construction.
type SolveOption func(*SolverConfig)

// WithSeed sets the randomization seed (rounding draws, ECMP path picks).
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

// SolverFactory builds a configured Solver from a resolved SolverConfig.
type SolverFactory func(cfg SolverConfig) (Solver, error)

// Registry maps solver names to factories. The package-level registry
// (Register/NewSolver/SolverNames/Solve) ships with the eight built-in
// families; construct a private Registry to curate a different set.
// A Registry is safe for concurrent use.
type Registry struct {
	mu        sync.RWMutex
	factories map[string]SolverFactory
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{factories: make(map[string]SolverFactory)}
}

// Register adds a named factory; empty names, nil factories and duplicates
// are rejected.
func (r *Registry) Register(name string, f SolverFactory) error {
	if strings.TrimSpace(name) == "" || name != strings.TrimSpace(name) {
		return fmt.Errorf("dcnflow: invalid solver name %q", name)
	}
	if f == nil {
		return fmt.Errorf("dcnflow: nil factory for solver %q", name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.factories[name]; dup {
		return fmt.Errorf("dcnflow: solver %q already registered", name)
	}
	r.factories[name] = f
	return nil
}

// Names returns the registered solver names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.factories))
	for name := range r.factories {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// New constructs a configured solver by name.
func (r *Registry) New(name string, opts ...SolveOption) (Solver, error) {
	r.mu.RLock()
	f, ok := r.factories[name]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q (registered: %s)", ErrUnknownSolver, name, strings.Join(r.Names(), ", "))
	}
	var cfg SolverConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	return f(cfg)
}

// Solve constructs the named solver and runs it on one instance — the
// one-call entry point of the Scenario/Solver API.
func (r *Registry) Solve(ctx context.Context, name string, in *Instance, opts ...SolveOption) (*Solution, error) {
	s, err := r.New(name, opts...)
	if err != nil {
		return nil, err
	}
	return s.Solve(ctx, in)
}

// defaultRegistry holds the built-in solver families (populated by
// registerBuiltins in solvers.go).
var defaultRegistry = NewRegistry()

// Register adds a solver factory to the package-level registry.
func Register(name string, f SolverFactory) error { return defaultRegistry.Register(name, f) }

// SolverNames lists the package-level registry, sorted.
func SolverNames() []string { return defaultRegistry.Names() }

// NewSolver constructs a configured solver from the package-level registry.
func NewSolver(name string, opts ...SolveOption) (Solver, error) {
	return defaultRegistry.New(name, opts...)
}

// Solve runs a package-level registered solver on one instance:
//
//	inst, _ := dcnflow.NewInstance(g, flows, model)
//	sol, err := dcnflow.Solve(ctx, "dcfsr", inst, dcnflow.WithSeed(1))
func Solve(ctx context.Context, solver string, in *Instance, opts ...SolveOption) (*Solution, error) {
	return defaultRegistry.Solve(ctx, solver, in, opts...)
}
