package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"dcnflow/internal/flow"
	"dcnflow/internal/graph"
	"dcnflow/internal/mcfsolve"
	"dcnflow/internal/power"
	"dcnflow/internal/schedule"
	"dcnflow/internal/timeline"
)

// ProgressEvent is one observation of a running solve, delivered through
// DCFSROptions.Progress.
type ProgressEvent struct {
	// Stage is "interval" (one per-interval solve of a full relaxation
	// finished), "epoch" (one full rolling-horizon re-plan finished) or
	// "epoch-delta" (one rolling delta epoch finished; the touched
	// interval solves of a delta epoch emit no interval events).
	Stage string
	// Index counts this event's unit within Total: the interval index within
	// the decomposition, or the 1-based epoch number (Total 0: unknown).
	Index, Total int
	// FWIters is the Frank–Wolfe iteration count of the finished unit.
	FWIters int
	// Time is the epoch boundary instant; zero for interval events.
	Time float64
}

// ProgressFunc observes solve progress. Interval events are emitted from the
// concurrent fan-out workers — calls are serialised by the solver, but
// interval indices arrive in completion order, not ascending order. The
// callback must not block for long: it runs on the solving goroutines.
type ProgressFunc func(ProgressEvent)

// DCFSROptions tunes the Random-Schedule approximation.
type DCFSROptions struct {
	// Seed drives the random draws of the offline rounding (SolveDCFSRCtx);
	// runs are deterministic per seed. For an integer alpha up to 8 the
	// first assignment is derandomized and draws nothing, so the seed acts
	// only when that assignment violates link capacities; other alphas
	// draw from the start. The rolling epoch re-solve
	// (SolveDCFSRPartialCtx) draws no path and never reads it.
	Seed int64
	// MaxRoundingAttempts bounds the random draws of the offline rounding,
	// repeated while the assignment violates link capacities (Section V-A:
	// "we can always repeat the randomized rounding process until we
	// obtain a feasible solution"). A derandomized first assignment
	// (integer alpha up to 8) comes before them and does not count.
	// Default 20. The rolling epoch re-solve never reads it.
	MaxRoundingAttempts int
	// Solver configures the per-interval F-MCF relaxation, including the
	// intra-solve shortest-path parallelism (Solver.OracleWorkers). The
	// two parallelism knobs compose multiplicatively — Parallelism
	// concurrent interval solves, each fanning its oracle sweeps over
	// OracleWorkers goroutines — so on large fabrics with few intervals
	// prefer OracleWorkers, and on many-interval instances prefer
	// Parallelism; both are deterministic at any setting.
	Solver mcfsolve.Options
	// Parallelism bounds concurrent per-interval solves — a full solve's
	// intervals, and the touched intervals of a rolling delta epoch;
	// default NumCPU. It never affects results: the interval solves are
	// independent, and bounds, counters and the error returned are
	// reduced in interval order.
	Parallelism int
	// WarmStart seeds each rolling-horizon re-plan's per-interval
	// Frank–Wolfe solves from the previous epoch's time-aligned path
	// decompositions (see DCFSRPartialInput.Prev) instead of hop-count
	// shortest paths, for intervals whose commodity multiset is unchanged.
	// It pays on full re-plans, not on delta epochs, whose touched
	// intervals hold only the arrival batch and so rarely find a seed.
	// With `dcnflow online -mode rolling` defaults (fat-tree k=4, 80
	// diurnal flows, a re-plan per arrival), full re-plans took 5,408
	// Frank–Wolfe iterations warm vs 8,448 cold (244 of 676 interval
	// solves seeded); with delta epochs on, 9,533 vs 9,569 (3 of 447
	// seeded). It does not change an offline solve, whose intervals
	// always start cold: on the paper's evaluation workloads the hop-count
	// start converges in fewer iterations than seeding from a neighbouring
	// interval (Frank–Wolfe has no away-steps, so carried-over mass on
	// stale paths drains only geometrically).
	WarmStart bool
	// Progress, when non-nil, receives one event per finished interval solve
	// (and, under the rolling-horizon scheduler, one per epoch re-plan). It
	// never affects results.
	Progress ProgressFunc
	// Solvers, when non-nil, supplies pooled reusable F-MCF solvers to the
	// per-interval fan-out instead of constructing one per worker — the
	// pooled per-solver scratch of the compile-once/solve-many Engine. The
	// pool must be bound to the same (graph, model, Solver options) triple
	// as the solve; a mismatched pool is ignored and the fan-out constructs
	// solvers as before. Pooling never affects results: a Solver's output
	// is independent of its scratch history.
	Solvers *mcfsolve.Pool
}

func (o DCFSROptions) withDefaults() DCFSROptions {
	if o.MaxRoundingAttempts <= 0 {
		o.MaxRoundingAttempts = 20
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.NumCPU()
	}
	return o
}

// DCFSRInput is an instance of the joint scheduling-and-routing problem.
type DCFSRInput struct {
	Graph *graph.Graph
	// Compiled optionally supplies the graph's compiled artifact bundle
	// (CSR, scratch pools) so the solve consumes an explicitly compiled
	// view instead of compiling implicitly. It must match Graph when set;
	// nil compiles on demand (graph.Compile caches on the graph, so the
	// cost is paid once per graph either way).
	Compiled *graph.Compiled
	Flows    *flow.Set
	Model    power.Model
	Opts     DCFSROptions
}

// compiledView resolves the optional explicit compiled view against the
// graph, rejecting a bundle compiled from a different graph.
func compiledView(c *graph.Compiled, g *graph.Graph) (*graph.Compiled, error) {
	if c == nil {
		return graph.Compile(g), nil
	}
	if c.Graph() != g {
		return nil, fmt.Errorf("%w: compiled view belongs to a different graph", ErrBadInput)
	}
	return c, nil
}

// DCFSRResult is the output of Random-Schedule.
type DCFSRResult struct {
	// Schedule assigns every flow a single path and the constant density
	// rate D_i across its span (the fluid equivalent of the per-interval
	// EDF time-sharing at rate sum D_j; link rates and energy coincide).
	Schedule *schedule.Schedule
	// LowerBound is a certified lower bound on the energy of any schedule
	// that, like this one, sends each flow on one path at its density D_j
	// across its span: sum over intervals of |I_k| times the larger of the
	// interval's certified Frank–Wolfe bound (mcfsolve.Result.Bound) and
	// iso_k = sum over its flows of mu * D_j^alpha * h_j, h_j the flow's
	// minimum hop count. It is not the paper's fractional value, which
	// LowerBoundCtx computes; see DESIGN.md "Certified lower bound and
	// derandomized rounding".
	LowerBound float64
	// FractionalObjective is sum over intervals of |I_k| times the
	// envelope-cost F-MCF Frank–Wolfe primal value at the interval's last
	// iterate. A primal value bounds the relaxation optimum from above, and
	// an interval solve may stop once its primal is at or below iso_k, so
	// this is not the value LowerBoundCtx reports.
	FractionalObjective float64
	// Attempts is the number of rounding attempts consumed: the
	// derandomized assignment (integer alpha up to 8) and the random draws
	// after it, at most MaxRoundingAttempts of those. It is 1 when the
	// first assignment meets link capacities, which it always does in an
	// uncapped model.
	Attempts int
	// CapacityFeasible reports whether the returned assignment satisfies
	// all link capacities (always true for uncapped models).
	CapacityFeasible bool
	// MaxRate is the maximum per-link per-interval aggregate rate.
	MaxRate float64
	// Intervals is K, the number of decomposition intervals.
	Intervals int
	// Lambda is (t_K - t_0) / min_k |I_k| (Theorem 6).
	Lambda float64
	// FWIters sums the Frank–Wolfe iterations of the interval solves, and
	// BoundStops counts the interval solves that stopped because their
	// primal value reached iso_k (mcfsolve.Result.TargetStop).
	FWIters, BoundStops int
}

// candidate is one entry of a flow's rounded path distribution; the path
// lives in the aggregation's shared intern table.
type candidate struct {
	handle graph.PathHandle
	weight float64
}

// relaxation holds the solved multi-step F-MCF.
type relaxation struct {
	intervals []timeline.Interval
	comms     [][]mcfsolve.Commodity
	// iso, when non-nil, holds iso_k per interval (see isoPower), and each
	// interval's result is its solve stopped once the primal value reaches
	// iso_k.
	iso     []float64
	results []*mcfsolve.Result
	// full, when non-nil, receives per interval the primal value of the
	// same solve run on to Tol or MaxIters.
	full []float64
	// fractional is sum_k |I_k| times results[k].Objective.
	fractional float64
	lambda     float64
}

// relaxMode selects what solveRelaxation's interval solves run to.
type relaxMode int

const (
	// relaxFull runs every interval solve to Tol or MaxIters: the paper's
	// fractional value (LowerBoundCtx).
	relaxFull relaxMode = iota
	// relaxStop stops each interval solve once its primal value reaches
	// iso_k (SolveDCFSRCtx).
	relaxStop
	// relaxBoth keeps relaxStop's results and runs each solve on to Tol or
	// MaxIters for rel.full (SolveDCFSRWithFractionalCtx).
	relaxBoth
)

// solveRelaxation decomposes the horizon at flow release/deadline
// breakpoints and solves one F-MCF per interval (concurrently), as far as
// mode says.
func solveRelaxation(ctx context.Context, c *graph.Compiled, flows *flow.Set, m power.Model, opts DCFSROptions, mode relaxMode) (*relaxation, error) {
	var times []float64
	for _, f := range flows.Flows() {
		times = append(times, f.Release, f.Deadline)
	}
	breaks := timeline.Breakpoints(times)
	intervals := timeline.Decompose(breaks)

	rel := &relaxation{
		intervals: intervals,
		comms:     make([][]mcfsolve.Commodity, len(intervals)),
		results:   make([]*mcfsolve.Result, len(intervals)),
		lambda:    timeline.Lambda(breaks),
	}
	for k, iv := range intervals {
		for _, f := range flows.Flows() {
			if f.Release <= iv.Start+timeline.Eps && f.Deadline >= iv.End-timeline.Eps {
				rel.comms[k] = append(rel.comms[k], mcfsolve.Commodity{
					ID: f.ID, Src: f.Src, Dst: f.Dst, Demand: f.Density(),
				})
			}
		}
	}

	if mode != relaxFull {
		rel.iso = isoPower(c, flows, rel.comms, m)
	}
	if mode == relaxBoth {
		rel.full = make([]float64, len(intervals))
	}
	if err := solveIntervalRelaxation(ctx, c, m, opts, rel, nil); err != nil {
		return nil, err
	}
	return rel, nil
}

// isoPower returns, per interval, iso_k = sum over the interval's
// commodities of mu * D_j^alpha * h_j, where h_j is flow j's minimum hop
// count: a lower bound on the dynamic power in interval k of any schedule
// that sends each flow on one path at its density, because t^alpha is
// superadditive for alpha >= 1 and every path has at least h_j hops. Hop
// counts come from one breadth-first search per distinct destination
// (graph.CSR.Hops). A flow with no route counts 0 hops (the relaxation
// then fails on it), and one beyond Hops' cap counts the cap, so iso_k
// stays a lower bound.
func isoPower(c *graph.Compiled, flows *flow.Set, comms [][]mcfsolve.Commodity, m power.Model) []float64 {
	fs := flows.Flows() // flow IDs are positions
	byDst := make(map[graph.NodeID][]int)
	for i, f := range fs {
		byDst[f.Dst] = append(byDst[f.Dst], i)
	}
	hot := c.Hot()
	hop := make([]uint8, hot.NumNodes())
	var queue []int32
	hops := make([]float64, len(fs))
	for d, members := range byDst {
		queue = hot.Hops([]graph.NodeID{c.ToHot(d)}, hop, queue)
		for _, i := range members {
			if h := hop[c.ToHot(fs[i].Src)]; h != graph.HopNone {
				hops[i] = float64(h)
			}
		}
	}
	iso := make([]float64, len(comms))
	for k, cs := range comms {
		for _, cm := range cs {
			iso[k] += m.G(cm.Demand) * hops[cm.ID]
		}
	}
	return iso
}

// solveIntervalRelaxation runs one F-MCF per interval of rel (concurrently,
// see solveIntervals) and fills rel.results and rel.fractional.
// rel.intervals and rel.comms must already be populated; rel.iso, when
// set, gives each interval solve its stop target, and rel.full, when set,
// asks for the values of the solves run on past it.
//
// seeds, when non-nil, supplies a warm start for interval k (the
// rolling-horizon re-optimizer passes the previous epoch's time-aligned
// decompositions); a zero-valued seed, like a nil slice, means a cold
// start.
func solveIntervalRelaxation(ctx context.Context, c *graph.Compiled, m power.Model, opts DCFSROptions, rel *relaxation, seeds []mcfsolve.WarmStart) error {
	var todo []int
	for k, comms := range rel.comms {
		if len(comms) > 0 {
			todo = append(todo, k)
		}
	}
	var progMu sync.Mutex
	err := solveIntervals(ctx, c, m, opts, len(todo), func(s *mcfsolve.Solver, i int) error {
		k := todo[i]
		var warm mcfsolve.WarmStart
		if seeds != nil {
			warm = seeds[k]
		}
		var res, full *mcfsolve.Result
		var err error
		switch {
		case rel.full != nil:
			res, full, err = s.SolveTargetFullCtx(ctx, rel.comms[k], rel.iso[k])
		case rel.iso != nil:
			res, err = s.SolveTargetCtx(ctx, rel.comms[k], rel.iso[k])
		default:
			res, err = s.SolveBaseWarmCtx(ctx, rel.comms[k], nil, warm)
		}
		if err != nil {
			return fmt.Errorf("interval %d: %w", k, err)
		}
		rel.results[k] = res
		if full != nil {
			rel.full[k] = full.Objective
		}
		if opts.Progress != nil {
			progMu.Lock()
			opts.Progress(ProgressEvent{
				Stage: "interval", Index: k, Total: len(rel.intervals), FWIters: res.Iters,
			})
			progMu.Unlock()
		}
		return nil
	})
	if err != nil {
		return err
	}
	for k, res := range rel.results {
		if res != nil {
			rel.fractional += res.Objective * rel.intervals[k].Length()
		}
	}
	return nil
}

// solveIntervals runs n independent interval solves, solve(s, 0) through
// solve(s, n-1), on min(opts.Parallelism, n) workers. Each worker holds one
// Solver — drawn from opts.Solvers when the pool is bound to this exact
// (graph, model, Solver options) triple, constructed from the compiled view
// otherwise — and pulls the next index from a shared atomic cursor, so a
// long interval never leaves the other workers idle. solve stores its own
// result; every caller reduces them in interval order afterwards.
//
// Once a solve fails no worker starts another, and the error returned is
// the lowest-index one: the cursor hands out indices in ascending order, so
// every index below a failed one was claimed, and finished, before it. That
// is the error a serial loop would stop at, whatever the worker count. A
// context that ends stops the fan-out within one Frank–Wolfe iteration
// (SolveBaseWarmCtx checks it at every iteration boundary) and surfaces the
// wrapped context error; callers return no partial result.
func solveIntervals(ctx context.Context, c *graph.Compiled, m power.Model, opts DCFSROptions, n int, solve func(s *mcfsolve.Solver, i int) error) error {
	if n == 0 {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	pool := opts.Solvers
	if pool != nil && !pool.Matches(c.Graph(), m, opts.Solver) {
		pool = nil
	}
	solvers := make([]*mcfsolve.Solver, max(1, min(opts.Parallelism, n)))
	if pool != nil {
		defer func() {
			for _, s := range solvers {
				pool.Release(s)
			}
		}()
	}
	for w := range solvers {
		var err error
		if pool != nil {
			solvers[w], err = pool.Acquire()
		} else {
			solvers[w], err = mcfsolve.NewSolverCompiled(c, m, opts.Solver)
		}
		if err != nil {
			return err
		}
	}

	errs := make([]error, n)
	var (
		next   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
	)
	for _, s := range solvers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if err := ctx.Err(); err != nil {
					errs[i] = fmt.Errorf("core: relaxation interrupted: %w", err)
				} else {
					errs[i] = solve(s, i)
				}
				if errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// LowerBoundCtx computes the paper's fractional relaxation value on its own
// — the normalisation denominator of Fig. 2 — without running the
// rounding: sum over intervals of |I_k| times the envelope-cost F-MCF
// Frank–Wolfe primal value at the last iterate, every interval solve
// running to Tol or the iteration cap. A primal value bounds the
// relaxation optimum from above, so this is not a certified bound (see
// DCFSRResult.LowerBound). The
// per-interval relaxation fan-out stops within one Frank–Wolfe iteration of
// ctx ending and the wrapped context error is returned instead of a partial
// bound.
func LowerBoundCtx(ctx context.Context, g *graph.Graph, flows *flow.Set, m power.Model, opts DCFSROptions) (float64, error) {
	if g == nil || flows == nil {
		return 0, fmt.Errorf("%w: nil graph or flows", ErrBadInput)
	}
	if err := m.Validate(); err != nil {
		return 0, fmt.Errorf("%w: %v", ErrBadInput, err)
	}
	rel, err := solveRelaxation(ctx, graph.Compile(g), flows, m, opts.withDefaults(), relaxFull)
	if err != nil {
		return 0, err
	}
	return rel.fractional, nil
}

// SolveDCFSRCtx runs the Random-Schedule approximation (Algorithm 2):
//
//  1. relax to a multi-step fractional MCF (one per interval I_k) and
//     solve each by convex programming (Frank–Wolfe), stopping an
//     interval's solve after 10 iterations once its primal value is at or
//     below iso_k, where the fractional bound no longer binds;
//  2. extract candidate paths Q_i per flow with per-interval weights
//     (Raghavan–Tompson decomposition, tracked natively by the solver);
//  3. aggregate time-weighted path probabilities
//     wbar_P = sum_k w_P(k) * |I_k| / (d_i - r_i);
//  4. for an integer alpha up to 8, round by conditional expectations
//     (see derandomize): in flow id order, fix each flow to the candidate
//     that minimises the expected energy while the unfixed flows stay
//     drawn from wbar, so the result is never above the expected energy of
//     the paper's random rounding; while the assignment violates link
//     capacities (and from the start for other alphas), draw one path per
//     flow from wbar, up to MaxRoundingAttempts draws, keeping the least
//     violation;
//  5. transmit each flow at its density D_i across its span on the chosen
//     path (per-interval link rate sum_j D_j, EDF time-shared at the
//     packet level — Theorem 4 guarantees every deadline is met).
//
// Cancellation is observed at every Frank–Wolfe iteration of every
// per-interval relaxation solve, so the call returns the wrapped context
// error within one iteration of ctx ending — never a partial result.
func SolveDCFSRCtx(ctx context.Context, in DCFSRInput) (*DCFSRResult, error) {
	res, _, err := solveDCFSR(ctx, in, relaxStop)
	return res, err
}

// SolveDCFSRWithFractionalCtx returns what SolveDCFSRCtx and LowerBoundCtx
// return for in, bit for bit, from one relaxation: each interval's
// Frank–Wolfe solve keeps its iterate where the stop rule would end it,
// for the rounding and the certified bound, and runs on to Tol or the
// iteration cap for the paper's fractional value. Fig. 2 and O1 report
// both, at the cost of one relaxation run to the cap.
func SolveDCFSRWithFractionalCtx(ctx context.Context, in DCFSRInput) (*DCFSRResult, float64, error) {
	res, rel, err := solveDCFSR(ctx, in, relaxBoth)
	if err != nil || rel == nil {
		return res, 0, err
	}
	var frac float64 // summed as solveIntervalRelaxation sums fractional
	for k, r := range rel.results {
		if r != nil {
			frac += rel.full[k] * rel.intervals[k].Length()
		}
	}
	return res, frac, nil
}

// solveDCFSR is SolveDCFSRCtx with the relaxation run as mode says (not
// relaxFull); it also returns the relaxation, nil for no flows.
func solveDCFSR(ctx context.Context, in DCFSRInput, mode relaxMode) (*DCFSRResult, *relaxation, error) {
	if in.Graph == nil || in.Flows == nil {
		return nil, nil, fmt.Errorf("%w: nil graph or flows", ErrBadInput)
	}
	if err := in.Model.Validate(); err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrBadInput, err)
	}
	compiled, err := compiledView(in.Compiled, in.Graph)
	if err != nil {
		return nil, nil, err
	}
	opts := in.Opts.withDefaults()

	t0, t1 := in.Flows.Horizon()
	horizon := timeline.Interval{Start: t0, End: t1}
	if in.Flows.Len() == 0 {
		return &DCFSRResult{Schedule: schedule.New(horizon), CapacityFeasible: true}, nil, nil
	}

	rel, err := solveRelaxation(ctx, compiled, in.Flows, in.Model, opts, mode)
	if err != nil {
		return nil, nil, err
	}

	flows := in.Flows.Flows()
	spans := make(map[flow.ID]float64, len(flows))
	for _, f := range flows {
		spans[f.ID] = f.Span()
	}
	interner := graph.NewPathInterner()
	cands := aggregateCandidates(rel, spans, interner)
	for _, f := range flows {
		if len(cands[f.ID]) == 0 {
			return nil, nil, fmt.Errorf("%w: flow %d received no candidate paths", ErrInfeasible, f.ID)
		}
	}

	// The derandomized assignment, where alpha allows it, is a first
	// attempt that MaxRoundingAttempts does not count: that budget is the
	// seeded random draws, which follow while the assignment violates link
	// capacities.
	var pick []graph.PathHandle
	firstDraw := 1
	if derandomizable(in.Model.Alpha) {
		pick, firstDraw = derandomize(flows, cands, interner, rel, in.Model, horizon.Length()), 2
	} else {
		pick = make([]graph.PathHandle, len(flows))
	}
	last := firstDraw - 1 + opts.MaxRoundingAttempts
	var (
		rng           *rand.Rand
		best          *schedule.Schedule
		bestViolation = math.Inf(1)
		bestMaxRate   float64
		feasibleFound bool
		attempts      int
	)
	capLimit := math.Inf(1)
	if in.Model.Capped() {
		capLimit = in.Model.C
	}

	for attempts = 1; attempts <= last; attempts++ {
		if attempts >= firstDraw {
			if rng == nil {
				rng = rand.New(rand.NewSource(opts.Seed))
			}
			for i, f := range flows {
				pick[i] = samplePath(rng, cands[f.ID])
			}
		}
		sched := schedule.New(horizon)
		for i, f := range flows {
			if err := sched.SetFlow(&schedule.FlowSchedule{
				FlowID: f.ID,
				Path:   interner.Path(pick[i]),
				Segments: []schedule.RateSegment{{
					Interval: timeline.Interval{Start: f.Release, End: f.Deadline},
					Rate:     f.Density(),
				}},
			}); err != nil {
				return nil, nil, fmt.Errorf("core: installing flow %d: %w", f.ID, err)
			}
		}
		maxRate := sched.MaxLinkRate()
		violation := math.Max(0, maxRate-capLimit)
		if violation <= capLimit*1e-9 {
			// A feasible assignment is accepted immediately — matching the
			// paper's "repeat until feasible" loop.
			best, bestMaxRate, feasibleFound = sched, maxRate, true
			break
		}
		// A violation that does not compare (a link sum that overflowed to
		// Inf - Inf) counts as infinite; the first attempt is kept when no
		// other compares.
		if math.IsNaN(violation) {
			violation = math.Inf(1)
		}
		if best == nil || violation < bestViolation {
			best, bestViolation, bestMaxRate = sched, violation, maxRate
		}
	}
	if attempts > last {
		attempts = last
	}
	best.AssignPriorities()
	out := &DCFSRResult{
		Schedule:            best,
		FractionalObjective: rel.fractional,
		Attempts:            attempts,
		CapacityFeasible:    feasibleFound,
		MaxRate:             bestMaxRate,
		Intervals:           len(rel.intervals),
		Lambda:              rel.lambda,
	}
	for k, res := range rel.results {
		if res == nil {
			continue
		}
		out.LowerBound += max(res.Bound, rel.iso[k]) * rel.intervals[k].Length()
		out.FWIters += res.Iters
		if res.TargetStop {
			out.BoundStops++
		}
	}
	return out, rel, nil
}

// aggregateCandidates builds, per flow, the time-weighted candidate path
// distribution wbar_P = sum_k w_P(k) * |I_k| / span of a solved relaxation
// (Algorithm 2, step 3). Paths from every interval result are interned once
// into the shared table, so per-flow candidate identity is an integer handle
// compare instead of a string key build. spans maps each flow to the span
// normalising its weights; flows absent from spans are skipped (the partial
// re-solve skips path-pinned flows this way). Candidates come back sorted by
// descending weight (path key as the deterministic tie-break), so the first
// entry is the modal path.
func aggregateCandidates(rel *relaxation, spans map[flow.ID]float64, interner *graph.PathInterner) map[flow.ID][]candidate {
	cands := make(map[flow.ID][]candidate, len(spans))
	for k, res := range rel.results {
		if res == nil {
			continue
		}
		ivLen := rel.intervals[k].Length()
		for ci, c := range rel.comms[k] {
			span, ok := spans[c.ID]
			if !ok {
				continue
			}
			list := cands[c.ID]
			for _, wp := range res.PathsByCommodity[ci] {
				frac := wp.Weight / c.Demand
				add := frac * ivLen / span
				h := interner.Intern(wp.Path.Edges)
				found := false
				for i := range list {
					if list[i].handle == h {
						list[i].weight += add
						found = true
						break
					}
				}
				if !found {
					list = append(list, candidate{handle: h, weight: add})
				}
			}
			cands[c.ID] = list
		}
	}
	// Deterministic candidate ordering per flow.
	for fid, list := range cands {
		sort.Slice(list, func(a, b int) bool {
			if list[a].weight != list[b].weight {
				return list[a].weight > list[b].weight
			}
			return graph.ComparePathKeys(interner.Edges(list[a].handle), interner.Edges(list[b].handle)) < 0
		})
		cands[fid] = list
	}
	return cands
}

// samplePath draws a path handle according to the aggregated weights (which
// sum to ~1; any drift is normalised). It performs no allocations.
func samplePath(rng *rand.Rand, list []candidate) graph.PathHandle {
	var total float64
	for _, c := range list {
		total += c.weight
	}
	u := rng.Float64() * total
	var acc float64
	for _, c := range list {
		acc += c.weight
		if u <= acc {
			return c.handle
		}
	}
	return list[len(list)-1].handle
}
