// Package mcfsolve solves the fractional multi-commodity flow problem
// (F-MCF, Definition 4) with convex per-link costs — the "convex
// programming" step of the Random-Schedule relaxation. The solver is a
// Frank–Wolfe (flow deviation) method whose linear oracle is a
// shortest-path computation under marginal-cost link weights; it therefore
// needs no external LP/convex toolbox.
//
// Because every Frank–Wolfe iteration routes each commodity's full demand
// onto a single path and then takes a convex combination, the iterates are
// by construction convex combinations of path flows. The solver tracks
// those combinations directly, yielding the weighted path decomposition of
// Raghavan–Tompson that Random-Schedule needs, with exact flow
// conservation.
//
// The hot path is engineered for the per-interval fan-out of
// Random-Schedule: the oracle runs over a flat CSR adjacency with
// indexed []float64 edge weights and epoch-reset scratch (zero allocations
// per Dijkstra tree after warm-up), paths are deduplicated by integer
// interning instead of string keys, every pass after the first weight fill
// runs over the edges the solve has put flow on, the exact line search
// probes only the edges whose flow actually changes and skips the probes
// whose sign rounding cannot flip, and a Solver can be reused
// across related instances, optionally warm-starting each solve from a
// neighbouring instance's path decomposition.
package mcfsolve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sort"

	"dcnflow/internal/flow"
	"dcnflow/internal/graph"
	"dcnflow/internal/power"
)

// Commodity is one demand to be routed fractionally.
type Commodity struct {
	// ID ties the commodity back to a flow.
	ID flow.ID
	// Src and Dst are the endpoints.
	Src, Dst graph.NodeID
	// Demand is the traffic load (the flow's density D_i in
	// Random-Schedule).
	Demand float64
}

// CostKind selects the per-link cost the solver minimises.
type CostKind int

const (
	// CostDynamic uses g(x) = mu * x^alpha: the speed-scaling relaxation of
	// Section V-A (idle power accounted separately after rounding).
	CostDynamic CostKind = iota + 1
	// CostEnvelope uses the convex lower envelope of the full power
	// function f: linear at rate Ropt's power rate up to r* = min(Ropt, C),
	// then f. Minimising it both drives consolidation onto few links and
	// yields a valid lower bound on any integral schedule.
	CostEnvelope
)

// Options tunes the solver.
type Options struct {
	// Cost selects the link cost; default CostEnvelope.
	Cost CostKind
	// MaxIters bounds Frank–Wolfe iterations; default 60.
	MaxIters int
	// Tol is the relative duality-gap stopping criterion; default 1e-3.
	Tol float64
	// CapacityPenalty adds penalty*(x-C)^2 above capacity, keeping the
	// linear oracle a plain shortest path. Zero disables; it defaults to
	// 10*mu*alpha*C^(alpha-2) when the model is capped.
	CapacityPenalty float64
	// OracleWorkers fans the per-source shortest-path runs of each
	// Frank–Wolfe iteration across this many goroutines. 0 or 1 keeps the
	// sweep sequential; a negative value means runtime.GOMAXPROCS(0).
	// Results are byte-identical at every worker count — the parallel sweep
	// merges in ascending-source order, so this knob trades only CPU for
	// single-solve latency on large fabrics.
	OracleWorkers int
}

func (o Options) withDefaults(m power.Model) Options {
	if o.Cost == 0 {
		o.Cost = CostEnvelope
	}
	if o.MaxIters <= 0 {
		o.MaxIters = 60
	}
	if o.Tol <= 0 {
		o.Tol = 1e-3
	}
	if o.CapacityPenalty == 0 && m.Capped() {
		o.CapacityPenalty = 10 * m.Mu * m.Alpha * math.Pow(m.C, m.Alpha-2)
	}
	return o
}

// WeightedPath is one path of a commodity's fractional decomposition.
type WeightedPath struct {
	Path graph.Path
	// Weight is in absolute demand units; the weights of one commodity sum
	// to its demand.
	Weight float64
}

// Result is the fractional solution.
type Result struct {
	// EdgeFlow is the aggregate rate x_e per directed edge (len =
	// g.NumEdges()).
	EdgeFlow []float64
	// PathsByCommodity holds, per input commodity (same order), its
	// weighted path decomposition.
	PathsByCommodity [][]WeightedPath
	// Objective is the final cost value (per unit time): the primal value
	// f(x) of the last iterate, which bounds the optimum from above.
	Objective float64
	// Gap is the absolute duality gap grad f(x) . (x - xHat) at the last
	// iterate the oracle ran on: the final iterate when the solve stopped
	// on Tol, the one before the last step when MaxIters or the target cut
	// it off. It is not relative; the Tol test divides it by the objective.
	Gap float64
	// Bound is a certified lower bound on the optimum: the best
	// f(x_t) - gap_t over the iterates the oracle ran on, less what the
	// oracle's hop bias can hide (biasWeight * total demand * (nodes - 1)),
	// clamped to [0, Objective] (NaN when Objective is). It holds up to the
	// rounding of the sums that compute f and the gap.
	Bound float64
	// Iters is the number of Frank–Wolfe iterations performed.
	Iters int
	// TargetStop reports that the solve ended on its target (see
	// SolveTargetCtx), not on Tol or MaxIters.
	TargetStop bool
}

// stopBudget is the number of iterations a solve with a target runs before
// the target may end it. The target is the point past which the solve's
// bound no longer binds; the iterations are what the rounding of
// Random-Schedule reads off the decomposition, and its energies at 10
// iterations matched those at 60 and 300 within 0.2% on the paper's
// Fig. 2 shape.
const stopBudget = 10

// biasWeight is the hop bias added to every oracle weight, which keeps
// zero-gradient regions deterministic and hop-minimal.
const biasWeight = 1e-12

// Errors returned by the solver.
var (
	ErrNoRoute  = errors.New("mcfsolve: commodity endpoints not connected")
	ErrBadInput = errors.New("mcfsolve: invalid input")
)

// costModel is the devirtualised per-link cost: the envelope kink and
// capacity penalty are folded into precomputed constants so the inner loops
// evaluate the cost with branches and multiplications only (no closure
// indirection, no math.Pow for the integer alphas the evaluation uses).
//
// Each Frank–Wolfe phase (weight fill, duality gap, objective, line-search
// probe) is one loop that evaluates the cost at w = base + x, where base is
// the background load of SolveBaseWarmCtx or zero. A lin model calls the
// inlinable linVal/linDeriv, any other model calls val/deriv. Without a
// background load the sums are those of the cost at x alone, bit for bit:
// 0 + x == x and cost(0) == 0 exactly. A lin model's phi' is affine in the
// step along a segment where the penalty stays off, which is what lets the
// line search skip probes (see lineFilter).
type costModel struct {
	m      power.Model
	useEnv bool
	// Envelope linearisation: for 0 <= x <= rStar the envelope is x*rate.
	// rStar <= 0 means the envelope degenerates to the dynamic cost g.
	rStar, rate float64
	// pen*(x-c)^2 is added above c (capacity penalty); without a penalty
	// c is +Inf, so the x > c test alone decides.
	pen, c float64
	// lin marks the alpha == 2, no-envelope-kink case, where val and deriv
	// reduce to mu*x^2 and dK*x (dK = alpha*mu) plus the penalty term.
	lin bool
	dK  float64
}

func makeCost(m power.Model, opts Options) costModel {
	cm := costModel{m: m, useEnv: opts.Cost == CostEnvelope, c: math.Inf(1)}
	if cm.useEnv {
		cm.rStar = m.EffectiveOpt()
		if cm.rStar > 0 {
			cm.rate = m.PowerRate(cm.rStar)
		}
	}
	if opts.CapacityPenalty > 0 && m.Capped() {
		cm.pen = opts.CapacityPenalty
		cm.c = m.C
	}
	cm.lin = m.Alpha == 2 && !(cm.useEnv && cm.rStar > 0)
	cm.dK = m.Alpha * m.Mu
	return cm
}

func (cm *costModel) val(x float64) float64 {
	var v float64
	switch {
	case x <= 0:
		v = 0
	case cm.useEnv && cm.rStar > 0:
		if x <= cm.rStar {
			v = x * cm.rate
		} else {
			v = cm.m.F(x)
		}
	default:
		v = cm.m.G(x)
	}
	if x > cm.c {
		d := x - cm.c
		v += cm.pen * d * d
	}
	return v
}

func (cm *costModel) deriv(x float64) float64 {
	var d float64
	if cm.useEnv && cm.rStar > 0 {
		xx := x
		if xx < 0 {
			xx = 0
		}
		if xx <= cm.rStar {
			d = cm.rate
		} else {
			d = cm.m.GDeriv(xx)
		}
	} else {
		d = cm.m.GDeriv(x)
	}
	if x > cm.c {
		d += 2 * cm.pen * (x - cm.c)
	}
	return d
}

// linVal and linDeriv are val and deriv of a lin model with mu = Mu and
// k = dK, in the same arithmetic and term order, so they return the same
// bits. They stay within the compiler's inlining budget (make inline-check),
// which val and deriv do not. c = +Inf drops the penalty term.
func linVal(x, mu, pen, c float64) float64 {
	var v float64
	if x > 0 {
		v = mu * (x * x)
	}
	if x > c {
		d := x - c
		v += pen * d * d
	}
	return v
}

func linDeriv(x, k, pen, c float64) float64 {
	var d float64
	if x > 0 {
		d = k * x
	}
	if x > c {
		d += 2 * pen * (x - c)
	}
	return d
}

// decomp is one commodity's running path decomposition, tracked by interned
// path handle.
type decomp struct {
	handles []graph.PathHandle
	weights []float64
}

func (d *decomp) reset() {
	d.handles = d.handles[:0]
	d.weights = d.weights[:0]
}

// add folds weight w onto path h.
func (d *decomp) add(h graph.PathHandle, w float64) {
	for i, have := range d.handles {
		if have == h {
			d.weights[i] += w
			return
		}
	}
	d.handles = append(d.handles, h)
	d.weights = append(d.weights, w)
}

// Solver is a reusable F-MCF solver bound to one graph and power model. It
// owns the shortest-path scratch, the edge-flow buffers and the path intern
// table, so consecutive solves (for example Random-Schedule's
// per-interval relaxations) allocate only their results. A Solver is not
// safe for concurrent use; run one per worker.
type Solver struct {
	g        *graph.Graph
	compiled *graph.Compiled
	m        power.Model
	opts     Options
	cost     costModel

	intern *graph.PathInterner
	orc    *oracle

	x       []float64     // current edge flow
	xNew    []float64     // oracle direction point
	zero    []float64     // all-zero background load of the base-free solves
	used    []uint64      // bitmap of the solve's edges (see solve)
	edges   []int32       // the bitmap's edge ids, ascending
	support []supportEdge // line-search delta support
	handles []graph.PathHandle
	decomps []decomp

	// fillHook, set only by tests, sees every weight fill and the weight
	// bound its sweep records.
	fillHook func(slotW []float64, minW float64)
}

// NewSolverCompiled validates the model and prepares reusable state for
// solving F-MCF instances on the compiled graph view c (graph.Compile) —
// the compile-once/solve-many entry point. The Solver borrows the compiled
// view; only its own scratch (edge-flow buffers, path intern table,
// shortest-path state) is allocated here, and a pooled Solver (see Pool)
// amortises even that across solves.
func NewSolverCompiled(c *graph.Compiled, m power.Model, opts Options) (*Solver, error) {
	if c == nil {
		return nil, fmt.Errorf("%w: nil compiled graph", ErrBadInput)
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadInput, err)
	}
	opts = opts.withDefaults(m)
	intern := graph.NewPathInterner()
	nE := c.Graph().NumEdges()
	// A negative worker count is resolved here rather than in withDefaults
	// so Options stays a stable comparable key for Pool.Matches regardless
	// of the machine's CPU count.
	workers := opts.OracleWorkers
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Solver{
		g:        c.Graph(),
		compiled: c,
		m:        m,
		opts:     opts,
		cost:     makeCost(m, opts),
		intern:   intern,
		orc:      newOracle(c, intern, workers),
		x:        make([]float64, nE),
		xNew:     make([]float64, nE),
		zero:     make([]float64, nE),
		used:     make([]uint64, (nE+63)/64),
	}, nil
}

// WarmStart seeds a solve from a previously solved, related instance: each
// commodity whose ID and endpoints match one of Commodities starts from
// that commodity's path decomposition in Result (weights rescaled to the
// new demand) instead of its hop-count shortest path. Commodities without a
// match fall back to the cold start. Both fields must come from the same
// graph as the Solver.
type WarmStart struct {
	Commodities []Commodity
	Result      *Result
}

// noTarget is the target of a solve that runs to Tol or MaxIters: no
// primal value is at or below it.
var noTarget = math.Inf(-1)

// Solve is a cold-started SolveBaseWarmCtx with no background load and no
// cancellation.
func (s *Solver) Solve(commodities []Commodity) (*Result, error) {
	return s.solve(context.Background(), commodities, nil, WarmStart{}, noTarget, nil)
}

// SolveTargetCtx is a cold-started SolveBaseWarmCtx with no background load
// that may also stop on target: from iteration stopBudget (10) on, it
// stops before the first iteration whose iterate's primal value is at or
// below target, and reports TargetStop. Tol and MaxIters end it as
// before, so with MaxIters at most stopBudget the target changes nothing.
//
// A caller passes the value past which the solve's Bound stops mattering
// to it: with exact line search the primal never rises, so once it is at
// or below target no later iterate could lift Bound above target either
// (Bound <= optimum <= primal).
func (s *Solver) SolveTargetCtx(ctx context.Context, commodities []Commodity, target float64) (*Result, error) {
	return s.solve(ctx, commodities, nil, WarmStart{}, target, nil)
}

// SolveTargetFullCtx runs one solve that answers both SolveTargetCtx and
// a cold SolveBaseWarmCtx with no background load: where the target would
// stop the solve, it keeps a copy of the Result there (at) and goes on to
// Tol or MaxIters (full). Both equal what those entry points return, bit
// for bit, because a target only ever ends a solve; when it never would,
// at and full are the same Result.
func (s *Solver) SolveTargetFullCtx(ctx context.Context, commodities []Commodity, target float64) (at, full *Result, err error) {
	full, err = s.solve(ctx, commodities, nil, WarmStart{}, target, &at)
	if err != nil {
		return nil, nil, err
	}
	if at == nil {
		at = full
	}
	return at, full, nil
}

// SolveBaseWarmCtx minimises sum_e cost(base_e + x_e) subject to routing
// every commodity's demand from Src to Dst (fractionally, multi-path),
// starting from hop-count shortest paths or, for the commodities warm
// matches, from a previous solve's decomposition (see WarmStart; a zero
// WarmStart is the cold start). The reported Objective is the marginal
// cost sum_e [cost(base_e + x_e) - cost(base_e)] of the routed flow on top
// of the background.
//
// A rolling-horizon delta re-solve uses the background load to route a
// small arrival batch against the load already reserved by thousands of
// in-flight flows without materialising those flows as commodities. The
// load shifts the operating point of the convex costs without entering the
// flow variables, so conservation and the path decomposition are
// untouched. base must have length NumEdges, or be nil for no background:
// every solve runs the same loops on base + x, and a zero base changes no
// bit (0 + x == x, cost(0) == 0).
//
// Cancellation is checked before the first Frank–Wolfe iteration and at
// every iteration boundary, so a solve stops within one iteration of ctx
// ending and returns the wrapped context error instead of a partial
// result. A nil ctx is treated as context.Background().
//
// A solve with a base costs one pass over every edge up front (it finds
// the edges whose cost or marginal cost at the base is not finite) plus
// the first weight fill; every later pass covers only the edges the solve
// routes over, so a small batch on a large fabric pays per iteration for
// the few dozen edges it touches, not for the whole load vector.
func (s *Solver) SolveBaseWarmCtx(ctx context.Context, commodities []Commodity, base []float64, warm WarmStart) (*Result, error) {
	if base != nil && len(base) != s.g.NumEdges() {
		return nil, fmt.Errorf("%w: base load has %d edges, graph has %d", ErrBadInput, len(base), s.g.NumEdges())
	}
	return s.solve(ctx, commodities, base, warm, noTarget, nil)
}

// solve is the one Frank–Wolfe implementation behind every entry point;
// base is nil or has length NumEdges. With at nil, reaching the target
// ends the solve; otherwise the Result there goes to *at and the solve
// runs on with no target.
func (s *Solver) solve(ctx context.Context, commodities []Commodity, base []float64, warm WarmStart, target float64, at **Result) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	for i, c := range commodities {
		if c.Demand <= 0 || math.IsNaN(c.Demand) {
			return nil, fmt.Errorf("%w: commodity %d demand %v", ErrBadInput, i, c.Demand)
		}
		if c.Src == c.Dst {
			return nil, fmt.Errorf("%w: commodity %d src == dst", ErrBadInput, i)
		}
		if !s.g.HasNode(c.Src) || !s.g.HasNode(c.Dst) {
			return nil, fmt.Errorf("%w: commodity %d endpoints unknown", ErrBadInput, i)
		}
	}
	nE := s.g.NumEdges()
	res := &Result{
		EdgeFlow:         make([]float64, nE),
		PathsByCommodity: make([][]WeightedPath, len(commodities)),
	}
	if len(commodities) == 0 {
		return res, nil
	}

	// Handles live for one solve, so the table holds this solve's paths
	// only: a pooled Solver's memory stays bounded however many solves it
	// serves. Handles are pure identities, so renumbering them each solve
	// changes no output.
	s.intern.Reset()
	s.orc.bind(commodities)
	if cap(s.handles) < len(commodities) {
		s.handles = make([]graph.PathHandle, len(commodities))
	}
	s.handles = s.handles[:len(commodities)]
	for len(s.decomps) < len(commodities) {
		s.decomps = append(s.decomps, decomp{})
	}
	for i := range commodities {
		s.decomps[i].reset()
	}

	x, xNew := s.x[:nE], s.xNew[:nE]
	clear(x)
	clear(xNew)
	clear(s.used)

	// One loop per phase, each evaluating the cost at w = base + x (see
	// costModel); the objective is the marginal cost over the base.
	cost := &s.cost
	lin, dK, mu, pen, capC := cost.lin, cost.dK, cost.m.Mu, cost.pen, cost.c
	if base == nil {
		base = s.zero[:nE]
	} else {
		// An edge whose cost or marginal cost at the base is not finite
		// adds NaN to the objective or the gap even without flow
		// (Inf - Inf, Inf * 0), so it joins the solve's edges up front.
		for eid, b := range base {
			var v, d float64
			if lin {
				v, d = linVal(b, mu, pen, capC), linDeriv(b, dK, pen, capC)
			} else {
				v, d = cost.val(b), cost.deriv(b)
			}
			if !finite(v) || !finite(d) {
				s.mark(graph.EdgeID(eid))
			}
		}
	}

	// Initial point: warm-started commodities reuse the neighbouring
	// decomposition; the rest take hop-count shortest paths carrying full
	// demand.
	cold := s.seedWarm(commodities, warm)
	if cold {
		slotW := s.orc.slotWeights()
		for i := range slotW {
			slotW[i] = 1
		}
		if err := s.orc.shortestPaths(commodities, s.handles, 1); err != nil {
			return nil, err
		}
		for i := range commodities {
			if s.decomps[i].handles != nil && len(s.decomps[i].handles) > 0 {
				continue // warm-started
			}
			h := s.handles[i]
			for _, eid := range s.intern.Edges(h) {
				x[eid] += commodities[i].Demand
				s.mark(eid)
			}
			s.decomps[i].add(h, commodities[i].Demand)
		}
	}

	// After the first weight fill, every pass runs over the solve's edges
	// only, in ascending id: the edges any path of this solve has put flow
	// on, plus those seeded above. Elsewhere x = xHat = 0 for the whole
	// solve, so a skipped term is an exact zero (cost(b) - cost(b), d * 0),
	// its weight never changes, and every sum adds the same non-zero terms
	// in the same order as a pass over all edges. A running sum starts at
	// +0 and so is never -0, and adding a zero of either sign to it
	// changes no bit.
	edges := s.solveEdges()
	objective := func(edges []int32) float64 {
		var sum float64
		for _, eid := range edges {
			b := base[eid]
			if lin {
				sum += linVal(b+x[eid], mu, pen, capC) - linVal(b, mu, pen, capC)
			} else {
				sum += cost.val(b+x[eid]) - cost.val(b)
			}
		}
		return sum
	}

	slotOf := s.orc.hot.EdgeSlots()
	var gap, firstLeast float64
	best := math.Inf(-1) // the best f(x_t) - gap_t so far
	iters := 0
	for iters = 0; iters < s.opts.MaxIters; iters++ {
		// Cancellation boundary: one Frank–Wolfe iteration is the promised
		// response granularity. A cancelled solve surfaces the context error
		// rather than the (valid but unconverged) iterate.
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("mcfsolve: solve interrupted at iteration %d: %w", iters, err)
		}
		// The oracle marks only edges with no flow yet, whose terms are
		// exact zeros, so this is also the objective over the edges after
		// its sweep, bit for bit.
		obj := objective(edges)
		if iters >= stopBudget && obj <= target {
			if at == nil {
				res.TargetStop = true
				break
			}
			*at = s.result(commodities, x, obj, gap, best, iters)
			(*at).TargetStop = true
			target = noTarget
		}
		// Marginal-cost weights (the hop bias keeps zero-gradient regions
		// deterministic and hop-minimal), computed straight into the
		// oracle's slot-ordered buffer, where each edge owns exactly one
		// slot. The first fill covers every edge, in slot order; it also
		// overwrites the cold start's hop weights and whatever a previous
		// solve left behind. Later fills refresh the solve's edges, and
		// every other slot keeps its first-fill weight, so the least weight
		// of the first fill and of this one bound every slot. A NaN stays
		// the least, as in graph.SSSPScratch.ScanWeights.
		slotW := s.orc.slotWeights()
		fill := edges
		if iters == 0 {
			fill = s.orc.slotEdges()
		}
		least := math.Inf(1)
		for _, eid := range fill {
			w := base[eid] + x[eid]
			var d float64
			if lin {
				d = linDeriv(w, dK, pen, capC)
			} else {
				d = cost.deriv(w)
			}
			wt := d + biasWeight
			slotW[slotOf[eid]] = wt
			if wt < least || wt != wt {
				least = wt
			}
		}
		if iters == 0 {
			firstLeast = least
		}
		minW := min(firstLeast, least)
		if s.fillHook != nil {
			s.fillHook(slotW, minW)
		}
		if err := s.orc.shortestPaths(commodities, s.handles, minW); err != nil {
			return nil, err
		}
		// Direction point: all demand on the oracle paths. The previous
		// direction lies on the solve's edges, so clearing those clears it.
		for _, eid := range edges {
			xNew[eid] = 0
		}
		for i := range commodities {
			for _, eid := range s.intern.Edges(s.handles[i]) {
				xNew[eid] += commodities[i].Demand
				s.mark(eid)
			}
		}
		edges = s.solveEdges()
		// Duality gap: grad(x) . (x - xHat).
		gap = 0
		for _, eid := range edges {
			xv := x[eid]
			w := base[eid] + xv
			var d float64
			if lin {
				d = linDeriv(w, dK, pen, capC)
			} else {
				d = cost.deriv(w)
			}
			gap += d * (xv - xNew[eid])
		}
		if v := obj - gap; v > best {
			best = v
		}
		if obj > 0 && gap/obj < s.opts.Tol {
			break
		}
		// Exact line search on the convex 1-D restriction.
		gamma := s.lineSearch(x, xNew, base, edges)
		if gamma <= 1e-12 {
			break
		}
		for _, eid := range edges {
			x[eid] = (1-gamma)*x[eid] + gamma*xNew[eid]
		}
		// Fold the step into the path decomposition.
		for i := range commodities {
			d := &s.decomps[i]
			for j := range d.weights {
				d.weights[j] *= 1 - gamma
			}
			d.add(s.handles[i], gamma*commodities[i].Demand)
		}
	}

	s.fill(res, commodities, x, objective(edges), gap, best, iters)
	return res, nil
}

// result returns a new Result for the solve's state after iters
// iterations (see fill).
func (s *Solver) result(commodities []Commodity, x []float64, obj, gap, best float64, iters int) *Result {
	res := &Result{
		EdgeFlow:         make([]float64, len(x)),
		PathsByCommodity: make([][]WeightedPath, len(commodities)),
	}
	s.fill(res, commodities, x, obj, gap, best, iters)
	return res
}

// fill records the solve's state in res: the iterate x, its primal value
// obj, the last gap, the best f(x_t) - gap_t and the decompositions.
func (s *Solver) fill(res *Result, commodities []Commodity, x []float64, obj, gap, best float64, iters int) {
	copy(res.EdgeFlow, x)
	res.Objective = obj
	res.Gap = gap
	res.Iters = iters
	// The oracle minimises grad f + biasWeight per edge, so its direction's
	// linear value is within biasWeight times the flow volume of the true
	// minimiser's, a simple path per commodity: at most nodes - 1 hops.
	var demand float64
	for _, c := range commodities {
		demand += c.Demand
	}
	res.Bound = max(0, min(best-biasWeight*demand*float64(s.g.NumNodes()-1), res.Objective))
	for i := range commodities {
		res.PathsByCommodity[i] = s.emit(&s.decomps[i], commodities[i].Demand)
	}
}

// seedWarm installs warm-start decompositions for every matchable commodity
// and reports whether any commodity still needs the cold start.
func (s *Solver) seedWarm(commodities []Commodity, warm WarmStart) (cold bool) {
	if warm.Result == nil || len(warm.Commodities) != len(warm.Result.PathsByCommodity) {
		return true
	}
	prevByID := make(map[flow.ID]int, len(warm.Commodities))
	for i, c := range warm.Commodities {
		if _, dup := prevByID[c.ID]; !dup {
			prevByID[c.ID] = i
		}
	}
	x := s.x[:s.g.NumEdges()]
	for i, c := range commodities {
		pi, ok := prevByID[c.ID]
		if !ok {
			cold = true
			continue
		}
		prev := warm.Commodities[pi]
		wps := warm.Result.PathsByCommodity[pi]
		if prev.Src != c.Src || prev.Dst != c.Dst || prev.Demand <= 0 || len(wps) == 0 {
			cold = true
			continue
		}
		scale := c.Demand / prev.Demand
		ok = true
		for _, wp := range wps {
			if !s.validPath(wp.Path.Edges, c.Src, c.Dst) {
				ok = false
				break
			}
		}
		if !ok {
			cold = true
			continue
		}
		d := &s.decomps[i]
		for _, wp := range wps {
			w := wp.Weight * scale
			d.add(s.intern.Intern(wp.Path.Edges), w)
			for _, eid := range wp.Path.Edges {
				x[eid] += w
				s.mark(eid)
			}
		}
	}
	return cold
}

// mark adds edge eid to the solve's edges.
func (s *Solver) mark(eid graph.EdgeID) { s.used[eid>>6] |= 1 << (eid & 63) }

// solveEdges lists the solve's edges in ascending id.
func (s *Solver) solveEdges() []int32 {
	s.edges = s.edges[:0]
	for wi, w := range s.used {
		for ; w != 0; w &= w - 1 {
			s.edges = append(s.edges, int32(wi<<6|bits.TrailingZeros64(w)))
		}
	}
	return s.edges
}

// finite reports whether v is neither infinite nor NaN.
func finite(v float64) bool { return v-v == 0 }

// validPath cheaply checks that edges is a connected src->dst walk in the
// Solver's graph (warm starts from a foreign or stale graph are rejected).
func (s *Solver) validPath(edges []graph.EdgeID, src, dst graph.NodeID) bool {
	if len(edges) == 0 {
		return false
	}
	cur := src
	for _, eid := range edges {
		e, err := s.g.Edge(eid)
		if err != nil || e.From != cur {
			return false
		}
		cur = e.To
	}
	return cur == dst
}

// minPathWeight is the fraction of a commodity's demand below which emit
// prunes a decomposition path.
const minPathWeight = 1e-6

// emit prunes, renormalises and deterministically orders one commodity's
// decomposition into the exported WeightedPath form.
func (s *Solver) emit(d *decomp, demand float64) []WeightedPath {
	minW := minPathWeight * demand
	var kept []WeightedPath
	var total float64
	for j, w := range d.weights {
		if w >= minW {
			kept = append(kept, WeightedPath{Path: s.intern.Path(d.handles[j]), Weight: w})
			total += w
		}
	}
	// Renormalise pruned mass back onto the kept paths.
	if total > 0 {
		scale := demand / total
		for j := range kept {
			kept[j].Weight *= scale
		}
	}
	sort.Slice(kept, func(a, b int) bool {
		if kept[a].Weight != kept[b].Weight {
			return kept[a].Weight > kept[b].Weight
		}
		return graph.ComparePathKeys(kept[a].Path.Edges, kept[b].Path.Edges) < 0
	})
	return kept
}

// supportEdge is one edge of the line search's delta support, gathered
// once per search so the probes read contiguous memory: the edge's flow at
// the current point and at the oracle direction, its background load, and
// the direction's change xHat - x.
type supportEdge struct{ x, xHat, base, dx float64 }

// lineSearch minimises phi(gamma) = sum_e cost(base + (1-gamma) x + gamma
// xHat) over [0, 1]. Only edges with x != xHat contribute to phi', and
// those are among the solve's edges, so the search first collects that
// delta support from edges and then bisects the monotone derivative over
// it (see bisect).
func (s *Solver) lineSearch(x, xHat, base []float64, edges []int32) float64 {
	cost := &s.cost
	support := s.support[:0]
	// penActive: the capacity penalty kicks in somewhere on the segment
	// for some support edge, so the restriction picks up extra kinks.
	penActive := false
	for _, eid := range edges {
		if x[eid] != xHat[eid] {
			support = append(support, supportEdge{x: x[eid], xHat: xHat[eid], base: base[eid], dx: xHat[eid] - x[eid]})
			if base[eid]+x[eid] > cost.c || base[eid]+xHat[eid] > cost.c {
				penActive = true
			}
		}
	}
	s.support = support
	if len(support) == 0 {
		return 0
	}
	gamma, _ := s.bisect(support, penActive)
	return gamma
}

// bisect returns the minimiser of phi on [0, 1] for a non-empty delta
// support, by 50 bisection steps on the sign of phi' after deciding both
// ends, and how many times it evaluated phi'. penActive reports whether the
// capacity penalty switches on anywhere on the segment.
//
// A step needs only the sign of phiDeriv(mid), and so do the two ends. For
// a lin model with the penalty inactive, phi'(gamma) = a + gamma*b up to
// rounding, and lineFilter bounds that rounding by tol: where
// |a + mid*b| > tol, phiDeriv(mid) is non-zero with the same sign, so the
// search takes the same branch without evaluating it. Every other model
// gets tol = +Inf and evaluates every probe. Either way the search makes
// the decisions, and returns the gamma, of the plain bisection.
func (s *Solver) bisect(support []supportEdge, penActive bool) (gamma float64, probes int) {
	cost := &s.cost
	// With the penalty inactive on the whole segment, a lin probe drops its
	// term: every probe point lies between base + x and base + xHat, hence
	// at most c, up to one ulp of rounding that the generic deriv would
	// still charge.
	lin, dK, pen, capC := cost.lin, cost.dK, cost.pen, cost.c
	if !penActive {
		capC = math.Inf(1)
	}
	phiDeriv := func(gamma float64) float64 {
		probes++
		var d float64
		g1 := 1 - gamma
		for i := range support {
			e := &support[i]
			w := e.base + (g1*e.x + gamma*e.xHat)
			var dv float64
			if lin {
				dv = linDeriv(w, dK, pen, capC)
			} else {
				dv = cost.deriv(w)
			}
			d += dv * e.dx
		}
		return d
	}
	a, b, tol := 0.0, 0.0, math.Inf(1)
	if lin && !penActive {
		a, b, tol = lineFilter(support, dK)
	}
	// sign returns a value with the sign of phiDeriv(gamma), zero where it
	// is zero.
	sign := func(gamma float64) float64 {
		if t := a + gamma*b; t > tol || t < -tol {
			return t
		}
		return phiDeriv(gamma)
	}
	if sign(0) >= 0 {
		return 0, probes
	}
	if sign(1) <= 0 {
		return 1, probes
	}
	lo, hi := 0.0, 1.0
	for i := 0; i < 50; i++ {
		mid := (lo + hi) / 2
		if sign(mid) < 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, probes
}

// lineFilter returns, for a lin model (k = dK) with the penalty inactive,
// the coefficients of phi'(gamma) = a + gamma*b and a bound tol on
// |phiDeriv(mid) - fl(a + mid*b)| that holds at every mid in [0, 1]. tol is
// +Inf where no bound is derived.
//
// Notation: n = len(support), u = 2^-53, eta = 2^-1075 (the error of a
// product that rounds into the subnormal range; sums are exact there),
// gamma_m = m*u/(1-m*u) <= 2*m*u. Per support edge: base b_e, x, h = xHat,
// d = dx = fl(h - x), H = b_e + max(x, h). M = k * sum H*|d|, S = sum |d|.
// The bound needs b_e, x, h >= 0, which flows are; a negative base (the
// residue of a cancelled reservation) turns the filter off. Then the probe
// point w = b_e + (1-mid)*x + mid*h is a sum of non-negative terms in
// [b_e, H], linDeriv(w) = k*w (w never crosses its kink at 0), and no
// rounding error cancels against another.
//
//   - phiDeriv(mid): fl(1-mid), the two products, their sum and the add of
//     b_e put w within gamma_5 of W = b_e + (1-mid)x + mid*h; k*w and the
//     product with d add two roundings; the n-term sum adds gamma_{n-1} of
//     sum |term|. Since W <= H, the total is within gamma_{n+6}*M of
//     sum k*W*d, plus eta*(2k|d| + |d| + 1) per edge for products that
//     rounded to subnormals (the two products inside w are scaled by k|d|
//     on the way out, k*w by |d|).
//   - sum k*W*d = A + mid*B' with A = sum k(b_e+x)d and B' = sum k(h-x)d.
//     h - x = d(1+delta) with |delta| <= u, so B' is within gamma_1*B of
//     B = sum k*d^2 <= (1+u)M.
//   - a = fl(sum k*(b_e+x)*d) is within gamma_{n+2}*M of A, and b =
//     fl(sum k*d*d) within gamma_{n+1}*B of B, each plus eta*(|d| + 1) per
//     edge; fl(a + fl(mid*b)) rounds twice more on |a| + |b| <= 2.01*M,
//     plus eta for mid*b.
//
// Altogether |phiDeriv(mid) - fl(a + mid*b)| <= gamma_{3n+15}*M +
// 1.02*eta*((2k+3)S + 3n + 1). The computed M is within gamma_{n+2} of
// the exact one, so the exact M is at most twice it, and tol =
// 4(3n+16)*u*M + 4*eta*(k+3)(S+n+1) covers both terms with room for the
// roundings of tol itself. A fused multiply-add only removes roundings,
// so the bound holds wherever the compiler fuses. The filter is also off
// when M < 2^-900, where the relative term nears the subnormal range, and
// when max(k, 1) * max H reaches 2^1000, where a probe could overflow
// while a + mid*b does not; NaN fails both tests.
func lineFilter(support []supportEdge, k float64) (a, b, tol float64) {
	var m, sAbs, hMax float64
	for i := range support {
		e := &support[i]
		if e.base < 0 || e.x < 0 || e.xHat < 0 {
			return 0, 0, math.Inf(1)
		}
		h := e.base + max(e.x, e.xHat)
		ad := math.Abs(e.dx)
		a += k * (e.base + e.x) * e.dx
		b += k * e.dx * e.dx
		m += h * ad
		sAbs += ad
		hMax = max(hMax, h)
	}
	m *= k
	if !(m >= 0x1p-900 && m < 0x1p1000 && max(k, 1)*hMax < 0x1p1000) {
		return 0, 0, math.Inf(1)
	}
	n := float64(len(support))
	return a, b, 4*(3*n+16)*0x1p-53*m + (k+3)*(sAbs+n+1)*0x1p-1073
}
