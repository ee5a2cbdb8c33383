package mcfsolve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dcnflow/internal/flow"
	"dcnflow/internal/graph"
	"dcnflow/internal/power"
	"dcnflow/internal/topology"
)

// refSolver runs the Frank–Wolfe loop as it was written before each phase
// became one loop: the weight fill, duality gap, objective and line-search
// probe each in four hand-specialised copies ({background load, none} x
// {inline alpha=2, generic call}), with the background load carried in a
// field for the duration of one solve. SolveWarmCtx, lineSearch and the
// cost methods below are that code verbatim, apart from the line-search
// counters and the support recorder marked "coverage". The embedded Solver
// lends the shared pieces: the oracle, the intern table, the flow buffers,
// seedWarm and emit.
type refSolver struct {
	*Solver
	cost    refCostModel
	base    []float64
	support []int32 // line-search delta support (edge ids)

	// coverage: line searches run, and how many had the penalty active;
	// with record set, every search's delta support in the Solver's form.
	searches, penSearches int
	record                bool
	recorded              []recordedSearch
}

// recordedSearch is one line search's input as Solver.bisect takes it.
type recordedSearch struct {
	support   []supportEdge
	penActive bool
}

func newRefSolver(g *graph.Graph, m power.Model, opts Options) (*refSolver, error) {
	s, err := NewSolverCompiled(graph.Compile(g), m, opts)
	if err != nil {
		return nil, err
	}
	return &refSolver{Solver: s, cost: makeRefCost(m, s.opts)}, nil
}

type refCostModel struct {
	m      power.Model
	useEnv bool
	// Envelope linearisation: for 0 <= x <= rStar the envelope is x*rate.
	// rStar <= 0 means the envelope degenerates to the dynamic cost g.
	rStar, rate float64
	// pen > 0 adds pen*(x-c)^2 above c (capacity penalty).
	pen, c float64
	// lin marks the alpha == 2, no-envelope-kink case: val and deriv then
	// reduce to gMu*x^2 and dK*x (plus the penalty term), evaluated inline
	// with the exact same rounding as the generic path but without any
	// function calls. dK = alpha*mu, gMu = mu.
	lin     bool
	dK, gMu float64
}

func makeRefCost(m power.Model, opts Options) refCostModel {
	cm := refCostModel{m: m, useEnv: opts.Cost == CostEnvelope}
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
	cm.gMu = m.Mu
	return cm
}

func (cm *refCostModel) val(x float64) float64 {
	if cm.lin {
		var v float64
		if x > 0 {
			v = cm.gMu * (x * x)
		}
		if cm.pen > 0 && x > cm.c {
			d := x - cm.c
			v += cm.pen * d * d
		}
		return v
	}
	return cm.valSlow(x)
}

func (cm *refCostModel) valSlow(x float64) float64 {
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
	if cm.pen > 0 && x > cm.c {
		d := x - cm.c
		v += cm.pen * d * d
	}
	return v
}

func (cm *refCostModel) deriv(x float64) float64 {
	if cm.lin {
		var d float64
		if x > 0 {
			d = cm.dK * x
		}
		if cm.pen > 0 && x > cm.c {
			d += 2 * cm.pen * (x - cm.c)
		}
		return d
	}
	return cm.derivSlow(x)
}

func (cm *refCostModel) derivSlow(x float64) float64 {
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
	if cm.pen > 0 && x > cm.c {
		d += 2 * cm.pen * (x - cm.c)
	}
	return d
}

func (s *refSolver) SolveBaseWarmCtx(ctx context.Context, commodities []Commodity, base []float64, warm WarmStart) (*Result, error) {
	if base != nil && len(base) != s.g.NumEdges() {
		return nil, fmt.Errorf("%w: base load has %d edges, graph has %d", ErrBadInput, len(base), s.g.NumEdges())
	}
	s.base = base
	defer func() { s.base = nil }()
	return s.SolveWarmCtx(ctx, commodities, warm)
}

func (s *refSolver) SolveWarmCtx(ctx context.Context, commodities []Commodity, warm WarmStart) (*Result, error) {
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

	x := s.x[:nE]
	for i := range x {
		x[i] = 0
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
			}
			s.decomps[i].add(h, commodities[i].Demand)
		}
	}

	// The full-sweep loops below (objective, weights, gap) specialise the
	// common linear-derivative case (alpha == 2, no envelope kink) so the
	// cost evaluates inline; arithmetic and term order match the generic
	// cost.val/cost.deriv calls exactly, keeping the sums bit-identical.
	// With a background load (SolveBaseWarmCtx) every loop instead takes a
	// dedicated offset branch, specialised the same way, that evaluates the
	// cost at base + x; the base-free paths stay byte-for-byte untouched,
	// and the objective is then the marginal cost over the base.
	cost := &s.cost
	base := s.base
	lin, dK, gMu, pen, capC := cost.lin, cost.dK, cost.gMu, cost.pen, cost.c
	objective := func(v []float64) float64 {
		var sum float64
		if base != nil && lin {
			for eid, xv := range v {
				b := base[eid]
				w := b + xv
				var cw, cb float64
				if w > 0 {
					cw = gMu * (w * w)
				}
				if pen > 0 && w > capC {
					d := w - capC
					cw += pen * d * d
				}
				if b > 0 {
					cb = gMu * (b * b)
				}
				if pen > 0 && b > capC {
					d := b - capC
					cb += pen * d * d
				}
				sum += cw - cb
			}
			return sum
		}
		if base != nil {
			for eid, xv := range v {
				sum += cost.val(base[eid]+xv) - cost.val(base[eid])
			}
			return sum
		}
		if lin {
			for _, xv := range v {
				var cv float64
				if xv > 0 {
					cv = gMu * (xv * xv)
				}
				if pen > 0 && xv > capC {
					d := xv - capC
					cv += pen * d * d
				}
				sum += cv
			}
			return sum
		}
		for _, xv := range v {
			sum += cost.val(xv)
		}
		return sum
	}

	xNew := s.xNew[:nE]
	var gap float64
	iters := 0
	for iters = 0; iters < s.opts.MaxIters; iters++ {
		// Cancellation boundary: one Frank–Wolfe iteration is the promised
		// response granularity. A cancelled solve surfaces the context error
		// rather than the (valid but unconverged) iterate.
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("mcfsolve: solve interrupted at iteration %d: %w", iters, err)
		}
		// Marginal-cost weights (tiny hop bias keeps zero-gradient regions
		// deterministic and hop-minimal), computed straight into the
		// oracle's slot-ordered buffer: each edge owns exactly one
		// adjacency slot, so the values match an edge-indexed fill
		// bit-for-bit.
		slotW := s.orc.slotWeights()
		slotEdges := s.orc.slotEdges()
		if base != nil && lin {
			for i, eid := range slotEdges {
				w := base[eid] + x[eid]
				var d float64
				if w > 0 {
					d = dK * w
				}
				if pen > 0 && w > capC {
					d += 2 * pen * (w - capC)
				}
				slotW[i] = d + 1e-12
			}
		} else if base != nil {
			for i, eid := range slotEdges {
				slotW[i] = cost.deriv(base[eid]+x[eid]) + 1e-12
			}
		} else if lin {
			for i, eid := range slotEdges {
				xv := x[eid]
				var d float64
				if xv > 0 {
					d = dK * xv
				}
				if pen > 0 && xv > capC {
					d += 2 * pen * (xv - capC)
				}
				slotW[i] = d + 1e-12
			}
		} else {
			for i, eid := range slotEdges {
				slotW[i] = cost.deriv(x[eid]) + 1e-12
			}
		}
		if err := s.orc.shortestPaths(commodities, s.handles, s.orc.sssp.ScanWeights()); err != nil {
			return nil, err
		}
		// Direction point: all demand on the oracle paths.
		for i := range xNew {
			xNew[i] = 0
		}
		for i := range commodities {
			for _, eid := range s.intern.Edges(s.handles[i]) {
				xNew[eid] += commodities[i].Demand
			}
		}
		// Duality gap: grad(x) . (x - xHat).
		gap = 0
		if base != nil && lin {
			for eid, xv := range x {
				w := base[eid] + xv
				var d float64
				if w > 0 {
					d = dK * w
				}
				if pen > 0 && w > capC {
					d += 2 * pen * (w - capC)
				}
				gap += d * (xv - xNew[eid])
			}
		} else if base != nil {
			for eid := range x {
				gap += cost.deriv(base[eid]+x[eid]) * (x[eid] - xNew[eid])
			}
		} else if lin {
			for eid, xv := range x {
				var d float64
				if xv > 0 {
					d = dK * xv
				}
				if pen > 0 && xv > capC {
					d += 2 * pen * (xv - capC)
				}
				gap += d * (xv - xNew[eid])
			}
		} else {
			for eid := range x {
				gap += cost.deriv(x[eid]) * (x[eid] - xNew[eid])
			}
		}
		obj := objective(x)
		if obj > 0 && gap/obj < s.opts.Tol {
			break
		}
		// Exact line search on the convex 1-D restriction.
		gamma := s.lineSearch(x, xNew)
		if gamma <= 1e-12 {
			break
		}
		for eid := range x {
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

	copy(res.EdgeFlow, x)
	res.Objective = objective(x)
	res.Gap = gap
	res.Iters = iters
	for i := range commodities {
		res.PathsByCommodity[i] = s.emit(&s.decomps[i], commodities[i].Demand)
	}
	return res, nil
}

func (s *refSolver) lineSearch(x, xHat []float64) float64 {
	cost := &s.cost
	base := s.base
	support := s.support[:0]
	// penActive: the capacity penalty kicks in somewhere on the segment
	// for some support edge, so the restriction picks up extra kinks.
	// With a background load the cost is evaluated at base + v, so the
	// test looks at base + x and base + xHat.
	penActive := false
	for eid := range x {
		if x[eid] != xHat[eid] {
			support = append(support, int32(eid))
			lo, hi := x[eid], xHat[eid]
			if base != nil {
				lo, hi = base[eid]+lo, base[eid]+hi
			}
			if cost.pen > 0 && (lo > cost.c || hi > cost.c) {
				penActive = true
			}
		}
	}
	s.support = support
	if len(support) == 0 {
		return 0
	}
	// coverage
	s.searches++
	if penActive {
		s.penSearches++
	}
	if s.record {
		rec := recordedSearch{penActive: penActive}
		for _, ei := range support {
			var b float64
			if base != nil {
				b = base[ei]
			}
			rec.support = append(rec.support, supportEdge{x: x[ei], xHat: xHat[ei], base: b, dx: xHat[ei] - x[ei]})
		}
		s.recorded = append(s.recorded, rec)
	}
	// The probe loop is the line search's hot spot; specialise the common
	// linear-derivative case (alpha == 2, penalty inactive on the whole
	// segment: every probe point v lies between x and xHat, hence below c,
	// and likewise base + v) so the derivative evaluates inline. Term order
	// and arithmetic match the generic loops exactly, so both produce
	// bit-identical sums.
	linProbe := cost.lin && !penActive
	phiDeriv := func(gamma float64) float64 {
		var d float64
		if linProbe && base != nil {
			dK := cost.dK
			for _, ei := range support {
				w := base[ei] + ((1-gamma)*x[ei] + gamma*xHat[ei])
				var dv float64
				if w > 0 {
					dv = dK * w
				}
				d += dv * (xHat[ei] - x[ei])
			}
			return d
		}
		if base != nil {
			for _, ei := range support {
				v := (1-gamma)*x[ei] + gamma*xHat[ei]
				d += cost.deriv(base[ei]+v) * (xHat[ei] - x[ei])
			}
			return d
		}
		if linProbe {
			dK := cost.dK
			for _, ei := range support {
				v := (1-gamma)*x[ei] + gamma*xHat[ei]
				var dv float64
				if v > 0 {
					dv = dK * v
				}
				d += dv * (xHat[ei] - x[ei])
			}
			return d
		}
		for _, ei := range support {
			v := (1-gamma)*x[ei] + gamma*xHat[ei]
			d += cost.deriv(v) * (xHat[ei] - x[ei])
		}
		return d
	}
	phi0 := phiDeriv(0)
	if phi0 >= 0 {
		return 0
	}
	phi1 := phiDeriv(1)
	if phi1 <= 0 {
		return 1
	}
	lo, hi := 0.0, 1.0
	for i := 0; i < 50; i++ {
		mid := (lo + hi) / 2
		if phiDeriv(mid) < 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// kernelCase is one power model and cost kind of the differential grid.
type kernelCase struct {
	name   string
	model  power.Model
	cost   CostKind
	capped bool // loads are scaled around C so the penalty switches on
}

// kernelCases covers every branch of the cost: the inline alpha=2 helpers
// (sigma = 0, or sigma > 0 under CostDynamic), the generic cost at alpha=3
// and at the alpha=2 envelope kink, and capped models whose capacity
// penalty switches on inside line searches.
func kernelCases() []kernelCase {
	var cases []kernelCase
	models := []struct {
		name   string
		m      power.Model
		capped bool
	}{
		{"a2", power.Model{Mu: 1, Alpha: 2}, false},
		{"a3", power.Model{Mu: 0.5, Alpha: 3}, false},
		{"a2-sigma", power.Model{Sigma: 2, Mu: 1, Alpha: 2}, false},
		{"a2-capped", power.Model{Mu: 1, Alpha: 2, C: 4}, true},
		{"a3-sigma-capped", power.Model{Sigma: 1, Mu: 1, Alpha: 3, C: 4}, true},
		{"a2-sigma-capped", power.Model{Sigma: 4, Mu: 1, Alpha: 2, C: 4}, true},
	}
	for _, md := range models {
		for _, ck := range []struct {
			name string
			kind CostKind
		}{{"env", CostEnvelope}, {"dyn", CostDynamic}} {
			cases = append(cases, kernelCase{name: md.name + "/" + ck.name, model: md.m, cost: ck.kind, capped: md.capped})
		}
	}
	return cases
}

// randomKernelInstance draws a commodity set on the given hosts and a
// background load. Capped cases draw demands and loads around C = 4, so
// some edges sit above capacity and others cross it inside a line search.
func randomKernelInstance(rng *rand.Rand, g *graph.Graph, hosts []graph.NodeID, capped bool) ([]Commodity, []float64) {
	n := 3 + rng.Intn(12)
	comms := make([]Commodity, 0, n)
	for len(comms) < n {
		src, dst := hosts[rng.Intn(len(hosts))], hosts[rng.Intn(len(hosts))]
		if src == dst {
			continue
		}
		d := 0.1 + 2*rng.Float64()
		comms = append(comms, Commodity{ID: flow.ID(len(comms)), Src: src, Dst: dst, Demand: d})
	}
	base := make([]float64, g.NumEdges())
	for i := range base {
		switch r := rng.Float64(); {
		case capped && r < 0.03:
			base[i] = 4 + rng.Float64()
		case r < 0.6:
			base[i] = 3 * rng.Float64()
		}
	}
	return comms, base
}

// sameResult reports the first difference between two results, comparing
// every float by its bits.
func sameResult(a, b *Result) error {
	if math.Float64bits(a.Objective) != math.Float64bits(b.Objective) {
		return fmt.Errorf("objective %v vs %v", a.Objective, b.Objective)
	}
	if math.Float64bits(a.Gap) != math.Float64bits(b.Gap) {
		return fmt.Errorf("gap %v vs %v", a.Gap, b.Gap)
	}
	if a.Iters != b.Iters {
		return fmt.Errorf("iters %d vs %d", a.Iters, b.Iters)
	}
	if len(a.EdgeFlow) != len(b.EdgeFlow) {
		return fmt.Errorf("edge flow length %d vs %d", len(a.EdgeFlow), len(b.EdgeFlow))
	}
	for e := range a.EdgeFlow {
		if math.Float64bits(a.EdgeFlow[e]) != math.Float64bits(b.EdgeFlow[e]) {
			return fmt.Errorf("edge %d flow %v vs %v", e, a.EdgeFlow[e], b.EdgeFlow[e])
		}
	}
	if len(a.PathsByCommodity) != len(b.PathsByCommodity) {
		return fmt.Errorf("%d vs %d decompositions", len(a.PathsByCommodity), len(b.PathsByCommodity))
	}
	for i := range a.PathsByCommodity {
		pa, pb := a.PathsByCommodity[i], b.PathsByCommodity[i]
		if len(pa) != len(pb) {
			return fmt.Errorf("commodity %d: %d vs %d paths", i, len(pa), len(pb))
		}
		for j := range pa {
			if math.Float64bits(pa[j].Weight) != math.Float64bits(pb[j].Weight) ||
				graph.ComparePathKeys(pa[j].Path.Edges, pb[j].Path.Edges) != 0 {
				return fmt.Errorf("commodity %d path %d: %v@%v vs %v@%v", i, j,
					pa[j].Path.Edges, pa[j].Weight, pb[j].Path.Edges, pb[j].Weight)
			}
		}
	}
	return nil
}

// TestSolveBaseMatchesReference is the differential test of the Frank–Wolfe
// kernel: on randomized fat-tree instances over every cost branch, each
// with no background load, a zero load and a random load, cold and warm,
// SolveBaseWarmCtx must return exactly the bits of the reference loops
// above: objective, gap, iteration count, edge flows and decompositions.
func TestSolveBaseMatchesReference(t *testing.T) {
	const seeds = 5
	var cappedSearches, cappedPen int
	for _, k := range []int{4, 6} {
		ft, err := topology.FatTree(k, 100)
		if err != nil {
			t.Fatal(err)
		}
		g := ft.Graph
		for ci, kc := range kernelCases() {
			t.Run(fmt.Sprintf("k%d/%s", k, kc.name), func(t *testing.T) {
				opts := Options{Cost: kc.cost, MaxIters: 40, Tol: 1e-4}
				ref, err := newRefSolver(g, kc.model, opts)
				if err != nil {
					t.Fatal(err)
				}
				s, err := NewSolverCompiled(graph.Compile(g), kc.model, opts)
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(int64(1000*k + ci)))
				ctx := context.Background()
				for seed := 0; seed < seeds; seed++ {
					comms, load := randomKernelInstance(rng, g, ft.Hosts, kc.capped)
					zero := make([]float64, g.NumEdges())
					for _, bc := range []struct {
						name string
						base []float64
					}{{"nil", nil}, {"zero", zero}, {"random", load}} {
						want, err := ref.SolveBaseWarmCtx(ctx, comms, bc.base, WarmStart{})
						if err != nil {
							t.Fatal(err)
						}
						got, err := s.SolveBaseWarmCtx(ctx, comms, bc.base, WarmStart{})
						if err != nil {
							t.Fatal(err)
						}
						if err := sameResult(got, want); err != nil {
							t.Fatalf("seed %d base %s cold: %v", seed, bc.name, err)
						}
						// Warm re-solve of a perturbed instance from this result.
						next := append([]Commodity(nil), comms...)
						for i := range next {
							next[i].Demand *= 0.8 + 0.4*rng.Float64()
						}
						warm := WarmStart{Commodities: comms, Result: want}
						want2, err := ref.SolveBaseWarmCtx(ctx, next, bc.base, warm)
						if err != nil {
							t.Fatal(err)
						}
						got2, err := s.SolveBaseWarmCtx(ctx, next, bc.base, warm)
						if err != nil {
							t.Fatal(err)
						}
						if err := sameResult(got2, want2); err != nil {
							t.Fatalf("seed %d base %s warm: %v", seed, bc.name, err)
						}
					}
				}
				if ref.searches == 0 {
					t.Fatal("no line search ran")
				}
				if kc.capped != (ref.penSearches > 0) {
					t.Fatalf("capped=%v but the penalty was active in %d of %d line searches",
						kc.capped, ref.penSearches, ref.searches)
				}
				if kc.capped {
					cappedSearches += ref.searches
					cappedPen += ref.penSearches
				}
			})
		}
	}
	// The capped instances must also run line searches with the penalty
	// off, so the probe's penalty-free alpha=2 path is compared too.
	if cappedPen == cappedSearches {
		t.Fatalf("penalty active in all %d capped line searches", cappedSearches)
	}
}

// TestSolveZeroBaseMatchesNilBase pins the identity the one-loop kernel
// relies on: a background load of zeros is no background load, bit for bit
// (0 + x == x and cost(0) == 0 exactly).
func TestSolveZeroBaseMatchesNilBase(t *testing.T) {
	ft, err := topology.FatTree(4, 100)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for _, kc := range kernelCases() {
		s, err := NewSolverCompiled(graph.Compile(ft.Graph), kc.model, Options{Cost: kc.cost, MaxIters: 30})
		if err != nil {
			t.Fatal(err)
		}
		comms, _ := randomKernelInstance(rng, ft.Graph, ft.Hosts, kc.capped)
		nilRes, err := s.SolveBaseWarmCtx(context.Background(), comms, nil, WarmStart{})
		if err != nil {
			t.Fatal(err)
		}
		zeroRes, err := s.SolveBaseWarmCtx(context.Background(), comms, make([]float64, ft.Graph.NumEdges()), WarmStart{})
		if err != nil {
			t.Fatal(err)
		}
		plain, err := s.Solve(comms)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameResult(zeroRes, nilRes); err != nil {
			t.Fatalf("%s: zero base vs nil base: %v", kc.name, err)
		}
		if err := sameResult(plain, nilRes); err != nil {
			t.Fatalf("%s: Solve vs nil base: %v", kc.name, err)
		}
	}
}

// TestSolveBaseWrongLength checks that a background load not sized to the
// graph's edge count is rejected with ErrBadInput before any work.
func TestSolveBaseWrongLength(t *testing.T) {
	ft, err := topology.FatTree(4, 100)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSolverCompiled(graph.Compile(ft.Graph), power.Model{Mu: 1, Alpha: 2}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	comms := []Commodity{{Src: ft.Hosts[0], Dst: ft.Hosts[5], Demand: 1}}
	for _, n := range []int{0, 1, ft.Graph.NumEdges() - 1, ft.Graph.NumEdges() + 1} {
		res, err := s.SolveBaseWarmCtx(context.Background(), comms, make([]float64, n), WarmStart{})
		if !errors.Is(err, ErrBadInput) || res != nil {
			t.Fatalf("base of %d edges: got (%v, %v), want ErrBadInput", n, res, err)
		}
	}
	// The Solver is still usable afterwards.
	if _, err := s.SolveBaseWarmCtx(context.Background(), comms, make([]float64, ft.Graph.NumEdges()), WarmStart{}); err != nil {
		t.Fatal(err)
	}
}

// randomCommodities draws n commodities between distinct random hosts.
func randomCommodities(rng *rand.Rand, hosts []graph.NodeID, n int) []Commodity {
	comms := make([]Commodity, 0, n)
	for len(comms) < n {
		src, dst := hosts[rng.Intn(len(hosts))], hosts[rng.Intn(len(hosts))]
		if src != dst {
			comms = append(comms, Commodity{ID: flow.ID(len(comms)), Src: src, Dst: dst, Demand: 0.1 + 2*rng.Float64()})
		}
	}
	return comms
}

// deltaKernelInstance draws the online-delta shape: one or two commodities
// routed against a heavy background load, as a rolling delta epoch solves
// one arrival against the reservations of every flow in flight. Most edges
// carry load, capped cases put a few above C = 4, and a few carry the tiny
// negative residue a cancelled reservation can leave behind.
func deltaKernelInstance(rng *rand.Rand, g *graph.Graph, hosts []graph.NodeID, capped bool) ([]Commodity, []float64) {
	comms := randomCommodities(rng, hosts, 1+rng.Intn(2))
	base := make([]float64, g.NumEdges())
	for i := range base {
		switch r := rng.Float64(); {
		case capped && r < 0.03:
			base[i] = 4 + rng.Float64()
		case r < 0.05:
			base[i] = -1e-15 * rng.Float64()
		case r < 0.85:
			base[i] = 3 * rng.Float64()
		}
	}
	return comms, base
}

// checkKernel solves one instance on both kernels and fails on the first
// differing bit; it returns the reference result for warm re-solves.
func checkKernel(t *testing.T, ref *refSolver, s *Solver, comms []Commodity, base []float64, warm WarmStart, what string) *Result {
	t.Helper()
	ctx := context.Background()
	want, err := ref.SolveBaseWarmCtx(ctx, comms, base, warm)
	if err != nil {
		t.Fatalf("%s: reference: %v", what, err)
	}
	got, err := s.SolveBaseWarmCtx(ctx, comms, base, warm)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if err := sameResult(got, want); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	return want
}

// perturbed returns comms with every demand scaled by a random factor in
// [0.8, 1.2), the warm re-solve input of the differential tests.
func perturbed(rng *rand.Rand, comms []Commodity) []Commodity {
	next := append([]Commodity(nil), comms...)
	for i := range next {
		next[i].Demand *= 0.8 + 0.4*rng.Float64()
	}
	return next
}

// TestSolveDeltaShapeMatchesReference runs the differential test on the
// shape of a rolling delta epoch: fat-tree k=8 (768 edges), one or two
// commodities over a few dozen edges, and a heavy random background load,
// cold and warm, for every cost branch. Here most edges never carry flow,
// which is what a kernel restricted to a solve's own edges must get right.
func TestSolveDeltaShapeMatchesReference(t *testing.T) {
	ft, err := topology.FatTree(8, 100)
	if err != nil {
		t.Fatal(err)
	}
	g := ft.Graph
	for ci, kc := range kernelCases() {
		t.Run(kc.name, func(t *testing.T) {
			opts := Options{Cost: kc.cost, MaxIters: 30, Tol: 1e-4}
			ref, err := newRefSolver(g, kc.model, opts)
			if err != nil {
				t.Fatal(err)
			}
			s, err := NewSolverCompiled(graph.Compile(g), kc.model, opts)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(8000 + ci)))
			for seed := 0; seed < 6; seed++ {
				comms, base := deltaKernelInstance(rng, g, ft.Hosts, kc.capped)
				want := checkKernel(t, ref, s, comms, base, WarmStart{}, fmt.Sprintf("seed %d cold", seed))
				checkKernel(t, ref, s, perturbed(rng, comms), base, WarmStart{Commodities: comms, Result: want},
					fmt.Sprintf("seed %d warm", seed))
			}
			if ref.searches == 0 {
				t.Fatal("no line search ran")
			}
		})
	}
}

// TestSolverReuseMatchesReference reuses one Solver over instances of
// different sizes (1 to 14 commodities) and background loads (none, zero,
// random, heavy) in random order, so every solve starts from buffers the
// previous, differently shaped solve left behind. A kernel that clears or
// refills only the edges of the current solve must not read any of them.
func TestSolverReuseMatchesReference(t *testing.T) {
	ft, err := topology.FatTree(8, 100)
	if err != nil {
		t.Fatal(err)
	}
	g := ft.Graph
	for ci, kc := range kernelCases() {
		t.Run(kc.name, func(t *testing.T) {
			opts := Options{Cost: kc.cost, MaxIters: 25, Tol: 1e-4}
			ref, err := newRefSolver(g, kc.model, opts)
			if err != nil {
				t.Fatal(err)
			}
			s, err := NewSolverCompiled(graph.Compile(g), kc.model, opts)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(9000 + ci)))
			var prevComms []Commodity
			var prev *Result
			for i := 0; i < 16; i++ {
				var comms []Commodity
				var base []float64
				switch rng.Intn(4) {
				case 0:
					comms, _ = randomKernelInstance(rng, g, ft.Hosts, kc.capped)
				case 1:
					comms, _ = randomKernelInstance(rng, g, ft.Hosts, kc.capped)
					base = make([]float64, g.NumEdges())
				case 2:
					comms, base = randomKernelInstance(rng, g, ft.Hosts, kc.capped)
				default:
					comms, base = deltaKernelInstance(rng, g, ft.Hosts, kc.capped)
				}
				warm := WarmStart{}
				if prev != nil && rng.Intn(3) == 0 {
					// A warm start from an unrelated solve: commodity IDs
					// restart at 0, so some match and their paths seed x.
					warm = WarmStart{Commodities: prevComms, Result: prev}
				}
				prev = checkKernel(t, ref, s, comms, base, warm, fmt.Sprintf("solve %d", i))
				prevComms = comms
			}
		})
	}
}

// TestSolveNonFiniteBaseMatchesReference feeds background loads with +Inf
// and 1e200 entries, whose cost (and, for +Inf, marginal cost) is not
// finite: cost(base + 0) - cost(base) is NaN on such an edge even when no
// flow ever reaches it. The NaN objective and gap, payload included, and
// everything else must match the reference bit for bit.
func TestSolveNonFiniteBaseMatchesReference(t *testing.T) {
	ft, err := topology.FatTree(4, 100)
	if err != nil {
		t.Fatal(err)
	}
	g := ft.Graph
	nonFinite := 0
	for ci, kc := range kernelCases() {
		opts := Options{Cost: kc.cost, MaxIters: 20, Tol: 1e-4}
		ref, err := newRefSolver(g, kc.model, opts)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewSolverCompiled(graph.Compile(g), kc.model, opts)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(7000 + ci)))
		for seed := 0; seed < 5; seed++ {
			comms, base := deltaKernelInstance(rng, g, ft.Hosts, kc.capped)
			for j := 0; j < 1+rng.Intn(3); j++ {
				e := rng.Intn(len(base))
				if rng.Intn(2) == 0 {
					base[e] = math.Inf(1)
				} else {
					base[e] = 1e200
				}
			}
			what := fmt.Sprintf("%s seed %d", kc.name, seed)
			got := checkKernel(t, ref, s, comms, base, WarmStart{}, what)
			if math.IsNaN(got.Objective) {
				nonFinite++
			}
		}
	}
	if nonFinite == 0 {
		t.Fatal("no solve reported a NaN objective")
	}
}
