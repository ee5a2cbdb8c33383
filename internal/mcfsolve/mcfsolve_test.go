package mcfsolve

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dcnflow/internal/graph"
	"dcnflow/internal/power"
	"dcnflow/internal/topology"
)

// solveOnce runs one cold solve on a fresh Solver bound to g.
func solveOnce(g *graph.Graph, comms []Commodity, m power.Model, opts Options) (*Result, error) {
	s, err := NewSolverCompiled(graph.Compile(g), m, opts)
	if err != nil {
		return nil, err
	}
	return s.Solve(comms)
}

func almostEqual(a, b, tol float64) bool {
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale < 1 {
		scale = 1
	}
	return diff/scale <= tol
}

func TestSolveSplitsAcrossParallelLinks(t *testing.T) {
	// One commodity of demand 2 over two parallel links with cost x^2:
	// optimum splits 1/1 with objective 2 (vs 4 unsplit).
	top, src, dst, err := topology.ParallelLinks(2, 100)
	if err != nil {
		t.Fatal(err)
	}
	m := power.Model{Mu: 1, Alpha: 2, C: 100}
	res, err := solveOnce(top.Graph, []Commodity{{ID: 0, Src: src, Dst: dst, Demand: 2}}, m,
		Options{Cost: CostDynamic, MaxIters: 200, Tol: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(res.Objective, 2, 1e-3) {
		t.Fatalf("objective = %v, want 2", res.Objective)
	}
	// Both src->dst edges carry about 1 each.
	var used int
	for _, e := range top.Graph.Edges() {
		if e.From == src && res.EdgeFlow[e.ID] > 0.4 {
			used++
			if !almostEqual(res.EdgeFlow[e.ID], 1, 5e-2) {
				t.Fatalf("edge %d flow = %v, want ~1", e.ID, res.EdgeFlow[e.ID])
			}
		}
	}
	if used != 2 {
		t.Fatalf("used %d forward links, want 2", used)
	}
}

func TestSolveEnvelopeConsolidates(t *testing.T) {
	// With sigma > 0 and demand below Ropt, the envelope is linear, so the
	// objective equals powerRate(r*) * demand * hops regardless of split.
	top, src, dst, err := topology.ParallelLinks(3, 100)
	if err != nil {
		t.Fatal(err)
	}
	m := power.Model{Sigma: 4, Mu: 1, Alpha: 2, C: 100} // Ropt = 2, rate = 4
	res, err := solveOnce(top.Graph, []Commodity{{ID: 0, Src: src, Dst: dst, Demand: 1}}, m,
		Options{Cost: CostEnvelope, MaxIters: 100, Tol: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(res.Objective, 4, 1e-3) {
		t.Fatalf("objective = %v, want 4 (= powerRate(Ropt) * demand)", res.Objective)
	}
}

func TestSolveDiamondBalances(t *testing.T) {
	// Diamond a->{b,c}->d with cost x^2 and demand 4: optimum routes 2 via
	// b and 2 via c, objective = 4 links * 2^2 = 16.
	g := graph.New()
	a := g.AddNode("a", graph.KindHost)
	b := g.AddNode("b", graph.KindSwitch)
	c := g.AddNode("c", graph.KindSwitch)
	d := g.AddNode("d", graph.KindHost)
	for _, pair := range [][2]graph.NodeID{{a, b}, {a, c}, {b, d}, {c, d}} {
		if _, err := g.AddEdge(pair[0], pair[1], 100); err != nil {
			t.Fatal(err)
		}
	}
	m := power.Model{Mu: 1, Alpha: 2, C: 100}
	res, err := solveOnce(g, []Commodity{{ID: 0, Src: a, Dst: d, Demand: 4}}, m,
		Options{Cost: CostDynamic, MaxIters: 300, Tol: 1e-7})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(res.Objective, 16, 5e-3) {
		t.Fatalf("objective = %v, want 16", res.Objective)
	}
	for eid := 0; eid < g.NumEdges(); eid++ {
		if !almostEqual(res.EdgeFlow[eid], 2, 5e-2) {
			t.Fatalf("edge %d flow = %v, want ~2", eid, res.EdgeFlow[eid])
		}
	}
}

func TestSolveMultipleCommodities(t *testing.T) {
	// Two opposing commodities on a line use the two directions without
	// interference: objective = 2 * x^2 per hop.
	line, err := topology.Line(3, 100)
	if err != nil {
		t.Fatal(err)
	}
	m := power.Model{Mu: 1, Alpha: 2, C: 100}
	res, err := solveOnce(line.Graph, []Commodity{
		{ID: 0, Src: line.Hosts[0], Dst: line.Hosts[2], Demand: 3},
		{ID: 1, Src: line.Hosts[2], Dst: line.Hosts[0], Demand: 3},
	}, m, Options{Cost: CostDynamic, MaxIters: 50})
	if err != nil {
		t.Fatal(err)
	}
	// Each direction: 2 hops at rate 3 → 2*9; both: 36.
	if !almostEqual(res.Objective, 36, 1e-3) {
		t.Fatalf("objective = %v, want 36", res.Objective)
	}
}

func TestSolveCapacityPenaltySpreads(t *testing.T) {
	// Demand 6 with C=2 over 3 parallel links: penalty forces an even
	// 2/2/2 spread with zero violation.
	top, src, dst, err := topology.ParallelLinks(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	m := power.Model{Mu: 1, Alpha: 2, C: 2}
	res, err := solveOnce(top.Graph, []Commodity{{ID: 0, Src: src, Dst: dst, Demand: 6}}, m,
		Options{Cost: CostDynamic, MaxIters: 300, Tol: 1e-7})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range top.Graph.Edges() {
		if e.From != src {
			continue
		}
		if res.EdgeFlow[e.ID] > 2.1 {
			t.Fatalf("edge %d flow = %v exceeds capacity noticeably", e.ID, res.EdgeFlow[e.ID])
		}
	}
}

func TestPathDecompositionInvariants(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ft, err := topology.FatTree(4, 100)
		if err != nil {
			return false
		}
		n := 1 + rng.Intn(6)
		comms := make([]Commodity, 0, n)
		for i := 0; i < n; i++ {
			s := ft.Hosts[rng.Intn(len(ft.Hosts))]
			d := ft.Hosts[rng.Intn(len(ft.Hosts))]
			if s == d {
				continue
			}
			comms = append(comms, Commodity{
				ID: 0, Src: s, Dst: d, Demand: 0.2 + rng.Float64()*3,
			})
		}
		if len(comms) == 0 {
			return true
		}
		m := power.Model{Sigma: 1, Mu: 1, Alpha: 2, C: 100}
		res, err := solveOnce(ft.Graph, comms, m, Options{MaxIters: 30})
		if err != nil {
			return false
		}
		for i, c := range comms {
			var total float64
			for _, wp := range res.PathsByCommodity[i] {
				if wp.Weight <= 0 {
					return false
				}
				if err := wp.Path.Validate(ft.Graph, c.Src, c.Dst); err != nil {
					return false
				}
				total += wp.Weight
			}
			if !almostEqual(total, c.Demand, 1e-6) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestEdgeFlowMatchesDecomposition(t *testing.T) {
	ft, err := topology.FatTree(4, 100)
	if err != nil {
		t.Fatal(err)
	}
	comms := []Commodity{
		{ID: 0, Src: ft.Hosts[0], Dst: ft.Hosts[9], Demand: 2},
		{ID: 1, Src: ft.Hosts[3], Dst: ft.Hosts[12], Demand: 1.5},
	}
	m := power.Model{Sigma: 0.5, Mu: 1, Alpha: 2, C: 100}
	res, err := solveOnce(ft.Graph, comms, m, Options{MaxIters: 40})
	if err != nil {
		t.Fatal(err)
	}
	recon := make([]float64, ft.Graph.NumEdges())
	for i := range comms {
		for _, wp := range res.PathsByCommodity[i] {
			for _, eid := range wp.Path.Edges {
				recon[eid] += wp.Weight
			}
		}
	}
	for eid := range recon {
		if !almostEqual(recon[eid], res.EdgeFlow[eid], 1e-6) {
			t.Fatalf("edge %d: decomposition %v vs aggregate %v", eid, recon[eid], res.EdgeFlow[eid])
		}
	}
}

func TestSolveErrors(t *testing.T) {
	line, err := topology.Line(3, 100)
	if err != nil {
		t.Fatal(err)
	}
	m := power.Model{Mu: 1, Alpha: 2}
	t.Run("nil graph", func(t *testing.T) {
		if _, err := NewSolverCompiled(nil, m, Options{}); !errors.Is(err, ErrBadInput) {
			t.Fatalf("err = %v, want ErrBadInput", err)
		}
	})
	t.Run("bad model", func(t *testing.T) {
		if _, err := solveOnce(line.Graph, nil, power.Model{Mu: 1, Alpha: 1}, Options{}); !errors.Is(err, ErrBadInput) {
			t.Fatalf("err = %v, want ErrBadInput", err)
		}
	})
	t.Run("zero demand", func(t *testing.T) {
		_, err := solveOnce(line.Graph, []Commodity{{Src: 0, Dst: 1, Demand: 0}}, m, Options{})
		if !errors.Is(err, ErrBadInput) {
			t.Fatalf("err = %v, want ErrBadInput", err)
		}
	})
	t.Run("self loop", func(t *testing.T) {
		_, err := solveOnce(line.Graph, []Commodity{{Src: 0, Dst: 0, Demand: 1}}, m, Options{})
		if !errors.Is(err, ErrBadInput) {
			t.Fatalf("err = %v, want ErrBadInput", err)
		}
	})
	t.Run("unknown node", func(t *testing.T) {
		_, err := solveOnce(line.Graph, []Commodity{{Src: 0, Dst: 99, Demand: 1}}, m, Options{})
		if !errors.Is(err, ErrBadInput) {
			t.Fatalf("err = %v, want ErrBadInput", err)
		}
	})
	t.Run("disconnected", func(t *testing.T) {
		g := graph.New()
		a := g.AddNode("a", graph.KindHost)
		b := g.AddNode("b", graph.KindHost)
		_, err := solveOnce(g, []Commodity{{Src: a, Dst: b, Demand: 1}}, m, Options{})
		if !errors.Is(err, ErrNoRoute) {
			t.Fatalf("err = %v, want ErrNoRoute", err)
		}
	})
}

func TestSolveEmptyCommodities(t *testing.T) {
	line, err := topology.Line(3, 100)
	if err != nil {
		t.Fatal(err)
	}
	res, err := solveOnce(line.Graph, nil, power.Model{Mu: 1, Alpha: 2}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Objective != 0 {
		t.Fatalf("objective = %v, want 0", res.Objective)
	}
}

func TestGapDecreases(t *testing.T) {
	// More iterations must not worsen the objective.
	ft, err := topology.FatTree(4, 100)
	if err != nil {
		t.Fatal(err)
	}
	comms := []Commodity{
		{ID: 0, Src: ft.Hosts[0], Dst: ft.Hosts[15], Demand: 5},
		{ID: 1, Src: ft.Hosts[2], Dst: ft.Hosts[13], Demand: 4},
		{ID: 2, Src: ft.Hosts[5], Dst: ft.Hosts[8], Demand: 3},
	}
	m := power.Model{Mu: 1, Alpha: 2, C: 100}
	coarse, err := solveOnce(ft.Graph, comms, m, Options{Cost: CostDynamic, MaxIters: 3, Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	fine, err := solveOnce(ft.Graph, comms, m, Options{Cost: CostDynamic, MaxIters: 100, Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if fine.Objective > coarse.Objective+1e-9 {
		t.Fatalf("objective increased with iterations: %v -> %v", coarse.Objective, fine.Objective)
	}
}
