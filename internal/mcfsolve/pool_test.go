package mcfsolve

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"dcnflow/internal/graph"
	"dcnflow/internal/power"
	"dcnflow/internal/topology"
)

// poolTestGraph builds a small diamond with two equal-hop routes.
func poolTestGraph(t *testing.T) (*graph.Graph, []Commodity) {
	t.Helper()
	g := graph.New()
	s := g.AddNode("s", graph.KindHost)
	a := g.AddNode("a", graph.KindSwitch)
	b := g.AddNode("b", graph.KindSwitch)
	d := g.AddNode("d", graph.KindHost)
	for _, e := range [][2]graph.NodeID{{s, a}, {s, b}, {a, d}, {b, d}} {
		if _, err := g.AddEdge(e[0], e[1], 100); err != nil {
			t.Fatal(err)
		}
	}
	return g, []Commodity{{ID: 1, Src: s, Dst: d, Demand: 3}, {ID: 2, Src: s, Dst: d, Demand: 2}}
}

// TestPoolReuseAndMatch: Acquire/Release recycles solvers, Matches guards
// the binding, and pooled solves are bit-identical to fresh ones.
func TestPoolReuseAndMatch(t *testing.T) {
	g, comms := poolTestGraph(t)
	m := power.Model{Mu: 1, Alpha: 2, C: 100}
	opts := Options{MaxIters: 20}
	p, err := NewPoolCompiled(graph.Compile(g), m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Matches(g, m, opts) {
		t.Fatal("pool does not match its own binding")
	}
	if p.Matches(g, power.Model{Mu: 2, Alpha: 2, C: 100}, opts) {
		t.Fatal("pool matches a foreign model")
	}
	other := graph.New()
	other.AddNode("x", graph.KindHost)
	if p.Matches(other, m, opts) {
		t.Fatal("pool matches a foreign graph")
	}

	s1, err := p.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	res1, err := s1.Solve(comms)
	if err != nil {
		t.Fatal(err)
	}
	p.Release(s1)
	s2, err := p.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	if s2 != s1 {
		t.Fatal("Release/Acquire did not recycle the warm solver")
	}
	res2, err := s2.Solve(comms)
	if err != nil {
		t.Fatal(err)
	}
	p.Release(s2)
	if res1.Objective != res2.Objective || !reflect.DeepEqual(res1.EdgeFlow, res2.EdgeFlow) {
		t.Fatalf("pooled re-solve diverged: %v vs %v", res1.Objective, res2.Objective)
	}

	fresh, err := NewSolverCompiled(graph.Compile(g), m, opts)
	if err != nil {
		t.Fatal(err)
	}
	res3, err := fresh.Solve(comms)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Objective != res3.Objective || !reflect.DeepEqual(res1.EdgeFlow, res3.EdgeFlow) {
		t.Fatal("pooled solver output differs from a fresh solver's")
	}

	// A foreign solver must not enter the free list.
	foreign, err := NewSolverCompiled(graph.Compile(g), m, Options{MaxIters: 7})
	if err != nil {
		t.Fatal(err)
	}
	p.Release(foreign)
	s3, err := p.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	if s3 == foreign {
		t.Fatal("pool accepted a solver with a different options binding")
	}
}

// TestPoolConcurrentSolves: concurrent Acquire/Solve/Release cycles on one
// pool are race-free and every solve returns the same objective.
func TestPoolConcurrentSolves(t *testing.T) {
	g, comms := poolTestGraph(t)
	m := power.Model{Mu: 1, Alpha: 2, C: 100}
	p, err := NewPoolCompiled(graph.Compile(g), m, Options{MaxIters: 20})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewSolverCompiled(graph.Compile(g), m, Options{MaxIters: 20})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Solve(comms)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				s, err := p.Acquire()
				if err != nil {
					errs <- err
					return
				}
				res, err := s.Solve(comms)
				p.Release(s)
				if err != nil {
					errs <- err
					return
				}
				if res.Objective != want.Objective {
					errs <- ErrBadInput
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent pooled solve failed: %v", err)
	}
}

// TestPooledSolverInternBounded: a pooled Solver's path intern table holds
// one solve's paths, not every path it has ever seen. Over 50 pooled solves
// of distinct commodity sets, the table after each solve is exactly as
// large as a fresh Solver's after the same solve, and the objectives match
// bit for bit.
func TestPooledSolverInternBounded(t *testing.T) {
	ft, err := topology.FatTree(4, 100)
	if err != nil {
		t.Fatal(err)
	}
	m := power.Model{Mu: 1, Alpha: 2, C: 100}
	opts := Options{MaxIters: 15}
	p, err := NewPoolCompiled(graph.Compile(ft.Graph), m, opts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	hosts := ft.Hosts
	for solve := 0; solve < 50; solve++ {
		comms := make([]Commodity, 3+rng.Intn(6))
		for i := range comms {
			src := hosts[rng.Intn(len(hosts))]
			dst := hosts[rng.Intn(len(hosts))]
			for dst == src {
				dst = hosts[rng.Intn(len(hosts))]
			}
			comms[i] = Commodity{ID: 0, Src: src, Dst: dst, Demand: 1 + 10*rng.Float64()}
		}
		s, err := p.Acquire()
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.Solve(comms)
		if err != nil {
			t.Fatal(err)
		}
		pooledLen := s.intern.Len()
		p.Release(s)

		fresh, err := NewSolverCompiled(graph.Compile(ft.Graph), m, opts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Solve(comms)
		if err != nil {
			t.Fatal(err)
		}
		if pooledLen != fresh.intern.Len() {
			t.Fatalf("solve %d: pooled intern table has %d paths, a fresh solver's %d", solve, pooledLen, fresh.intern.Len())
		}
		if math.Float64bits(got.Objective) != math.Float64bits(want.Objective) {
			t.Fatalf("solve %d: pooled objective %v, fresh %v", solve, got.Objective, want.Objective)
		}
	}
}
