package mcfsolve

import (
	"errors"
	"math"
	"reflect"
	"runtime"
	"testing"

	"dcnflow/internal/graph"
	"dcnflow/internal/power"
	"dcnflow/internal/topology"
)

// workerCounts is the intra-solve parallelism grid the determinism tests
// sweep: sequential, minimal parallelism, and every core.
func workerCounts() []int {
	counts := []int{1, 2}
	if n := runtime.NumCPU(); n > 2 {
		counts = append(counts, n)
	}
	return counts
}

// incastCommodities builds a commodity set with the shapes that stress the
// oracle's grouping: many distinct sources converging on few destinations
// (incast fan-in), repeated (src, dst) pairs, and a couple of fan-out
// sources with many destinations.
func incastCommodities(hosts []graph.NodeID) []Commodity {
	var comms []Commodity
	sink := hosts[0]
	for i := 1; i < 17; i++ {
		src := hosts[i%len(hosts)]
		if src == sink {
			continue
		}
		comms = append(comms, Commodity{ID: 0, Src: src, Dst: sink, Demand: 1 + float64(i%3)})
	}
	// Duplicate (src, dst) pairs: dedup must still route every member.
	comms = append(comms,
		Commodity{ID: 0, Src: hosts[3], Dst: sink, Demand: 2},
		Commodity{ID: 0, Src: hosts[3], Dst: sink, Demand: 5},
	)
	// Fan-out sources.
	for i := 2; i < 10; i++ {
		comms = append(comms, Commodity{ID: 0, Src: hosts[1], Dst: hosts[i], Demand: 1.5})
	}
	return comms
}

// TestSolveBitIdenticalAcrossOracleWorkers asserts the tentpole determinism
// contract at the solver level: the full Result — edge flows, objective and
// gap bits, path decompositions — is byte-identical at every intra-solve
// worker count.
func TestSolveBitIdenticalAcrossOracleWorkers(t *testing.T) {
	ft, err := topology.FatTree(8, 50)
	if err != nil {
		t.Fatal(err)
	}
	comms := incastCommodities(ft.Hosts)
	m := power.Model{Mu: 1, Alpha: 2, C: 50}

	var ref *Result
	for _, w := range workerCounts() {
		s, err := NewSolverCompiled(graph.Compile(ft.Graph), m, Options{MaxIters: 12, OracleWorkers: w})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Solve(comms)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if math.Float64bits(res.Objective) != math.Float64bits(ref.Objective) ||
			math.Float64bits(res.Gap) != math.Float64bits(ref.Gap) || res.Iters != ref.Iters {
			t.Fatalf("workers=%d: objective/gap/iters diverge: (%v %v %d) vs (%v %v %d)",
				w, res.Objective, res.Gap, res.Iters, ref.Objective, ref.Gap, ref.Iters)
		}
		for eid := range ref.EdgeFlow {
			if math.Float64bits(res.EdgeFlow[eid]) != math.Float64bits(ref.EdgeFlow[eid]) {
				t.Fatalf("workers=%d: edge %d flow %v vs %v (bits differ)", w, eid, res.EdgeFlow[eid], ref.EdgeFlow[eid])
			}
		}
		if !reflect.DeepEqual(res.PathsByCommodity, ref.PathsByCommodity) {
			t.Fatalf("workers=%d: path decompositions diverge", w)
		}
	}
}

// TestNegativeOracleWorkersMeansAllCores checks the knob's sentinel: a
// negative count resolves to GOMAXPROCS and still produces the sequential
// result.
func TestNegativeOracleWorkersMeansAllCores(t *testing.T) {
	ft, err := topology.FatTree(4, 50)
	if err != nil {
		t.Fatal(err)
	}
	comms := incastCommodities(ft.Hosts)
	m := power.Model{Mu: 1, Alpha: 2, C: 50}
	seq, err := solveOnce(ft.Graph, comms, m, Options{MaxIters: 8})
	if err != nil {
		t.Fatal(err)
	}
	all, err := solveOnce(ft.Graph, comms, m, Options{MaxIters: 8, OracleWorkers: -1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, all) {
		t.Fatal("OracleWorkers=-1 result differs from sequential")
	}
}

// TestParallelOracleErrorDeterministic covers the unroutable path: the
// surfaced error and — via a follow-up solve on the same Solver — the
// interner state left behind by the failed sweep must match the sequential
// oracle's at every worker count.
func TestParallelOracleErrorDeterministic(t *testing.T) {
	g := graph.New()
	nodes := make([]graph.NodeID, 8)
	for i := range nodes {
		nodes[i] = g.AddNode("n", graph.KindHost)
	}
	for i := 0; i < 5; i++ { // connected component 0..5
		if _, _, err := g.AddBiEdge(nodes[i], nodes[i+1], 10); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := g.AddBiEdge(nodes[6], nodes[7], 10); err != nil { // island
		t.Fatal(err)
	}
	m := power.Model{Mu: 1, Alpha: 2, C: 10}
	bad := []Commodity{
		{Src: nodes[0], Dst: nodes[4], Demand: 1},
		{Src: nodes[1], Dst: nodes[3], Demand: 1},
		{Src: nodes[2], Dst: nodes[7], Demand: 1}, // unroutable
		{Src: nodes[3], Dst: nodes[0], Demand: 1},
	}
	good := []Commodity{
		{Src: nodes[0], Dst: nodes[5], Demand: 1},
		{Src: nodes[5], Dst: nodes[1], Demand: 2},
	}
	var refErr string
	var refRes *Result
	for _, w := range workerCounts() {
		s, err := NewSolverCompiled(graph.Compile(g), m, Options{MaxIters: 8, OracleWorkers: w})
		if err != nil {
			t.Fatal(err)
		}
		_, err = s.Solve(bad)
		if !errors.Is(err, ErrNoRoute) {
			t.Fatalf("workers=%d: want ErrNoRoute, got %v", w, err)
		}
		badErr := err.Error()
		res, err := s.Solve(good)
		if err != nil {
			t.Fatalf("workers=%d: follow-up solve: %v", w, err)
		}
		if refErr == "" {
			refErr, refRes = badErr, res
			continue
		}
		if badErr != refErr {
			t.Fatalf("workers=%d: error %q, want %q", w, badErr, refErr)
		}
		if !reflect.DeepEqual(res, refRes) {
			t.Fatalf("workers=%d: follow-up result diverges after error path", w)
		}
	}
}
