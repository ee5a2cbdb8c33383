package mcfsolve

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dcnflow/internal/graph"
	"dcnflow/internal/power"
	"dcnflow/internal/topology"
)

// TestGoalOracleMatchesTree is the solve-level differential test of the
// goal-directed oracle: on several topology families and cost branches,
// with and without a background load, a default Solver (every sweep
// directed at each group's destinations), one whose hop budget covers only
// two source groups, and one on two oracle workers must return exactly the
// bits of a Solver whose every sweep runs the plain Tree.
func TestGoalOracleMatchesTree(t *testing.T) {
	build := func(tp *topology.Topology, err error) *topology.Topology {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return tp
	}
	tops := []*topology.Topology{
		build(topology.FatTree(4, 100)),
		build(topology.FatTree(8, 100)),
		build(topology.VL2(4, 4, 4, 2, 100)),
		build(topology.BCube(4, 1, 100)),
		build(topology.Jellyfish(12, 3, 2, 100, 5)),
	}
	models := []power.Model{{Mu: 1, Alpha: 2}, {Mu: 0.5, Alpha: 3}, {Mu: 1, Alpha: 2, C: 4}}
	rng := rand.New(rand.NewSource(41))
	goal := 0
	for _, tp := range tops {
		c := graph.Compile(tp.Graph)
		n := c.Hot().NumNodes()
		for mi, m := range models {
			t.Run(fmt.Sprintf("%s/model%d", tp.Name, mi), func(t *testing.T) {
				opts := Options{MaxIters: 30, Tol: 1e-4}
				solver := func(workers, budget int) *Solver {
					o := opts
					o.OracleWorkers = workers
					s, err := NewSolverCompiled(c, m, o)
					if err != nil {
						t.Fatal(err)
					}
					s.orc.hopBudget = budget
					return s
				}
				plain := solver(1, 0)
				others := map[string]*Solver{
					"goal":      solver(1, hopArenaBytes),
					"budget":    solver(1, 2*n),
					"workers-2": solver(2, hopArenaBytes),
				}
				for trial := 0; trial < 4; trial++ {
					comms, base := randomKernelInstance(rng, tp.Graph, tp.Hosts, m.C > 0)
					if trial%2 == 0 {
						base = nil
					}
					want, err := plain.SolveBaseWarmCtx(context.Background(), comms, base, WarmStart{})
					if err != nil {
						t.Fatal(err)
					}
					for _, name := range []string{"goal", "budget", "workers-2"} {
						s := others[name]
						got, err := s.SolveBaseWarmCtx(context.Background(), comms, base, WarmStart{})
						if err != nil {
							t.Fatal(err)
						}
						if err := sameResult(got, want); err != nil {
							t.Fatalf("trial %d, %s oracle vs plain Tree: %v", trial, name, err)
						}
						if plain.orc.goal != 0 {
							t.Fatalf("trial %d: the goal search answered with a zero hop budget", trial)
						}
					}
					goal += others["goal"].orc.goal
				}
			})
		}
	}
	if goal == 0 {
		t.Fatal("the goal search never answered a tree: the differential tested nothing")
	}
}

// TestColdStartMatchesUnitRouter pins the cold start on the goal search:
// with every slot weight 1, the oracle must give each commodity the path the
// unit-weight router (Compiled.BatchShortestPaths, on the level queue)
// gives its (src, dst), and the goal search must answer every source group
// itself, on all seven topology families, both layouts and at one and two
// oracle workers. The commodity sets repeat (src, dst) pairs and fan one
// source out to several destinations.
func TestColdStartMatchesUnitRouter(t *testing.T) {
	build := func(tp *topology.Topology, err error) *topology.Topology {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return tp
	}
	tops := []*topology.Topology{
		build(topology.FatTree(4, 100)),
		build(topology.BCube(4, 1, 100)),
		build(topology.LeafSpine(2, 3, 2, 100)),
		build(topology.VL2(4, 4, 4, 2, 100)),
		build(topology.Jellyfish(12, 3, 2, 100, 5)),
		build(topology.Line(6, 100)),
		build(topology.Star(5, 100)),
	}
	m := power.Model{Mu: 1, Alpha: 2}
	rng := rand.New(rand.NewSource(43))
	for _, tp := range tops {
		hosts := tp.Hosts
		pick := func() (src, dst graph.NodeID) {
			for src == dst {
				src, dst = hosts[rng.Intn(len(hosts))], hosts[rng.Intn(len(hosts))]
			}
			return src, dst
		}
		for trial := 0; trial < 4; trial++ {
			var comms []Commodity
			for n := 2 + rng.Intn(8); len(comms) < n; {
				src, dst := pick()
				comms = append(comms, Commodity{Src: src, Dst: dst, Demand: 1})
			}
			comms = append(comms, comms[rng.Intn(len(comms))]) // a repeated pair
			fan, _ := pick()
			for _, dst := range hosts[:min(4, len(hosts))] {
				if dst != fan {
					comms = append(comms, Commodity{Src: fan, Dst: dst, Demand: 1})
				}
			}
			queries := make([]graph.PathQuery, len(comms))
			for i, c := range comms {
				queries[i] = graph.PathQuery{Src: c.Src, Dst: c.Dst}
			}
			for _, c := range []*graph.Compiled{graph.Compile(tp.Graph), graph.CompileIdentity(tp.Graph)} {
				want, _, err := c.BatchShortestPaths(queries)
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range []int{1, 2} {
					s, err := NewSolverCompiled(c, m, Options{OracleWorkers: workers})
					if err != nil {
						t.Fatal(err)
					}
					s.orc.bind(comms)
					w := s.orc.slotWeights()
					for i := range w {
						w[i] = 1
					}
					out := make([]graph.PathHandle, len(comms))
					if err := s.orc.shortestPaths(comms, out); err != nil {
						t.Fatal(err)
					}
					if s.orc.goal != len(s.orc.srcs) {
						t.Fatalf("%s trial %d, %d workers: the goal search answered %d of %d source groups", tp.Name, trial, workers, s.orc.goal, len(s.orc.srcs))
					}
					for i, cm := range comms {
						if got := s.intern.Edges(out[i]); !slices.Equal(got, want[i].Edges) {
							t.Fatalf("%s trial %d, %d workers: commodity %d (%d -> %d) took %v, the unit-weight router %v", tp.Name, trial, workers, i, cm.Src, cm.Dst, got, want[i].Edges)
						}
					}
				}
			}
		}
	}
}
