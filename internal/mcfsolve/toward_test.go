package mcfsolve

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"dcnflow/internal/graph"
	"dcnflow/internal/power"
	"dcnflow/internal/topology"
)

// TestGoalOracleMatchesTree is the solve-level differential test of the
// goal-directed oracle: on several topology families and cost branches,
// with and without a background load, a default Solver (every heap sweep
// directed at each group's destinations), one whose hop budget covers only
// two source groups, and one on two oracle workers must return exactly the
// bits of a Solver whose every heap sweep runs the plain Tree.
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
