package mcfsolve

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dcnflow/internal/graph"
	"dcnflow/internal/power"
	"dcnflow/internal/topology"
)

// TestBoundCertified: a solve's Bound is at most its own Objective, and at
// most the Objective of a 3000-iteration solve of the same commodities,
// itself at or above the optimum, on fat-tree k=4 and k=8 at alpha 2,
// alpha 3 and with idle power (the envelope kink), at the default cap and
// at the stop rule's budget.
func TestBoundCertified(t *testing.T) {
	models := []power.Model{{Mu: 1, Alpha: 2}, {Mu: 1, Alpha: 3}, {Sigma: 1, Mu: 1, Alpha: 2}}
	rng := rand.New(rand.NewSource(61))
	for _, k := range []int{4, 8} {
		ft, err := topology.FatTree(k, 1e12)
		if err != nil {
			t.Fatal(err)
		}
		c := graph.Compile(ft.Graph)
		for mi, m := range models {
			long, err := NewSolverCompiled(c, m, Options{MaxIters: 3000, Tol: 1e-12})
			if err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 8/k; trial++ {
				comms := randomCommodities(rng, ft.Hosts, 12)
				ref, err := long.Solve(comms)
				if err != nil {
					t.Fatal(err)
				}
				if !(ref.Bound <= ref.Objective) {
					t.Fatalf("k=%d model %d: 3000-iteration bound %v above its objective %v", k, mi, ref.Bound, ref.Objective)
				}
				for _, iters := range []int{stopBudget, 60} {
					s, err := NewSolverCompiled(c, m, Options{MaxIters: iters})
					if err != nil {
						t.Fatal(err)
					}
					res, err := s.Solve(comms)
					if err != nil {
						t.Fatal(err)
					}
					if !(res.Bound > 0 && res.Bound <= res.Objective && res.Bound <= ref.Objective) {
						t.Fatalf("k=%d model %d, %d iterations: bound %v, objective %v, 3000-iteration objective %v",
							k, mi, iters, res.Bound, res.Objective, ref.Objective)
					}
				}
			}
		}
	}
}

// TestSolveTarget pins the stop rule. A target at or above the cold
// start's primal value stops a solve at exactly stopBudget iterations, with
// the bits of a solve capped there; a target reached later stops it at the
// first iteration from the budget on whose primal is at or below it; no
// target runs to MaxIters. Every result is bit-equal at one and two oracle
// workers and on the renumbered and identity layouts.
func TestSolveTarget(t *testing.T) {
	ft, err := topology.FatTree(8, 1e12)
	if err != nil {
		t.Fatal(err)
	}
	m := power.Model{Mu: 1, Alpha: 2}
	layouts := []*graph.Compiled{graph.Compile(ft.Graph), graph.CompileIdentity(ft.Graph)}
	solver := func(c *graph.Compiled, opts Options) *Solver {
		s, err := NewSolverCompiled(c, m, opts)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	// capped returns the solve of comms capped at iters, tolerance off.
	capped := func(comms []Commodity, iters int) *Result {
		res, err := solver(layouts[0], Options{MaxIters: iters, Tol: 1e-300}).Solve(comms)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	rng := rand.New(rand.NewSource(67))
	for trial := 0; trial < 3; trial++ {
		comms := randomCommodities(rng, ft.Hosts, 20+10*trial)
		// A tolerance nothing fails stops at iteration 0, on the cold start.
		cold, err := solver(layouts[0], Options{Tol: math.MaxFloat64}).Solve(comms)
		if err != nil {
			t.Fatal(err)
		}
		if cold.Iters != 0 {
			t.Fatalf("trial %d: the cold-start probe ran %d iterations", trial, cold.Iters)
		}
		type targetCase struct {
			name   string
			target float64
			iters  int  // the iteration it must stop at
			stop   bool // whether the target ends it
		}
		cases := []targetCase{
			{"cold-start", cold.Objective, stopBudget, true},
			{"above", math.Inf(1), stopBudget, true},
			{"none", math.Inf(-1), 40, false},
		}
		// The first iteration from the budget on whose primal reaches mid.
		mid := capped(comms, 25).Objective
		for it := stopBudget; it <= 25; it++ {
			if capped(comms, it).Objective <= mid {
				cases = append(cases, targetCase{"reached", mid, it, true})
				break
			}
		}
		full := capped(comms, 40)
		for _, tc := range cases {
			want := capped(comms, tc.iters)
			for _, c := range layouts {
				for _, workers := range []int{1, 2} {
					s := solver(c, Options{MaxIters: 40, Tol: 1e-300, OracleWorkers: workers})
					got, err := s.SolveTargetCtx(context.Background(), comms, tc.target)
					if err != nil {
						t.Fatal(err)
					}
					where := fmt.Sprintf("trial %d, target %s, %d workers, identity layout %v", trial, tc.name, workers, c != layouts[0])
					if got.Iters != tc.iters || got.TargetStop != tc.stop {
						t.Fatalf("%s: stopped after %d iterations (target stop %v), want %d (%v)", where, got.Iters, got.TargetStop, tc.iters, tc.stop)
					}
					if err := sameResult(got, want); err != nil {
						t.Fatalf("%s: differs from the solve capped at %d iterations: %v", where, tc.iters, err)
					}
					if math.Float64bits(got.Bound) != math.Float64bits(want.Bound) {
						t.Fatalf("%s: bound %v, capped solve %v", where, got.Bound, want.Bound)
					}
					// One solve that keeps the stopped iterate and runs on
					// must give both results, on the same reused Solver.
					at, on, err := s.SolveTargetFullCtx(context.Background(), comms, tc.target)
					if err != nil {
						t.Fatal(err)
					}
					for _, pair := range []struct {
						name      string
						got, want *Result
					}{{"kept", at, got}, {"run on", on, full}} {
						if err := sameResult(pair.got, pair.want); err != nil {
							t.Fatalf("%s: SolveTargetFullCtx's %s result differs: %v", where, pair.name, err)
						}
						if pair.got.Iters != pair.want.Iters || pair.got.TargetStop != pair.want.TargetStop ||
							math.Float64bits(pair.got.Bound) != math.Float64bits(pair.want.Bound) {
							t.Fatalf("%s: SolveTargetFullCtx's %s result: %d iterations, stop %v, bound %v; want %d, %v, %v", where, pair.name,
								pair.got.Iters, pair.got.TargetStop, pair.got.Bound, pair.want.Iters, pair.want.TargetStop, pair.want.Bound)
						}
					}
					if (at == on) == tc.stop {
						t.Fatalf("%s: kept and run-on results shared %v, want shared only without a stop", where, at == on)
					}
				}
			}
		}
	}
}
