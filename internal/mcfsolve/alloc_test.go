package mcfsolve

import (
	"testing"

	"dcnflow/internal/graph"
	"dcnflow/internal/power"
	"dcnflow/internal/topology"
)

// TestOracleSweepZeroAllocsAfterWarmup is the allocation-regression ceiling
// for the solver's linear oracle: once every optimal path has been interned
// (first sweep), a full sweep — Dijkstra tree per distinct source plus path
// extraction and interning for every commodity — must not allocate. It
// covers the cold start's uniform weights and non-uniform ones; in both the
// search directed at each group's destinations must have answered every
// group itself (no hand-over to Tree).
func TestOracleSweepZeroAllocsAfterWarmup(t *testing.T) {
	ft, err := topology.FatTree(4, 100)
	if err != nil {
		t.Fatal(err)
	}
	comms := make([]Commodity, 12)
	for i := range comms {
		comms[i] = Commodity{
			ID:     0,
			Src:    ft.Hosts[(i*3)%len(ft.Hosts)],
			Dst:    ft.Hosts[(i*5+2)%len(ft.Hosts)],
			Demand: 1,
		}
	}
	m := power.Model{Mu: 1, Alpha: 2, C: 100}
	for _, tc := range []struct {
		name   string
		weight func(i int) float64
	}{
		{"uniform", func(int) float64 { return 1 }},
		{"non-uniform", func(i int) float64 { return float64(i%5) + 1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := NewSolverCompiled(graph.Compile(ft.Graph), m, Options{})
			if err != nil {
				t.Fatal(err)
			}
			s.orc.bind(comms)
			out := make([]graph.PathHandle, len(comms))
			w := s.orc.slotWeights()
			for i := range w {
				w[i] = tc.weight(i)
			}
			minW := s.orc.sssp.ScanWeights()
			if err := s.orc.shortestPaths(comms, out, minW); err != nil {
				t.Fatal(err) // warm-up: interns every path, sizes buffers
			}
			allocs := testing.AllocsPerRun(20, func() {
				if err := s.orc.shortestPaths(comms, out, minW); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("oracle sweep allocates %.1f times per run after warm-up, want 0", allocs)
			}
			if want := len(s.orc.srcs); s.orc.goal != want {
				t.Fatalf("the goal search answered %d of %d source groups, want all", s.orc.goal, want)
			}
		})
	}
}
