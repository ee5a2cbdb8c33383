package dcnflow_test

import (
	"context"
	"flag"
	"fmt"
	"reflect"
	"testing"

	"dcnflow"
)

var updateGoldenRelaxation = flag.Bool("update-golden-relaxation", false,
	"rewrite testdata/golden_relaxation_outputs.jsonl from the current solvers")

const goldenRelaxationFile = "testdata/golden_relaxation_outputs.jsonl"

// goldenRelaxationRow is one (scenario, solver) line of the relaxation
// fixture. Floats are stored as their IEEE-754 bits so the comparison is
// exact.
type goldenRelaxationRow struct {
	Scenario       string `json:"scenario"`
	Solver         string `json:"solver"`
	EnergyBits     string `json:"energy_bits"`
	LowerBoundBits string `json:"lower_bound_bits"`
	ScheduleHash   string `json:"schedule_hash"`
	// Stats holds the bits of the solver's pinned statistics (see
	// goldenRelaxationStats).
	Stats map[string]string `json:"stats"`
}

// goldenRelaxationStats are the Solution.Stats keys each row pins: the
// rounding outcome and Frank–Wolfe counters of "dcfsr", and the epoch and
// Frank–Wolfe counters of "rolling-online".
var goldenRelaxationStats = map[string][]string{
	dcnflow.SolverDCFSR:         {"attempts", "intervals", "max_rate", "capacity_feasible", "fw_iters", "bound_stops"},
	dcnflow.SolverRollingOnline: {"epochs", "fw_iters", "seeded_intervals", "solved_intervals", "admitted"},
}

// goldenRelaxationModels cover both arithmetic paths of the Frank–Wolfe
// cost loops: alpha 2 without idle power takes the inline path, alpha 3
// and alpha 2 with idle power (an envelope kink) the generic one. The
// "tight" capacity is low enough that the capacity penalty switches on in
// the line search, with and without a background load.
var goldenRelaxationModels = []struct {
	name  string
	model dcnflow.ModelSpec
}{
	{"a2", dcnflow.ModelSpec{Mu: 1, Alpha: 2, C: 1e12}},
	{"a3", dcnflow.ModelSpec{Mu: 1, Alpha: 3, C: 1e12}},
	{"a2-sigma1", dcnflow.ModelSpec{Sigma: 1, Mu: 1, Alpha: 2, C: 1e12}},
	{"a2-tight", dcnflow.ModelSpec{Mu: 1, Alpha: 2, C: 2}},
}

// goldenRelaxationCase is one fixture row's request: a scenario, the solver
// family, and its options at a given interval fan-out width.
type goldenRelaxationCase struct {
	spec    dcnflow.ScenarioSpec
	solver  string
	options func(parallelism int) []dcnflow.SolveOption
}

// goldenRelaxationCases pairs every model with an offline "dcfsr" solve of
// a uniform workload and a "rolling-online" run of a diurnal trace with the
// online-delta settings: a re-plan per arrival, 30 Frank–Wolfe iterations,
// warm starts, and delta epochs with drift bound 0.25 and at most 16 stale
// epochs.
func goldenRelaxationCases() []goldenRelaxationCase {
	top := dcnflow.TopologySpec{Kind: "fattree", K: 4, Capacity: 1e12}
	var out []goldenRelaxationCase
	for i, m := range goldenRelaxationModels {
		out = append(out, goldenRelaxationCase{
			spec: dcnflow.ScenarioSpec{
				Name:     "ft4-uniform-n30-" + m.name,
				Topology: top,
				Workload: dcnflow.WorkloadSpec{
					Kind: "uniform", N: 30, T0: 1, T1: 100, SizeMean: 10, SizeStddev: 3, Seed: int64(21 + i),
				},
				Model: m.model,
				Seed:  int64(5 + i),
			},
			solver: dcnflow.SolverDCFSR,
			options: func(p int) []dcnflow.SolveOption {
				return []dcnflow.SolveOption{dcnflow.WithDCFSROptions(dcnflow.DCFSROptions{Parallelism: p})}
			},
		}, goldenRelaxationCase{
			spec: dcnflow.ScenarioSpec{
				Name:     "ft4-diurnal-n60-" + m.name,
				Topology: top,
				Workload: dcnflow.WorkloadSpec{
					Kind: "diurnal", N: 60, T0: 0, T1: 100, PeakFactor: 5, SizeMean: 8, SizeStddev: 2, Seed: int64(31 + i),
				},
				Model: m.model,
				Seed:  int64(9 + i),
			},
			solver: dcnflow.SolverRollingOnline,
			options: func(p int) []dcnflow.SolveOption {
				return []dcnflow.SolveOption{dcnflow.WithRollingOptions(dcnflow.RollingOptions{
					Policy: dcnflow.ArrivalCount{N: 1},
					DCFSR: dcnflow.DCFSROptions{
						Solver: dcnflow.SolverOptions{MaxIters: 30}, WarmStart: true, Parallelism: p,
					},
					Delta: dcnflow.DeltaOptions{Enabled: true, DriftBound: 0.25, MaxStaleEpochs: 16},
				})}
			},
		})
	}
	return out
}

// goldenRelaxationRowOf summarises one solution as a fixture row. A
// rolling run reports no lower bound; its first epoch's residual bound
// stands in.
func goldenRelaxationRowOf(c goldenRelaxationCase, sol *dcnflow.Solution) goldenRelaxationRow {
	lb := sol.LowerBound
	if c.solver == dcnflow.SolverRollingOnline {
		lb = sol.Stats["first_residual_lb"]
	}
	stats := make(map[string]string)
	for _, k := range goldenRelaxationStats[c.solver] {
		stats[k] = floatBits(sol.Stats[k])
	}
	return goldenRelaxationRow{
		Scenario:       c.spec.Name,
		Solver:         c.solver,
		EnergyBits:     floatBits(sol.Energy),
		LowerBoundBits: floatBits(lb),
		ScheduleHash:   scheduleHash(sol.Schedule),
		Stats:          stats,
	}
}

// TestGoldenRelaxationOutputs pins the exact outputs of the relaxation
// families, "dcfsr" and "rolling-online" with delta epochs: energy and
// lower-bound bits, a hash of every flow's path and rate-segment bits, and
// the iteration and epoch counters. Every row must come out the same at
// interval fan-out widths 1, 2 and 7, through an Engine with pooled
// solvers and through a direct Solve, which builds its instance
// and its solvers per call.
//
// testdata/golden_relaxation_outputs.jsonl was generated once, at commit
// 3365ba1 (before the work-stealing interval fan-out and the inline
// background-load loops), with
//
//	go test -run TestGoldenRelaxationOutputs -update-golden-relaxation .
//
// Regenerate it only for a change that is meant to alter solver outputs.
func TestGoldenRelaxationOutputs(t *testing.T) {
	cases := goldenRelaxationCases()
	eng := dcnflow.NewEngine(dcnflow.EngineOptions{})
	paths := []struct {
		name  string
		solve func(c goldenRelaxationCase, p int) (*dcnflow.Solution, error)
	}{
		{"pooled", func(c goldenRelaxationCase, p int) (*dcnflow.Solution, error) {
			res := eng.Solve(context.Background(), dcnflow.Request{Scenario: &c.spec, Solver: c.solver, Options: c.options(p)})
			return res.Solution, res.Err
		}},
		{"unpooled", func(c goldenRelaxationCase, p int) (*dcnflow.Solution, error) {
			inst, err := c.spec.Instance()
			if err != nil {
				return nil, err
			}
			// The scenario seed comes last, as the Engine applies it.
			return dcnflow.Solve(context.Background(), c.solver, inst, append(c.options(p), dcnflow.WithSeed(c.spec.Seed))...)
		}},
	}
	solve := func(t *testing.T, path int, c goldenRelaxationCase, p int) goldenRelaxationRow {
		t.Helper()
		sol, err := paths[path].solve(c, p)
		if err != nil {
			t.Fatalf("%s: %s/%s at parallelism %d: %v", paths[path].name, c.spec.Name, c.solver, p, err)
		}
		return goldenRelaxationRowOf(c, sol)
	}

	if *updateGoldenRelaxation {
		var rows []goldenRelaxationRow
		for _, c := range cases {
			rows = append(rows, solve(t, 0, c, 1))
		}
		writeGoldenRows(t, goldenRelaxationFile, rows)
		return
	}
	want := readGoldenRows[goldenRelaxationRow](t, goldenRelaxationFile)
	if len(cases) != len(want) {
		t.Fatalf("%d cases, fixture has %d rows", len(cases), len(want))
	}
	for path := range paths {
		for _, p := range []int{1, 2, 7} {
			t.Run(fmt.Sprintf("%s/p%d", paths[path].name, p), func(t *testing.T) {
				for i, c := range cases {
					if got := solve(t, path, c, p); !reflect.DeepEqual(got, want[i]) {
						t.Errorf("row %d changed:\n got  %+v\n want %+v", i, got, want[i])
					}
				}
			})
		}
	}
}
