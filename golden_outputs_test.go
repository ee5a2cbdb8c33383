package dcnflow_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"testing"

	"dcnflow"
)

var updateGoldenOutputs = flag.Bool("update-golden-outputs", false,
	"rewrite testdata/golden_solver_outputs.jsonl from the current solvers")

const goldenOutputsFile = "testdata/golden_solver_outputs.jsonl"

// goldenOutputRow is one (scenario, solver) line of the solver-output
// fixture. Floats are stored as their IEEE-754 bits so the comparison is
// exact.
type goldenOutputRow struct {
	Scenario   string `json:"scenario"`
	Solver     string `json:"solver"`
	EnergyBits string `json:"energy_bits"`
	Rounds     int    `json:"rounds"`
	Conflicts  int    `json:"conflicts"`
	// ScheduleHash is FNV-1a over every flow's id, path edges, priority and
	// rate segments (start, end and rate bits), in flow-id order.
	ScheduleHash string `json:"schedule_hash"`
}

// goldenOutputScenarios is the fixture's corpus: the serving benchmark's
// request shapes (fat-tree k=8, uniform N = 40, 80 and 120 on [1, 100],
// sizes N(10, 3), alpha 2) plus shared-window incast and shuffle patterns
// on a leaf-spine and a BCube, which put many flows in one window and so
// exercise Most-Critical-First's path conflicts.
func goldenOutputScenarios() []dcnflow.ScenarioSpec {
	model := dcnflow.ModelSpec{Mu: 1, Alpha: 2, C: 1e12}
	var out []dcnflow.ScenarioSpec
	for i, n := range []int{40, 80, 120} {
		out = append(out, dcnflow.ScenarioSpec{
			Name:     fmt.Sprintf("ft8-uniform-n%d", n),
			Topology: dcnflow.TopologySpec{Kind: "fattree", K: 8, Capacity: 1e12},
			Workload: dcnflow.WorkloadSpec{
				Kind: "uniform", N: n, T0: 1, T1: 100, SizeMean: 10, SizeStddev: 3,
				Seed: int64(101 + i),
			},
			Model: model,
			Seed:  int64(7 + i),
		})
	}
	leafSpine := dcnflow.TopologySpec{Kind: "leafspine", Spines: 2, Leaves: 4, HostsPerLeaf: 4, Capacity: 1e12}
	bcube := dcnflow.TopologySpec{Kind: "bcube", K: 4, L: 1, Capacity: 1e12}
	patterns := []struct {
		name string
		top  dcnflow.TopologySpec
		w    dcnflow.WorkloadSpec
	}{
		{"leafspine-incast-h9", leafSpine, dcnflow.WorkloadSpec{Kind: "incast", Hosts: 9, Release: 0, Deadline: 10, Size: 4}},
		{"leafspine-shuffle-h5", leafSpine, dcnflow.WorkloadSpec{Kind: "shuffle", Hosts: 5, Release: 2, Deadline: 12, Size: 3}},
		{"bcube-incast-h12", bcube, dcnflow.WorkloadSpec{Kind: "incast", Hosts: 12, Release: 0, Deadline: 8, Size: 5}},
		{"bcube-shuffle-h6", bcube, dcnflow.WorkloadSpec{Kind: "shuffle", Hosts: 6, Release: 1, Deadline: 9, Size: 2}},
		{"bcube-partition-aggregate-h16", bcube, dcnflow.WorkloadSpec{Kind: "partition-aggregate", Hosts: 16, Release: 0, Deadline: 20, Size: 1, Tightness: 0.5}},
	}
	for i, p := range patterns {
		out = append(out, dcnflow.ScenarioSpec{
			Name: p.name, Topology: p.top, Workload: p.w,
			Model: dcnflow.ModelSpec{Mu: 1, Alpha: 2 + 0.5*float64(i%3), C: 1e12},
			Seed:  int64(3 + i),
		})
	}
	return out
}

// goldenOutputSolvers are the solver families whose outputs the fixture
// pins: the three Most-Critical-First routings and the online greedy.
var goldenOutputSolvers = []string{
	dcnflow.SolverSPMCF, dcnflow.SolverECMPMCF, dcnflow.SolverDCFSMCF, dcnflow.SolverGreedyOnline,
}

// scheduleHash is FNV-1a over every flow's id, path edges, priority and
// rate segments (start, end and rate bits), in flow-id order.
func scheduleHash(sched *dcnflow.Schedule) string {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	for _, id := range sched.FlowIDs() {
		fs := sched.FlowSchedule(id)
		put(uint64(id))
		put(uint64(len(fs.Path.Edges)))
		for _, e := range fs.Path.Edges {
			put(uint64(e))
		}
		put(uint64(fs.Priority))
		put(uint64(len(fs.Segments)))
		for _, s := range fs.Segments {
			put(math.Float64bits(s.Interval.Start))
			put(math.Float64bits(s.Interval.End))
			put(math.Float64bits(s.Rate))
		}
	}
	return fmt.Sprintf("%#016x", h.Sum64())
}

// floatBits formats a float as its IEEE-754 bits, the fixtures' exact form.
func floatBits(v float64) string { return fmt.Sprintf("%#016x", math.Float64bits(v)) }

// goldenOutputRowOf summarises one solution as a fixture row.
func goldenOutputRowOf(scenario, solver string, sol *dcnflow.Solution) goldenOutputRow {
	return goldenOutputRow{
		Scenario:     scenario,
		Solver:       solver,
		EnergyBits:   floatBits(sol.Energy),
		Rounds:       int(sol.Stats["rounds"]),
		Conflicts:    int(sol.Stats["conflicts"]),
		ScheduleHash: scheduleHash(sol.Schedule),
	}
}

// writeGoldenRows rewrites a JSONL fixture, one row per line.
func writeGoldenRows[T any](t *testing.T, path string, rows []T) {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, r := range rows {
		if err := enc.Encode(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %d rows to %s", len(rows), path)
}

// readGoldenRows loads a JSONL fixture.
func readGoldenRows[T any](t *testing.T, path string) []T {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var rows []T
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var r T
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		rows = append(rows, r)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestGoldenSolverOutputs pins the exact outputs of Most-Critical-First
// (sp-mcf, ecmp-mcf, dcfs-mcf) and the greedy online admission on a small
// fixed corpus: energy bits, round and conflict counts, and a hash of every
// flow's path and rate-segment bits. Performance work on these solvers
// must leave every row unchanged.
//
// testdata/golden_solver_outputs.jsonl was generated once, at commit
// 8447a6d (before the incremental Most-Critical-First search and the
// compiled-graph greedy routing), with
//
//	go test -run TestGoldenSolverOutputs -update-golden-outputs .
//
// Regenerate it only for a change that is meant to alter solver outputs.
func TestGoldenSolverOutputs(t *testing.T) {
	eng := dcnflow.NewEngine(dcnflow.EngineOptions{})
	var got []goldenOutputRow
	for _, spec := range goldenOutputScenarios() {
		for _, solver := range goldenOutputSolvers {
			res := eng.Solve(context.Background(), dcnflow.Request{Scenario: &spec, Solver: solver})
			if res.Err != nil {
				t.Fatalf("%s/%s: %v", spec.Name, solver, res.Err)
			}
			got = append(got, goldenOutputRowOf(spec.Name, solver, res.Solution))
		}
	}

	if *updateGoldenOutputs {
		writeGoldenRows(t, goldenOutputsFile, got)
		return
	}
	want := readGoldenRows[goldenOutputRow](t, goldenOutputsFile)
	if len(got) != len(want) {
		t.Fatalf("%d rows, fixture has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("row %d changed:\n got  %+v\n want %+v", i, got[i], want[i])
		}
	}
}
