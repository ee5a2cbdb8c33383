package dcnflow_test

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"dcnflow"
)

// engineCorpus reduces the conformance sweep grid to its distinct
// scenarios (cells differing only in solver collapse to one entry).
func engineCorpus(t *testing.T) []dcnflow.ScenarioSpec {
	t.Helper()
	spec := conformanceSpec()
	var out []dcnflow.ScenarioSpec
	seen := make(map[string]bool)
	for _, c := range spec.Cells() {
		if !seen[c.Scenario.Name] {
			seen[c.Scenario.Name] = true
			out = append(out, c.Scenario)
		}
	}
	if len(out) == 0 {
		t.Fatal("conformance grid expanded to no scenarios")
	}
	return out
}

var engineTestOptions = []dcnflow.SolveOption{
	dcnflow.WithSolverOptions(dcnflow.SolverOptions{MaxIters: 20}),
}

// solveDirect reproduces exactly what the engine promises to match: a
// fresh instance from the spec, a direct Solve, the scenario seed applied
// after the shared options.
func solveDirect(t *testing.T, scen *dcnflow.ScenarioSpec, solver string) *dcnflow.Solution {
	t.Helper()
	inst, err := scen.Instance()
	if err != nil {
		t.Fatalf("building %s: %v", scen.Name, err)
	}
	opts := append(append([]dcnflow.SolveOption{}, engineTestOptions...), dcnflow.WithSeed(scen.Seed))
	sol, err := dcnflow.Solve(context.Background(), solver, inst, opts...)
	if err != nil {
		t.Fatalf("direct %s on %s: %v", solver, scen.Name, err)
	}
	return sol
}

func assertSolutionsEqual(t *testing.T, label string, want, got *dcnflow.Solution) {
	t.Helper()
	if want.Energy != got.Energy || want.LowerBound != got.LowerBound {
		t.Errorf("%s: energy/LB diverged: direct (%v, %v) vs engine (%v, %v)",
			label, want.Energy, want.LowerBound, got.Energy, got.LowerBound)
		return
	}
	if !reflect.DeepEqual(want.Stats, got.Stats) {
		t.Errorf("%s: stats diverged: %v vs %v", label, want.Stats, got.Stats)
	}
	if !reflect.DeepEqual(want.Schedule, got.Schedule) {
		t.Errorf("%s: schedules diverged", label)
	}
}

// TestEngineMatchesDirectSolve is the cache bit-identicality regression of
// the acceptance criteria: for every scenario of the conformance corpus and
// every registered solver family, Engine solves — cold and warm alike —
// must equal the direct Solve output exactly: same energy bits,
// bounds, stats and schedules.
func TestEngineMatchesDirectSolve(t *testing.T) {
	corpus := engineCorpus(t)
	solvers := dcnflow.SolverNames()
	if len(solvers) < 8 {
		t.Fatalf("solver table lists %d solvers, want the eight built-in families", len(solvers))
	}
	eng := dcnflow.NewEngine(dcnflow.EngineOptions{})
	for _, scen := range corpus {
		scen := scen
		for _, solver := range solvers {
			want := solveDirect(t, &scen, solver)
			r := eng.Solve(context.Background(), dcnflow.Request{Scenario: &scen, Solver: solver, Options: engineTestOptions})
			if r.Err != nil {
				t.Fatalf("engine %s on %s: %v", solver, scen.Name, r.Err)
			}
			assertSolutionsEqual(t, fmt.Sprintf("%s/%s", scen.Name, solver), want, r.Solution)
		}
	}
	// The engine saw every scenario |solvers| times: by the second visit
	// its topology+model pairs must be warm.
	if st := eng.Stats(); st.Hits == 0 {
		t.Errorf("engine recorded no cache hits over %d requests", len(corpus)*len(solvers))
	}
}

// TestEngineConcurrentMixedSolvesBitIdentical is the shared-engine race
// regression (run under -race by make test-race-online): N goroutines
// solving a mixed scenario x solver stream through ONE engine must each
// observe results bit-identical to a sequential reference run.
func TestEngineConcurrentMixedSolvesBitIdentical(t *testing.T) {
	corpus := engineCorpus(t)
	if len(corpus) > 6 {
		corpus = corpus[:6]
	}
	solvers := []string{
		dcnflow.SolverDCFSR, dcnflow.SolverSPMCF, dcnflow.SolverECMPMCF,
		dcnflow.SolverGreedyOnline, dcnflow.SolverRollingOnline,
	}
	type job struct {
		scen   *dcnflow.ScenarioSpec
		solver string
	}
	var jobs []job
	for i := range corpus {
		for _, s := range solvers {
			jobs = append(jobs, job{&corpus[i], s})
		}
	}
	want := make([]*dcnflow.Solution, len(jobs))
	for i, j := range jobs {
		want[i] = solveDirect(t, j.scen, j.solver)
	}

	eng := dcnflow.NewEngine(dcnflow.EngineOptions{})
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan string, goroutines*len(jobs))
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each goroutine walks the jobs at a different offset so the
			// engine sees genuinely mixed concurrent traffic.
			for k := range jobs {
				i := (k + w*3) % len(jobs)
				r := eng.Solve(context.Background(), dcnflow.Request{Scenario: jobs[i].scen, Solver: jobs[i].solver, Options: engineTestOptions})
				if r.Err != nil {
					errs <- fmt.Sprintf("goroutine %d: %s on %s: %v", w, jobs[i].solver, jobs[i].scen.Name, r.Err)
					return
				}
				if r.Solution.Energy != want[i].Energy || r.Solution.LowerBound != want[i].LowerBound ||
					!reflect.DeepEqual(r.Solution.Stats, want[i].Stats) ||
					!reflect.DeepEqual(r.Solution.Schedule, want[i].Schedule) {
					errs <- fmt.Sprintf("goroutine %d: %s on %s diverged from the sequential reference",
						w, jobs[i].solver, jobs[i].scen.Name)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
}

// engineBenchScenario is a cache-friendly workload: a big topology (the
// paper's fat-tree k=8: 80 switches, 128 hosts, ~1.5k directed links)
// under a small flow set, so compilation dominates a cold solve.
func engineBenchScenario() *dcnflow.ScenarioSpec {
	return &dcnflow.ScenarioSpec{
		Name:     "engine-bench",
		Topology: dcnflow.TopologySpec{Kind: "fattree", K: 8, Capacity: 1000},
		Workload: dcnflow.WorkloadSpec{Kind: "uniform", N: 4, T0: 1, T1: 12, SizeMean: 4, SizeStddev: 1, Seed: 3},
		Model:    dcnflow.ModelSpec{Mu: 1, Alpha: 2, C: 1000},
		Seed:     1,
	}
}

// engineBenchOptions keeps the relaxation single-threaded so allocation
// counts are deterministic, and short so the benchmark iterates quickly.
func engineBenchOptions() []dcnflow.SolveOption {
	return []dcnflow.SolveOption{dcnflow.WithDCFSROptions(dcnflow.DCFSROptions{
		Parallelism: 1,
		Solver:      dcnflow.SolverOptions{MaxIters: 8},
	})}
}

// TestEngineWarmCacheAllocWin pins the acceptance criterion behind
// BenchmarkEngineRepeatedSolve: a warm engine solve must allocate at most
// half of what a cold (fresh-engine) solve does, because topology
// generation, graph compilation and solver scratch are all served from the
// caches.
func TestEngineWarmCacheAllocWin(t *testing.T) {
	spec := engineBenchScenario()
	opts := engineBenchOptions()
	solveOn := func(eng *dcnflow.Engine) {
		r := eng.Solve(context.Background(), dcnflow.Request{Scenario: spec, Solver: dcnflow.SolverDCFSR, Options: opts})
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	cold := testing.AllocsPerRun(5, func() {
		solveOn(dcnflow.NewEngine(dcnflow.EngineOptions{}))
	})
	warm := dcnflow.NewEngine(dcnflow.EngineOptions{})
	solveOn(warm) // prime the caches
	warmAllocs := testing.AllocsPerRun(5, func() {
		solveOn(warm)
	})
	if warmAllocs*2 > cold {
		t.Errorf("warm solve allocates %.0f, cold %.0f: want >= 2x fewer allocs warm", warmAllocs, cold)
	}
	t.Logf("allocs/op: cold %.0f, warm %.0f (%.1fx)", cold, warmAllocs, cold/warmAllocs)
}

// TestEngineLRUEviction: the compiled-instance cache respects its bound
// and counts evictions.
func TestEngineLRUEviction(t *testing.T) {
	eng := dcnflow.NewEngine(dcnflow.EngineOptions{CacheSize: 2})
	specFor := func(k int) *dcnflow.ScenarioSpec {
		return &dcnflow.ScenarioSpec{
			Topology: dcnflow.TopologySpec{Kind: "line", K: k, Capacity: 100},
			Workload: dcnflow.WorkloadSpec{Kind: "shuffle", Hosts: 2, Deadline: 4, Size: 1},
			Model:    dcnflow.ModelSpec{Mu: 1, Alpha: 2, C: 100},
		}
	}
	for _, k := range []int{3, 4, 5, 3} {
		if _, err := eng.Compile(specFor(k)); err != nil {
			t.Fatal(err)
		}
	}
	st := eng.Stats()
	if st.Size != 2 || st.Capacity != 2 {
		t.Errorf("cache size %d/%d, want 2/2", st.Size, st.Capacity)
	}
	if st.Evictions == 0 {
		t.Errorf("expected evictions past the bound, got %+v", st)
	}
	if st.Misses != 4 {
		// k=3 was evicted by k=5 before its second visit, so all four
		// lookups miss.
		t.Errorf("expected 4 misses (the re-visit was evicted), got %+v", st)
	}
	// A warm pair re-compiles to the identical shared artifacts.
	c1, err := eng.Compile(specFor(5))
	if err != nil {
		t.Fatal(err)
	}
	c2, err := eng.Compile(specFor(5))
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Error("warm Compile returned distinct compilations")
	}
	if c1.Topology() == nil {
		t.Error("compiled instance carries no artifacts")
	}
}

// TestEngineBuildsOutsideCacheLock: a compiled-instance build (topology
// generation and graph compile) runs outside the engine's cache lock, so
// cache hits on other topologies keep answering while a large build is in
// flight. One Engine behind `dcnflow serve` relies on this: a cold
// topology must not stall requests for warm ones.
func TestEngineBuildsOutsideCacheLock(t *testing.T) {
	eng := dcnflow.NewEngine(dcnflow.EngineOptions{})
	model := dcnflow.ModelSpec{Mu: 1, Alpha: 2, C: 1000}
	small := &dcnflow.ScenarioSpec{
		Topology: dcnflow.TopologySpec{Kind: "line", K: 3, Capacity: 1000},
		Workload: dcnflow.WorkloadSpec{Kind: "shuffle", Hosts: 2, Deadline: 4, Size: 1},
		Model:    model,
	}
	big := &dcnflow.ScenarioSpec{
		Topology: dcnflow.TopologySpec{Kind: "fattree", K: 64, Capacity: 1000},
		Workload: dcnflow.WorkloadSpec{Kind: "uniform", N: 1, T1: 10, SizeMean: 1},
		Model:    model,
	}
	if _, err := eng.Compile(small); err != nil {
		t.Fatal(err)
	}
	var bigDone atomic.Bool
	bigErr := make(chan error, 1)
	go func() {
		_, err := eng.Compile(big)
		bigDone.Store(true)
		bigErr <- err
	}()
	// The miss is counted under the lock before the build starts.
	for eng.Stats().Misses < 2 {
		runtime.Gosched()
	}
	const hits = 100
	for i := 0; i < hits; i++ {
		if _, err := eng.Compile(small); err != nil {
			t.Fatal(err)
		}
	}
	if bigDone.Load() {
		t.Errorf("the fat-tree k=64 build returned before %d cache hits on a warm topology did", hits)
	}
	if err := <-bigErr; err != nil {
		t.Fatal(err)
	}
	if st := eng.Stats(); st.Hits != hits || st.Misses != 2 {
		t.Errorf("cache counters %+v, want %d hits and 2 misses", st, hits)
	}
}

// TestEngineInstanceSharing: requests naming the same topology, workload
// and model share one Instance; the solver seed stays per-request.
func TestEngineInstanceSharing(t *testing.T) {
	eng := dcnflow.NewEngine(dcnflow.EngineOptions{})
	a := engineBenchScenario()
	b := engineBenchScenario()
	b.Seed = 99 // solver seed differs; instance identity must not
	ia, err := eng.Instance(a)
	if err != nil {
		t.Fatal(err)
	}
	ib, err := eng.Instance(b)
	if err != nil {
		t.Fatal(err)
	}
	if ia != ib {
		t.Error("identical topology+workload+model did not share an Instance")
	}
	c := engineBenchScenario()
	c.Workload.Seed = 77 // different generated workload -> different instance
	ic, err := eng.Instance(c)
	if err != nil {
		t.Fatal(err)
	}
	if ic == ia {
		t.Error("distinct workloads shared an Instance")
	}
}

// TestEngineRequestValidation: malformed requests come back as ErrBadRequest
// results, never panics.
func TestEngineRequestValidation(t *testing.T) {
	eng := dcnflow.NewEngine(dcnflow.EngineOptions{})
	spec := engineBenchScenario()
	inst, err := eng.Instance(spec)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]dcnflow.Request{
		"neither":          {Solver: dcnflow.SolverDCFSR},
		"both":             {Scenario: spec, Instance: inst, Solver: dcnflow.SolverDCFSR},
		"negative timeout": {Scenario: spec, Solver: dcnflow.SolverDCFSR, Timeout: -1},
	}
	for name, req := range cases {
		if r := eng.Solve(context.Background(), req); r.Err == nil {
			t.Errorf("%s: expected an error", name)
		} else if !strings.Contains(r.Err.Error(), "invalid request") {
			t.Errorf("%s: error %v does not wrap ErrBadRequest", name, r.Err)
		}
	}
	if r := eng.Solve(context.Background(), dcnflow.Request{Scenario: spec, Solver: "no-such"}); r.Err == nil {
		t.Error("unknown solver: expected an error")
	}
	bad := *spec
	bad.Topology.Kind = "torus"
	if r := eng.Solve(context.Background(), dcnflow.Request{Scenario: &bad, Solver: dcnflow.SolverDCFSR}); r.Err == nil {
		t.Error("invalid scenario: expected an error")
	}
}

// TestEngineSolveBatchDeterministicAndOrdered: batch results land in
// request order, per-request failures never abort the batch, and the
// outcome is identical for every worker count.
func TestEngineSolveBatchDeterministicAndOrdered(t *testing.T) {
	corpus := engineCorpus(t)
	reqs := []dcnflow.Request{
		{Scenario: &corpus[0], Solver: dcnflow.SolverSPMCF},
		{Solver: dcnflow.SolverDCFSR}, // invalid: neither scenario nor instance
		{Scenario: &corpus[1], Solver: dcnflow.SolverDCFSR},
		{Scenario: &corpus[0], Solver: "no-such-solver"},
		{Scenario: &corpus[2], Solver: dcnflow.SolverGreedyOnline},
	}
	for i := range reqs {
		reqs[i].Options = engineTestOptions
	}
	run := func(workers int) []dcnflow.Result {
		eng := dcnflow.NewEngine(dcnflow.EngineOptions{Workers: workers})
		return eng.SolveBatch(context.Background(), reqs)
	}
	ref := run(1)
	if len(ref) != len(reqs) {
		t.Fatalf("batch answered %d results for %d requests", len(ref), len(reqs))
	}
	if ref[1].Err == nil || ref[3].Err == nil {
		t.Fatal("invalid batch entries did not fail")
	}
	for _, i := range []int{0, 2, 4} {
		if ref[i].Err != nil {
			t.Fatalf("request %d failed: %v", i, ref[i].Err)
		}
	}
	for _, workers := range []int{2, 8} {
		got := run(workers)
		for i := range ref {
			if (ref[i].Err == nil) != (got[i].Err == nil) {
				t.Fatalf("workers=%d: request %d error mismatch", workers, i)
			}
			if ref[i].Err != nil {
				continue
			}
			if ref[i].Solution.Energy != got[i].Solution.Energy ||
				!reflect.DeepEqual(ref[i].Solution.Stats, got[i].Solution.Stats) {
				t.Errorf("workers=%d: request %d diverged", workers, i)
			}
		}
	}
}

// TestEngineLowerBoundMemoised: the shared bound is computed once per
// (scenario, options) and matches the direct computation.
func TestEngineLowerBoundMemoised(t *testing.T) {
	corpus := engineCorpus(t)
	scen := &corpus[0]
	eng := dcnflow.NewEngine(dcnflow.EngineOptions{})
	lb1, err := eng.LowerBound(context.Background(), scen, engineTestOptions...)
	if err != nil {
		t.Fatal(err)
	}
	lb2, err := eng.LowerBound(context.Background(), scen, engineTestOptions...)
	if err != nil {
		t.Fatal(err)
	}
	if lb1 != lb2 {
		t.Fatalf("memoised bound drifted: %v vs %v", lb1, lb2)
	}
	inst, err := scen.Instance()
	if err != nil {
		t.Fatal(err)
	}
	want, err := dcnflow.LowerBound(context.Background(), inst.Graph(), inst.Flows(), inst.Model(),
		dcnflow.DCFSROptions{Solver: dcnflow.SolverOptions{MaxIters: 20}})
	if err != nil {
		t.Fatal(err)
	}
	if lb1 != want {
		t.Fatalf("engine bound %v differs from direct bound %v", lb1, want)
	}
}
