package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"

	"dcnflow"
)

// workload is one benchmark workload. Why each exists is recorded in
// BENCHMARK.json and bench/README.md.
type workload struct {
	name string
	run  func(ctx context.Context, e *env) (*report, error)
}

var workloads = []workload{
	{"paper-k8", func(ctx context.Context, e *env) (*report, error) { return runSolveLoad(ctx, paperK8, e) }},
	{"large-k32", func(ctx context.Context, e *env) (*report, error) { return runSolveLoad(ctx, largeK32, e) }},
	{"online-delta", func(ctx context.Context, e *env) (*report, error) { return runOnline(ctx, onlineDelta, e) }},
	{"serve-ft8", func(ctx context.Context, e *env) (*report, error) {
		return runServeLoad(ctx, serveFT8, e, spawnServer(e.serverBin))
	}},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// setupRepeats is how many times each workload sets up; setup_s is the
// median, so one slow start-up does not decide it.
const setupRepeats = 5

// paperModel is the link power model of every workload: the paper's
// speed-scaling model at alpha = 2, effectively uncapped.
var paperModel = dcnflow.ModelSpec{Mu: 1, Alpha: 2, C: 1e12}

// fatTree declares a fat-tree of arity k with effectively unbounded links.
func fatTree(k int) dcnflow.TopologySpec {
	return dcnflow.TopologySpec{Kind: "fattree", K: k, Capacity: 1e12}
}

// derive maps the run seed, a stream name and an index to an input seed.
// Distinct streams (requests, warm-up, corpus, schedule, ...) never share
// seeds, and the program under test sees only what the seeds generate.
func derive(seed int64, stream string, i int) int64 {
	h := fnv.New64a()
	h.Write([]byte(stream))
	x := uint64(seed)*0x9E3779B97F4A7C15 ^ h.Sum64() ^ uint64(i)*0xBF58476D1CE4E5B9
	// splitmix64 finalizer.
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x>>1) | 1
}

// maxRSSMB is this process's peak resident set in MB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024
}

// rssProbe samples the peak resident set once a fixed number of timed
// operations has run, so max_rss_mb does not grow with how many operations
// a run fits: the engine's pooled solvers keep every path they have ever
// interned, so memory rises with the number of solves.
type rssProbe struct {
	after int
	mb    float64
}

// done is called with the number of operations run so far.
func (p *rssProbe) done(n int) {
	if n == p.after {
		p.mb = maxRSSMB()
	}
}

// report fills max_rss_mb: the sample, or the peak at the end of a run too
// short to reach it.
func (p *rssProbe) report(rep *report) {
	rep.e2e["max_rss_mb"] = p.mb
	rep.notes["max_rss_mb"] = fmt.Sprintf("(peak after %d operations)", p.after)
	if p.mb == 0 {
		rep.e2e["max_rss_mb"] = maxRSSMB()
		rep.notes["max_rss_mb"] = fmt.Sprintf("(peak at the end: fewer than %d operations ran)", p.after)
	}
}

// relTol is the relative tolerance of the energy checks: the simulator
// integrates the same rates in a different order than the solver.
const relTol = 1e-6

// checkSchedule replays a schedule in the simulator and checks that every
// flow meets its deadline, no link exceeds its capacity, the simulated
// energy matches the solver's and (when lb > 0) the energy is at least the
// lower bound. It returns what is wrong (nil when nothing is) and records
// schedule.energy and sim.replay spans.
func checkSchedule(tr *tracer, req int, g *dcnflow.Graph, fs *dcnflow.FlowSet, sched *dcnflow.Schedule,
	m dcnflow.PowerModel, energy, lb float64, rep *report) []string {
	t0 := time.Now()
	total := sched.EnergyTotal(m)
	t1 := time.Now()
	tr.add(0, req, "schedule.energy", t0, t1, map[string]any{"phase": "check"})
	res, err := dcnflow.Simulate(g, fs, sched, m, dcnflow.SimOptions{})
	t2 := time.Now()
	if err != nil {
		return []string{fmt.Sprintf("simulator: %v", err)}
	}
	tr.add(0, req, "sim.replay", t1, t2, map[string]any{
		"phase": "check", "misses": res.DeadlinesMissed, "violations": res.CapacityViolations,
	})
	rep.layers["sim.deadline_misses"] += float64(res.DeadlinesMissed)
	rep.layers["sim.capacity_violations"] += float64(res.CapacityViolations)
	var bad []string
	if res.DeadlinesMissed > 0 {
		bad = append(bad, fmt.Sprintf("%d deadline misses", res.DeadlinesMissed))
	}
	if res.CapacityViolations > 0 {
		bad = append(bad, fmt.Sprintf("%d capacity violations", res.CapacityViolations))
	}
	if math.Abs(res.TotalEnergy-energy) > relTol*math.Abs(energy) || math.Abs(total-energy) > relTol*math.Abs(energy) {
		bad = append(bad, fmt.Sprintf("energy %v, schedule %v, simulated %v", energy, total, res.TotalEnergy))
	}
	if lb > 0 && energy < lb*(1-1e-9) {
		bad = append(bad, fmt.Sprintf("energy %v below lower bound %v", energy, lb))
	}
	return bad
}

// engineSolve runs one request through the engine and, when traced,
// records an engine.solve span with core.relax and core.round children
// derived from the solver's per-interval progress events: relaxation runs
// from the solve's start to the last interval event, rounding from there
// to the return.
func engineSolve(ctx context.Context, eng *dcnflow.Engine, req dcnflow.Request, tr *tracer, id int, phase string) dcnflow.Result {
	if tr == nil {
		return eng.Solve(ctx, req)
	}
	var (
		last      time.Time
		intervals int
	)
	req.Options = append(append([]dcnflow.SolveOption(nil), req.Options...), dcnflow.WithProgress(func(ev dcnflow.ProgressEvent) {
		if ev.Stage == "interval" {
			last = time.Now()
			intervals++
		}
	}))
	t0 := time.Now()
	res := eng.Solve(ctx, req)
	t1 := time.Now()
	attrs := map[string]any{
		"phase": phase, "solver": req.Solver, "cache_hit": res.CacheHit,
		"runtime_ms": float64(res.Runtime) / 1e6,
	}
	if res.Err == nil && req.Solver == dcnflow.SolverDCFSR {
		attrs["intervals"] = res.Solution.Stats["intervals"]
		attrs["attempts"] = res.Solution.Stats["attempts"]
	}
	root := tr.add(0, id, "engine.solve", t0, t1, attrs)
	if intervals > 0 {
		tr.add(root, id, "core.relax", t0, last, map[string]any{"interval_events": intervals})
		tr.add(root, id, "core.round", last, t1, nil)
	}
	return res
}

// engineLayers fills the engine and core per-layer metrics from the
// engine.solve spans and their children.
func engineLayers(tr *tracer, rep *report) {
	rts := tr.attrs("engine.solve", "runtime_ms")
	rep.layers["engine.solve_ms_p50"] = median(rts)
	rep.notes["engine.solve_ms_p50"] = fmt.Sprintf("(n=%d)", len(rts))
	var hits float64
	spans := tr.named("engine.solve")
	for _, s := range spans {
		if s.Attrs["cache_hit"] == true {
			hits++
		}
	}
	rep.layers["engine.cache_hit_ratio"] = hits / float64(max(1, len(spans)))
	relax := tr.durations("core.relax")
	rep.layers["core.relax_ms_p50"] = median(relax)
	rep.notes["core.relax_ms_p50"] = fmt.Sprintf("(n=%d)", len(relax))
	rep.layers["core.round_ms_p50"] = median(tr.durations("core.round"))
	rep.layers["core.intervals_per_solve"] = mean(tr.attrs("engine.solve", "intervals"))
	rep.layers["core.round_attempts_mean"] = mean(tr.attrs("engine.solve", "attempts"))
}

// timedLayers fills the trace-health metrics — the tracing overhead as the
// caller measured it, and how much of each timed root span its children
// cover — and the check-phase layers, and prints the self-time table.
func timedLayers(tr *tracer, rep *report, root string, overheadPct float64, overheadNote string) {
	rep.layers["trace.overhead_pct"] = overheadPct
	rep.notes["trace.overhead_pct"] = overheadNote
	cov := tr.coverage(root)
	rep.layers["trace.coverage_pct"] = median(cov)
	rep.notes["trace.coverage_pct"] = fmt.Sprintf("(of %s, n=%d)", root, len(cov))
	rep.layers["sim.replay_ms_p50"] = median(tr.durations("sim.replay"))
	rep.layers["schedule.energy_ms_p50"] = median(tr.durations("schedule.energy"))
	rep.extra = append(rep.extra, tr.selfTimeLines()...)
}

// latencyMetrics fills the latency metrics from per-operation latencies in
// milliseconds; tailQ is the workload's tail percentile.
func latencyMetrics(rep *report, lat []float64, tailQ float64) {
	rep.e2e["latency_ms_p50"] = median(lat)
	rep.notes["latency_ms_p50"] = fmt.Sprintf("(n=%d)", len(lat))
	rep.e2e["latency_ms_tail"] = percentile(lat, tailQ)
	rep.notes["latency_ms_tail"] = fmt.Sprintf("(p%g, n=%d, %d beyond)", 100*tailQ, len(lat), int(float64(len(lat))*(1-tailQ)))
	rep.extra = append(rep.extra, fmt.Sprintf("latency ms: p75 %.4g, p90 %.4g, p95 %.4g, max %.4g",
		percentile(lat, 0.75), percentile(lat, 0.9), percentile(lat, 0.95), percentile(lat, 1)))
}

// settle collects the garbage of earlier phases (such as the previous
// set-up's engine), so a phase starts from the same heap whichever
// repetition it is and the peak resident set is not inflated by set-up
// repetitions a user would not make.
func settle() { runtime.GC() }

// setupMetric fills setup_s from the repeated set-up times in seconds.
func setupMetric(rep *report, setups []float64) {
	rep.e2e["setup_s"] = median(setups)
	s := append([]float64(nil), setups...)
	sort.Float64s(s)
	rep.notes["setup_s"] = fmt.Sprintf("(median of %d: %.3g)", len(s), s)
}
