package main

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"time"

	"dcnflow"
)

// solveParams defines a closed-loop dcfsr workload: one client sends its
// next request when the previous one returns, every request a new workload
// seed on one topology, all through one warm Engine with default options.
type solveParams struct {
	name string
	topo dcnflow.TopologySpec
	// work is the per-request workload; its Seed is derived per request.
	work dcnflow.WorkloadSpec
	// warmN is the flow count of the set-up's warm-up solve. A full-size
	// request on paper-k8 keeps set-up long enough (0.5 s) to repeat well;
	// large-k32 warms with a small one, which still compiles the topology
	// and fills the engine's solver pool, instead of paying a 2.4 s solve
	// every set-up.
	warmN int
	// tailQ is the percentile reported as latency_ms_tail.
	tailQ float64
	// rssAfter is the solve count after which max_rss_mb is sampled, low
	// enough that a run on a host twice as slow still reaches it.
	rssAfter int
	// replaySets and replayIntervals bound the traced layer replay: the
	// flow sets of the first replaySets requests, and at most
	// replayIntervals of their interval commodity sets.
	replaySets, replayIntervals int
}

// paperK8 is the paper's Fig. 2 point: fat-tree k=8, 40 flows on [1, 100],
// sizes N(10, 3). About 79 short intervals on a 208-node graph, so the
// Frank–Wolfe per-iteration overhead and rounding dominate, not raw SSSP.
// 30 to 40 solves fit in 20 s on a 2-core VM, so the tail is p75 (8 to 10
// samples beyond).
var paperK8 = solveParams{
	name:  "paper-k8",
	topo:  fatTree(8),
	work:  dcnflow.WorkloadSpec{Kind: "uniform", N: 40, T0: 1, T1: 100, SizeMean: 10, SizeStddev: 3},
	warmN: 40, tailQ: 0.75, rssAfter: 12, replaySets: 3, replayIntervals: 16,
}

// largeK32 is oracle-bound: fat-tree k=32 (9,472 nodes), 64 flows whose
// windows snap to a 25-unit grid, so only 4 intervals, each Frank–Wolfe
// iteration running about 64 heap Dijkstras over 9.5k nodes. About 8
// solves fit in 20 s; their times cluster tightly, and p75 is reported as
// the tail although fewer than 10 samples lie beyond it.
var largeK32 = solveParams{
	name:  "large-k32",
	topo:  fatTree(32),
	work:  dcnflow.WorkloadSpec{Kind: "uniform", N: 64, T0: 1, T1: 101, SizeMean: 10, SizeStddev: 3, TimeQuantum: 25},
	warmN: 8, tailQ: 0.75, rssAfter: 4, replaySets: 1, replayIntervals: 2,
}

// spec returns request i of a stream ("request" for the timed phase,
// "warmup" for set-up, whose requests have warmN flows).
func (p solveParams) spec(seed int64, stream string, i int) dcnflow.ScenarioSpec {
	w := p.work
	w.Seed = derive(seed, p.name+"/"+stream, i)
	if stream == "warmup" {
		w.N = p.warmN
	}
	return dcnflow.ScenarioSpec{
		Name:     fmt.Sprintf("%s-%s-%d", p.name, stream, i),
		Topology: p.topo,
		Workload: w,
		Model:    paperModel,
		Seed:     derive(seed, p.name+"/"+stream+"/rounding", i),
	}
}

func runSolveLoad(ctx context.Context, p solveParams, e *env) (*report, error) {
	rep := newReport(p.name)

	// Set-up: topology build and compile, engine caches and solver pool,
	// through one small warm-up solve.
	var eng *dcnflow.Engine
	setups := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		eng = nil // let settle collect the previous set-up
		settle()
		t0 := time.Now()
		eng = dcnflow.NewEngine(dcnflow.EngineOptions{})
		warm := p.spec(e.seed, "warmup", i)
		if res := eng.Solve(ctx, dcnflow.Request{Scenario: &warm, Solver: dcnflow.SolverDCFSR}); res.Err != nil {
			return nil, fmt.Errorf("warm-up solve: %w", res.Err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	setupMetric(rep, setups)

	// Timed phase: closed loop, one client. A traced run sends every
	// request twice in a row, once traced and once not (alternating which
	// goes first), so the tracing overhead compares identical solves.
	type op struct {
		spec   dcnflow.ScenarioSpec
		res    dcnflow.Result
		ms     float64
		traced bool
	}
	var ops []op
	rss := rssProbe{after: p.rssAfter}
	settle()
	start := time.Now()
	for i := 0; time.Since(start) < e.duration; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		idx, tr := i, (*tracer)(nil)
		if e.tr != nil {
			idx = i / 2
			if i%2 != idx%2 {
				tr = e.tr
			}
		}
		spec := p.spec(e.seed, "request", idx)
		t0 := time.Now()
		res := engineSolve(ctx, eng, dcnflow.Request{Scenario: &spec, Solver: dcnflow.SolverDCFSR}, tr, i, "timed")
		ops = append(ops, op{spec: spec, res: res, ms: float64(time.Since(t0)) / 1e6, traced: tr != nil})
		rss.done(len(ops))
	}
	elapsed := time.Since(start)

	rep.attempted = len(ops)
	rep.e2e["throughput_per_s"] = float64(len(ops)) / elapsed.Seconds()
	rep.notes["throughput_per_s"] = fmt.Sprintf("(%d solves in %.2f s)", len(ops), elapsed.Seconds())
	var lat, overhead []float64
	for i, o := range ops {
		lat = append(lat, o.ms)
		if e.tr != nil && i%2 == 1 {
			t, u := o, ops[i-1]
			if u.traced {
				t, u = u, t
			}
			overhead = append(overhead, 100*(t.ms/u.ms-1))
		}
	}
	latencyMetrics(rep, lat, p.tailQ)

	// Output checks, outside the timed phase.
	var ratios []float64
	var replay []*dcnflow.FlowSet
	for i, o := range ops {
		if o.res.Err != nil {
			rep.failed++
			rep.problem("request %d: %v", i, o.res.Err)
			continue
		}
		inst, err := eng.Instance(&o.spec)
		if err != nil {
			rep.failed++
			rep.problem("request %d: rebuilding instance: %v", i, err)
			continue
		}
		sol := o.res.Solution
		if e.tr != nil && i%2 == 1 && ops[i-1].res.Err == nil && ops[i-1].res.Solution.Energy != sol.Energy {
			rep.failed++
			rep.problem("request %d: energy %v, the same request solved just before gave %v", i, sol.Energy, ops[i-1].res.Solution.Energy)
			continue
		}
		bad := checkSchedule(e.tr, i, inst.Graph(), inst.Flows(), sol.Schedule, inst.Model(), sol.Energy, sol.LowerBound, rep)
		if !(sol.LowerBound > 0) {
			bad = append(bad, fmt.Sprintf("lower bound %v", sol.LowerBound))
		}
		if len(bad) > 0 {
			rep.failed++
			rep.problem("request %d: %s", i, strings.Join(bad, "; "))
			continue
		}
		ratios = append(ratios, sol.Energy/sol.LowerBound)
		if len(replay) < p.replaySets && !slices.Contains(replay, inst.Flows()) {
			replay = append(replay, inst.Flows())
		}
	}
	rep.e2e["energy_ratio"] = mean(ratios)
	rep.notes["energy_ratio"] = fmt.Sprintf("(energy / fractional lower bound, mean of %d)", len(ratios))
	rss.report(rep)

	if e.tr != nil {
		engineLayers(e.tr, rep)
		in := layerInput{topo: p.topo, model: paperModel.Model(), flows: replay, intervals: p.replayIntervals}
		if err := replayLayers(ctx, in, e.tr, rep); err != nil {
			return nil, err
		}
		timedLayers(e.tr, rep, "engine.solve", median(overhead),
			fmt.Sprintf("(median of %d traced/untraced pairs of the same solve)", len(overhead)))
	}
	return rep, nil
}
