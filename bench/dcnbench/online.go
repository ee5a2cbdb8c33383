package main

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"dcnflow"
	"dcnflow/internal/graph"
	"dcnflow/internal/mcfsolve"
)

// onlineParams defines the online workload: a diurnal trace fed arrival
// by arrival, in release order, to the rolling-horizon scheduler with the
// incremental delta re-solve (the `dcnflow online -mode rolling -delta`
// defaults: re-plan per arrival, 30 Frank–Wolfe iterations, warm starts,
// drift bound 0.25, a full re-plan at least every 17th epoch).
type onlineParams struct {
	name string
	k    int
	// The diurnal trace: n flows on [0, t1], peak-to-trough arrival ratio
	// peak, sizes N(sizeMean, sizeStddev).
	n                                      int
	t1, peak, sizeMean, sizeStdd, spanMean float64
	iters                                  int
	drift                                  float64
	stale                                  int
	// warmArrivals are fed to a throwaway scheduler during set-up.
	warmArrivals int
	// rssAfter is the arrival count after which max_rss_mb is sampled.
	rssAfter int
	// replayFlows is the size of the dcfsr solve a traced run replays on
	// the trace's first arrivals (for the core metrics);
	// replayIntervals bounds the mcfsolve replay.
	replayFlows, replayIntervals int
	tailQ                        float64
}

// onlineDelta: per-arrival online decisions. They exercise the online
// reservations, core's delta re-solves and mcfsolve's warm
// background-load path — a different use of the same Frank–Wolfe layer.
// Each trace is one diurnal cycle of 200 flows on [0, 200] with about 20
// flows in flight. A 20 s run feeds 3 to 4 traces (roughly 650 arrivals,
// so p90 has about 65 samples beyond it). On a 2-core VM one 400-flow
// trace, which a run could not finish, repeated only to within 11% from
// seed to seed; several shorter ones repeated to within 6%.
var onlineDelta = onlineParams{
	name: "online-delta", k: 8,
	n: 200, t1: 200, peak: 5, sizeMean: 8, sizeStdd: 2,
	iters: 30, drift: 0.25, stale: 16,
	warmArrivals: 20, rssAfter: 300, replayFlows: 40, replayIntervals: 16, tailQ: 0.9,
}

// trace returns trace i of a stream, renumbered in release order so that
// every prefix of arrivals is itself a flow set with the same IDs.
func (p onlineParams) trace(seed int64, stream string, i int, hosts []dcnflow.NodeID) (*dcnflow.FlowSet, error) {
	fs, err := dcnflow.DiurnalWorkload(dcnflow.DiurnalConfig{
		N: p.n, T0: 0, T1: p.t1, PeakFactor: p.peak, SizeMean: p.sizeMean, SizeStddev: p.sizeStdd, SpanMean: p.spanMean,
		Hosts: hosts, Seed: derive(seed, p.name+"/"+stream, i),
	})
	if err != nil {
		return nil, err
	}
	flows := fs.Flows()
	sort.SliceStable(flows, func(a, b int) bool { return flows[a].Release < flows[b].Release })
	return dcnflow.NewFlowSet(flows)
}

func (p onlineParams) solverOptions() dcnflow.SolverOptions {
	return dcnflow.SolverOptions{MaxIters: p.iters}
}

func (p onlineParams) options(pool *mcfsolve.Pool, seed int64, progress dcnflow.ProgressFunc) dcnflow.RollingOptions {
	return dcnflow.RollingOptions{
		Policy: dcnflow.ArrivalCount{N: 1},
		DCFSR: dcnflow.DCFSROptions{
			Seed: seed, Solver: p.solverOptions(), WarmStart: true, Solvers: pool, Progress: progress,
		},
		Delta: dcnflow.DeltaOptions{Enabled: true, DriftBound: p.drift, MaxStaleEpochs: p.stale},
	}
}

func horizon(fs *dcnflow.FlowSet) dcnflow.Interval {
	t0, t1 := fs.Horizon()
	return dcnflow.Interval{Start: t0, End: t1}
}

// segment is one trace fed to one scheduler.
type segment struct {
	flows   []dcnflow.Flow
	sched   *dcnflow.RollingScheduler
	arrived int
}

func runOnline(ctx context.Context, p onlineParams, e *env) (*report, error) {
	rep := newReport(p.name)
	model := paperModel.Model()

	// The progress hook is installed only in a traced run; it records when
	// the last epoch re-solve of a traced arrival finished ("epoch" and
	// "epoch-delta" events come after the partial solve, before admission).
	var (
		tracing   bool
		lastEpoch time.Time
		epochs    int
		progress  dcnflow.ProgressFunc
	)
	if e.tr != nil {
		progress = func(ev dcnflow.ProgressEvent) {
			if tracing && strings.HasPrefix(ev.Stage, "epoch") {
				lastEpoch = time.Now()
				epochs++
			}
		}
	}

	// Set-up: topology build and compile, the trace, a shared solver pool
	// warmed by a throwaway scheduler, and the scheduler under test.
	var (
		top  *dcnflow.Topology
		pool *mcfsolve.Pool
		seg  *segment
	)
	setups := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		top, pool, seg = nil, nil, nil // let settle collect the previous set-up
		settle()
		t0 := time.Now()
		var err error
		if top, err = fatTree(p.k).Build(); err != nil {
			return nil, err
		}
		if pool, err = mcfsolve.NewPoolCompiled(graph.Compile(top.Graph), model, p.solverOptions()); err != nil {
			return nil, err
		}
		warm, err := p.trace(e.seed, "warmup", i, top.Hosts)
		if err != nil {
			return nil, err
		}
		ws, err := dcnflow.NewRollingScheduler(top.Graph, model, horizon(warm), p.options(pool, 1, nil))
		if err != nil {
			return nil, err
		}
		for _, f := range warm.Flows()[:min(p.warmArrivals, warm.Len())] {
			if err := ws.Arrive(f); err != nil {
				return nil, fmt.Errorf("warm-up arrival: %w", err)
			}
		}
		if seg, err = p.newSegment(e.seed, 0, top, pool, progress); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	setupMetric(rep, setups)

	// Timed phase: every arrival is one operation; every other one is
	// traced in a traced run. When a trace ends before the time is up, the
	// clock stops while its schedule is checked and released, and the next
	// trace starts on a new scheduler.
	eng := dcnflow.NewEngine(dcnflow.EngineOptions{})
	var (
		lat, traced, untraced, deltaMS, fullMS, ratios []float64
		stats                                          dcnflow.RollingStats
		first                                          *dcnflow.FlowSet
		elapsed                                        time.Duration
		n                                              int
		failed                                         bool
		rss                                            = rssProbe{after: p.rssAfter}
	)
	settle()
	for si := 0; elapsed < e.duration && !failed; si++ {
		if si > 0 {
			var err error
			if seg, err = p.newSegment(e.seed, si, top, pool, progress); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		for ; seg.arrived < len(seg.flows) && elapsed+time.Since(start) < e.duration; n++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			f := seg.flows[seg.arrived]
			tracing = e.tr != nil && n%2 == 1
			epochs = 0
			before := seg.sched.Stats()
			t0 := time.Now()
			err := seg.sched.Arrive(f)
			t1 := time.Now()
			after := seg.sched.Stats()
			seg.arrived++
			rep.attempted++
			rss.done(rep.attempted)
			if err != nil {
				rep.failed++
				rep.problem("arrival of flow %d: %v", f.ID, err)
				failed = true
				break
			}
			ms := float64(t1.Sub(t0)) / 1e6
			lat = append(lat, ms)
			kind := "none"
			switch {
			case after.Epochs-before.Epochs > after.DeltaEpochs-before.DeltaEpochs:
				kind = "full"
				fullMS = append(fullMS, ms)
			case after.DeltaEpochs > before.DeltaEpochs:
				kind = "delta"
				deltaMS = append(deltaMS, ms)
			}
			if !tracing {
				untraced = append(untraced, ms)
				continue
			}
			traced = append(traced, ms)
			root := e.tr.add(0, n, "online.arrive", t0, t1, map[string]any{
				"phase": "timed", "kind": kind, "epochs": after.Epochs - before.Epochs,
			})
			if epochs > 0 {
				e.tr.add(root, n, "core.partial_solve", t0, lastEpoch, map[string]any{"epoch_events": epochs})
				e.tr.add(root, n, "online.admit", lastEpoch, t1, nil)
			}
		}
		tracing = false
		elapsed += time.Since(start)

		// Output checks of the trace: simulator replay of the schedule over
		// the flows that arrived, and the greedy-online reference on the
		// same flows for energy_ratio.
		if seg.arrived == 0 {
			continue
		}
		arrived, err := dcnflow.NewFlowSet(seg.flows[:seg.arrived])
		if err != nil {
			return nil, err
		}
		if first == nil {
			first = arrived
		}
		res, err := seg.sched.Result()
		if err != nil {
			rep.failed++
			rep.problem("trace %d: finishing: %v", si, err)
			continue
		}
		st := res.Stats
		stats.Epochs += st.Epochs
		stats.DeltaEpochs += st.DeltaEpochs
		stats.FWIters += st.FWIters
		stats.SeededIntervals += st.SeededIntervals
		stats.SolvedIntervals += st.SolvedIntervals
		stats.ReusedIntervals += st.ReusedIntervals
		energy := res.Schedule.EnergyTotal(model)
		bad := checkSchedule(e.tr, si, top.Graph, arrived, res.Schedule, model, energy, 0, rep)
		if len(res.RejectedIDs) > 0 {
			bad = append(bad, fmt.Sprintf("%d flows rejected", len(res.RejectedIDs)))
		}
		inst, err := dcnflow.NewInstanceBuilder().Graph(top.Graph).Flows(arrived).Model(model).Build()
		if err != nil {
			return nil, err
		}
		greedy := engineSolve(ctx, eng, dcnflow.Request{Instance: inst, Solver: dcnflow.SolverGreedyOnline}, e.tr, si, "check")
		if greedy.Err != nil {
			bad = append(bad, fmt.Sprintf("greedy-online reference: %v", greedy.Err))
		}
		if len(bad) > 0 {
			rep.failed++
			rep.problem("trace %d: %s", si, strings.Join(bad, "; "))
			continue
		}
		ratios = append(ratios, energy/greedy.Solution.Energy)
	}
	rep.e2e["throughput_per_s"] = float64(len(lat)) / elapsed.Seconds()
	rep.notes["throughput_per_s"] = fmt.Sprintf("(%d arrivals in %.2f s)", len(lat), elapsed.Seconds())
	latencyMetrics(rep, lat, p.tailQ)
	rep.e2e["energy_ratio"] = mean(ratios)
	rep.notes["energy_ratio"] = fmt.Sprintf("(rolling / greedy-online energy, mean over %d traces)", len(ratios))
	rss.report(rep)
	rep.extra = append(rep.extra,
		fmt.Sprintf("online.arrive_delta_ms_p50 %.4g (n=%d), online.arrive_full_ms_p50 %.4g (n=%d)",
			median(deltaMS), len(deltaMS), median(fullMS), len(fullMS)),
		fmt.Sprintf("online.delta_epoch_ratio %.4g, online.reuse_ratio %.4g, online.seeded_ratio %.4g, online.fw_iters_per_epoch %.4g",
			ratio(stats.DeltaEpochs, stats.Epochs), ratio(stats.ReusedIntervals, stats.ReusedIntervals+stats.SolvedIntervals),
			ratio(stats.SeededIntervals, stats.SolvedIntervals), ratio(stats.FWIters, stats.Epochs)))

	if e.tr != nil && first != nil {
		// The core metrics come from a dcfsr solve of the trace's first
		// arrivals through the engine, like paper-k8's solves.
		head, err := dcnflow.NewFlowSet(first.Flows()[:min(p.replayFlows, first.Len())])
		if err != nil {
			return nil, err
		}
		inst, err := dcnflow.NewInstanceBuilder().Graph(top.Graph).Flows(head).Model(model).Build()
		if err != nil {
			return nil, err
		}
		req := dcnflow.Request{Instance: inst, Solver: dcnflow.SolverDCFSR, Options: []dcnflow.SolveOption{dcnflow.WithSeed(derive(e.seed, p.name+"/replay", 0))}}
		if res := engineSolve(ctx, eng, req, e.tr, replayReq, "replay"); res.Err != nil {
			return nil, fmt.Errorf("dcfsr replay: %w", res.Err)
		}
		engineLayers(e.tr, rep)
		in := layerInput{topo: fatTree(p.k), model: model, solver: p.solverOptions(), flows: []*dcnflow.FlowSet{first}, intervals: p.replayIntervals}
		if err := replayLayers(ctx, in, e.tr, rep); err != nil {
			return nil, err
		}
		// Arrivals cannot be repeated, so the overhead compares the medians
		// of the alternating traced and untraced arrivals.
		timedLayers(e.tr, rep, "online.arrive", 100*(median(traced)/median(untraced)-1),
			fmt.Sprintf("(median of %d traced vs %d untraced arrivals)", len(traced), len(untraced)))
	}
	return rep, nil
}

// newSegment generates trace i and a scheduler for it on the shared pool.
func (p onlineParams) newSegment(seed int64, i int, top *dcnflow.Topology, pool *mcfsolve.Pool, progress dcnflow.ProgressFunc) (*segment, error) {
	fs, err := p.trace(seed, "trace", i, top.Hosts)
	if err != nil {
		return nil, err
	}
	sched, err := dcnflow.NewRollingScheduler(top.Graph, paperModel.Model(), horizon(fs), p.options(pool, derive(seed, p.name+"/rounding", i), progress))
	if err != nil {
		return nil, err
	}
	return &segment{flows: fs.Flows(), sched: sched}, nil
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
