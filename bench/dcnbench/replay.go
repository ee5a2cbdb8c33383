package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"dcnflow"
	"dcnflow/internal/baseline"
	"dcnflow/internal/core"
	"dcnflow/internal/graph"
	"dcnflow/internal/mcfsolve"
	"dcnflow/internal/timeline"
)

// layerInput is one workload's generated inputs, on which the traced run
// replays the layers after its timed phase.
type layerInput struct {
	topo  dcnflow.TopologySpec
	model dcnflow.PowerModel
	// solver holds the workload's Frank–Wolfe options.
	solver dcnflow.SolverOptions
	flows  []*dcnflow.FlowSet
	// intervals bounds how many interval commodity sets mcfsolve replays.
	intervals int
}

// replayReq is the request ID of replay spans.
const replayReq = -1

// Repetition floors of the replays: each layer is timed at least this
// many times, so its median is not one sample.
const (
	compileRepeats = 3
	minSamples     = 5
	sweepMinTime   = 20 * time.Millisecond
)

// replayLayers times the graph, mcfsolve, baseline and core (DCFS) layers
// through their public functions on in, recording a span per call, and
// fills their per-layer metrics.
func replayLayers(ctx context.Context, in layerInput, tr *tracer, rep *report) error {
	// graph: compile freshly built copies of the topology (Compile caches
	// its result on the graph, so each copy compiles once).
	var c *graph.Compiled
	for i := 0; i < compileRepeats; i++ {
		top, err := in.topo.Build()
		if err != nil {
			return fmt.Errorf("graph replay: %w", err)
		}
		t0 := time.Now()
		c = graph.Compile(top.Graph)
		tr.add(0, replayReq, "graph.compile", t0, time.Now(), map[string]any{"phase": "replay", "nodes": top.Graph.NumNodes()})
	}
	rep.layers["graph.compile_ms"] = median(tr.durations("graph.compile"))
	rep.notes["graph.compile_ms"] = fmt.Sprintf("(%s, n=%d)", in.topo.Label(), compileRepeats)
	g := c.Graph()

	// mcfsolve: the interval commodity sets the relaxation solves, at one
	// and at two oracle workers (outputs must be identical).
	var sets [][]mcfsolve.Commodity
	for _, fs := range in.flows {
		sets = append(sets, intervalCommodities(fs)...)
	}
	sets = evenly(sets, in.intervals)
	if len(sets) == 0 {
		return fmt.Errorf("mcfsolve replay: no interval commodity sets")
	}
	maxIters := in.solver.MaxIters
	if maxIters <= 0 {
		maxIters = 60 // mcfsolve's default
	}
	var (
		times   [2][]float64
		iters   []float64
		capped  int
		objs    = make([]float64, len(sets))
		heavy   *mcfsolve.Result
		heavyCS []mcfsolve.Commodity
	)
	for w := 1; w <= 2; w++ {
		opts := in.solver
		opts.OracleWorkers = w
		s, err := mcfsolve.NewSolverCompiled(c, in.model, opts)
		if err != nil {
			return fmt.Errorf("mcfsolve replay: %w", err)
		}
		for i, cs := range sets {
			if err := ctx.Err(); err != nil {
				return err
			}
			t0 := time.Now()
			res, err := s.Solve(cs)
			t1 := time.Now()
			if err != nil {
				return fmt.Errorf("mcfsolve replay: %w", err)
			}
			tr.add(0, replayReq, "mcfsolve.solve", t0, t1, map[string]any{
				"phase": "replay", "workers": w, "commodities": len(cs), "iters": res.Iters, "gap": res.Gap,
			})
			times[w-1] = append(times[w-1], float64(t1.Sub(t0))/1e6)
			if w == 1 {
				objs[i] = res.Objective
				iters = append(iters, float64(res.Iters))
				if res.Iters >= maxIters {
					capped++
				}
				if heavy == nil || len(cs) > len(heavyCS) {
					heavy, heavyCS = res, cs
				}
			} else if math.Float64bits(res.Objective) != math.Float64bits(objs[i]) {
				rep.problem("mcfsolve: interval set %d objective %v with 2 oracle workers, %v with 1", i, res.Objective, objs[i])
			}
		}
	}
	rep.layers["mcfsolve.solve_ms_p50"] = median(times[0])
	rep.notes["mcfsolve.solve_ms_p50"] = fmt.Sprintf("(%d interval sets, 1 oracle worker)", len(sets))
	rep.layers["mcfsolve.fw_iters_per_solve"] = mean(iters)
	rep.layers["mcfsolve.capped_ratio"] = float64(capped) / float64(len(sets))
	rep.notes["mcfsolve.capped_ratio"] = fmt.Sprintf("(stopped at MaxIters %d, not at Tol)", maxIters)
	rep.layers["mcfsolve.workers2_speedup"] = sum(times[0]) / sum(times[1])

	// graph SSSP: one oracle sweep over the largest set's sources, on the
	// marginal-cost weights of its solved flow (heap, as Frank–Wolfe
	// iterations after the first run) and on unit weights (dial, as the
	// hop-count cold start runs).
	scratch := graph.NewSSSPScratch(c.Hot())
	srcs, dsts := sourceGroups(c, heavyCS)
	w := make([]float64, g.NumEdges())
	for e := range w {
		w[e] = in.model.GDeriv(heavy.EdgeFlow[e]) + 1e-12
	}
	if err := scratch.SetWeights(w); err != nil {
		return fmt.Errorf("sssp replay: %w", err)
	}
	rep.layers["graph.sssp_heap_us"] = sweep(tr, "heap", len(srcs), func() {
		for i, src := range srcs {
			scratch.Tree(src, dsts[i])
		}
	})
	for e := range w {
		w[e] = 1
	}
	if err := scratch.SetWeights(w); err != nil {
		return fmt.Errorf("sssp replay: %w", err)
	}
	quantum, span, ok := graph.QuantizeWeights(scratch.SlotWeights(), graph.MaxDialSpan)
	if !ok {
		return fmt.Errorf("sssp replay: unit weights do not quantize")
	}
	rep.layers["graph.sssp_dial_us"] = sweep(tr, "dial", len(srcs), func() {
		for i, src := range srcs {
			scratch.TreeDial(src, dsts[i], quantum, span)
		}
	})
	rep.notes["graph.sssp_heap_us"] = fmt.Sprintf("(per source, %d sources)", len(srcs))
	rep.notes["graph.sssp_dial_us"] = rep.notes["graph.sssp_heap_us"]

	// baseline and core: shortest-path routing, then Most-Critical-First
	// scheduling on those routes.
	var route, dcfs []float64
	for n := 0; len(route) < minSamples; n++ {
		fs := in.flows[n%len(in.flows)]
		t0 := time.Now()
		paths, err := baseline.ShortestPathsCompiled(c, fs)
		t1 := time.Now()
		if err != nil {
			return fmt.Errorf("baseline replay: %w", err)
		}
		if _, err := core.SolveDCFSCtx(ctx, core.DCFSInput{Graph: g, Flows: fs, Paths: paths, Model: in.model}); err != nil {
			return fmt.Errorf("core replay: %w", err)
		}
		t2 := time.Now()
		tr.add(0, replayReq, "baseline.sp_route", t0, t1, map[string]any{"phase": "replay", "flows": fs.Len()})
		tr.add(0, replayReq, "core.dcfs", t1, t2, map[string]any{"phase": "replay", "flows": fs.Len()})
		route = append(route, float64(t1.Sub(t0))/1e6)
		dcfs = append(dcfs, float64(t2.Sub(t1))/1e6)
	}
	rep.layers["baseline.sp_route_ms_p50"] = median(route)
	rep.layers["core.dcfs_ms_p50"] = median(dcfs)
	return nil
}

// sweep runs one oracle sweep repeatedly (for at least sweepMinTime and
// minSamples sweeps), records a graph.sssp span per sweep, and returns the
// median time per source in microseconds.
func sweep(tr *tracer, kind string, sources int, run func()) float64 {
	var per []float64
	start := time.Now()
	for len(per) < minSamples || time.Since(start) < sweepMinTime {
		t0 := time.Now()
		run()
		t1 := time.Now()
		tr.add(0, replayReq, "graph.sssp", t0, t1, map[string]any{"phase": "replay", "kind": kind, "sources": sources})
		per = append(per, float64(t1.Sub(t0))/1e3/float64(sources))
	}
	return median(per)
}

// intervalCommodities decomposes a flow set's horizon at every release and
// deadline and returns, per interval, the commodities active across it —
// the F-MCF instances the Random-Schedule relaxation solves. Empty
// intervals are dropped.
func intervalCommodities(fs *dcnflow.FlowSet) [][]mcfsolve.Commodity {
	flows := fs.Flows()
	times := make([]float64, 0, 2*len(flows))
	for _, f := range flows {
		times = append(times, f.Release, f.Deadline)
	}
	var out [][]mcfsolve.Commodity
	for _, iv := range timeline.Decompose(timeline.Breakpoints(times)) {
		var cs []mcfsolve.Commodity
		for _, f := range flows {
			if f.Release <= iv.Start+timeline.Eps && f.Deadline >= iv.End-timeline.Eps {
				cs = append(cs, mcfsolve.Commodity{ID: f.ID, Src: f.Src, Dst: f.Dst, Demand: f.Density()})
			}
		}
		if len(cs) > 0 {
			out = append(out, cs)
		}
	}
	return out
}

// evenly picks at most n elements of xs, evenly spaced and in order.
func evenly[T any](xs []T, n int) []T {
	if len(xs) <= n {
		return xs
	}
	out := make([]T, n)
	for i := range out {
		out[i] = xs[i*len(xs)/n]
	}
	return out
}

// sourceGroups groups commodities by source the way the oracle does and
// returns the sources and their destinations in the compiled graph's hot
// node numbering.
func sourceGroups(c *graph.Compiled, cs []mcfsolve.Commodity) ([]graph.NodeID, [][]graph.NodeID) {
	idx := map[graph.NodeID]int{}
	var srcs []graph.NodeID
	var dsts [][]graph.NodeID
	for _, k := range cs {
		i, ok := idx[k.Src]
		if !ok {
			i = len(srcs)
			idx[k.Src] = i
			srcs = append(srcs, c.ToHot(k.Src))
			dsts = append(dsts, nil)
		}
		dsts[i] = append(dsts[i], c.ToHot(k.Dst))
	}
	return srcs, dsts
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
