// Package baseline implements the comparison schemes of the evaluation:
// the routings of SP+MCF (shortest-path routing plus Most-Critical-First
// scheduling — the paper's stand-in for "the normal energy consumption in
// data centers") and ECMP+MCF (randomised equal-cost multi-path routing),
// whose schedules core.SolveDCFSCtx computes on those routes, and an
// always-on full-rate scheme modelling a data center with no energy
// management.
package baseline

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"dcnflow/internal/flow"
	"dcnflow/internal/graph"
	"dcnflow/internal/power"
	"dcnflow/internal/schedule"
	"dcnflow/internal/timeline"
)

// ErrBadInput mirrors core.ErrBadInput for baseline-specific validation.
var ErrBadInput = errors.New("baseline: invalid input")

// ShortestPaths routes every flow on the deterministic minimum-hop path.
// It runs on the graph's compiled view (pooled epoch-reset Dijkstra
// scratch), which returns exactly the paths Graph.ShortestPath would —
// the equivalence is asserted pair-exhaustively in internal/graph — while
// allocating only the path slices themselves.
func ShortestPaths(g *graph.Graph, flows *flow.Set) (map[flow.ID]graph.Path, error) {
	if g == nil || flows == nil {
		return nil, fmt.Errorf("%w: nil graph or flows", ErrBadInput)
	}
	return ShortestPathsCompiled(graph.Compile(g), flows)
}

// ShortestPathsCompiled is ShortestPaths on an explicitly compiled view. It
// batches the queries through the compiled shared-frontier oracle
// (graph.Compiled.BatchShortestPaths): flows sharing a source reuse one
// early-exiting tree build instead of one Dijkstra run each. Paths and
// errors are identical to the per-flow loop it replaces — the batch reports
// the first failing flow in input order.
func ShortestPathsCompiled(c *graph.Compiled, flows *flow.Set) (map[flow.ID]graph.Path, error) {
	if c == nil || flows == nil {
		return nil, fmt.Errorf("%w: nil graph or flows", ErrBadInput)
	}
	fl := flows.Flows()
	queries := make([]graph.PathQuery, len(fl))
	for i, f := range fl {
		queries[i] = graph.PathQuery{Src: f.Src, Dst: f.Dst}
	}
	batch, failed, err := c.BatchShortestPaths(queries)
	if err != nil {
		return nil, fmt.Errorf("baseline: flow %d: %w", fl[failed].ID, err)
	}
	paths := make(map[flow.ID]graph.Path, len(fl))
	for i, f := range fl {
		paths[f.ID] = batch[i]
	}
	return paths, nil
}

// ECMPPaths routes every flow on one of its k minimum-hop equal-length
// paths, picked uniformly at random (seeded). It models flow-hash ECMP.
func ECMPPaths(g *graph.Graph, flows *flow.Set, k int, seed int64) (map[flow.ID]graph.Path, error) {
	if g == nil || flows == nil {
		return nil, fmt.Errorf("%w: nil graph or flows", ErrBadInput)
	}
	if k <= 0 {
		return nil, fmt.Errorf("%w: k = %d", ErrBadInput, k)
	}
	rng := rand.New(rand.NewSource(seed))
	paths := make(map[flow.ID]graph.Path, flows.Len())
	for _, f := range flows.Flows() {
		cands, err := g.KShortestPaths(f.Src, f.Dst, k, nil)
		if err != nil {
			return nil, fmt.Errorf("baseline: flow %d: %w", f.ID, err)
		}
		// Keep only the paths tied with the minimum hop count.
		minLen := cands[0].Len()
		equal := cands[:0]
		for _, p := range cands {
			if p.Len() == minLen {
				equal = append(equal, p)
			}
		}
		paths[f.ID] = equal[rng.Intn(len(equal))]
	}
	return paths, nil
}

// AlwaysOnResult is the outcome of the no-energy-management baseline.
type AlwaysOnResult struct {
	Schedule *schedule.Schedule
	// Energy charges idle power for EVERY link in the network across the
	// whole horizon (nothing is ever powered down) plus the dynamic energy
	// of full-rate transmissions.
	Energy float64
}

// AlwaysOnFullRate transmits each flow greedily at the link capacity C on
// its shortest path starting at its release, with all links powered
// throughout. It errors when a flow cannot finish by its deadline even at
// full rate, or when the model is uncapped.
func AlwaysOnFullRate(g *graph.Graph, flows *flow.Set, m power.Model) (*AlwaysOnResult, error) {
	if g == nil || flows == nil {
		return nil, fmt.Errorf("%w: nil graph or flows", ErrBadInput)
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadInput, err)
	}
	if !m.Capped() {
		return nil, fmt.Errorf("%w: always-on baseline needs a finite link rate C", ErrBadInput)
	}
	t0, t1 := flows.Horizon()
	sched := schedule.New(timeline.Interval{Start: t0, End: t1})
	// One shared-frontier batch instead of a Dijkstra run per flow; the
	// compiled paths are identical to Graph.ShortestPath's.
	paths, err := ShortestPathsCompiled(graph.Compile(g), flows)
	if err != nil {
		return nil, err
	}
	for _, f := range flows.Flows() {
		p := paths[f.ID]
		finish := f.Release + f.Size/m.C
		if finish > f.Deadline+timeline.Eps {
			return nil, fmt.Errorf("baseline: flow %d misses deadline even at full rate (%g > %g)",
				f.ID, finish, f.Deadline)
		}
		if err := sched.SetFlow(&schedule.FlowSchedule{
			FlowID: f.ID,
			Path:   p,
			Segments: []schedule.RateSegment{{
				Interval: timeline.Interval{Start: f.Release, End: finish},
				Rate:     m.C,
			}},
		}); err != nil {
			return nil, fmt.Errorf("baseline: flow %d: %w", f.ID, err)
		}
	}
	idle := float64(g.NumEdges()) * m.Sigma * math.Max(0, t1-t0)
	return &AlwaysOnResult{
		Schedule: sched,
		Energy:   idle + sched.EnergyDynamic(m),
	}, nil
}
