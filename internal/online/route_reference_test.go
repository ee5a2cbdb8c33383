package online

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dcnflow/internal/flow"
	"dcnflow/internal/graph"
	"dcnflow/internal/power"
	"dcnflow/internal/timeline"
	"dcnflow/internal/topology"
)

// referenceRoute is the greedy's admission route as it was computed before
// routing moved to the compiled graph: Graph.ShortestPathWeighted under
// the documented marginal-cost weight. It also returns the path's distance
// (summed in path order, which is how Dijkstra accumulates it) and the
// smallest edge weight.
func referenceRoute(s *Scheduler, f flow.Flow) (graph.Path, float64, float64, error) {
	d := f.Density()
	weight := func(e graph.Edge) float64 {
		r := s.res[e.ID]
		var cur float64
		if r != nil {
			cur = r.maxDuring(f.Release, f.Deadline)
		}
		return s.cost(cur+d) - s.cost(cur) + 1e-9
	}
	p, err := s.g.ShortestPathWeighted(f.Src, f.Dst, weight)
	if err != nil {
		return p, 0, 0, err
	}
	var dist float64
	for _, eid := range p.Edges {
		dist += weight(s.g.MustEdge(eid))
	}
	minW := math.Inf(1)
	for _, e := range s.g.Edges() {
		minW = math.Min(minW, weight(e))
	}
	return p, dist, minW, nil
}

// TestGreedyRouteMatchesShortestPathWeighted is the differential test of
// the greedy's compiled-graph routing: on randomized reservations over
// fat-tree, Jellyfish and leaf-spine graphs, every admission's path must
// equal Graph.ShortestPathWeighted's under the documented weight
// cost(cur+d) - cost(cur) + 1e-9. The alpha-4, heavy-load cases admit
// low-density flows across links reserved near rate 1000, so path
// distances pass minW·2^52 and the heap Tree must fall back to its
// historical search; the test requires that to happen.
func TestGreedyRouteMatchesShortestPathWeighted(t *testing.T) {
	ft, err := topology.FatTree(4, 1e12)
	if err != nil {
		t.Fatal(err)
	}
	jf, err := topology.Jellyfish(16, 4, 2, 1e12, 3)
	if err != nil {
		t.Fatal(err)
	}
	ls, err := topology.LeafSpine(3, 4, 3, 1e12)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		top      *topology.Topology
		model    power.Model
		costFull bool
		maxRate  float64 // reservations draw rates from [0, maxRate)
		size     float64 // flows draw sizes from [0, size)
	}{
		{ft, power.Model{Mu: 1, Alpha: 2}, false, 20, 30},
		{jf, power.Model{Mu: 1, Alpha: 2.5}, false, 20, 30},
		{ls, power.Model{Sigma: 2, Mu: 0.5, Alpha: 3}, true, 20, 30},
		{ft, power.Model{Mu: 1, Alpha: 4}, false, 1000, 0.01},
		{jf, power.Model{Mu: 1, Alpha: 4}, false, 1000, 0.01},
		{ls, power.Model{Mu: 1, Alpha: 4}, false, 1000, 0.01},
	}
	rng := rand.New(rand.NewSource(5))
	var admissions, fallbacks int
	for ci, tc := range cases {
		for trial := 0; trial < 8; trial++ {
			s, err := New(tc.top.Graph, tc.model, timeline.Interval{Start: 0, End: 100}, Options{CostFull: tc.costFull})
			if err != nil {
				t.Fatal(err)
			}
			// Random background reservations on a random subset of links,
			// several pieces per link so span maxima differ from averages.
			for eid := range s.res {
				if rng.Intn(3) == 0 {
					continue
				}
				s.res[eid] = &reservation{}
				for k := 0; k < 1+rng.Intn(4); k++ {
					a := rng.Float64() * 90
					s.res[eid].add(a, a+1+rng.Float64()*30, rng.Float64()*tc.maxRate)
				}
			}
			hosts := tc.top.Hosts
			for i := 0; i < 25; i++ {
				src := hosts[rng.Intn(len(hosts))]
				dst := hosts[rng.Intn(len(hosts))]
				if src == dst {
					continue
				}
				r := rng.Float64() * 80
				f := flowAt(flow.ID(i), src, dst, r, r+0.5+rng.Float64()*20, 1e-3+rng.Float64()*tc.size)
				want, dist, minW, err := referenceRoute(s, f)
				if err != nil {
					t.Fatalf("case %d: reference: %v", ci, err)
				}
				got, err := s.route(f, f.Density())
				if err != nil {
					t.Fatalf("case %d trial %d flow %d: %v", ci, trial, i, err)
				}
				if got.Key() != want.Key() {
					t.Fatalf("case %d trial %d flow %d: route %v, ShortestPathWeighted %v", ci, trial, i, got.Edges, want.Edges)
				}
				admissions++
				if dist >= minW*0x1p52 {
					fallbacks++
				}
				// Admit it so later queries see the grown reservations.
				if err := s.Admit(f); err != nil {
					t.Fatal(err)
				}
				if p := s.sched.FlowSchedule(f.ID).Path; p.Key() != want.Key() {
					t.Fatalf("case %d: admitted path %v, want %v", ci, p.Edges, want.Edges)
				}
			}
		}
	}
	t.Logf("%d admissions compared, %d past Tree's no-absorption guard", admissions, fallbacks)
	if fallbacks == 0 {
		t.Fatal("no admission tripped Tree's no-absorption fallback; the heavy-load cases lost their coverage")
	}
}

// TestGreedyRouteErrorsMatchShortestPathWeighted pins the error behaviour
// the compiled-graph routing keeps: an unknown endpoint and an unreachable
// destination fail exactly as Graph.ShortestPathWeighted did, wrapped in
// ErrNoRouteOnline.
func TestGreedyRouteErrorsMatchShortestPathWeighted(t *testing.T) {
	g := graph.New()
	a := g.AddNode("a", graph.KindHost)
	b := g.AddNode("b", graph.KindHost)
	c := g.AddNode("c", graph.KindHost) // isolated
	if _, _, err := g.AddBiEdge(a, b, 10); err != nil {
		t.Fatal(err)
	}
	m := power.Model{Mu: 1, Alpha: 2}
	for _, tc := range []struct {
		name     string
		src, dst graph.NodeID
	}{
		{"unreachable", a, c},
		{"unknown", a, 99},
	} {
		s, err := New(g, m, timeline.Interval{Start: 0, End: 10}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		_, refErr := g.ShortestPathWeighted(tc.src, tc.dst, func(graph.Edge) float64 { return 1 })
		want := fmt.Sprintf("%v: flow 4: %v", ErrNoRouteOnline, refErr)
		err = s.Admit(flowAt(4, tc.src, tc.dst, 0, 5, 1))
		if !errors.Is(err, ErrNoRouteOnline) || err.Error() != want {
			t.Fatalf("%s: Admit error %q, want %q", tc.name, err, want)
		}
	}
}

// TestGreedyRouteNearFloatRange covers marginal costs near the top of the
// float range, where the historical search dropped every offer of 1e308 or
// more. Wherever the compiled routing returns a path it must be the one
// Graph.ShortestPathWeighted returns; where distances come too close to
// that range, or a cost overflows, Admit fails with ErrNoRouteOnline
// instead of routing on an overflowed metric. Both outcomes must occur.
func TestGreedyRouteNearFloatRange(t *testing.T) {
	ft, err := topology.FatTree(4, 1e12)
	if err != nil {
		t.Fatal(err)
	}
	var routed, refused int
	for _, mu := range []float64{1e305, 1e306, 1e307} {
		s, err := New(ft.Graph, power.Model{Mu: mu, Alpha: 2}, timeline.Interval{Start: 0, End: 10}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, dst := range ft.Hosts[1:] {
			f := flowAt(1, ft.Hosts[0], dst, 0, 5, 10) // density 2
			got, err := s.route(f, f.Density())
			if err != nil {
				refused++
				continue
			}
			want, _, _, err := referenceRoute(s, f)
			if err != nil {
				t.Fatalf("mu %v: routed %v where ShortestPathWeighted found no path: %v", mu, got.Edges, err)
			}
			if got.Key() != want.Key() {
				t.Fatalf("mu %v: route %v, ShortestPathWeighted %v", mu, got.Edges, want.Edges)
			}
			routed++
		}
	}
	if routed == 0 || refused == 0 {
		t.Fatalf("routed %d and refused %d admissions; want both", routed, refused)
	}
	s, err := New(ft.Graph, power.Model{Mu: 1e300, Alpha: 2}, timeline.Interval{Start: 0, End: 10}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Admit(flowAt(2, ft.Hosts[0], ft.Hosts[5], 0, 1, 1e10)); !errors.Is(err, ErrNoRouteOnline) {
		t.Fatalf("overflowing marginal cost: Admit error %v, want ErrNoRouteOnline", err)
	}
}
