package graph_test

import (
	"math"
	"math/rand"
	"testing"

	"dcnflow/internal/graph"
	"dcnflow/internal/topology"
)

// TestHopsMatchesBFS checks Hops against per-pair fewest-edge paths of the
// Graph itself on every family and layout, and its cap on a line longer
// than 254 hops.
func TestHopsMatchesBFS(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	corpus := compileCorpus(t)
	for _, name := range sortedNames(corpus) {
		g := corpus[name]
		n := g.NumNodes()
		for _, c := range []*graph.Compiled{graph.Compile(g), graph.CompileIdentity(g)} {
			hop := make([]uint8, n)
			var queue []int32
			for trial := 0; trial < 8; trial++ {
				var dsts, hdsts []graph.NodeID
				for i := 0; i < 1+rng.Intn(3); i++ {
					d := graph.NodeID(rng.Intn(n))
					dsts = append(dsts, d)
					hdsts = append(hdsts, c.ToHot(d))
				}
				queue = c.Hot().Hops(hdsts, hop, queue)
				for v := 0; v < n; v++ {
					want := graph.HopNone
					for _, d := range dsts {
						if p, err := g.ShortestPath(graph.NodeID(v), d); err == nil && uint8(len(p.Edges)) < want {
							want = uint8(len(p.Edges))
						}
					}
					if got := hop[c.ToHot(graph.NodeID(v))]; got != want {
						t.Fatalf("%s trial %d: node %d to %v: hop %d, want %d", name, trial, v, dsts, got, want)
					}
				}
			}
		}
	}
	line, err := topology.Line(300, 10)
	if err != nil {
		t.Fatal(err)
	}
	c := graph.CompileIdentity(line.Graph)
	hop := make([]uint8, c.Hot().NumNodes())
	c.Hot().Hops([]graph.NodeID{0}, hop, nil)
	for v, h := range hop {
		if want := uint8(min(v, 254)); h != want {
			t.Fatalf("line node %d: hop %d, want %d (capped at 254)", v, h, want)
		}
	}
}

// towardWeights fills w (edge-indexed) with one of the weight shapes the
// goal search must handle, all at least m and most exactly m:
// Frank–Wolfe-shaped (a random subset loaded, with exact ties among the
// loads), near-ties (m·(1 + k·2^-40)) and uniform random.
func towardWeights(rng *rand.Rand, w []float64, kind int, m, load float64) {
	for i := range w {
		switch kind {
		case 0:
			switch rng.Intn(8) {
			case 0:
				w[i] = m + load*float64(1+rng.Intn(3))
			case 1:
				w[i] = m + load*rng.Float64()
			default:
				w[i] = m
			}
		case 1:
			w[i] = m * (1 + float64(rng.Intn(8))*0x1p-40)
		default:
			w[i] = m + load*rng.Float64()
		}
	}
}

// towardCase draws a source and a destination set in hot ids. The kinds
// rotate through one stub, several stubs, switches, a stub under the
// source's own edge switch, and a set with an unreachable node (island).
func towardCase(rng *rand.Rand, hot *graph.CSR, island graph.NodeID, kind int) (graph.NodeID, []graph.NodeID) {
	n := hot.NumNodes()
	var stubs, others []graph.NodeID
	for v := 0; v < n; v++ {
		switch id := graph.NodeID(v); {
		case id == island:
		case hot.IsStub(id):
			stubs = append(stubs, id)
		default:
			others = append(others, id)
		}
	}
	pick := func(pool []graph.NodeID) graph.NodeID {
		if len(pool) == 0 {
			pool = others
		}
		return pool[rng.Intn(len(pool))]
	}
	heads := func(u graph.NodeID) []int32 { return hot.SlotTo()[hot.Start[u]:hot.Start[u+1]] }
	src := pick(others)
	if rng.Intn(2) == 0 {
		src = pick(stubs)
	}
	var dsts []graph.NodeID
	switch kind {
	case 0:
		dsts = append(dsts, pick(stubs))
	case 1:
		for i := 0; i < 2+rng.Intn(4); i++ {
			dsts = append(dsts, pick(stubs))
		}
	case 2:
		for i := 0; i < 1+rng.Intn(3); i++ {
			dsts = append(dsts, pick(others))
		}
	case 3:
		// Two hops out of src, through its edge switch when src is a stub.
		src = pick(stubs)
		for _, e := range heads(src) {
			for _, v := range heads(graph.NodeID(e)) {
				if graph.NodeID(v) != src && (len(stubs) == 0 || hot.IsStub(graph.NodeID(v))) {
					dsts = append(dsts, graph.NodeID(v))
				}
			}
		}
		if len(dsts) > 1 {
			dsts = dsts[:1+rng.Intn(len(dsts))]
		} else if len(dsts) == 0 {
			dsts = append(dsts, pick(stubs))
		}
	default:
		dsts = append(dsts, pick(stubs), island)
	}
	return src, dsts
}

// TestTreeTowardMatchesTree is TreeToward's differential test: on every
// topology family, renumbered and identity layouts, under Frank–Wolfe-shaped,
// near-tie and uniform random weights, TreeToward must give every
// destination the distance bits and path Tree gives it. The goal search on
// its own (no fallback) must agree whenever it answers, must answer most
// trials, and must answer every trial where no guard can fail: minW > 0,
// every destination reached, src at least two hops from them (so B2 is at
// most their distance) and distances far below minW·2^45.
func TestTreeTowardMatchesTree(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	corpus := compileCorpus(t)
	trials, answered, forced := 0, 0, 0
	for _, name := range sortedNames(corpus) {
		g := corpus[name]
		island := g.AddNode("island", graph.KindHost) // reachable from nowhere
		for _, c := range []*graph.Compiled{graph.Compile(g), graph.CompileIdentity(g)} {
			hot := c.Hot()
			ref, tw, goal := graph.NewSSSPScratch(hot), graph.NewSSSPScratch(hot), graph.NewSSSPScratch(hot)
			w := make([]float64, g.NumEdges())
			hop := make([]uint8, hot.NumNodes())
			var queue []int32
			for trial := 0; trial < 90; trial++ {
				m := []float64{1e-12, 1e-6, 0.5}[trial%3]
				load := []float64{1e-9, 1e-3, 1}[(trial/3)%3]
				towardWeights(rng, w, (trial/9)%3, m, load)
				for _, s := range []*graph.SSSPScratch{ref, tw, goal} {
					if err := s.SetWeights(w); err != nil {
						t.Fatal(err)
					}
				}
				src, dsts := towardCase(rng, hot, c.ToHot(island), trial%5)
				queue = hot.Hops(dsts, hop, queue)
				ref.Tree(src, dsts)
				gotGoal := tw.TreeToward(src, dsts, hop)
				if diff := sameTrees(tw, ref, dsts); diff != "" {
					t.Fatalf("%s trial %d src %d dsts %v: TreeToward and Tree differ in %s", name, trial, src, dsts, diff)
				}
				ok := goal.TreeTowardGoal(src, dsts, hop)
				if ok != gotGoal {
					t.Fatalf("%s trial %d: TreeToward reported %v, the goal search %v", name, trial, gotGoal, ok)
				}
				if ok {
					if diff := sameTrees(goal, ref, dsts); diff != "" {
						t.Fatalf("%s trial %d src %d dsts %v: the goal search and Tree differ in %s", name, trial, src, dsts, diff)
					}
				}
				trials++
				if ok {
					answered++
				}
				if mustAnswer(ref, src, dsts, hop) {
					forced++
					if !ok {
						t.Fatalf("%s trial %d src %d dsts %v: the goal search handed over with no guard failing", name, trial, src, dsts)
					}
				}
			}
		}
	}
	t.Logf("goal search answered %d of %d trials (%d with no guard able to fail)", answered, trials, forced)
	if answered*3 < trials*2 {
		t.Fatalf("the goal search answered only %d of %d trials", answered, trials)
	}
}

// mustAnswer reports whether no guard of the goal search can fail, given
// Tree's answer on ref: minW > 0, every destination reached, the source at
// least two hops from the set and every destination closer than
// minW·2^43. The last two keep B2 and every popped key below minW·2^45.
func mustAnswer(ref *graph.SSSPScratch, src graph.NodeID, dsts []graph.NodeID, hop []uint8) bool {
	m := ref.MinWeight()
	if !(m > 0) || hop[src] < 2 || hop[src] == graph.HopNone {
		return false
	}
	for _, d := range dsts {
		if !ref.Reached(d) || !(ref.Dist(d) < m*0x1p43) {
			return false
		}
	}
	return true
}

// TestTreeTowardGuard drives TreeToward past its guard: distances beyond
// minW·2^45 (an idle weight of 1e-12 next to loads of 1e4) and zero weights
// must hand the search over to Tree, and the answer must still match Tree.
func TestTreeTowardGuard(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	corpus := compileCorpus(t)
	far, zeroed := 0, 0
	for _, name := range sortedNames(corpus) {
		g := corpus[name]
		for _, c := range []*graph.Compiled{graph.Compile(g), graph.CompileIdentity(g)} {
			hot := c.Hot()
			ref, tw, goal := graph.NewSSSPScratch(hot), graph.NewSSSPScratch(hot), graph.NewSSSPScratch(hot)
			w := make([]float64, g.NumEdges())
			hop := make([]uint8, hot.NumNodes())
			for trial := 0; trial < 40; trial++ {
				towardWeights(rng, w, 0, 1e-12, 1e4)
				if trial%4 == 3 {
					for i := range w {
						if w[i] == 1e-12 && rng.Intn(2) == 0 {
							w[i] = 0
						}
					}
				}
				for _, s := range []*graph.SSSPScratch{ref, tw, goal} {
					if err := s.SetWeights(w); err != nil {
						t.Fatal(err)
					}
				}
				src, dsts := towardCase(rng, hot, -1, trial%4)
				hot.Hops(dsts, hop, nil)
				ref.Tree(src, dsts)
				tw.TreeToward(src, dsts, hop)
				if diff := sameTrees(tw, ref, dsts); diff != "" {
					t.Fatalf("%s trial %d src %d dsts %v: TreeToward and Tree differ in %s", name, trial, src, dsts, diff)
				}
				beyond := ref.MinWeight() == 0
				if beyond {
					zeroed++
				}
				for _, d := range dsts {
					if ref.Reached(d) && ref.Dist(d) >= ref.MinWeight()*0x1p45 && !beyond {
						beyond = true
						far++
					}
				}
				if beyond && goal.TreeTowardGoal(src, dsts, hop) {
					t.Fatalf("%s trial %d src %d dsts %v: the goal search answered past its guard", name, trial, src, dsts)
				}
			}
		}
	}
	if far == 0 || zeroed == 0 {
		t.Fatalf("guard not exercised: %d far-distance trials, %d zero-weight trials", far, zeroed)
	}
}

// FuzzTreeToward compares TreeToward, and the goal search alone where it
// answers, with Tree on fuzzed weights, sources and destination sets over
// the topology corpus plus random graphs with pendant hosts.
func FuzzTreeToward(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 42} {
		f.Add(seed, uint8(seed), uint8(0), int8(-40), uint8(3))
		f.Add(seed, uint8(seed+7), uint8(1), int8(0), uint8(1))
		f.Add(seed, uint8(seed+3), uint8(2), int8(-10), uint8(6))
	}
	corpus := map[string]*graph.Graph{}
	names := []string{}
	for _, top := range []func() (*topology.Topology, error){
		func() (*topology.Topology, error) { return topology.FatTree(4, 10) },
		func() (*topology.Topology, error) { return topology.BCube(2, 1, 10) },
		func() (*topology.Topology, error) { return topology.LeafSpine(2, 3, 2, 10) },
		func() (*topology.Topology, error) { return topology.VL2(4, 4, 4, 2, 10) },
		func() (*topology.Topology, error) { return topology.Jellyfish(8, 3, 1, 10, 7) },
		func() (*topology.Topology, error) { return topology.Line(4, 10) },
		func() (*topology.Topology, error) { return topology.Star(4, 10) },
	} {
		tp, err := top()
		if err != nil {
			f.Fatal(err)
		}
		corpus[tp.Name] = tp.Graph
		names = append(names, tp.Name)
	}
	f.Fuzz(func(t *testing.T, seed int64, family, kind uint8, exp int8, ndst uint8) {
		rng := rand.New(rand.NewSource(seed))
		var g *graph.Graph
		if idx := int(family & 0x7f); idx < len(names) {
			g = corpus[names[idx]]
		} else {
			g = pendantGraph(rng, 3+idx%20)
		}
		c := graph.Compile(g)
		if family&0x80 != 0 {
			c = graph.CompileIdentity(g)
		}
		hot := c.Hot()
		n := hot.NumNodes()
		m := math.Ldexp(1, int(exp)%60)
		w := make([]float64, g.NumEdges())
		towardWeights(rng, w, int(kind)%3, m, m*math.Ldexp(1, rng.Intn(40)))
		ref, tw, goal := graph.NewSSSPScratch(hot), graph.NewSSSPScratch(hot), graph.NewSSSPScratch(hot)
		for _, s := range []*graph.SSSPScratch{ref, tw, goal} {
			if err := s.SetWeights(w); err != nil {
				t.Fatal(err)
			}
		}
		src := graph.NodeID(rng.Intn(n))
		dsts := make([]graph.NodeID, 1+int(ndst)%6)
		for i := range dsts {
			dsts[i] = graph.NodeID(rng.Intn(n))
		}
		hop := make([]uint8, n)
		hot.Hops(dsts, hop, nil)
		ref.Tree(src, dsts)
		tw.TreeToward(src, dsts, hop)
		if diff := sameTrees(tw, ref, dsts); diff != "" {
			t.Fatalf("src %d dsts %v: TreeToward and Tree differ in %s", src, dsts, diff)
		}
		if goal.TreeTowardGoal(src, dsts, hop) {
			if diff := sameTrees(goal, ref, dsts); diff != "" {
				t.Fatalf("src %d dsts %v: the goal search and Tree differ in %s", src, dsts, diff)
			}
		}
	})
}

// pendantGraph builds a random bidirectional switch graph on n switches
// with a host hanging off every other switch, so stubs occur as in the
// data-centre families.
func pendantGraph(rng *rand.Rand, n int) *graph.Graph {
	g := graph.New()
	for i := 0; i < n; i++ {
		g.AddNode("s", graph.KindSwitch)
	}
	for i := 0; i < 2*n; i++ {
		a, b := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
		if a != b {
			g.AddBiEdge(a, b, 1)
		}
	}
	for i := 0; i < n; i += 2 {
		h := g.AddNode("h", graph.KindHost)
		g.AddBiEdge(graph.NodeID(i), h, 1)
	}
	return g
}
