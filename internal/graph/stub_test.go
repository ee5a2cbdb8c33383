package graph_test

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"dcnflow/internal/graph"
	"dcnflow/internal/topology"
)

// TestStubClassification pins which nodes Tree treats as stubs: the
// single-homed hosts of fat-tree, VL2, leaf-spine, star and jellyfish, the
// two ends of a line, and nothing in BCube (every server has one link per
// level). No switch is ever a stub. Both the renumbered and the identity
// view must agree.
func TestStubClassification(t *testing.T) {
	build := func(top *topology.Topology, err error) *topology.Topology {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return top
	}
	type family struct {
		name  string
		top   *topology.Topology
		stubs func(top *topology.Topology) []graph.NodeID
	}
	hosts := func(top *topology.Topology) []graph.NodeID { return top.Hosts }
	none := func(*topology.Topology) []graph.NodeID { return nil }
	ends := func(top *topology.Topology) []graph.NodeID {
		return []graph.NodeID{top.Hosts[0], top.Hosts[len(top.Hosts)-1]}
	}
	families := []family{
		{"fattree-k4", build(topology.FatTree(4, 10)), hosts},
		{"fattree-k8", build(topology.FatTree(8, 10)), hosts},
		{"vl2", build(topology.VL2(4, 4, 4, 2, 10)), hosts},
		{"leafspine", build(topology.LeafSpine(2, 3, 2, 10)), hosts},
		{"star-4", build(topology.Star(4, 10)), hosts},
		{"jellyfish", build(topology.Jellyfish(8, 3, 1, 10, 7)), hosts},
		{"line-4", build(topology.Line(4, 10)), ends},
		{"bcube-2-1", build(topology.BCube(2, 1, 10)), none},
		{"bcube-4-1", build(topology.BCube(4, 1, 10)), none},
	}
	for _, f := range families {
		g := f.top.Graph
		want := make(map[graph.NodeID]bool)
		for _, v := range f.stubs(f.top) {
			want[v] = true
		}
		for _, v := range f.top.Switches {
			if want[v] {
				t.Fatalf("%s: table lists switch %d as a stub", f.name, v)
			}
		}
		c, ci := graph.Compile(g), graph.CompileIdentity(g)
		for v := 0; v < g.NumNodes(); v++ {
			id := graph.NodeID(v)
			if got := c.Hot().IsStub(c.ToHot(id)); got != want[id] {
				t.Errorf("%s: node %d (%s) hot view stub=%v, want %v", f.name, v, nodeName(g, id), got, want[id])
			}
			if got := ci.Hot().IsStub(id); got != want[id] {
				t.Errorf("%s: node %d (%s) identity view stub=%v, want %v", f.name, v, nodeName(g, id), got, want[id])
			}
		}
	}
}

// TestStubClassificationEdgeCases covers the definition's corners on
// hand-built graphs: parallel in-edges, a second in-neighbour, an out-edge
// leading anywhere but back, a sink and a self-loop.
func TestStubClassificationEdgeCases(t *testing.T) {
	g := graph.New()
	n := func(name string) graph.NodeID { return g.AddNode(name, graph.KindHost) }
	edge := func(a, b graph.NodeID) {
		if _, err := g.AddEdge(a, b, 1); err != nil {
			t.Fatal(err)
		}
	}
	hub, hub2 := n("hub"), n("hub2")
	edge(hub, hub2)
	edge(hub2, hub)
	leaf := n("leaf") // hub<->leaf: a stub
	edge(hub, leaf)
	edge(leaf, hub)
	twice := n("twice") // leaf back twice: still a stub
	edge(hub, twice)
	edge(twice, hub)
	edge(twice, hub)
	par := n("parallel-in") // two parallel in-edges: not a stub
	edge(hub, par)
	edge(hub, par)
	edge(par, hub)
	dual := n("dual-homed") // two in-neighbours: not a stub
	edge(hub, dual)
	edge(hub2, dual)
	edge(dual, hub)
	away := n("out-elsewhere") // out-edge to a third node: not a stub
	edge(hub, away)
	edge(away, hub2)
	sink := n("sink") // one in-edge, no out-edges: a stub
	edge(hub, sink)
	loop := n("self-loop") // its only in-edge is a self-loop: not a stub
	edge(loop, loop)
	want := map[graph.NodeID]bool{leaf: true, twice: true, sink: true}
	csr := graph.CompileIdentity(g).Hot()
	for v := 0; v < g.NumNodes(); v++ {
		id := graph.NodeID(v)
		if got := csr.IsStub(id); got != want[id] {
			t.Errorf("%s: stub=%v, want %v", nodeName(g, id), got, want[id])
		}
	}
}

// marginalWeights fills w like a warm Frank–Wolfe iterate: a derivative
// term plus the 1e-12 hop bias, with about half the edges unloaded and so
// exactly 1e-12. Equal loads on several edges give exact ties as well.
func marginalWeights(rng *rand.Rand, w []float64, scale float64) {
	for i := range w {
		switch rng.Intn(4) {
		case 0, 1:
			w[i] = 1e-12
		case 2:
			w[i] = scale*float64(1+rng.Intn(3)) + 1e-12
		default:
			w[i] = scale*rng.Float64() + 1e-12
		}
	}
}

// sameTrees reports the first destination whose reachability, distance bits
// or extracted path differ between two scratches, or "" when all agree.
func sameTrees(a, b *graph.SSSPScratch, dsts []graph.NodeID) string {
	var pa, pb []graph.EdgeID
	for _, d := range dsts {
		ra, rb := a.Reached(d), b.Reached(d)
		if ra != rb {
			return "reachability"
		}
		if !ra {
			continue
		}
		if math.Float64bits(a.Dist(d)) != math.Float64bits(b.Dist(d)) {
			return "distance"
		}
		var okA, okB bool
		pa, okA = a.AppendPathTo(d, pa[:0])
		pb, okB = b.AppendPathTo(d, pb[:0])
		if okA != okB || graph.CompareEdges(pa, pb) != 0 {
			return "path"
		}
	}
	return ""
}

// TestStubTreeMatchesHistorical is the property test behind Tree's fast
// search: over every topology family, on both the renumbered and the
// identity layout, on marginal-cost weights full of exact 1e-12 entries,
// Tree, the unguarded fast search and the historical search must
// agree bit for bit on every destination — early-exit sets mixing stub and
// non-stub nodes, and full trees (dsts == nil) compared on every node.
func TestStubTreeMatchesHistorical(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	corpus := compileCorpus(t)
	guarded := 0
	for _, name := range sortedNames(corpus) {
		g := corpus[name]
		n := g.NumNodes()
		all := allNodes(g)
		for _, c := range []*graph.Compiled{graph.Compile(g), graph.CompileIdentity(g)} {
			hot := c.Hot()
			var stubs, others []graph.NodeID
			for v := 0; v < n; v++ {
				if hot.IsStub(graph.NodeID(v)) {
					stubs = append(stubs, graph.NodeID(v))
				} else {
					others = append(others, graph.NodeID(v))
				}
			}
			tree, fast, hist := graph.NewSSSPScratch(hot), graph.NewSSSPScratch(hot), graph.NewSSSPScratch(hot)
			w := make([]float64, g.NumEdges())
			for trial := 0; trial < 60; trial++ {
				marginalWeights(rng, w, []float64{1e-9, 1e-3, 1, 50}[trial%4])
				for _, s := range []*graph.SSSPScratch{tree, fast, hist} {
					if err := s.SetWeights(w); err != nil {
						t.Fatal(err)
					}
				}
				src := graph.NodeID(rng.Intn(n))
				var dsts []graph.NodeID
				if trial%5 != 0 {
					for i := 0; i < 1+rng.Intn(4); i++ {
						pool := others
						if len(stubs) > 0 && rng.Intn(2) == 0 {
							pool = stubs
						}
						dsts = append(dsts, pool[rng.Intn(len(pool))])
					}
				}
				check := dsts
				if dsts == nil {
					check = all
				}
				tree.Tree(src, dsts)
				maxDist := fast.TreeFastUnguarded(src, dsts)
				hist.TreeHistorical(src, dsts)
				if diff := sameTrees(tree, hist, check); diff != "" {
					t.Fatalf("%s trial %d src %d dsts %v: Tree and historical search differ in %s", name, trial, src, dsts, diff)
				}
				if maxDist < tree.MinWeight()*0x1p52 {
					guarded++
					if diff := sameTrees(fast, hist, check); diff != "" {
						t.Fatalf("%s trial %d src %d dsts %v: guarded fast search and historical search differ in %s", name, trial, src, dsts, diff)
					}
				}
			}
		}
	}
	if guarded == 0 {
		t.Fatal("the no-absorption guard never held: the fast search went untested")
	}
}

// TestStubTreeFallback forces Tree's fallback — zero weights (minW == 0),
// and distances past minW·2^52 — and checks that the result still equals
// the historical search on every family and layout. Zero weights absorb
// additions, and the unguarded fast search then really does pick
// different paths: the test requires that it did at least once, so it
// fails if the guard is dropped.
func TestStubTreeFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	corpus := compileCorpus(t)
	zeroed, far, diverged := 0, 0, 0
	for _, name := range sortedNames(corpus) {
		g := corpus[name]
		all := allNodes(g)
		for _, c := range []*graph.Compiled{graph.Compile(g), graph.CompileIdentity(g)} {
			tree, fast, hist := graph.NewSSSPScratch(c.Hot()), graph.NewSSSPScratch(c.Hot()), graph.NewSSSPScratch(c.Hot())
			w := make([]float64, g.NumEdges())
			for trial := 0; trial < 40; trial++ {
				marginalWeights(rng, w, 1)
				for i := range w {
					switch {
					case w[i] > 1e-12 && trial%2 == 1:
						// Heavy edges push distances past 1e-12·2^52 ≈ 4504
						// while the lightest weight stays 1e-12.
						w[i] = 1e4
					case w[i] == 1e-12 && trial%2 == 0:
						w[i] = 0 // an unloaded edge without the hop bias
					}
				}
				for _, s := range []*graph.SSSPScratch{tree, fast, hist} {
					if err := s.SetWeights(w); err != nil {
						t.Fatal(err)
					}
				}
				src := graph.NodeID(rng.Intn(g.NumNodes()))
				if tree.MinWeight() == 0 {
					zeroed++
				} else if fast.TreeFastUnguarded(src, nil) >= tree.MinWeight()*0x1p52 {
					far++
				}
				tree.Tree(src, nil)
				hist.TreeHistorical(src, nil)
				if diff := sameTrees(tree, hist, all); diff != "" {
					t.Fatalf("%s trial %d src %d: Tree differs from the historical search in %s", name, trial, src, diff)
				}
				fast.TreeFastUnguarded(src, nil)
				if sameTrees(fast, hist, all) != "" {
					diverged++
				}
			}
		}
	}
	if zeroed == 0 || far == 0 {
		t.Fatalf("fallback not exercised: %d zero-weight trials, %d far-distance trials", zeroed, far)
	}
	if diverged == 0 {
		t.Fatal("the unguarded fast search never diverged from the historical search: the fallback inputs test nothing")
	}
}

// TestScratchMinWeight pins the lifecycle of the weight lower bound:
// recorded by SetWeights and ScanWeights, reset by SlotWeights and
// UnshareWeights, copied by ShareWeightsFrom.
func TestScratchMinWeight(t *testing.T) {
	top, err := topology.FatTree(4, 10)
	if err != nil {
		t.Fatal(err)
	}
	c := graph.Compile(top.Graph)
	s := graph.NewSSSPScratch(c.Hot())
	w := make([]float64, top.Graph.NumEdges())
	for i := range w {
		w[i] = float64(i%5) + 0.5
	}
	if err := s.SetWeights(w); err != nil {
		t.Fatal(err)
	}
	if s.MinWeight() != 0.5 {
		t.Fatalf("SetWeights recorded minW %v, want 0.5", s.MinWeight())
	}
	peer := c.AcquireScratch()
	peer.ShareWeightsFrom(s)
	if peer.MinWeight() != 0.5 {
		t.Fatalf("ShareWeightsFrom copied minW %v, want 0.5", peer.MinWeight())
	}
	c.ReleaseScratch(peer)
	if peer.MinWeight() != 0 {
		t.Fatalf("released scratch kept minW %v, want 0", peer.MinWeight())
	}
	slot := s.SlotWeights()
	if s.MinWeight() != 0 {
		t.Fatalf("SlotWeights left minW %v, want 0 (unknown)", s.MinWeight())
	}
	slot[3] = 0.25
	s.ScanWeights()
	if s.MinWeight() != 0.25 {
		t.Fatalf("ScanWeights recorded minW %v, want 0.25", s.MinWeight())
	}
	w[0] = math.NaN()
	if err := s.SetWeights(w); err != nil {
		t.Fatal(err)
	}
	if s.MinWeight() > 0 {
		t.Fatalf("a NaN weight recorded minW %v, want a value that disables the fast search", s.MinWeight())
	}
}

// sortedNames returns the corpus's family names in a fixed order, so
// randomized trials draw the same inputs on every run.
func sortedNames(corpus map[string]*graph.Graph) []string {
	var names []string
	for name := range corpus {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func nodeName(g *graph.Graph, id graph.NodeID) string {
	nd, _ := g.Node(id)
	return nd.Name
}

func allNodes(g *graph.Graph) []graph.NodeID {
	all := make([]graph.NodeID, g.NumNodes())
	for v := range all {
		all[v] = graph.NodeID(v)
	}
	return all
}
