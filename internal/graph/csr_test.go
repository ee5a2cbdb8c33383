package graph

import (
	"math/rand"
	"testing"
)

// randomGraph builds a reproducible directed multigraph for CSR tests.
func randomGraph(t *testing.T, seed int64, nodes, edges int) *Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := New()
	for i := 0; i < nodes; i++ {
		g.AddNode("n", KindSwitch)
	}
	for i := 0; i < edges; i++ {
		a, b := NodeID(rng.Intn(nodes)), NodeID(rng.Intn(nodes))
		if a == b {
			continue
		}
		if _, err := g.AddEdge(a, b, 1); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// TestCSRMatchesAdjacency: the identity-order view's slot rows, heads and
// edge tails agree with the Graph's own adjacency, slot for slot.
func TestCSRMatchesAdjacency(t *testing.T) {
	g := randomGraph(t, 7, 30, 120)
	c := CompileIdentity(g).Hot()
	if c.NumNodes() != g.NumNodes() || c.NumEdges() != g.NumEdges() {
		t.Fatalf("CSR size mismatch: %d/%d nodes, %d/%d edges",
			c.NumNodes(), g.NumNodes(), c.NumEdges(), g.NumEdges())
	}
	for u := 0; u < g.NumNodes(); u++ {
		out := g.OutEdges(NodeID(u))
		row := c.SlotEdges()[c.Start[u]:c.Start[u+1]]
		if len(out) != len(row) {
			t.Fatalf("node %d: out-degree %d vs CSR row %d", u, len(out), len(row))
		}
		for k, eid := range out {
			if EdgeID(row[k]) != eid {
				t.Fatalf("node %d slot %d: edge %d vs %d (order must match OutEdges)", u, k, row[k], eid)
			}
			e := g.MustEdge(eid)
			if c.EdgeFrom[eid] != e.From {
				t.Fatalf("edge %d: EdgeFrom %d, want %d", eid, c.EdgeFrom[eid], e.From)
			}
			if NodeID(c.slotTo[c.Start[u]+int32(k)]) != e.To {
				t.Fatalf("edge %d: slot head mismatch", eid)
			}
		}
	}
}

// TestSSSPTreeMatchesDijkstra cross-checks the scratch-based tree against
// the reference ShortestPathWeighted implementation, including deterministic
// tie-breaking, under weights with many exact ties.
func TestSSSPTreeMatchesDijkstra(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := randomGraph(t, 9, 40, 160)
	w := make([]float64, g.NumEdges())
	scr := NewSSSPScratch(CompileIdentity(g).Hot())
	var buf []EdgeID
	for trial := 0; trial < 200; trial++ {
		for i := range w {
			w[i] = rng.Float64() * float64(rng.Intn(3)) // zero-weight ties included
		}
		if err := scr.SetWeights(w); err != nil {
			t.Fatal(err)
		}
		src := NodeID(rng.Intn(g.NumNodes()))
		var dsts []NodeID
		for i := 0; i < 5; i++ {
			if d := NodeID(rng.Intn(g.NumNodes())); d != src {
				dsts = append(dsts, d)
			}
		}
		scr.Tree(src, dsts)
		for _, dst := range dsts {
			ref, err := g.ShortestPathWeighted(src, dst, func(e Edge) float64 { return w[e.ID] })
			buf = buf[:0]
			got, ok := scr.AppendPathTo(dst, buf)
			if err != nil {
				if ok {
					t.Fatalf("trial %d %d->%d: reference unreachable but scratch found %v", trial, src, dst, got)
				}
				continue
			}
			if !ok {
				t.Fatalf("trial %d %d->%d: reference found %v, scratch none", trial, src, dst, ref.Edges)
			}
			if !edgesEqual(ref.Edges, got) {
				t.Fatalf("trial %d %d->%d: reference %v vs scratch %v", trial, src, dst, ref.Edges, got)
			}
		}
	}
}

// TestSSSPTreeZeroAllocs is the allocation-regression ceiling for the
// Frank–Wolfe oracle's tree build: after warm-up, a Dijkstra tree plus path
// extraction must not allocate at all.
func TestSSSPTreeZeroAllocs(t *testing.T) {
	g := randomGraph(t, 10, 60, 300)
	w := make([]float64, g.NumEdges())
	for i := range w {
		w[i] = float64(i%7) + 1
	}
	scr := NewSSSPScratch(CompileIdentity(g).Hot())
	if err := scr.SetWeights(w); err != nil {
		t.Fatal(err)
	}
	src, dst := NodeID(0), NodeID(59)
	dsts := []NodeID{dst}
	buf := make([]EdgeID, 0, 64)
	scr.Tree(src, dsts) // warm-up sizes the heap and path buffers
	allocs := testing.AllocsPerRun(50, func() {
		scr.Tree(src, dsts)
		buf = buf[:0]
		buf, _ = scr.AppendPathTo(dst, buf)
	})
	if allocs != 0 {
		t.Fatalf("Dijkstra tree build allocates %.1f times per run, want 0", allocs)
	}
}

func TestPathInterner(t *testing.T) {
	it := NewPathInterner()
	a := []EdgeID{1, 2, 3}
	b := []EdgeID{1, 2, 4}
	ha := it.Intern(a)
	hb := it.Intern(b)
	if ha == hb {
		t.Fatal("distinct paths interned to one handle")
	}
	if got := it.Intern([]EdgeID{1, 2, 3}); got != ha {
		t.Fatalf("re-intern of equal path: handle %d, want %d", got, ha)
	}
	if it.Len() != 2 {
		t.Fatalf("Len = %d, want 2", it.Len())
	}
	if !edgesEqual(it.Edges(ha), a) {
		t.Fatalf("Edges(%d) = %v, want %v", ha, it.Edges(ha), a)
	}
	p := it.Path(hb)
	p.Edges[0] = 99 // mutating the copy must not corrupt the arena
	if !edgesEqual(it.Edges(hb), b) {
		t.Fatal("Path() exposed interner arena storage")
	}
	// Input slices may be reused by callers after interning.
	scratch := []EdgeID{7, 8}
	h := it.Intern(scratch)
	scratch[0] = 42
	if !edgesEqual(it.Edges(h), []EdgeID{7, 8}) {
		t.Fatal("Intern aliased its input slice")
	}
}

// TestPathInternerReset: Reset empties the table, handles restart at 0, a
// colliding-hash chain still resolves, and refilling within the previous
// size allocates nothing.
func TestPathInternerReset(t *testing.T) {
	it := NewPathInterner()
	paths := [][]EdgeID{{1, 2, 3}, {4}, {5, 6}, {}, {1, 2}}
	fill := func() {
		for i, p := range paths {
			if h := it.Intern(p); h != PathHandle(i) {
				t.Fatalf("path %v: handle %d, want %d", p, h, i)
			}
		}
	}
	fill()
	it.Reset()
	if it.Len() != 0 {
		t.Fatalf("Len after Reset = %d, want 0", it.Len())
	}
	fill()
	for i, p := range paths {
		if got := it.Intern(p); got != PathHandle(i) || !edgesEqual(it.Edges(got), p) {
			t.Fatalf("re-intern of %v: handle %d edges %v", p, got, it.Edges(got))
		}
	}
	// Force two sequences into one hash chain: both must stay distinct.
	a, b := []EdgeID{7, 7}, []EdgeID{8, 8}
	it.Reset()
	ha := it.Intern(a)
	it.head[hashEdges(b)] = ha // b's bucket now starts at a's handle
	hb := it.Intern(b)
	if ha == hb || it.Intern(a) != ha || it.Intern(b) != hb {
		t.Fatalf("colliding chain: handles %d and %d", ha, hb)
	}
	allocs := testing.AllocsPerRun(20, func() {
		it.Reset()
		fill()
	})
	if allocs != 0 {
		t.Fatalf("refilling a reset table allocates %.1f times, want 0", allocs)
	}
}

func TestCompareEdges(t *testing.T) {
	cases := []struct {
		a, b []EdgeID
		want int
	}{
		{nil, nil, 0},
		{[]EdgeID{1}, nil, 1},
		{nil, []EdgeID{1}, -1},
		{[]EdgeID{1, 2}, []EdgeID{1, 2}, 0},
		{[]EdgeID{1, 2}, []EdgeID{1, 3}, -1},
		{[]EdgeID{2}, []EdgeID{10}, -1}, // numeric, not string, order
		{[]EdgeID{1, 2, 3}, []EdgeID{1, 2}, 1},
	}
	for _, c := range cases {
		if got := CompareEdges(c.a, c.b); got != c.want {
			t.Fatalf("CompareEdges(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// TestComparePathKeysMatchesKeyStrings checks ComparePathKeys against the
// literal Path.Key() string comparison it replaces, over directed cases
// (digit-vs-separator collisions included) and random sequences.
func TestComparePathKeysMatchesKeyStrings(t *testing.T) {
	sign := func(x int) int {
		switch {
		case x < 0:
			return -1
		case x > 0:
			return 1
		}
		return 0
	}
	strcmp := func(a, b string) int {
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		}
		return 0
	}
	check := func(a, b []EdgeID) {
		ka, kb := (Path{Edges: a}).Key(), (Path{Edges: b}).Key()
		want := strcmp(ka, kb)
		if got := sign(ComparePathKeys(a, b)); got != want {
			t.Fatalf("ComparePathKeys(%v, %v) = %d, want %d (keys %q vs %q)", a, b, got, want, ka, kb)
		}
	}
	cases := [][2][]EdgeID{
		{nil, nil},
		{{1}, nil},
		{{10, 2}, {2, 10}},  // "10,2" > "2,10" as strings
		{{1, 22}, {10, 2}},  // ',' sorts below digits: "1,22" < "10,2"
		{{1, 2}, {1, 2, 3}}, // prefix
		{{0}, {0, 0}},
		{{123}, {12, 3}}, // "123" vs "12,3"
		{{7}, {7}},
	}
	for _, c := range cases {
		check(c[0], c[1])
		check(c[1], c[0])
	}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 2000; trial++ {
		mk := func() []EdgeID {
			n := rng.Intn(5)
			out := make([]EdgeID, n)
			for i := range out {
				out[i] = EdgeID(rng.Intn(130))
			}
			return out
		}
		check(mk(), mk())
	}
}
