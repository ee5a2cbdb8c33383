package graph_test

import (
	"errors"
	"testing"

	"dcnflow/internal/graph"
)

// TestRenumberPermutation pins the node translation of both layouts: the
// renumbered compile's perm and inv are mutual inverses and actually
// reorder some family, and the identity compile maps every node to
// itself. Run under -race by make test-race-online.
func TestRenumberPermutation(t *testing.T) {
	sawRenumbered := false
	for name, g := range compileCorpus(t) {
		c := graph.Compile(g)
		ci := graph.CompileIdentity(g)
		for v := 0; v < g.NumNodes(); v++ {
			id := graph.NodeID(v)
			if c.FromHot(c.ToHot(id)) != id {
				t.Fatalf("%s: perm/inv are not inverse at node %d", name, v)
			}
			if c.ToHot(id) != id {
				sawRenumbered = true
			}
			if ci.ToHot(id) != id || ci.FromHot(id) != id {
				t.Fatalf("%s: identity compile permutes node %d", name, v)
			}
		}
	}
	if !sawRenumbered {
		t.Fatal("no corpus family was actually renumbered; the permutation check is vacuous")
	}
}

// TestRenumberHotViewStructure pins the hot view's layout contract: node
// indices in hot space, edge ids original, and per-node slot rows in
// ascending original-edge-id order (the tie-break substrate).
func TestRenumberHotViewStructure(t *testing.T) {
	for name, g := range compileCorpus(t) {
		c := graph.Compile(g)
		hot := c.Hot()
		if hot.NumNodes() != g.NumNodes() || hot.NumEdges() != g.NumEdges() {
			t.Fatalf("%s: hot view dims %dx%d, want %dx%d",
				name, hot.NumNodes(), hot.NumEdges(), g.NumNodes(), g.NumEdges())
		}
		for h := 0; h < hot.NumNodes(); h++ {
			u := c.FromHot(graph.NodeID(h))
			row := hot.SlotEdges()[hot.Start[h]:hot.Start[h+1]]
			want := g.OutEdges(u)
			if len(row) != len(want) {
				t.Fatalf("%s: hot node %d has %d slots, original node %d has %d",
					name, h, len(row), u, len(want))
			}
			for k, eid := range row {
				if graph.EdgeID(eid) != want[k] {
					t.Fatalf("%s: hot node %d slot %d holds edge %d, want %d (ascending original ids)",
						name, h, k, eid, want[k])
				}
				e := g.MustEdge(want[k])
				if hot.SlotTo()[hot.Start[h]+int32(k)] != int32(c.ToHot(e.To)) {
					t.Fatalf("%s: hot slot head of edge %d is not the hot id of its To", name, eid)
				}
			}
		}
		for i := 0; i < g.NumEdges(); i++ {
			e := g.MustEdge(graph.EdgeID(i))
			if hot.EdgeFrom[i] != c.ToHot(e.From) {
				t.Fatalf("%s: hot EdgeFrom[%d] disagrees with the permuted tail", name, i)
			}
		}
		slots := hot.EdgeSlots()
		if len(slots) != g.NumEdges() {
			t.Fatalf("%s: EdgeSlots has %d entries, want %d", name, len(slots), g.NumEdges())
		}
		for slot, eid := range hot.SlotEdges() {
			if slots[eid] != int32(slot) {
				t.Fatalf("%s: EdgeSlots[%d] = %d, but edge %d sits in slot %d", name, eid, slots[eid], eid, slot)
			}
		}
	}
}

// TestBatchShortestPathsMatchesPerQuery: the shared-frontier batch answers
// exactly what per-query ShortestPath answers, over every node pair of
// every family (including src==dst empties).
func TestBatchShortestPathsMatchesPerQuery(t *testing.T) {
	for name, g := range compileCorpus(t) {
		c := graph.Compile(g)
		n := g.NumNodes()
		var queries []graph.PathQuery
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				queries = append(queries, graph.PathQuery{Src: graph.NodeID(s), Dst: graph.NodeID(d)})
			}
		}
		paths, failed, err := c.BatchShortestPaths(queries)
		if err != nil {
			t.Fatalf("%s: batch failed at query %d: %v", name, failed, err)
		}
		for i, q := range queries {
			want, wantErr := c.ShortestPath(q.Src, q.Dst)
			if wantErr != nil {
				t.Fatalf("%s: per-query %d->%d failed: %v", name, q.Src, q.Dst, wantErr)
			}
			if want.Key() != paths[i].Key() {
				t.Fatalf("%s: %d->%d batch path %s, per-query %s", name, q.Src, q.Dst, paths[i].Key(), want.Key())
			}
		}
	}
}

// TestBatchShortestPathsErrors: the batch reports the FIRST failing query
// in input order with ShortestPath's exact error classes, even when an
// earlier-indexed failure is discovered later (unreachable vs unknown
// node).
func TestBatchShortestPathsErrors(t *testing.T) {
	g := graph.New()
	a := g.AddNode("a", graph.KindSwitch)
	b := g.AddNode("b", graph.KindSwitch)
	iso := g.AddNode("iso", graph.KindSwitch) // no edges: unreachable
	if _, _, err := g.AddBiEdge(a, b, 1); err != nil {
		t.Fatal(err)
	}
	c := graph.Compile(g)

	// Unreachable before unknown-node: index 0 must win even though the
	// unknown node is detectable earlier in the pipeline.
	_, failed, err := c.BatchShortestPaths([]graph.PathQuery{
		{Src: a, Dst: iso},
		{Src: a, Dst: graph.NodeID(99)},
	})
	if failed != 0 || !errors.Is(err, graph.ErrNoPath) {
		t.Fatalf("failed=%d err=%v, want index 0 wrapping ErrNoPath", failed, err)
	}
	_, failed, err = c.BatchShortestPaths([]graph.PathQuery{
		{Src: a, Dst: graph.NodeID(99)},
		{Src: a, Dst: iso},
	})
	if failed != 0 || !errors.Is(err, graph.ErrNodeNotFound) {
		t.Fatalf("failed=%d err=%v, want index 0 wrapping ErrNodeNotFound", failed, err)
	}
	// All-good batch reports failed = -1.
	paths, failed, err := c.BatchShortestPaths([]graph.PathQuery{{Src: a, Dst: b}, {Src: b, Dst: b}})
	if err != nil || failed != -1 {
		t.Fatalf("good batch: failed=%d err=%v", failed, err)
	}
	if len(paths[0].Edges) != 1 || len(paths[1].Edges) != 0 {
		t.Fatalf("good batch paths: %v", paths)
	}
}
