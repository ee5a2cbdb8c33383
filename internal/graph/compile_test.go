package graph_test

import (
	"sync"
	"testing"

	"dcnflow/internal/graph"
	"dcnflow/internal/topology"
)

// compileCorpus builds one representative of every topology family the
// scenario vocabulary exposes.
func compileCorpus(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	out := make(map[string]*graph.Graph)
	add := func(name string, top *topology.Topology, err error) {
		if err != nil {
			t.Fatalf("building %s: %v", name, err)
		}
		out[name] = top.Graph
	}
	ft, err := topology.FatTree(4, 10)
	add("fattree-k4", ft, err)
	bc, err := topology.BCube(2, 1, 10)
	add("bcube-2-1", bc, err)
	ls, err := topology.LeafSpine(2, 3, 2, 10)
	add("leafspine", ls, err)
	vl, err := topology.VL2(4, 4, 4, 2, 10)
	add("vl2", vl, err)
	jf, err := topology.Jellyfish(8, 3, 1, 10, 7)
	add("jellyfish", jf, err)
	ln, err := topology.Line(4, 10)
	add("line-4", ln, err)
	st, err := topology.Star(4, 10)
	add("star-4", st, err)
	return out
}

// TestCompileIdempotentAndInvalidated: Compile caches per graph and the
// cache drops on mutation.
func TestCompileIdempotentAndInvalidated(t *testing.T) {
	g := graph.New()
	a := g.AddNode("a", graph.KindSwitch)
	b := g.AddNode("b", graph.KindSwitch)
	if _, _, err := g.AddBiEdge(a, b, 5); err != nil {
		t.Fatal(err)
	}
	c1 := graph.Compile(g)
	if c2 := graph.Compile(g); c2 != c1 {
		t.Fatal("Compile is not cached: two calls returned distinct bundles")
	}
	if c1.Graph() != g {
		t.Fatal("compiled bundle does not reference its graph")
	}
	g.AddNode("c", graph.KindHost)
	c3 := graph.Compile(g)
	if c3 == c1 {
		t.Fatal("mutation did not invalidate the compiled cache")
	}
}

// TestCompiledShortestPathMatchesGraph: the pooled-scratch shortest path is
// bit-identical to the historical Graph.ShortestPath on every node pair of
// every topology family — same paths (not just same lengths), same errors.
func TestCompiledShortestPathMatchesGraph(t *testing.T) {
	for name, g := range compileCorpus(t) {
		c := graph.Compile(g)
		n := g.NumNodes()
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				src, dst := graph.NodeID(s), graph.NodeID(d)
				want, wantErr := g.ShortestPath(src, dst)
				got, gotErr := c.ShortestPath(src, dst)
				if (wantErr == nil) != (gotErr == nil) {
					t.Fatalf("%s: %d->%d error mismatch: graph %v, compiled %v", name, s, d, wantErr, gotErr)
				}
				if wantErr != nil {
					continue
				}
				if want.Key() != got.Key() {
					t.Fatalf("%s: %d->%d path mismatch: graph %s, compiled %s", name, s, d, want.Key(), got.Key())
				}
			}
		}
	}
}

// TestCompiledShortestPathConcurrent: the scratch pool serves concurrent
// callers without cross-talk (run under -race by make test-race-online).
func TestCompiledShortestPathConcurrent(t *testing.T) {
	ft, err := topology.FatTree(4, 10)
	if err != nil {
		t.Fatal(err)
	}
	g := ft.Graph
	c := graph.Compile(g)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < len(ft.Hosts); i++ {
				for j := 0; j < len(ft.Hosts); j++ {
					if i == j {
						continue
					}
					want, err := g.ShortestPath(ft.Hosts[i], ft.Hosts[j])
					if err != nil {
						errs <- err
						return
					}
					got, err := c.ShortestPath(ft.Hosts[i], ft.Hosts[j])
					if err != nil {
						errs <- err
						return
					}
					if want.Key() != got.Key() {
						errs <- errMismatch{want.Key(), got.Key()}
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

type errMismatch struct{ want, got string }

func (e errMismatch) Error() string {
	return "concurrent compiled shortest path diverged: want " + e.want + ", got " + e.got
}
