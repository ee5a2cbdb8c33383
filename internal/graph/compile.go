package graph

import (
	"fmt"
	"sync"
)

// Compiled bundles every immutable artifact the hot paths derive from one
// Graph — a BFS-renumbered, cache-blocked CSR with its permutation and a
// pool of reusable shortest-path scratch — built exactly once per graph
// and shared by all consumers. It is the explicit compile-once entry point
// of the compile-once/solve-many architecture: solvers and baselines
// accept a *Compiled instead of rebuilding per-call views.
//
// Renumbering contract: Hot() is the graph re-indexed by a BFS visitation
// order (ToHot/FromHot translate node ids), chosen so that the
// neighbourhoods a frontier expands are contiguous in memory. The hot view
// changes only WHERE labels and adjacency rows live, never WHAT the
// algorithms compute: slot rows keep ascending-original-edge-id order, all
// tie-breaks compare original edge ids (slotEid/pred), and no comparison
// anywhere involves a node id — so every traversal is isomorphic to the
// identity-order one and all outputs (paths, distances, schedules) are
// byte-identical. CompileIdentity builds the unrenumbered twin for tests
// that pin this equivalence.
//
// A Compiled is safe for concurrent use. It must not outlive mutations of
// the underlying graph: AddNode/AddEdge invalidate it (the next Compile
// call rebuilds), and holding a stale Compiled across mutations is a
// caller bug.
type Compiled struct {
	g   *Graph
	hot *CSR // the one adjacency view; BFS-renumbered unless CompileIdentity

	// perm maps original node id -> hot id; inv is its inverse. For
	// CompileIdentity both are the identity.
	perm, inv []int32

	// scratch pools per-topology SSSP state bound to the hot view: a
	// Dijkstra run borrows a *SSSPScratch and returns it, so concurrent
	// shortest-path callers on one compiled graph allocate nothing after
	// warm-up.
	scratch sync.Pool
}

// compiledCache holds the lazily-built Compiled; Graph mutations reset it.
type compiledCache struct {
	mu  sync.Mutex
	ptr *Compiled
}

// Compile returns the compiled artifact bundle of g, building and caching
// it on first use (subsequent calls return the same *Compiled until the
// graph mutates).
func Compile(g *Graph) *Compiled {
	g.compiled.mu.Lock()
	defer g.compiled.mu.Unlock()
	if c := g.compiled.ptr; c != nil {
		return c
	}
	c := buildCompiled(g, true)
	g.compiled.ptr = c
	return c
}

// CompileIdentity builds a compiled bundle whose hot view keeps the
// graph's own node order — no renumbering. It is never cached on the graph
// (Compile keeps returning the renumbered bundle) and exists so tests can
// pin the byte-identity of renumbered and identity layouts end to end.
// Production callers want Compile.
func CompileIdentity(g *Graph) *Compiled {
	return buildCompiled(g, false)
}

func buildCompiled(g *Graph, renumber bool) *Compiled {
	c := &Compiled{g: g}
	if renumber {
		c.perm, c.inv = bfsOrder(g)
	} else {
		c.perm = make([]int32, g.NumNodes())
		for i := range c.perm {
			c.perm[i] = int32(i)
		}
		c.inv = c.perm
	}
	hot := buildCSR(g, c.perm, c.inv)
	c.hot = hot
	c.scratch.New = func() any { return NewSSSPScratch(hot) }
	return c
}

// bfsOrder computes the hot-layout permutation: nodes in BFS visitation
// order from node 0 (unreached components restart from the smallest
// unvisited original id), expanding out-edges in ascending original edge-id
// order. The order is a pure function of the graph, so compiles are
// deterministic. inv doubles as the BFS queue — nodes are appended in
// visitation order and expanded FIFO.
func bfsOrder(g *Graph) (perm, inv []int32) {
	n := g.NumNodes()
	perm = make([]int32, n)
	inv = make([]int32, 0, n)
	for i := range perm {
		perm[i] = -1
	}
	head := 0
	for root := 0; root < n; root++ {
		if perm[root] >= 0 {
			continue
		}
		perm[root] = int32(len(inv))
		inv = append(inv, int32(root))
		for head < len(inv) {
			u := inv[head]
			head++
			for _, eid := range g.out[u] {
				if v := g.edges[eid].To; perm[v] < 0 {
					perm[v] = int32(len(inv))
					inv = append(inv, int32(v))
				}
			}
		}
	}
	return perm, inv
}

// Graph returns the compiled graph.
func (c *Compiled) Graph() *Graph { return c.g }

// Hot returns the compiled adjacency view: BFS-renumbered for Compile,
// in the graph's own node order for CompileIdentity. Its node indices are
// hot ids (translate with ToHot/FromHot); its edge ids are original.
// Scratch from AcquireScratch is bound to this view.
func (c *Compiled) Hot() *CSR { return c.hot }

// ToHot translates an original node id into the hot (renumbered) space.
func (c *Compiled) ToHot(id NodeID) NodeID { return NodeID(c.perm[id]) }

// FromHot translates a hot node id back to the original space.
func (c *Compiled) FromHot(id NodeID) NodeID { return NodeID(c.inv[id]) }

// AcquireScratch borrows reusable SSSP scratch sized for this graph and
// bound to the hot view (node-id arguments to Tree/TreeDial and friends
// are hot ids; ToHot translates); pair it with ReleaseScratch. The scratch
// must not be used after the underlying graph mutates.
func (c *Compiled) AcquireScratch() *SSSPScratch {
	return c.scratch.Get().(*SSSPScratch)
}

// ReleaseScratch returns scratch obtained from AcquireScratch to the pool.
// Any weight sharing set up with ShareWeightsFrom is severed first, so a
// pooled scratch can never alias a buffer owned by a different borrower.
func (c *Compiled) ReleaseScratch(s *SSSPScratch) {
	if s != nil && s.csr == c.hot {
		s.UnshareWeights()
		c.scratch.Put(s)
	}
}

// ShortestPath returns a minimum-hop path from src to dst with the exact
// deterministic tie-breaking of Graph.ShortestPath (lowest predecessor
// edge id wins among equal-distance labels, finalised nodes are never
// relabelled), computed in renumbered space on pooled epoch-reset scratch
// instead of freshly-allocated Dijkstra state. Results are identical to
// Graph.ShortestPath on every input — asserted exhaustively by
// TestCompiledShortestPathMatchesGraph — only the layout and allocation
// profile differ.
func (c *Compiled) ShortestPath(src, dst NodeID) (Path, error) {
	if !c.g.HasNode(src) || !c.g.HasNode(dst) {
		return Path{}, fmt.Errorf("shortest path %d->%d: %w", src, dst, ErrNodeNotFound)
	}
	if src == dst {
		return Path{}, nil
	}
	s := c.AcquireScratch()
	defer c.ReleaseScratch(s)
	w := s.SlotWeights()
	for i := range w {
		w[i] = 1
	}
	// Unit weights quantize trivially (quantum 1, span 1), so the dial's
	// level queue applies; it is bit-identical to Tree by contract.
	hd := c.ToHot(dst)
	s.TreeDial(c.ToHot(src), []NodeID{hd}, 1, 1)
	edges, ok := s.AppendPathTo(hd, nil)
	if !ok {
		return Path{}, fmt.Errorf("shortest path %d->%d: %w", src, dst, ErrNoPath)
	}
	return Path{Edges: edges}, nil
}

// PathQuery is one (src, dst) request for BatchShortestPaths, in original
// node ids.
type PathQuery struct {
	Src, Dst NodeID
}

// BatchShortestPaths answers many unit-weight shortest-path queries with
// one shared-frontier tree build per distinct source: queries are grouped
// by source in first-appearance order and each group runs a single
// early-exiting Dijkstra whose destination watermarks are the group's dst
// set, instead of one full run per query. Results are identical to calling
// ShortestPath per query — destinations only gate the early exit, and a
// label is frozen the moment its node finalises — so the batch is a pure
// cost optimisation. On failure it returns the index of the first failing
// query in input order together with the error (wrapping ErrNodeNotFound
// or ErrNoPath exactly as ShortestPath does); paths is nil in that case.
func (c *Compiled) BatchShortestPaths(queries []PathQuery) (paths []Path, failed int, err error) {
	n := len(queries)
	paths = make([]Path, n)
	errs := make([]error, n)
	type group struct {
		src     NodeID // hot id
		dsts    []NodeID
		members []int
	}
	gidx := make(map[NodeID]int, 8)
	var groups []group
	for i, q := range queries {
		if !c.g.HasNode(q.Src) || !c.g.HasNode(q.Dst) {
			errs[i] = fmt.Errorf("shortest path %d->%d: %w", q.Src, q.Dst, ErrNodeNotFound)
			continue
		}
		if q.Src == q.Dst {
			continue // empty path
		}
		hs := c.ToHot(q.Src)
		gi, ok := gidx[hs]
		if !ok {
			gi = len(groups)
			gidx[hs] = gi
			groups = append(groups, group{src: hs})
		}
		groups[gi].dsts = append(groups[gi].dsts, c.ToHot(q.Dst))
		groups[gi].members = append(groups[gi].members, i)
	}
	if len(groups) > 0 {
		s := c.AcquireScratch()
		w := s.SlotWeights()
		for i := range w {
			w[i] = 1
		}
		for _, gr := range groups {
			s.TreeDial(gr.src, gr.dsts, 1, 1)
			for j, qi := range gr.members {
				edges, ok := s.AppendPathTo(gr.dsts[j], nil)
				if !ok {
					q := queries[qi]
					errs[qi] = fmt.Errorf("shortest path %d->%d: %w", q.Src, q.Dst, ErrNoPath)
					continue
				}
				paths[qi] = Path{Edges: edges}
			}
		}
		c.ReleaseScratch(s)
	}
	for i, e := range errs {
		if e != nil {
			return nil, i, e
		}
	}
	return paths, -1, nil
}
