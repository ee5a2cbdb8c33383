// Package graph provides the directed-graph substrate used by all routing
// and scheduling algorithms in dcnflow: adjacency storage, shortest paths
// (Dijkstra, BFS), Yen's k-shortest paths and path utilities.
//
// Links in the paper's model are bidirectional physical links whose two
// directions are scheduled independently; we therefore model the network as
// a directed graph and topology generators add one arc per direction.
package graph

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// NodeID identifies a node (switch or host) in a Graph.
type NodeID int

// EdgeID identifies a directed edge (one direction of a physical link).
type EdgeID int

// NodeKind classifies nodes for topology-aware algorithms and pretty
// printing. The zero value is KindUnknown.
type NodeKind int

// Node kinds recognised by the topology generators.
const (
	KindUnknown NodeKind = iota
	KindHost
	KindEdgeSwitch
	KindAggSwitch
	KindCoreSwitch
	KindSwitch // generic switch when the tier is not meaningful
)

// String implements fmt.Stringer.
func (k NodeKind) String() string {
	switch k {
	case KindHost:
		return "host"
	case KindEdgeSwitch:
		return "edge"
	case KindAggSwitch:
		return "agg"
	case KindCoreSwitch:
		return "core"
	case KindSwitch:
		return "switch"
	default:
		return "unknown"
	}
}

// Node is a vertex of the network graph.
type Node struct {
	ID   NodeID
	Name string
	Kind NodeKind
}

// Edge is a directed edge of the network graph. Capacity is the maximum
// transmission rate C of the underlying link direction.
type Edge struct {
	ID       EdgeID
	From, To NodeID
	Capacity float64
}

// Graph is a directed multigraph with stable integer identifiers. The zero
// value is an empty graph ready for use.
type Graph struct {
	nodes    []Node
	edges    []Edge
	out      [][]EdgeID    // adjacency: outgoing edge ids per node
	in       [][]EdgeID    // reverse adjacency
	compiled compiledCache // lazily-built compiled artifact bundle (see Compile)
}

// Errors returned by graph operations.
var (
	ErrNodeNotFound = errors.New("graph: node not found")
	ErrEdgeNotFound = errors.New("graph: edge not found")
	ErrNoPath       = errors.New("graph: no path between nodes")
)

// New returns an empty graph.
func New() *Graph {
	return &Graph{}
}

// AddNode appends a node with the given name and kind and returns its id.
func (g *Graph) AddNode(name string, kind NodeKind) NodeID {
	id := NodeID(len(g.nodes))
	g.nodes = append(g.nodes, Node{ID: id, Name: name, Kind: kind})
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	g.invalidate()
	return id
}

// invalidate drops the cached compiled bundle after a mutation.
func (g *Graph) invalidate() {
	g.compiled.mu.Lock()
	g.compiled.ptr = nil
	g.compiled.mu.Unlock()
}

// AddEdge appends a directed edge and returns its id. Capacity must be
// positive.
func (g *Graph) AddEdge(from, to NodeID, capacity float64) (EdgeID, error) {
	if !g.HasNode(from) || !g.HasNode(to) {
		return 0, fmt.Errorf("add edge %d->%d: %w", from, to, ErrNodeNotFound)
	}
	if capacity <= 0 {
		return 0, fmt.Errorf("add edge %d->%d: capacity %v must be positive", from, to, capacity)
	}
	id := EdgeID(len(g.edges))
	g.edges = append(g.edges, Edge{ID: id, From: from, To: to, Capacity: capacity})
	g.out[from] = append(g.out[from], id)
	g.in[to] = append(g.in[to], id)
	g.invalidate()
	return id, nil
}

// AddBiEdge adds the two directed edges of a physical link and returns both
// edge ids (from->to, then to->from).
func (g *Graph) AddBiEdge(a, b NodeID, capacity float64) (EdgeID, EdgeID, error) {
	e1, err := g.AddEdge(a, b, capacity)
	if err != nil {
		return 0, 0, err
	}
	e2, err := g.AddEdge(b, a, capacity)
	if err != nil {
		return 0, 0, err
	}
	return e1, e2, nil
}

// HasNode reports whether id is a valid node of g.
func (g *Graph) HasNode(id NodeID) bool { return id >= 0 && int(id) < len(g.nodes) }

// HasEdge reports whether id is a valid edge of g.
func (g *Graph) HasEdge(id EdgeID) bool { return id >= 0 && int(id) < len(g.edges) }

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges returns the number of directed edges.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Node returns the node with the given id.
func (g *Graph) Node(id NodeID) (Node, error) {
	if !g.HasNode(id) {
		return Node{}, fmt.Errorf("node %d: %w", id, ErrNodeNotFound)
	}
	return g.nodes[id], nil
}

// Edge returns the edge with the given id.
func (g *Graph) Edge(id EdgeID) (Edge, error) {
	if !g.HasEdge(id) {
		return Edge{}, fmt.Errorf("edge %d: %w", id, ErrEdgeNotFound)
	}
	return g.edges[id], nil
}

// MustEdge returns the edge with the given id; it is intended for hot paths
// where the id is known valid (ids produced by this graph). It returns the
// zero Edge for invalid ids.
func (g *Graph) MustEdge(id EdgeID) Edge {
	if !g.HasEdge(id) {
		return Edge{}
	}
	return g.edges[id]
}

// Nodes returns a copy of all nodes.
func (g *Graph) Nodes() []Node {
	out := make([]Node, len(g.nodes))
	copy(out, g.nodes)
	return out
}

// Edges returns a copy of all edges.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, len(g.edges))
	copy(out, g.edges)
	return out
}

// OutEdges returns the ids of edges leaving node id. The returned slice must
// not be modified.
func (g *Graph) OutEdges(id NodeID) []EdgeID {
	if !g.HasNode(id) {
		return nil
	}
	return g.out[id]
}

// InEdges returns the ids of edges entering node id. The returned slice must
// not be modified.
func (g *Graph) InEdges(id NodeID) []EdgeID {
	if !g.HasNode(id) {
		return nil
	}
	return g.in[id]
}

// NodesOfKind returns the ids of all nodes with the given kind, in id order.
func (g *Graph) NodesOfKind(kind NodeKind) []NodeID {
	var out []NodeID
	for _, n := range g.nodes {
		if n.Kind == kind {
			out = append(out, n.ID)
		}
	}
	return out
}

// Reverse returns the edge id of the opposite direction of edge id, when the
// graph contains exactly one such edge. It reports ok=false otherwise.
func (g *Graph) Reverse(id EdgeID) (EdgeID, bool) {
	if !g.HasEdge(id) {
		return 0, false
	}
	e := g.edges[id]
	var found EdgeID
	count := 0
	for _, cand := range g.out[e.To] {
		if g.edges[cand].To == e.From {
			found = cand
			count++
		}
	}
	if count != 1 {
		return 0, false
	}
	return found, true
}

// Path is a directed path represented by its ordered edge ids.
type Path struct {
	Edges []EdgeID
}

// Len returns the number of edges (hops) of the path.
func (p Path) Len() int { return len(p.Edges) }

// Clone returns a deep copy of the path.
func (p Path) Clone() Path {
	e := make([]EdgeID, len(p.Edges))
	copy(e, p.Edges)
	return Path{Edges: e}
}

// Nodes returns the node sequence visited by the path in g, starting with
// the source. An empty path yields nil.
func (p Path) Nodes(g *Graph) []NodeID {
	if len(p.Edges) == 0 {
		return nil
	}
	out := make([]NodeID, 0, len(p.Edges)+1)
	first := g.MustEdge(p.Edges[0])
	out = append(out, first.From)
	for _, id := range p.Edges {
		out = append(out, g.MustEdge(id).To)
	}
	return out
}

// Validate checks that the path is a connected simple directed path in g
// from src to dst.
func (p Path) Validate(g *Graph, src, dst NodeID) error {
	if len(p.Edges) == 0 {
		if src == dst {
			return nil
		}
		return fmt.Errorf("validate path: empty path but src %d != dst %d", src, dst)
	}
	seen := make(map[NodeID]bool, len(p.Edges)+1)
	cur := src
	seen[cur] = true
	for i, id := range p.Edges {
		e, err := g.Edge(id)
		if err != nil {
			return fmt.Errorf("validate path hop %d: %w", i, err)
		}
		if e.From != cur {
			return fmt.Errorf("validate path hop %d: edge %d starts at %d, want %d", i, id, e.From, cur)
		}
		cur = e.To
		if seen[cur] {
			return fmt.Errorf("validate path hop %d: node %d revisited", i, cur)
		}
		seen[cur] = true
	}
	if cur != dst {
		return fmt.Errorf("validate path: ends at %d, want %d", cur, dst)
	}
	return nil
}

// Key returns a canonical string key of the path, usable as a map key.
func (p Path) Key() string {
	var b strings.Builder
	for i, e := range p.Edges {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", e)
	}
	return b.String()
}

// String renders the path as "e0,e1,...".
func (p Path) String() string { return p.Key() }

// ShortestPath returns a minimum-hop path from src to dst using BFS with
// deterministic tie-breaking (lowest edge id wins). It returns ErrNoPath if
// dst is unreachable.
func (g *Graph) ShortestPath(src, dst NodeID) (Path, error) {
	return g.ShortestPathWeighted(src, dst, nil)
}

// ShortestPathWeighted returns a minimum-weight path from src to dst using
// Dijkstra's algorithm. weight maps an edge to its nonnegative cost; a nil
// weight function means unit weights (hop count). Ties are broken
// deterministically by preferring the lexicographically smaller predecessor
// edge id.
func (g *Graph) ShortestPathWeighted(src, dst NodeID, weight func(Edge) float64) (Path, error) {
	if !g.HasNode(src) || !g.HasNode(dst) {
		return Path{}, fmt.Errorf("shortest path %d->%d: %w", src, dst, ErrNodeNotFound)
	}
	if src == dst {
		return Path{}, nil
	}
	const unreached = -1
	dist := make([]float64, len(g.nodes))
	pred := make([]EdgeID, len(g.nodes))
	done := make([]bool, len(g.nodes))
	for i := range dist {
		dist[i] = inf
		pred[i] = unreached
	}
	dist[src] = 0

	h := &edgeHeap{}
	h.push(heapItem{node: src, dist: 0})
	for h.len() > 0 {
		it := h.pop()
		u := it.node
		if done[u] {
			continue
		}
		done[u] = true
		if u == dst {
			break
		}
		for _, eid := range g.out[u] {
			e := g.edges[eid]
			v := e.To
			if done[v] {
				// Never rewrite a finalised node's predecessor: an
				// equal-distance overwrite after finalisation (common
				// under float absorption of tiny weights) can create
				// predecessor cycles and break path reconstruction.
				continue
			}
			w := 1.0
			if weight != nil {
				w = weight(e)
				if w < 0 {
					return Path{}, fmt.Errorf("shortest path: negative weight %v on edge %d", w, eid)
				}
			}
			nd := dist[u] + w
			if nd < dist[v] || (nd == dist[v] && pred[v] != unreached && eid < pred[v]) {
				dist[v] = nd
				pred[v] = eid
				h.push(heapItem{node: v, dist: nd})
			}
		}
	}
	if pred[dst] == unreached {
		return Path{}, fmt.Errorf("shortest path %d->%d: %w", src, dst, ErrNoPath)
	}
	// Reconstruct.
	var rev []EdgeID
	for cur := dst; cur != src; {
		eid := pred[cur]
		rev = append(rev, eid)
		cur = g.edges[eid].From
	}
	edges := make([]EdgeID, len(rev))
	for i := range rev {
		edges[i] = rev[len(rev)-1-i]
	}
	return Path{Edges: edges}, nil
}

const inf = 1e308

// KShortestPaths returns up to k loopless shortest paths from src to dst in
// nondecreasing weight order using Yen's algorithm. A nil weight function
// means unit weights.
func (g *Graph) KShortestPaths(src, dst NodeID, k int, weight func(Edge) float64) ([]Path, error) {
	if k <= 0 {
		return nil, nil
	}
	first, err := g.ShortestPathWeighted(src, dst, weight)
	if err != nil {
		return nil, err
	}
	w := func(e Edge) float64 {
		if weight == nil {
			return 1
		}
		return weight(e)
	}
	pathCost := func(p Path) float64 {
		var c float64
		for _, id := range p.Edges {
			c += w(g.edges[id])
		}
		return c
	}

	accepted := []Path{first}
	seen := map[string]bool{first.Key(): true}
	type cand struct {
		p    Path
		cost float64
	}
	var candidates []cand

	for len(accepted) < k {
		prev := accepted[len(accepted)-1]
		prevNodes := prev.Nodes(g)
		for i := 0; i < len(prev.Edges); i++ {
			spurNode := prevNodes[i]
			rootEdges := prev.Edges[:i]

			banEdges := make(map[EdgeID]bool)
			for _, ap := range accepted {
				if len(ap.Edges) > i && sameEdgePrefix(ap.Edges[:i], rootEdges) {
					banEdges[ap.Edges[i]] = true
				}
			}
			banNodes := make(map[NodeID]bool)
			for _, nid := range prevNodes[:i] {
				banNodes[nid] = true
			}

			spur, serr := g.shortestPathAvoiding(spurNode, dst, w, banEdges, banNodes)
			if serr != nil {
				continue
			}
			total := Path{Edges: append(append([]EdgeID{}, rootEdges...), spur.Edges...)}
			key := total.Key()
			if seen[key] {
				continue
			}
			seen[key] = true
			candidates = append(candidates, cand{p: total, cost: pathCost(total)})
		}
		if len(candidates) == 0 {
			break
		}
		sort.Slice(candidates, func(a, b int) bool {
			if candidates[a].cost != candidates[b].cost {
				return candidates[a].cost < candidates[b].cost
			}
			return candidates[a].p.Key() < candidates[b].p.Key()
		})
		accepted = append(accepted, candidates[0].p)
		candidates = candidates[1:]
	}
	return accepted, nil
}

func sameEdgePrefix(a, b []EdgeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// shortestPathAvoiding is Dijkstra avoiding a set of edges and nodes. The
// source itself may appear in banNodes and is still usable as origin.
func (g *Graph) shortestPathAvoiding(src, dst NodeID, w func(Edge) float64, banEdges map[EdgeID]bool, banNodes map[NodeID]bool) (Path, error) {
	const unreached = -1
	dist := make([]float64, len(g.nodes))
	pred := make([]EdgeID, len(g.nodes))
	done := make([]bool, len(g.nodes))
	for i := range dist {
		dist[i] = inf
		pred[i] = unreached
	}
	dist[src] = 0
	h := &edgeHeap{}
	h.push(heapItem{node: src, dist: 0})
	for h.len() > 0 {
		it := h.pop()
		u := it.node
		if done[u] {
			continue
		}
		done[u] = true
		if u == dst {
			break
		}
		for _, eid := range g.out[u] {
			if banEdges[eid] {
				continue
			}
			e := g.edges[eid]
			if banNodes[e.To] && e.To != dst {
				continue
			}
			nd := dist[u] + w(e)
			if nd < dist[e.To] {
				dist[e.To] = nd
				pred[e.To] = eid
				h.push(heapItem{node: e.To, dist: nd})
			}
		}
	}
	if src == dst {
		return Path{}, nil
	}
	if pred[dst] == unreached {
		return Path{}, ErrNoPath
	}
	var rev []EdgeID
	for cur := dst; cur != src; {
		eid := pred[cur]
		rev = append(rev, eid)
		cur = g.edges[eid].From
	}
	edges := make([]EdgeID, len(rev))
	for i := range rev {
		edges[i] = rev[len(rev)-1-i]
	}
	return Path{Edges: edges}, nil
}

// Connected reports whether dst is reachable from src.
func (g *Graph) Connected(src, dst NodeID) bool {
	if !g.HasNode(src) || !g.HasNode(dst) {
		return false
	}
	if src == dst {
		return true
	}
	visited := make([]bool, len(g.nodes))
	queue := []NodeID{src}
	visited[src] = true
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, eid := range g.out[u] {
			v := g.edges[eid].To
			if visited[v] {
				continue
			}
			if v == dst {
				return true
			}
			visited[v] = true
			queue = append(queue, v)
		}
	}
	return false
}

// DOT renders the graph in Graphviz DOT format (physical links deduplicated
// when both directions exist).
func (g *Graph) DOT() string {
	var b strings.Builder
	b.WriteString("digraph dcn {\n")
	for _, n := range g.nodes {
		fmt.Fprintf(&b, "  n%d [label=%q shape=%s];\n", n.ID, n.Name, dotShape(n.Kind))
	}
	for _, e := range g.edges {
		fmt.Fprintf(&b, "  n%d -> n%d [label=\"e%d\"];\n", e.From, e.To, e.ID)
	}
	b.WriteString("}\n")
	return b.String()
}

func dotShape(k NodeKind) string {
	switch k {
	case KindHost:
		return "ellipse"
	default:
		return "box"
	}
}
