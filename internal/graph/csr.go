package graph

import (
	"fmt"
	"math"
)

// CSR is the immutable compressed-sparse-row adjacency view of a Graph that
// the shortest-path code runs on, built once per compile (see Compile) on
// cache-aligned structure-of-arrays slabs. Relative to walking
// Graph.OutEdges + MustEdge, a CSR traversal touches a few contiguous
// arrays and copies no Edge structs, which is what lets the Frank–Wolfe
// oracle relax edges allocation- and indirection-free.
//
// The slot arrays are grouped by source node: the out-edges of node u
// occupy slots Start[u]..Start[u+1], in ascending edge-id order — the same
// order Graph.OutEdges reports, so tie-breaking behaviour of algorithms
// ported to the CSR is unchanged. Node indices (Start, slotTo and the
// values of EdgeFrom) live in the view's node space, which Compile permutes
// into BFS order; edge ids (slotEid, the indexing of EdgeFrom) are always
// the graph's original ones.
type CSR struct {
	// Start has length NumNodes()+1; node u's out-slots are
	// Start[u]..Start[u+1].
	Start []int32
	// EdgeFrom is indexed by (original) EdgeID and holds the edge's tail in
	// this view's node space; path extraction walks it.
	EdgeFrom []NodeID

	// slotEid / slotTo hold each slot's original edge id and head node.
	// Splitting the two streams lets the Dijkstra inner loop, which needs
	// only the head, pull half the bytes per relaxation.
	slotEid []int32
	slotTo  []int32
	// slotOf is slotEid's inverse: the slot of each (original) edge id.
	slotOf []int32

	// stub[v] marks a stub node: exactly one in-edge u->v (u != v) and
	// every out-edge of v leads back to u, like a host hanging off its
	// edge switch. Tree finalises a stub when u relaxes it instead of
	// pushing it (see stubFlags and Tree).
	stub []bool

	// The in-slot view: node v's in-edges occupy in-slots
	// inStart[v]..inStart[v+1], in ascending out-slot order; inFrom holds
	// each in-edge's tail and inSlot its out-slot (the index of its weight
	// in SSSPScratch's slot order). Hops and TreeToward's bound walk it.
	inStart, inFrom, inSlot []int32
}

// NumNodes returns the number of nodes of the underlying graph.
func (c *CSR) NumNodes() int { return len(c.Start) - 1 }

// NumEdges returns the number of directed edges.
func (c *CSR) NumEdges() int { return len(c.slotEid) }

// SlotEdges returns the original edge id of each slot, in slot order — the
// order of SSSPScratch.SlotWeights. The slice must not be modified.
func (c *CSR) SlotEdges() []int32 { return c.slotEid }

// EdgeSlots is the inverse of SlotEdges: the slot of each original edge id,
// so a caller can refill the weights of a few edges without a pass over
// every slot. Each edge owns exactly one slot. The slice must not be
// modified.
func (c *CSR) EdgeSlots() []int32 { return c.slotOf }

// buildCSR packs g's adjacency into the node order inv (inv[h] is the
// original id of view node h; perm is its inverse) on cache-aligned slabs.
// Edge ids stay original, which is what lets predecessor chains and path
// extraction emit original edge ids with zero translation. Per-node slot
// rows keep ascending original-edge-id order — the permutation moves rows,
// never the slots within a row — preserving every tie-break downstream.
func buildCSR(g *Graph, perm, inv []int32) *CSR {
	n, e := g.NumNodes(), g.NumEdges()
	c := &CSR{
		Start:    alignedSlab[int32](n + 1),
		EdgeFrom: make([]NodeID, e),
		slotEid:  alignedSlab[int32](e)[:0],
		slotTo:   alignedSlab[int32](e)[:0],
		slotOf:   make([]int32, e),
	}
	for h := 0; h < n; h++ {
		c.Start[h] = int32(len(c.slotEid))
		for _, eid := range g.out[inv[h]] {
			c.slotOf[eid] = int32(len(c.slotEid))
			c.slotEid = append(c.slotEid, int32(eid))
			c.slotTo = append(c.slotTo, perm[g.edges[eid].To])
		}
	}
	c.Start[n] = int32(len(c.slotEid))
	for i := range g.edges {
		c.EdgeFrom[i] = NodeID(perm[g.edges[i].From])
	}
	c.stub = stubFlags(c)
	c.inStart, c.inFrom, c.inSlot = inSlots(c)
	return c
}

// inSlots builds c's in-slot view (see CSR.inStart) with one counting pass
// and one placement pass over the out-slots.
func inSlots(c *CSR) (start, from, slot []int32) {
	n, e := c.NumNodes(), c.NumEdges()
	start = make([]int32, n+1)
	for _, v := range c.slotTo {
		start[v+1]++
	}
	for v := 0; v < n; v++ {
		start[v+1] += start[v]
	}
	from, slot = make([]int32, e), make([]int32, e)
	fill := append([]int32(nil), start[:n]...)
	for u := 0; u < n; u++ {
		for k := c.Start[u]; k < c.Start[u+1]; k++ {
			v := c.slotTo[k]
			from[fill[v]], slot[fill[v]] = int32(u), k
			fill[v]++
		}
	}
	return start, from, slot
}

// HopNone marks, in a hop array filled by Hops, a node from which no path
// leads to the destination set.
const HopNone uint8 = 255

// hopCap is the largest hop count Hops records; a longer distance is
// recorded as hopCap, which keeps every value a lower bound.
const hopCap uint8 = HopNone - 1

// Hops fills hop (length NumNodes) with each node's hop distance to the
// nearest node of dsts: 0 on dsts, the number of edges on a fewest-edge
// path to dsts elsewhere, capped at 254, and HopNone where no path leads to
// dsts. It is one multi-source breadth-first search over the in-slots;
// queue is its scratch, returned grown for reuse. TreeToward takes the
// result as its hop argument.
func (c *CSR) Hops(dsts []NodeID, hop []uint8, queue []int32) []int32 {
	for i := range hop {
		hop[i] = HopNone
	}
	q := queue[:0]
	for _, t := range dsts {
		if hop[t] != 0 {
			hop[t] = 0
			q = append(q, int32(t))
		}
	}
	for head := 0; head < len(q); head++ {
		v := q[head]
		next := min(hop[v]+1, hopCap)
		for _, a := range c.inFrom[c.inStart[v]:c.inStart[v+1]] {
			if hop[a] == HopNone {
				hop[a] = next
				q = append(q, a)
			}
		}
	}
	return q[:0]
}

// stubFlags classifies the stub nodes of c (see CSR.stub) in one pass over
// its slots. A second in-edge, parallel ones included, disqualifies a
// node; so does an out-edge to anything but the tail of its in-edge.
func stubFlags(c *CSR) []bool {
	n := c.NumNodes()
	in := make([]int8, n)    // in-degree, saturating at 2
	from := make([]int32, n) // tail of the last in-edge seen
	head := make([]int32, n) // common head of all out-edges: -1 none, -2 several
	for u := 0; u < n; u++ {
		head[u] = -1
		for _, v := range c.slotTo[c.Start[u]:c.Start[u+1]] {
			if in[v] < 2 {
				in[v]++
			}
			from[v] = int32(u)
			if head[u] == -1 {
				head[u] = v
			} else if head[u] != v {
				head[u] = -2
			}
		}
	}
	stub := make([]bool, n)
	for v := range stub {
		u := from[v]
		stub[v] = in[v] == 1 && u != int32(v) && (head[v] == -1 || head[v] == u)
	}
	return stub
}

// unreachedPred marks a node with no predecessor edge in an SSSP tree.
const unreachedPred = EdgeID(-1)

// SSSPScratch is reusable single-source shortest-path state over one CSR:
// distance, predecessor, weight and heap buffers that are reset by bumping
// an epoch counter instead of clearing, so a Dijkstra tree build performs
// zero allocations after warm-up. A scratch is not safe for concurrent use;
// hot paths keep one per worker.
//
// Usage: call SetWeights whenever the edge weights change, then Tree once
// per source; many Tree calls may share one SetWeights (the Frank–Wolfe
// oracle runs one sweep of sources per gradient).
type SSSPScratch struct {
	csr *CSR

	wSlot []float64 // active slot-ordered weights (own, or shared — see ShareWeightsFrom)
	own   []float64 // the scratch's private weight buffer

	node  []nodeState // per-node label: one bounds check, 4 labels per cache line
	epoch uint32

	// minW is a lower bound on the slot weights, or 0 when unknown (see
	// Tree's no-absorption guard and TreeToward's bound). ScanWeights
	// records it, SetWeights through ScanWeights; SlotWeights hands out the
	// buffer for writing and resets it.
	minW float64

	heap []ssspItem

	// frontier/nextFrontier are TreeDial's two-level queue: with no
	// duplicate entries and one distance per level, an entry is just the
	// node id.
	frontier, nextFrontier []int32

	// bound is TreeToward's bound for the current call (its lb1 buffer is
	// allocated on first use and kept), and near lists the nodes at hop 1.
	bound goalBound
	near  []int32

	pathBuf []EdgeID // reversal scratch for AppendPathTo
}

// goalBound is TreeToward's bound for one search: the destination set's hop
// array, lb1 on the nodes at hop 1, and c0 and c1 = m − δ for the nodes
// beyond (see TreeToward).
type goalBound struct {
	hop    []uint8
	lb1    []float64
	c0, c1 float64
}

// key returns the heap key of node v at distance nd and hop hv ≥ 1: nd plus
// its bound.
func (g *goalBound) key(nd float64, v int32, hv uint8) float64 {
	if hv == 1 {
		return nd + g.lb1[v]
	}
	return nd + (g.c0 + g.c1*float64(hv-2))
}

// ssspItem is one (key, node) heap entry; a single packed array keeps sift
// operations to one swap per level. The key is the tentative distance, plus
// the node's lower bound in TreeToward's goal search.
type ssspItem struct {
	key  float64
	node int32
}

// nodeState packs one node's entire Dijkstra label — tentative distance,
// predecessor, and a combined epoch/flag stamp — into 16 bytes, so four
// labels share each cache line (the old three-counter layout fit 2.67).
// pred is the predecessor's adjacency SLOT index (into slotEid/slotTo),
// not an edge id: recording the slot keeps the relax loop off the edge-id
// stream entirely, and slotEid recovers the original edge id on the cold
// paths that need it (exact-distance tie-breaks, path extraction). The
// stamp's low three bits are the per-epoch flags (fSeen, fDone, fNeed) and
// the rest is the epoch number: epochs advance by epochStride, and a stamp
// is current exactly when stamp-epoch < epochStride (unsigned), which
// replaces per-run clearing with one add. dist/pred are valid only when
// the stamp is current and carries fSeen.
type nodeState struct {
	dist  float64
	pred  int32
	stamp uint32
}

// Epoch/flag packing for nodeState.stamp. epochStride is 8 (three flag
// bits), so epochs wrap exactly at 2^32 and the wrap check in Tree/TreeDial
// stays a single equality test.
const (
	fSeen       uint32 = 1 // dist/pred hold a tentative label this epoch
	fDone       uint32 = 2 // node finalised this epoch
	fNeed       uint32 = 4 // node is a wanted destination this epoch
	epochStride uint32 = 8
)

// NewSSSPScratch allocates scratch state sized for c.
func NewSSSPScratch(c *CSR) *SSSPScratch {
	n := c.NumNodes()
	own := make([]float64, len(c.slotEid))
	return &SSSPScratch{
		csr:   c,
		wSlot: own,
		own:   own,
		node:  alignedSlab[nodeState](n),
		heap:  make([]ssspItem, 0, n),
	}
}

// ShareWeightsFrom points this scratch's weight view at src's buffer, so a
// group of per-worker scratches reads one frozen weight fill instead of
// each copying it — the zero-copy substrate of the oracle's intra-solve
// parallel sweep. Both scratches must be built for the same CSR (a
// mismatch is ignored). While shared, Tree/TreeDial only read the buffer;
// writing through SlotWeights or SetWeights on either scratch writes the
// shared storage, so sharers must treat the weights as frozen. Call
// UnshareWeights (done automatically by Compiled.ReleaseScratch) before
// the scratch is reused independently.
func (s *SSSPScratch) ShareWeightsFrom(src *SSSPScratch) {
	if src != nil && src.csr == s.csr {
		s.wSlot = src.wSlot
		s.minW = src.minW
	}
}

// UnshareWeights restores the scratch's private weight buffer after a
// ShareWeightsFrom, severing any aliasing with other scratches.
func (s *SSSPScratch) UnshareWeights() {
	s.wSlot = s.own
	s.minW = 0
}

// SetWeights loads the edge-indexed weights w (len NumEdges) into the
// scratch's slot-ordered buffer so the Dijkstra inner loop reads weights
// sequentially, and validates them: weights must be nonnegative.
// Validating here keeps the per-relaxation step branch-free. Weights are
// always indexed by original edge id, on renumbered views too. Once every
// weight has validated it records their lower bound with ScanWeights.
func (s *SSSPScratch) SetWeights(w []float64) error {
	eids := s.csr.slotEid
	s.minW = 0 // unknown until every weight has validated
	for i := range eids {
		wt := w[eids[i]]
		if wt < 0 {
			return fmt.Errorf("graph: negative weight %v on edge %d", wt, eids[i])
		}
		s.wSlot[i] = wt
	}
	s.ScanWeights()
	return nil
}

// SlotWeights exposes the scratch's slot-ordered weight buffer for callers
// that can compute weights directly in slot order (slot i corresponds to
// edge CSR.SlotEdges()[i]), skipping SetWeights' gather pass. The caller
// must fill every entry with a nonnegative value before the next Tree
// call, then call ScanWeights or SetMinWeight to let Tree use its fast
// search.
func (s *SSSPScratch) SlotWeights() []float64 {
	s.minW = 0
	return s.wSlot
}

// SetMinWeight records m as the lower bound of the slot weights, in place
// of ScanWeights' pass, for a caller that filled SlotWeights and already
// knows one: m must be at most every slot weight, and NaN when any weight
// is NaN. Every search gives the same labels under any such m > 0 as under
// the least weight; a smaller m only hands more searches to the fallbacks.
func (s *SSSPScratch) SetMinWeight(m float64) { s.minW = m }

// ScanWeights records the lower bound of the slot weights that Tree's
// no-absorption guard and TreeToward's bound need, and returns it: the
// least weight, NaN when any weight is NaN, +Inf when there are none.
// SetWeights calls it; a caller that filled SlotWeights directly calls it
// or SetMinWeight itself, or Tree runs only the historical search, with
// the same results.
func (s *SSSPScratch) ScanWeights() float64 {
	// Plain comparisons are about 3x faster than the builtin min, whose
	// signed-zero handling the guard does not need: a zero of either sign
	// fails minW > 0 alike. A NaN ends the scan and stays the minimum,
	// which fails minW > 0 too.
	lo := math.Inf(1)
	for _, wt := range s.wSlot {
		if wt < lo {
			lo = wt
		} else if wt != wt {
			lo = wt
			break
		}
	}
	s.minW = lo
	return lo
}

// beginEpoch advances the stamp epoch for one Tree/TreeDial call and
// returns it, clearing all labels on the (rare) 2^32 wrap, and stamps the
// wanted destinations. It returns the epoch and the count of distinct
// wanted destinations.
func (s *SSSPScratch) beginEpoch(dsts []NodeID) (ep uint32, remaining int) {
	s.epoch += epochStride
	if s.epoch == 0 { // wrapped: stamps are stale, clear them
		for i := range s.node {
			s.node[i] = nodeState{}
		}
		s.epoch = epochStride
	}
	ep = s.epoch
	for _, d := range dsts {
		st := &s.node[d]
		if st.stamp-ep < epochStride {
			if st.stamp&fNeed == 0 {
				st.stamp |= fNeed
				remaining++
			}
		} else {
			st.stamp = ep | fNeed
			remaining++
		}
	}
	return ep, remaining
}

// Tree computes the Dijkstra shortest-path tree from src under the weights
// last loaded by SetWeights (or written through SlotWeights and recorded
// by ScanWeights). When dsts is non-empty, the search stops as soon as
// every listed destination is finalised — labels of other nodes are then
// unspecified. Ties are broken exactly like the historical oracle: a node
// finalised once is never relabelled, and among equal-distance labels the
// smaller predecessor edge id wins. On a renumbered view the edge ids
// compared are still the original ids (slotEid), so the traversal is
// isomorphic to the identity-order one and every downstream output is
// byte-identical — see Compile.
//
// Stub nodes (see CSR.stub; the hosts of a fat-tree, VL2 or leaf-spine)
// never enter the heap: a stub's only in-neighbour relaxes it exactly once,
// so that offer is its final label, and Tree writes it as finalised on the
// spot instead of pushing a node whose pop would relax nothing. Likewise a
// tie-break-only update (equal distance, smaller edge id) pushes no
// duplicate entry. Both change the order in which equal keys pop, and that
// order can only change a label when some relaxation absorbs its weight,
// fl(d+w) == d: otherwise every offer a node can win comes from a node
// finalised at a strictly smaller distance, so "minimum distance, then
// minimum edge id" is order-independent — the argument TreeDial's dropped
// duplicate pushes rely on. A weight lower bound minW > 0 rules absorption
// out for every distance d < minW·2^52. So when minW is unknown or zero, or
// the largest finalised distance reaches minW·2^52, Tree reruns the search
// in the historical order: every node pushed, every improvement pushed.
// Only that fallback keeps the historical comparison sequence; both
// searches produce the same labels.
func (s *SSSPScratch) Tree(src NodeID, dsts []NodeID) {
	if s.minW > 0 && s.heapTree(src, dsts, true) < s.minW*0x1p52 {
		return
	}
	s.heapTree(src, dsts, false)
}

// TreeToward is Tree with the search directed at dsts (A*, Hart, Nilsson &
// Raphael, 1968): it pops nodes by distance plus a lower bound on the
// distance still to go, so it finalises few nodes off the way to dsts, and
// every destination gets exactly the distance bits and predecessor edge
// Tree gives it. hop must be the array Hops computed for dsts on this
// scratch's CSR. It reports whether the goal search answered; when the
// guard below fails, or hop is nil, or dsts is empty, it runs Tree instead
// and reports false. Only dsts may be queried afterwards, as after an
// early-exiting Tree.
//
// The bound. Let T be dsts, h(v) = hop[v], m = minW (Tree's weight lower
// bound), δ = m/16, m1(v) the least weight of v's out-edges into T, and B2
// the least w(a→b) + w(b→t) over t in T and b outside T, where a is not a
// stub unless a is src. With c0 = B2 − 2δ:
//
//	lb(v) = 0                        h(v) = 0 (v in T)
//	lb(v) = min(m1(v) − δ, c0)       h(v) = 1
//	lb(v) = c0 + (m − δ)·(h(v) − 2)  h(v) ≥ 2
//
// Why it is exact. The search relaxes an edge u→v only when u was popped,
// so u is src or not a stub (a stub outside T is never pushed, one in T is
// finalised at relaxation and never scanned), and only when h(v) is not
// HopNone, so h(u) ≤ h(v) + 1. On every such edge with u ≠ src (src is
// popped first whatever its key), lb(u) ≤ w + lb(v) − δ, w = w(u→v) ≥ m:
//
//   - h(u) = 0: lb(u) = 0 ≤ w − δ.
//   - h(u) = 1, h(v) = 0: lb(u) ≤ m1(u) − δ ≤ w − δ, since v is in T.
//   - h(u) in {1, 2}, h(v) = 1: lb(u) ≤ c0, and w + lb(v) − δ is
//     min(w + m1(v) − 2δ, w + c0 − δ). u→v→t is one of B2's 2-paths (u is
//     not a stub, v is outside T), so B2 ≤ w + m1(v); and w ≥ δ.
//   - h(u) = h(v) + 1 ≥ 3: lb(u) − lb(v) = m − δ ≤ w − δ.
//   - otherwise h(u) ≤ h(v), and lb does not decrease with h: lb(u) ≤ lb(v).
//
// src's exception in B2 is not needed for exactness, as src's own edges
// need no bound; it keeps B2 finite when a stub src is the only tail into
// its destinations' neighbours (a star), where the search would otherwise
// hand over to Tree.
//
// Keys are computed in float64. While B2 and every popped key stay below
// m·2^45, every label, bound and key the argument involves is below about
// m·2^45 (a label or a bound is at most its key), so each rounding errs by
// at most ε = m·2^-8 (half an ulp; 2ε where B2's sum w + m1(v) reaches up
// to twice that). The computed lb values keep the inequalities above to
// within 4ε (B2's sums, c0 and m1(v) − δ are one rounding each, c0 + (m −
// δ)·j rounds once more), the label fl(d(u) + w) is at least d(u) + w − ε,
// and each key fl(d + lb) is within ε of d + lb: so along a predecessor
// edge u→v, key(u) < key(v) − (δ − 7ε) with δ = 16ε. An in-neighbour whose
// offer achieves v's final label, and by induction every node of its
// predecessor chain, therefore pops strictly before v, whatever order equal
// keys pop in; so when v pops its label is final and its min-edge-id
// predecessor has offered. Every label the search finalises is then the
// order-independent fixpoint that Tree computes under its no-absorption
// guard (every finalised distance is far below minW·2^52). A skipped head
// never matters: a node that cannot reach T is on no path to it, and a
// stub is inside no path (its exits lead back to its one in-neighbour).
//
// The guard. The goal search hands over to Tree when minW is not > 0, when
// B2 or a popped key (or a destination stub's label) reaches m·2^45, or
// when it ran out of nodes before finalising every destination.
func (s *SSSPScratch) TreeToward(src NodeID, dsts []NodeID, hop []uint8) bool {
	if s.goalSearch(src, dsts, hop) {
		return true
	}
	s.Tree(src, dsts)
	return false
}

// goalSearch computes TreeToward's bound and runs its goal search. It
// reports false, leaving the labels unspecified, whenever the guard fails.
func (s *SSSPScratch) goalSearch(src NodeID, dsts []NodeID, hop []uint8) bool {
	c, m := s.csr, s.minW
	if len(dsts) == 0 || len(hop) != c.NumNodes() || !(m > 0) {
		return false
	}
	limit, delta := m*0x1p45, m/16
	gb := &s.bound
	if gb.lb1 == nil {
		gb.lb1 = make([]float64, c.NumNodes())
	}
	lb1, w, stub := gb.lb1, s.wSlot, c.stub
	inStart, inFrom, inSlot := c.inStart, c.inFrom, c.inSlot
	// m1 over T's in-neighbours outside T (exactly the nodes at hop 1),
	// listed once each in near; -1 marks a node not yet listed.
	for _, t := range dsts {
		if hop[t] != 0 {
			return false // hop was not computed for dsts
		}
		for _, b := range inFrom[inStart[t]:inStart[t+1]] {
			lb1[b] = -1
		}
	}
	near := s.near[:0]
	for _, t := range dsts {
		for i := inStart[t]; i < inStart[t+1]; i++ {
			b := inFrom[i]
			if hop[b] == 0 {
				continue
			}
			if wt := w[inSlot[i]]; lb1[b] < 0 {
				lb1[b] = wt
				near = append(near, b)
			} else if wt < lb1[b] {
				lb1[b] = wt
			}
		}
	}
	s.near = near
	// B2 = min over b of m1(b) + the least weight into b from src or a
	// node that is not a stub.
	b2 := math.Inf(1)
	for _, b := range near {
		in := math.Inf(1)
		for i := inStart[b]; i < inStart[b+1]; i++ {
			if a := inFrom[i]; (!stub[a] || a == int32(src)) && w[inSlot[i]] < in {
				in = w[inSlot[i]]
			}
		}
		if sum := lb1[b] + in; sum < b2 {
			b2 = sum
		}
	}
	if !(b2 < limit) {
		return false
	}
	c0 := b2 - 2*delta
	for _, b := range near {
		lb1[b] = min(lb1[b]-delta, c0)
	}
	gb.hop, gb.c0, gb.c1 = hop, c0, m-delta
	maxKey, remaining := s.goalTree(src, dsts, gb)
	gb.hop = nil
	return remaining == 0 && maxKey < limit
}

// heapTree is Tree's binary-heap search. With fast set it finalises stubs
// at relaxation and skips tie-break-only pushes, which is exact only under
// Tree's no-absorption guard; unset, it is the historical search. It
// returns the largest finalised distance.
//
// The heap is inlined and all scratch state is hoisted into locals: the
// compiler cannot prove the scratch's slice fields do not alias, so method
// calls and field loads inside the loop would otherwise defeat register
// allocation. The sift code preserves the exact comparison sequence of the
// historical swap-based heap.
func (s *SSSPScratch) heapTree(src NodeID, dsts []NodeID, fast bool) (maxDist float64) {
	ep, remaining := s.beginEpoch(dsts)
	nodes := s.node
	wSlot := s.wSlot
	eids, tos, starts := s.csr.slotEid, s.csr.slotTo, s.csr.Start
	var stub []bool
	if fast {
		stub = s.csr.stub
	}

	keep := uint32(0)
	if st := nodes[src].stamp; st-ep < epochStride {
		keep = st & fNeed
	}
	nodes[src] = nodeState{dist: 0, pred: int32(unreachedPred), stamp: ep | fSeen | keep}

	h := append(s.heap[:0], ssspItem{node: int32(src), key: 0})
search:
	for len(h) > 0 {
		// Inline heapPop (hole sift-down of the former last entry). Indices
		// are uint so the prover can drop the bounds checks.
		top := h[0]
		last := uint(len(h)) - 1
		siftv := h[last]
		h = h[:last]
		i := uint(0)
		sd := siftv.key
		for {
			l, r := 2*i+1, 2*i+2
			// Pick the smaller child first (left wins ties), then compare it
			// against the sifted value: decision-equivalent to checking each
			// child against the running minimum in turn, but the two child
			// loads are independent, which shortens the serial load chain.
			var m uint
			if r < last {
				if h[l].key <= h[r].key {
					m = l
				} else {
					m = r
				}
			} else if l < last {
				m = l
			} else {
				break
			}
			if h[m].key >= sd {
				break
			}
			h[i] = h[m]
			i = m
		}
		if last > 0 {
			h[i] = siftv
		}

		u, d := top.node, top.key
		su := &nodes[u]
		// Every heap entry was pushed this call, so su's stamp is current:
		// the flag bits are exactly su.stamp-ep.
		if su.stamp&fDone != 0 || d > su.dist {
			continue
		}
		su.stamp |= fDone
		if d > maxDist {
			maxDist = d
		}
		if su.stamp&fNeed != 0 {
			remaining--
			if remaining == 0 {
				break
			}
		}
		// Sub-slice ranging bounds-checks the adjacency row once; ws is cut
		// to the same bounds so its accesses are provably in range too. The
		// relax loop never reads the edge-id stream: predecessors are
		// recorded as slot indices, and original edge ids are looked up
		// through slotEid only on exact-distance ties (and at path
		// extraction), keeping the hot loop to two streams plus labels.
		base := starts[u]
		row := tos[base:starts[u+1]]
		ws := wSlot[base : base+int32(len(row))]
		for k := range row {
			v := row[k]
			st := &nodes[v]
			sv := st.stamp - ep // unsigned: current iff < epochStride, then == flags
			if sv&^uint32(fSeen|fNeed) == fDone {
				// Current and finalised (single fused test: stale stamps have
				// sv >= epochStride, so the masked value can't equal fDone).
				// Never rewrite a finalised node's predecessor: an
				// equal-distance overwrite after finalisation (common under
				// float absorption of tiny weights) can create predecessor
				// cycles and break path reconstruction.
				continue
			}
			nd := d + ws[k]
			if uint(v) < uint(len(stub)) && stub[v] {
				// This slot is v's only in-edge and u is scanned once, so
				// this offer is v's final label (v is not src: src is
				// finalised first). Only fNeed can be set on a current stamp.
				if sv >= epochStride {
					sv = 0
				}
				*st = nodeState{dist: nd, pred: base + int32(k), stamp: ep | sv | fSeen | fDone}
				if nd > maxDist {
					maxDist = nd
				}
				if sv&fNeed != 0 {
					remaining--
					if remaining == 0 {
						break search
					}
				}
				continue
			}
			if sv >= epochStride {
				st.stamp = ep | fSeen
				st.dist = nd
				st.pred = base + int32(k)
			} else if sv&fSeen == 0 {
				st.stamp |= fSeen
				st.dist = nd
				st.pred = base + int32(k)
			} else if nd < st.dist {
				st.dist = nd
				st.pred = base + int32(k)
			} else if nd == st.dist && st.pred != int32(unreachedPred) && eids[base+int32(k)] < eids[st.pred] {
				st.pred = base + int32(k)
				if fast {
					// v's entry with key nd is still valid; the historical
					// search pushes a duplicate that pops as stale.
					continue
				}
			} else {
				continue
			}
			// Inline heapPush (hole sift-up).
			it := ssspItem{node: v, key: nd}
			h = append(h, it)
			j := uint(len(h)) - 1
			for j > 0 {
				p := (j - 1) / 2
				if h[p].key <= nd {
					break
				}
				h[j] = h[p]
				j = p
			}
			h[j] = it
		}
	}
	s.heap = h
	return maxDist
}

// goalTree is TreeToward's heap search: heapTree's fast search, with every
// head looked up in the hop array (a HopNone head is never pushed, nor a
// stub outside the destination set) and every key raised by the node's
// bound (goalBound.key; 0 at hop 0). Each push carries the label at that
// moment, labels only fall and the key rises with the label, so a node's
// latest entry carries its least key and the first of its entries to pop
// finalises its current label: no staleness test is needed. It returns the
// largest key popped or stub label written, and how many destinations were
// left unfinalised. It is a second copy of the heap loop because folding
// the goal mode into heapTree slowed the plain Tree that greedy admission
// runs (see DESIGN.md, "Goal-directed oracle search").
func (s *SSSPScratch) goalTree(src NodeID, dsts []NodeID, gb *goalBound) (maxKey float64, remaining int) {
	ep, remaining := s.beginEpoch(dsts)
	nodes := s.node
	wSlot := s.wSlot
	eids, tos, starts, stub := s.csr.slotEid, s.csr.slotTo, s.csr.Start, s.csr.stub
	hop := gb.hop

	keep := uint32(0)
	if st := nodes[src].stamp; st-ep < epochStride {
		keep = st & fNeed
	}
	nodes[src] = nodeState{dist: 0, pred: int32(unreachedPred), stamp: ep | fSeen | keep}

	h := append(s.heap[:0], ssspItem{node: int32(src), key: 0})
search:
	for len(h) > 0 {
		// Inline heapPop, as in heapTree.
		top := h[0]
		last := uint(len(h)) - 1
		siftv := h[last]
		h = h[:last]
		i := uint(0)
		sk := siftv.key
		for {
			l, r := 2*i+1, 2*i+2
			var m uint
			if r < last {
				if h[l].key <= h[r].key {
					m = l
				} else {
					m = r
				}
			} else if l < last {
				m = l
			} else {
				break
			}
			if h[m].key >= sk {
				break
			}
			h[i] = h[m]
			i = m
		}
		if last > 0 {
			h[i] = siftv
		}

		su := &nodes[top.node]
		if su.stamp&fDone != 0 {
			continue
		}
		su.stamp |= fDone
		if top.key > maxKey {
			maxKey = top.key
		}
		if su.stamp&fNeed != 0 {
			remaining--
			if remaining == 0 {
				break
			}
		}
		d := su.dist
		base := starts[top.node]
		row := tos[base:starts[top.node+1]]
		ws := wSlot[base : base+int32(len(row))]
		for k := range row {
			v := row[k]
			st := &nodes[v]
			sv := st.stamp - ep
			if sv&^uint32(fSeen|fNeed) == fDone {
				continue // current and finalised, as in heapTree
			}
			hv := hop[v]
			if hv == HopNone {
				continue // no path from v leads to a destination
			}
			nd := d + ws[k]
			if stub[v] {
				if hv != 0 {
					continue // a stub outside dsts is inside no path
				}
				// A destination stub: this offer is its final label, as in
				// heapTree.
				if sv >= epochStride {
					sv = 0
				}
				*st = nodeState{dist: nd, pred: base + int32(k), stamp: ep | sv | fSeen | fDone}
				if nd > maxKey {
					maxKey = nd
				}
				if sv&fNeed != 0 {
					remaining--
					if remaining == 0 {
						break search
					}
				}
				continue
			}
			if sv >= epochStride {
				st.stamp = ep | fSeen
			} else if sv&fSeen == 0 {
				st.stamp |= fSeen
			} else if !(nd < st.dist) {
				// No push for a tie-break-only update: v's entry is valid.
				if nd == st.dist && st.pred != int32(unreachedPred) && eids[base+int32(k)] < eids[st.pred] {
					st.pred = base + int32(k)
				}
				continue
			}
			st.dist = nd
			st.pred = base + int32(k)
			vk := nd
			if hv != 0 {
				vk = gb.key(nd, v, hv)
			}
			// Inline heapPush, as in heapTree.
			it := ssspItem{node: v, key: vk}
			h = append(h, it)
			j := uint(len(h)) - 1
			for j > 0 {
				p := (j - 1) / 2
				if h[p].key <= vk {
					break
				}
				h[j] = h[p]
				j = p
			}
			h[j] = it
		}
	}
	s.heap = h
	return maxKey, remaining
}

// Reached reports whether dst was finalised by the last Tree call.
func (s *SSSPScratch) Reached(dst NodeID) bool {
	sv := s.node[dst].stamp - s.epoch
	return sv < epochStride && sv&fDone != 0
}

// Dist returns the shortest distance to dst from the last Tree call; it is
// meaningful only when Reached(dst).
func (s *SSSPScratch) Dist(dst NodeID) float64 { return s.node[dst].dist }

// AppendPathTo appends the edge ids of the tree path src->dst to buf and
// returns the extended slice. It reports ok=false when dst was not
// finalised by the last Tree call (unreachable, or pruned by the dsts
// early exit). An src==dst query yields an empty path. The appended edge
// ids are original edge ids even on a renumbered view (predecessors are
// slot indices mapped through slotEid here), so callers intern paths
// without any translation. The appended edges reuse no internal storage,
// but callers that retain the path across Tree calls on shared buffers
// should copy it.
func (s *SSSPScratch) AppendPathTo(dst NodeID, buf []EdgeID) (out []EdgeID, ok bool) {
	ep := s.epoch
	if sv := s.node[dst].stamp - ep; sv >= epochStride || sv&fDone == 0 {
		return buf, false
	}
	s.pathBuf = s.pathBuf[:0]
	c := s.csr
	for cur := dst; ; {
		if sv := s.node[cur].stamp - ep; sv >= epochStride || sv&fSeen == 0 {
			return buf, false
		}
		slot := s.node[cur].pred
		if slot == int32(unreachedPred) {
			break
		}
		eid := c.slotEid[slot]
		s.pathBuf = append(s.pathBuf, EdgeID(eid))
		cur = c.EdgeFrom[eid]
		if len(s.pathBuf) > c.NumEdges() {
			return buf, false // defensive: corrupted predecessor chain
		}
	}
	for i := len(s.pathBuf) - 1; i >= 0; i-- {
		buf = append(buf, s.pathBuf[i])
	}
	return buf, true
}
