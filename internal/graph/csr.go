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
	return c
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
	// Tree's no-absorption guard). SetWeights and ScanWeights record it;
	// SlotWeights hands out the buffer for writing and resets it.
	minW float64

	heap []ssspItem

	// frontier/nextFrontier are TreeDial's two-level queue: with no
	// duplicate entries and one distance per level, an entry is just the
	// node id.
	frontier, nextFrontier []int32

	pathBuf []EdgeID // reversal scratch for AppendPathTo
}

// ssspItem is one (distance, node) heap entry; a single packed array keeps
// sift operations to one swap per level.
type ssspItem struct {
	dist float64
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
// always indexed by original edge id, on renumbered views too.
func (s *SSSPScratch) SetWeights(w []float64) error {
	eids := s.csr.slotEid
	s.minW = 0 // unknown until every weight has validated
	m := math.Inf(1)
	for i := range eids {
		wt := w[eids[i]]
		if wt < 0 {
			return fmt.Errorf("graph: negative weight %v on edge %d", wt, eids[i])
		}
		m = min(m, wt) // NaN-propagating: a NaN weight disables the fast search
		s.wSlot[i] = wt
	}
	s.minW = m
	return nil
}

// SlotWeights exposes the scratch's slot-ordered weight buffer for callers
// that can compute weights directly in slot order (slot i corresponds to
// edge CSR.SlotEdges()[i]), skipping SetWeights' gather pass. The caller
// must fill every entry with a nonnegative value before the next Tree
// call, then call ScanWeights to let Tree use its fast search.
func (s *SSSPScratch) SlotWeights() []float64 {
	s.minW = 0
	return s.wSlot
}

// ScanWeights records the lower bound of the slot weights that Tree's
// no-absorption guard needs, after the caller filled SlotWeights directly
// (SetWeights records it itself). Without it Tree runs only the historical
// search, with the same results.
func (s *SSSPScratch) ScanWeights() {
	// A plain comparison is about 3x faster than the builtin min, whose
	// NaN and signed-zero handling the guard does not need: a zero of
	// either sign fails minW > 0 alike, and a NaN still ends the scan.
	m := math.Inf(1)
	for _, wt := range s.wSlot {
		if wt < m {
			m = wt
		} else if wt != wt {
			m = wt
			break
		}
	}
	s.minW = m
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

	h := append(s.heap[:0], ssspItem{node: int32(src), dist: 0})
search:
	for len(h) > 0 {
		// Inline heapPop (hole sift-down of the former last entry). Indices
		// are uint so the prover can drop the bounds checks.
		top := h[0]
		last := uint(len(h)) - 1
		siftv := h[last]
		h = h[:last]
		i := uint(0)
		sd := siftv.dist
		for {
			l, r := 2*i+1, 2*i+2
			// Pick the smaller child first (left wins ties), then compare it
			// against the sifted value: decision-equivalent to checking each
			// child against the running minimum in turn, but the two child
			// loads are independent, which shortens the serial load chain.
			var m uint
			if r < last {
				if h[l].dist <= h[r].dist {
					m = l
				} else {
					m = r
				}
			} else if l < last {
				m = l
			} else {
				break
			}
			if h[m].dist >= sd {
				break
			}
			h[i] = h[m]
			i = m
		}
		if last > 0 {
			h[i] = siftv
		}

		u, d := top.node, top.dist
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
			it := ssspItem{node: v, dist: nd}
			h = append(h, it)
			j := uint(len(h)) - 1
			for j > 0 {
				p := (j - 1) / 2
				if h[p].dist <= nd {
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
