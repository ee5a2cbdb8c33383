package graph

import "math"

// MaxDialSpan is the weight span (largest weight divided by the quantum)
// TreeDial's level queue handles: 1, every slot weight equal. Unit-weight
// shortest paths (Compiled.ShortestPath, BatchShortestPaths) and the
// benchmark's replay of a uniform sweep produce such weights. Frank–Wolfe
// weights never quantize with a larger span in practice (an idle link
// weighs 1e-12, a loaded one far more than 256 of those), so no general
// bucket queue is kept.
const MaxDialSpan = 1

// QuantizeWeights reports whether the slot-ordered weights w are exact
// positive integer multiples of their minimum — w[i] == k_i * q for
// integer k_i in [1, maxSpan], with q the smallest weight — and returns
// the quantum q and the span max(k_i). This is the selection test for
// TreeDial: unit weights quantize with span 1, while marginal-cost weights
// (arbitrary floats) are rejected and belong on the heap. The multiples
// must hold under exact float64 equality, so a positive answer certifies
// that level arithmetic reproduces heap arithmetic bit for bit.
func QuantizeWeights(w []float64, maxSpan int) (q float64, span int, ok bool) {
	if len(w) == 0 {
		return 0, 0, false
	}
	q = math.Inf(1)
	for _, wt := range w {
		if wt < q {
			q = wt
		}
	}
	if q <= 0 || math.IsInf(q, 1) {
		return 0, 0, false
	}
	limit := float64(maxSpan)
	for _, wt := range w {
		r := wt / q
		if r > limit {
			return 0, 0, false
		}
		k := math.Floor(r + 0.5)
		if k < 1 || k*q != wt {
			return 0, 0, false
		}
		if int(k) > span {
			span = int(k)
		}
	}
	return q, span, true
}

// TreeDial is Tree on a level queue instead of the binary heap, for the
// uniform weights QuantizeWeights certifies with span 1: every slot weight
// is exactly quantum. Nodes are then settled level by level — distance
// d, d+quantum, d+2·quantum, … — so a full tree build costs O(E) with no
// per-node log factor. It is the unit-weight router behind
// Compiled.ShortestPath and BatchShortestPaths, which have no per-solve
// hop arrays to direct a search with. Any other span runs Tree.
//
// The result is bit-identical to Tree on the same weights: distances are
// accumulated with the same float64 additions (nd = levelDist + quantum is
// the addition relaxation would perform, so the weight stream is never
// read), labels use the same epoch-stamped nodeState updates and the same
// tie-break (a finalised node is never relabelled; among exactly-equal
// distances the smaller predecessor edge id wins). Identity does not
// depend on the order within a level: every offer a node receives comes
// from the previous level, so all offers land before the node finalises,
// and "minimum distance, then minimum edge id" is order-independent.
// A live node's distance never improves, so a tie-break-only update leaves
// its queue entry valid and pushes no duplicate; an entry is just the node
// id, and pops need no staleness check. TestTreeDialMatchesTree
// cross-checks the equivalence.
func (s *SSSPScratch) TreeDial(src NodeID, dsts []NodeID, quantum float64, span int) {
	if span != 1 {
		s.Tree(src, dsts)
		return
	}
	ep, remaining := s.beginEpoch(dsts)
	nodes := s.node
	eids, tos, starts := s.csr.slotEid, s.csr.slotTo, s.csr.Start

	keep := uint32(0)
	if st := nodes[src].stamp; st-ep < epochStride {
		keep = st & fNeed
	}
	nodes[src] = nodeState{dist: 0, pred: int32(unreachedPred), stamp: ep | fSeen | keep}

	cur := append(s.frontier[:0], int32(src))
	next := s.nextFrontier[:0]
	d := 0.0
levels:
	for len(cur) > 0 {
		nd := d + quantum
		for len(cur) > 0 {
			u := cur[len(cur)-1]
			cur = cur[:len(cur)-1]
			su := &nodes[u]
			su.stamp |= fDone
			if su.stamp&fNeed != 0 {
				remaining--
				if remaining == 0 {
					break levels
				}
			}
			base := starts[u]
			row := tos[base:starts[u+1]]
			for k := range row {
				v := row[k]
				st := &nodes[v]
				sv := st.stamp - ep
				if sv&^uint32(fSeen|fNeed) == fDone {
					continue
				}
				if sv >= epochStride {
					st.stamp = ep | fSeen
				} else if sv&fSeen == 0 {
					st.stamp |= fSeen
				} else {
					// Already offered: only the min-edge-id tie-break can
					// apply (a same-level offer is equal, a same-frontier
					// offer is one level higher and fails the equality), and
					// no re-push is needed.
					if nd == st.dist && st.pred != int32(unreachedPred) && eids[base+int32(k)] < eids[st.pred] {
						st.pred = base + int32(k)
					}
					continue
				}
				st.dist = nd
				st.pred = base + int32(k)
				next = append(next, v)
			}
		}
		cur, next = next, cur[:0]
		d = nd
	}
	s.frontier, s.nextFrontier = cur[:0], next[:0]
}
