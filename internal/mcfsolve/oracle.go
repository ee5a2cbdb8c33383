package mcfsolve

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"dcnflow/internal/graph"
)

// oracle computes shortest paths for all commodities under changing edge
// weights, deduplicating work by source node: one search serves every
// commodity sharing a source, directed at that source's destinations, and
// stops once all of them are finalised. All shortest-path state lives in
// reusable graph.SSSPScratch and all produced paths are interned, so a
// one-worker sweep performs no allocations once every optimal path has
// been seen.
//
// Every sweep runs one loop at any worker count. Edge weights are frozen
// for the duration of a sweep, so source groups are independent:
// min(workers, groups) workers claim them from an atomic cursor and
// extract each group's paths into that group's arena. The calling
// goroutine is worker 0, on the oracle's own scratch; the others borrow
// pooled scratch from the compiled graph and alias the canonical weight
// buffer read-only (graph.SSSPScratch.ShareWeightsFrom). Interning and
// output assembly then happen in a single ascending-source merge pass, so
// the interner observes the same call sequence and outputs are
// byte-identical at any worker count — the same order-fixed reduction
// contract the scenario-sweep pool established (see DESIGN.md "Determinism
// under parallel reduction").
type oracle struct {
	hot      *graph.CSR // renumbered view; all trees run in hot node space
	compiled *graph.Compiled
	sssp     *graph.SSSPScratch
	intern   *graph.PathInterner
	workers  int

	// Commodity grouping, rebuilt by bind() when the commodity set changes.
	// srcs/dsts stay in ORIGINAL node space: the ascending-source
	// determinism sort and ErrNoRoute messages must be layout-independent.
	// hsrcs/hdsts/cdst are their hot-space translations, which is what the
	// trees and path extraction consume (extracted paths still carry
	// original edge ids — see graph.Compiled's renumbering contract).
	srcs    []graph.NodeID   // distinct sources, ascending original ids
	members [][]int32        // commodity indices per source (same order)
	dsts    [][]graph.NodeID // destinations per source (deduplicated)
	hsrcs   []graph.NodeID   // srcs translated to hot ids
	hdsts   [][]graph.NodeID // dsts translated to hot ids
	cdst    []graph.NodeID   // per-commodity hot destination
	seen    map[[2]graph.NodeID]struct{}

	// hops[gi] is source group gi's hop array (graph.CSR.Hops of hdsts[gi])
	// for the goal-directed heap search, nil past hopBudget bytes (always
	// hopArenaBytes outside tests). The arrays live in one arena that a
	// pooled Solver keeps across solves.
	hops      [][]uint8
	hopArena  []uint8
	hopQueue  []int32
	hopBudget int
	goal      int // trees the goal search answered in the last sweep

	groups []groupArena // extraction arenas, one per source group

	// The sweep's group cursor and its workers past the first. They are
	// fields so that a one-worker sweep, which starts no goroutine, does
	// not move them to the heap.
	next atomic.Int64
	wg   sync.WaitGroup
}

// hopArenaBytes caps the hop arrays of one solve at one byte per node per
// source group; the groups past it run the plain heap Tree. Fabrics up to
// about 64 sources on 2^18 nodes stay inside it.
const hopArenaBytes = 16 << 20

// groupArena holds one source group's extracted paths between the
// extraction pass and the ordered merge: member j's path occupies
// edges[offs[j]:offs[j+1]]. err records the first unroutable member; the
// merge still interns the members extracted before it (len(offs)-1 of
// them) before returning err, so the error leaves the same interner state
// at any worker count.
type groupArena struct {
	edges []graph.EdgeID
	offs  []int32
	err   error
	goal  bool // the goal search answered this group's tree
}

func newOracle(c *graph.Compiled, intern *graph.PathInterner, workers int) *oracle {
	if workers < 1 {
		workers = 1
	}
	hot := c.Hot()
	return &oracle{
		hot:       hot,
		compiled:  c,
		sssp:      graph.NewSSSPScratch(hot),
		intern:    intern,
		workers:   workers,
		hopBudget: hopArenaBytes,
	}
}

// bind (re)builds the source grouping for one commodity set. It is called
// once per Solve; the grouping is then reused by every Frank–Wolfe
// iteration. Destination dedup uses a (src, dst) seen set, so binding stays
// linear even on large incast fan-in groups (many commodities converging on
// one destination).
func (o *oracle) bind(commodities []Commodity) {
	o.srcs = o.srcs[:0]
	o.members = o.members[:0]
	o.dsts = o.dsts[:0]
	if o.seen == nil {
		o.seen = make(map[[2]graph.NodeID]struct{}, len(commodities))
	} else {
		clear(o.seen)
	}
	bySrc := make(map[graph.NodeID]int, len(commodities))
	for i, c := range commodities {
		gi, ok := bySrc[c.Src]
		if !ok {
			gi = len(o.srcs)
			bySrc[c.Src] = gi
			o.srcs = append(o.srcs, c.Src)
			o.members = append(o.members, nil)
			o.dsts = append(o.dsts, nil)
		}
		o.members[gi] = append(o.members[gi], int32(i))
		key := [2]graph.NodeID{c.Src, c.Dst}
		if _, dup := o.seen[key]; !dup {
			o.seen[key] = struct{}{}
			o.dsts[gi] = append(o.dsts[gi], c.Dst)
		}
	}
	// Ascending source order keeps the sweep deterministic and matches the
	// historical map-then-sort implementation.
	order := make([]int, len(o.srcs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return o.srcs[order[a]] < o.srcs[order[b]] })
	srcs := make([]graph.NodeID, len(order))
	members := make([][]int32, len(order))
	dsts := make([][]graph.NodeID, len(order))
	for i, gi := range order {
		srcs[i], members[i], dsts[i] = o.srcs[gi], o.members[gi], o.dsts[gi]
	}
	o.srcs, o.members, o.dsts = srcs, members, dsts

	// Hot-space translations, built once per bind so the per-sweep tree and
	// extraction loops are translation-free.
	o.hsrcs = o.hsrcs[:0]
	o.hdsts = o.hdsts[:0]
	for gi, src := range o.srcs {
		o.hsrcs = append(o.hsrcs, o.compiled.ToHot(src))
		hd := make([]graph.NodeID, len(o.dsts[gi]))
		for i, d := range o.dsts[gi] {
			hd[i] = o.compiled.ToHot(d)
		}
		o.hdsts = append(o.hdsts, hd)
	}
	o.cdst = o.cdst[:0]
	for _, c := range commodities {
		o.cdst = append(o.cdst, o.compiled.ToHot(c.Dst))
	}

	// One hop array per group: the weights change every sweep, the
	// destination sets only here.
	n := o.hot.NumNodes()
	fit := min(len(o.srcs), o.hopBudget/max(n, 1))
	if cap(o.hopArena) < fit*n {
		o.hopArena = make([]uint8, fit*n)
	}
	o.hops = o.hops[:0]
	for gi := range o.srcs {
		var hop []uint8
		if gi < fit {
			hop = o.hopArena[gi*n : (gi+1)*n : (gi+1)*n]
			o.hopQueue = o.hot.Hops(o.hdsts[gi], hop, o.hopQueue)
		}
		o.hops = append(o.hops, hop)
	}
}

// slotWeights exposes the slot-ordered weight buffer (slot i carries edge
// slotEdges()[i]); callers fill it before shortestPaths.
func (o *oracle) slotWeights() []float64 { return o.sssp.SlotWeights() }

// slotEdges returns the (original) edge id carried by each weight slot, in
// the hot view's slot order. The Frank–Wolfe weight fill iterates this in
// lockstep with slotWeights.
func (o *oracle) slotEdges() []int32 { return o.hot.SlotEdges() }

// shortestPaths computes one weighted shortest path per bound commodity
// under the weights previously written into slotWeights and stores its
// interned handle in out (input order preserved). out must have
// len(commodities).
func (o *oracle) shortestPaths(commodities []Commodity, out []graph.PathHandle) error {
	// Every search needs the weights' lower bound: record it once per
	// sweep, before the other workers copy it.
	o.sssp.ScanWeights()
	ng := len(o.srcs)
	for len(o.groups) < ng {
		o.groups = append(o.groups, groupArena{})
	}
	o.next.Store(0)
	for w := 1; w < min(o.workers, ng); w++ {
		o.wg.Add(1)
		go func() {
			defer o.wg.Done()
			s := o.compiled.AcquireScratch()
			s.ShareWeightsFrom(o.sssp)
			defer o.compiled.ReleaseScratch(s)
			o.extractGroups(s, commodities)
		}()
	}
	o.extractGroups(o.sssp, commodities)
	o.wg.Wait()

	// Ordered merge: ascending source groups, members in input order. A
	// group's extracted members are interned before its error surfaces.
	// The merge is where determinism lives — see the type comment.
	o.goal = 0
	for gi := 0; gi < ng; gi++ {
		g := &o.groups[gi]
		if g.goal {
			o.goal++
		}
		for j := 0; j+1 < len(g.offs); j++ {
			out[o.members[gi][j]] = o.intern.Intern(g.edges[g.offs[j]:g.offs[j+1]])
		}
		if g.err != nil {
			return g.err
		}
	}
	return nil
}

// extractGroups claims source groups from the sweep's cursor and extracts
// each on s until none is left.
func (o *oracle) extractGroups(s *graph.SSSPScratch, commodities []Commodity) {
	for {
		gi := int(o.next.Add(1)) - 1
		if gi >= len(o.srcs) {
			return
		}
		o.extractGroup(s, gi, commodities)
	}
}

// extractGroup runs one source group's tree on s, directed at the group's
// destinations, and copies every member's path into the group's arena.
// Arena slices are reused across sweeps, so a warm sweep's only recurring
// allocations are the goroutines of workers past the first.
func (o *oracle) extractGroup(s *graph.SSSPScratch, gi int, commodities []Commodity) {
	g := &o.groups[gi]
	g.edges = g.edges[:0]
	g.offs = append(g.offs[:0], 0)
	g.err = nil
	g.goal = s.TreeToward(o.hsrcs[gi], o.hdsts[gi], o.hops[gi])
	src := o.srcs[gi]
	for _, ci := range o.members[gi] {
		buf, ok := s.AppendPathTo(o.cdst[ci], g.edges)
		if !ok {
			g.err = fmt.Errorf("%w: %d -> %d", ErrNoRoute, src, commodities[ci].Dst)
			return
		}
		g.edges = buf
		g.offs = append(g.offs, int32(len(g.edges)))
	}
}
