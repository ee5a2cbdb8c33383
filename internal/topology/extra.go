package topology

import (
	"fmt"
	"math/rand"

	"dcnflow/internal/graph"
)

// VL2 builds a VL2-style folded-Clos topology [Greenberg et al., SIGCOMM
// 2009]: di intermediate switches, da aggregation switches (each connected
// to every intermediate switch), ToR switches each dual-homed to two
// aggregation switches, and hostsPerTor servers per ToR.
func VL2(di, da, tors, hostsPerTor int, capacity float64) (*Topology, error) {
	if di < 1 || da < 2 || tors < 1 || hostsPerTor < 1 {
		return nil, fmt.Errorf("vl2: invalid dimensions di=%d da=%d tors=%d hosts=%d", di, da, tors, hostsPerTor)
	}
	if capacity <= 0 {
		return nil, fmt.Errorf("vl2: capacity must be positive, got %v", capacity)
	}
	g := graph.New()
	ints := make([]graph.NodeID, di)
	for i := range ints {
		ints[i] = g.AddNode(fmt.Sprintf("int-%d", i), graph.KindCoreSwitch)
	}
	aggs := make([]graph.NodeID, da)
	for i := range aggs {
		aggs[i] = g.AddNode(fmt.Sprintf("agg-%d", i), graph.KindAggSwitch)
	}
	// Full bipartite intermediate <-> aggregation.
	for _, iv := range ints {
		for _, av := range aggs {
			if _, _, err := g.AddBiEdge(iv, av, capacity); err != nil {
				return nil, fmt.Errorf("vl2 int-agg: %w", err)
			}
		}
	}
	var hosts []graph.NodeID
	torIDs := make([]graph.NodeID, tors)
	for t := 0; t < tors; t++ {
		tor := g.AddNode(fmt.Sprintf("tor-%d", t), graph.KindEdgeSwitch)
		torIDs[t] = tor
		// Dual-home each ToR to two distinct aggregation switches.
		a1 := aggs[t%da]
		a2 := aggs[(t+1)%da]
		if _, _, err := g.AddBiEdge(tor, a1, capacity); err != nil {
			return nil, fmt.Errorf("vl2 tor-agg: %w", err)
		}
		if _, _, err := g.AddBiEdge(tor, a2, capacity); err != nil {
			return nil, fmt.Errorf("vl2 tor-agg: %w", err)
		}
		for h := 0; h < hostsPerTor; h++ {
			host := g.AddNode(fmt.Sprintf("host-%d-%d", t, h), graph.KindHost)
			hosts = append(hosts, host)
			if _, _, err := g.AddBiEdge(tor, host, capacity); err != nil {
				return nil, fmt.Errorf("vl2 tor-host: %w", err)
			}
		}
	}
	switches := make([]graph.NodeID, 0, di+da+tors)
	switches = append(switches, ints...)
	switches = append(switches, aggs...)
	switches = append(switches, torIDs...)
	return &Topology{
		Name:     fmt.Sprintf("vl2(%d,%d,%d,%d)", di, da, tors, hostsPerTor),
		Graph:    g,
		Hosts:    hosts,
		Switches: switches,
	}, nil
}

// Jellyfish builds a Jellyfish-style random regular switch graph [Singla et
// al., NSDI 2012]: switches wired as an (approximately) degree-regular
// random graph, each also hosting hostsPerSwitch servers. The wiring is
// deterministic per seed; if the randomized pairing dead-ends, remaining
// stubs are left unwired (degree may fall short by one on a few switches),
// which mirrors practical incremental-expansion builds.
func Jellyfish(switches, degree, hostsPerSwitch int, capacity float64, seed int64) (*Topology, error) {
	if switches < 2 || degree < 1 || hostsPerSwitch < 0 {
		return nil, fmt.Errorf("jellyfish: invalid dimensions switches=%d degree=%d hosts=%d", switches, degree, hostsPerSwitch)
	}
	if degree >= switches {
		return nil, fmt.Errorf("jellyfish: degree %d must be below switch count %d", degree, switches)
	}
	if capacity <= 0 {
		return nil, fmt.Errorf("jellyfish: capacity must be positive, got %v", capacity)
	}
	g := graph.New()
	sw := make([]graph.NodeID, switches)
	for i := range sw {
		sw[i] = g.AddNode(fmt.Sprintf("sw-%d", i), graph.KindSwitch)
	}
	rng := rand.New(rand.NewSource(seed))

	// Stub matching: every switch contributes `degree` stubs; repeatedly
	// pair random distinct stubs avoiding duplicates.
	remaining := make([]int, switches)
	for i := range remaining {
		remaining[i] = degree
	}
	connected := make(map[[2]int]bool)
	hasEdge := func(a, b int) bool {
		if a > b {
			a, b = b, a
		}
		return connected[[2]int{a, b}]
	}
	markEdge := func(a, b int) {
		if a > b {
			a, b = b, a
		}
		connected[[2]int{a, b}] = true
	}
	// A spanning ring first guarantees connectivity.
	for i := 0; i < switches; i++ {
		j := (i + 1) % switches
		if remaining[i] > 0 && remaining[j] > 0 && !hasEdge(i, j) {
			if _, _, err := g.AddBiEdge(sw[i], sw[j], capacity); err != nil {
				return nil, fmt.Errorf("jellyfish ring: %w", err)
			}
			markEdge(i, j)
			remaining[i]--
			remaining[j]--
		}
	}
	// Random pairing for the rest, with a bounded retry budget. Each try
	// draws two switches uniformly from those with free stubs, in ascending
	// index order; the live set finds the i-th such switch in O(log n).
	live := newLiveSet(remaining)
	for tries := 0; tries < 50*switches*degree; tries++ {
		if live.n < 2 {
			break
		}
		a := live.find(rng.Intn(live.n))
		b := live.find(rng.Intn(live.n))
		if a == b || hasEdge(a, b) {
			continue
		}
		if _, _, err := g.AddBiEdge(sw[a], sw[b], capacity); err != nil {
			return nil, fmt.Errorf("jellyfish pair: %w", err)
		}
		markEdge(a, b)
		remaining[a]--
		remaining[b]--
		if remaining[a] == 0 {
			live.remove(a)
		}
		if remaining[b] == 0 {
			live.remove(b)
		}
	}

	var hosts []graph.NodeID
	for i := 0; i < switches; i++ {
		for h := 0; h < hostsPerSwitch; h++ {
			host := g.AddNode(fmt.Sprintf("host-%d-%d", i, h), graph.KindHost)
			hosts = append(hosts, host)
			if _, _, err := g.AddBiEdge(sw[i], host, capacity); err != nil {
				return nil, fmt.Errorf("jellyfish host: %w", err)
			}
		}
	}
	return &Topology{
		Name:     fmt.Sprintf("jellyfish(%d,%d,%d)", switches, degree, hostsPerSwitch),
		Graph:    g,
		Hosts:    hosts,
		Switches: sw,
	}, nil
}

// liveSet is a Fenwick (binary indexed) tree over the switches that still
// have free stubs: it removes a switch and finds the i-th live one, in
// ascending index order, in O(log n) each.
type liveSet struct {
	tree []int // 1-based partial counts: tree[j] covers (j - j&-j, j]
	n    int   // live switches
	top  int   // highest power of two <= len(tree)-1
}

// newLiveSet builds the set of indices i with remaining[i] > 0 in O(n).
func newLiveSet(remaining []int) *liveSet {
	s := &liveSet{tree: make([]int, len(remaining)+1), top: 1}
	for i, r := range remaining {
		if r > 0 {
			s.tree[i+1]++
			s.n++
		}
		if j := (i + 1) + (i+1)&-(i+1); j < len(s.tree) {
			s.tree[j] += s.tree[i+1]
		}
	}
	for s.top*2 < len(s.tree) {
		s.top *= 2
	}
	return s
}

// remove drops live index i.
func (s *liveSet) remove(i int) {
	for j := i + 1; j < len(s.tree); j += j & -j {
		s.tree[j]--
	}
	s.n--
}

// find returns the k-th live index (0-based), for 0 <= k < s.n.
func (s *liveSet) find(k int) int {
	pos := 0
	for step := s.top; step > 0; step >>= 1 {
		if next := pos + step; next < len(s.tree) && s.tree[next] <= k {
			pos = next
			k -= s.tree[next]
		}
	}
	return pos
}
