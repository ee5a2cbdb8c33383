package topology

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dcnflow/internal/graph"
)

func TestVL2Counts(t *testing.T) {
	top, err := VL2(4, 8, 16, 20, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(top.Switches) != 4+8+16 {
		t.Fatalf("switches = %d, want 28", len(top.Switches))
	}
	if len(top.Hosts) != 16*20 {
		t.Fatalf("hosts = %d, want 320", len(top.Hosts))
	}
	// Links: 4*8 int-agg + 16*2 tor-agg + 320 host links.
	if got := top.NumPhysicalLinks(); got != 32+32+320 {
		t.Fatalf("links = %d, want 384", got)
	}
	if !top.Graph.Connected(top.Hosts[0], top.Hosts[len(top.Hosts)-1]) {
		t.Fatal("VL2 hosts not connected")
	}
}

func TestVL2Invalid(t *testing.T) {
	cases := [][4]int{{0, 2, 1, 1}, {1, 1, 1, 1}, {1, 2, 0, 1}, {1, 2, 1, 0}}
	for _, c := range cases {
		if _, err := VL2(c[0], c[1], c[2], c[3], 1); err == nil {
			t.Errorf("VL2(%v) accepted", c)
		}
	}
	if _, err := VL2(2, 2, 2, 2, 0); err == nil {
		t.Error("zero capacity accepted")
	}
}

func TestJellyfishConnectivityAndDegree(t *testing.T) {
	top, err := Jellyfish(20, 4, 2, 10, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(top.Switches) != 20 || len(top.Hosts) != 40 {
		t.Fatalf("sizes = %d switches, %d hosts", len(top.Switches), len(top.Hosts))
	}
	// All pairs connected (ring guarantees it).
	if !top.Graph.Connected(top.Hosts[0], top.Hosts[39]) {
		t.Fatal("jellyfish hosts not connected")
	}
	// Switch degree (excluding host links) never exceeds the target.
	for i, sw := range top.Switches {
		degree := 0
		for _, eid := range top.Graph.OutEdges(sw) {
			to := top.Graph.MustEdge(eid).To
			node, err := top.Graph.Node(to)
			if err != nil {
				t.Fatal(err)
			}
			if node.Kind != graph.KindHost {
				degree++
			}
		}
		if degree > 4 {
			t.Fatalf("switch %d degree %d exceeds 4", i, degree)
		}
	}
}

func TestJellyfishDeterministicPerSeed(t *testing.T) {
	a, err := Jellyfish(12, 3, 1, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Jellyfish(12, 3, 1, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if a.Graph.NumEdges() != b.Graph.NumEdges() {
		t.Fatal("same seed produced different graphs")
	}
	ea, eb := a.Graph.Edges(), b.Graph.Edges()
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("edge %d differs across identical seeds", i)
		}
	}
}

func TestJellyfishInvalid(t *testing.T) {
	if _, err := Jellyfish(1, 1, 1, 10, 0); err == nil {
		t.Error("too few switches accepted")
	}
	if _, err := Jellyfish(4, 4, 1, 10, 0); err == nil {
		t.Error("degree >= switches accepted")
	}
	if _, err := Jellyfish(4, 2, 1, 0, 0); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := Jellyfish(4, 2, -1, 1, 0); err == nil {
		t.Error("negative hosts accepted")
	}
}

// jellyfishStubScan is Jellyfish as it was before the live-set pairing:
// every try rebuilds the list of switches with free stubs, O(switches) per
// try. Kept verbatim as the differential reference for the rng call
// sequence and the wiring.
func jellyfishStubScan(switches, degree, hostsPerSwitch int, capacity float64, seed int64) (*Topology, error) {
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
	// Random pairing for the rest, with a bounded retry budget.
	for tries := 0; tries < 50*switches*degree; tries++ {
		var stubs []int
		for i, r := range remaining {
			if r > 0 {
				stubs = append(stubs, i)
			}
		}
		if len(stubs) < 2 {
			break
		}
		a := stubs[rng.Intn(len(stubs))]
		b := stubs[rng.Intn(len(stubs))]
		if a == b || hasEdge(a, b) {
			continue
		}
		if _, _, err := g.AddBiEdge(sw[a], sw[b], capacity); err != nil {
			return nil, fmt.Errorf("jellyfish pair: %w", err)
		}
		markEdge(a, b)
		remaining[a]--
		remaining[b]--
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

// shortSwitches counts the switches left with free stubs: two or more mean
// the pairing spent its whole retry budget without finding a legal pair.
func shortSwitches(t *testing.T, top *Topology, degree int) int {
	t.Helper()
	short := 0
	for _, sw := range top.Switches {
		links := 0
		for _, eid := range top.Graph.OutEdges(sw) {
			node, err := top.Graph.Node(top.Graph.MustEdge(eid).To)
			if err != nil {
				t.Fatal(err)
			}
			if node.Kind != graph.KindHost {
				links++
			}
		}
		if links < degree {
			short++
		}
	}
	return short
}

// TestJellyfishMatchesStubScan: the live-set pairing draws the same rng
// sequence as the stub-scan loop it replaced, so the wiring is identical
// edge for edge — including a triple whose pairing dead-ends (two switches
// with free stubs left, already linked to each other, so the whole retry
// budget is spent) and one with an odd stub count.
func TestJellyfishMatchesStubScan(t *testing.T) {
	for _, c := range []struct {
		switches, degree int
		seed             int64
		deadEnd          bool
	}{
		{6, 3, 1, true},
		{7, 3, 5, false},
		{20, 4, 7, true},
		{20, 4, 8, false},
		{64, 5, 11, false},
		{300, 3, 2, false},
		{1000, 8, 42, false},
	} {
		name := fmt.Sprintf("jellyfish(%d,%d) seed %d", c.switches, c.degree, c.seed)
		got, err := Jellyfish(c.switches, c.degree, 2, 10, c.seed)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := jellyfishStubScan(c.switches, c.degree, 2, 10, c.seed)
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		if dead := shortSwitches(t, want, c.degree) >= 2; dead != c.deadEnd {
			t.Fatalf("%s: dead end = %v, want %v", name, dead, c.deadEnd)
		}
		if got.Name != want.Name || !slices.Equal(got.Hosts, want.Hosts) || !slices.Equal(got.Switches, want.Switches) {
			t.Fatalf("%s: nodes differ from the reference", name)
		}
		if !slices.Equal(got.Graph.Edges(), want.Graph.Edges()) {
			t.Fatalf("%s: edges differ from the reference", name)
		}
	}
}
