package graph

import (
	"math"
	"math/rand"
	"testing"
)

// quantizeCases are TestQuantizeWeights' weight sets; TestScanWeights
// reuses them.
var quantizeCases = []struct {
	name    string
	w       []float64
	maxSpan int
	q       float64
	span    int
	ok      bool
}{
	{name: "unit", w: []float64{1, 1, 1}, maxSpan: 256, q: 1, span: 1, ok: true},
	{name: "even multiples", w: []float64{2, 4, 6}, maxSpan: 256, q: 2, span: 3, ok: true},
	{name: "power-of-two quantum", w: []float64{0.25, 0.5, 1, 2}, maxSpan: 256, q: 0.25, span: 8, ok: true},
	{name: "tiny quantum", w: []float64{1e-12, 3 * 1e-12}, maxSpan: 256, q: 1e-12, span: 3, ok: true},
	{name: "non-integer ratio", w: []float64{1, 1.5}, maxSpan: 256, ok: false},
	{name: "inexact multiple", w: []float64{1, 1 + 1e-9}, maxSpan: 256, ok: false},
	{name: "span exceeded", w: []float64{1, 300}, maxSpan: 256, ok: false},
	{name: "span boundary", w: []float64{1, 256}, maxSpan: 256, q: 1, span: 256, ok: true},
	{name: "zero weight", w: []float64{0, 1}, maxSpan: 256, ok: false},
	{name: "negative weight", w: []float64{-1, 1}, maxSpan: 256, ok: false},
	{name: "nan", w: []float64{1, math.NaN()}, maxSpan: 256, ok: false},
	{name: "inf", w: []float64{1, math.Inf(1)}, maxSpan: 256, ok: false},
	{name: "empty", w: nil, maxSpan: 256, ok: false},
	// 0.3 is not exactly representable; 3*0.3 != 0.9 in float64, but
	// QuantizeWeights only needs k*q to reproduce the stored bits, which
	// the construction below guarantees.
	{name: "decimal quantum", w: []float64{0.3, 2 * 0.3, 5 * 0.3}, maxSpan: 256, q: 0.3, span: 5, ok: true},
}

func TestQuantizeWeights(t *testing.T) {
	for _, tc := range quantizeCases {
		t.Run(tc.name, func(t *testing.T) {
			q, span, ok := QuantizeWeights(tc.w, tc.maxSpan)
			if ok != tc.ok {
				t.Fatalf("QuantizeWeights(%v) ok = %v, want %v", tc.w, ok, tc.ok)
			}
			if ok && (q != tc.q || span != tc.span) {
				t.Fatalf("QuantizeWeights(%v) = (%v, %d), want (%v, %d)", tc.w, q, span, tc.q, tc.span)
			}
		})
	}
}

// TestScanWeights requires ScanWeights to return and record the least
// weight, or NaN when any weight is NaN, on the quantize test's weight sets
// plus single weights, NaN first and last, zeros of either sign, +Inf and
// the float extremes.
func TestScanWeights(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	sets := [][]float64{{1}, {0.5}, {nan}, {nan, 1}, {1, 1, nan}, {0, 0}, {math.Copysign(0, -1)},
		{math.Copysign(0, -1), 0}, {inf}, {inf, inf}, {1, inf}, {2, 2, 2}, {2, 2, 3}, {3, 2, 2},
		{math.SmallestNonzeroFloat64}, {math.MaxFloat64, math.MaxFloat64}}
	for _, tc := range quantizeCases {
		sets = append(sets, tc.w)
	}
	for i, w := range sets {
		want := inf
		for _, wt := range w {
			if math.IsNaN(wt) || math.IsNaN(want) {
				want = nan
			} else {
				want = min(want, wt)
			}
		}
		s := &SSSPScratch{wSlot: w}
		got := s.ScanWeights()
		if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("set %d %v: ScanWeights returned %v, want %v", i, w, got, want)
		}
		if s.minW != got && !(math.IsNaN(got) && math.IsNaN(s.minW)) {
			t.Fatalf("set %d %v: ScanWeights returned %v but recorded %v", i, w, got, s.minW)
		}
	}
}

// TestTreeDialMatchesTree is the dial/heap cross-check: on randomized
// quantizable weights, TreeDial must reproduce Tree bit for bit — same
// distance bits, same predecessor edges, same extracted paths — for both
// full-tree builds and early-exit destination subsets.
func TestTreeDialMatchesTree(t *testing.T) {
	g := randomGraph(t, 21, 50, 260)
	csr := CompileIdentity(g).Hot()
	heap := NewSSSPScratch(csr)
	dial := NewSSSPScratch(csr)
	rng := rand.New(rand.NewSource(2))
	quanta := []float64{1, 0.25, 0.3, 1e-12}
	w := make([]float64, g.NumEdges())
	var bufH, bufD []EdgeID
	for trial := 0; trial < 200; trial++ {
		q := quanta[trial%len(quanta)]
		maxK := 1 + rng.Intn(MaxDialSpan)
		for i := range w {
			w[i] = float64(1+rng.Intn(maxK)) * q
		}
		w[0] = q // pin the minimum so the quantum detection recovers q itself
		qGot, span, ok := QuantizeWeights(w, MaxDialSpan)
		if !ok {
			t.Fatalf("trial %d: constructed weights did not quantize (q=%v maxK=%d)", trial, q, maxK)
		}
		if err := heap.SetWeights(w); err != nil {
			t.Fatal(err)
		}
		if err := dial.SetWeights(w); err != nil {
			t.Fatal(err)
		}
		src := NodeID(rng.Intn(g.NumNodes()))
		var dsts []NodeID
		if trial%3 == 0 {
			for v := 0; v < g.NumNodes(); v++ { // full tree
				if NodeID(v) != src {
					dsts = append(dsts, NodeID(v))
				}
			}
		} else {
			for i := 0; i < 4; i++ { // early exit
				if d := NodeID(rng.Intn(g.NumNodes())); d != src {
					dsts = append(dsts, d)
				}
			}
		}
		heap.Tree(src, dsts)
		dial.TreeDial(src, dsts, qGot, span)
		for _, dst := range dsts {
			bufH = bufH[:0]
			bufD = bufD[:0]
			ph, okH := heap.AppendPathTo(dst, bufH)
			pd, okD := dial.AppendPathTo(dst, bufD)
			if okH != okD {
				t.Fatalf("trial %d %d->%d: heap reachable=%v dial reachable=%v", trial, src, dst, okH, okD)
			}
			if !okH {
				continue
			}
			if !edgesEqual(ph, pd) {
				t.Fatalf("trial %d %d->%d: heap path %v vs dial path %v", trial, src, dst, ph, pd)
			}
			dh := heap.node[dst].dist
			dd := dial.node[dst].dist
			if math.Float64bits(dh) != math.Float64bits(dd) {
				t.Fatalf("trial %d %d->%d: heap dist %v vs dial dist %v (bits differ)", trial, src, dst, dh, dd)
			}
		}
	}
}

// TestTreeDialInterleaved alternates TreeDial's level queue on uniform
// weights with the heap Tree on non-uniform ones, all early-exiting, on one
// scratch: labels and queue state left by either search must not leak into
// the next. Every third trial passes TreeDial a span above 1, which must
// run Tree.
func TestTreeDialInterleaved(t *testing.T) {
	g := randomGraph(t, 22, 30, 150)
	csr := CompileIdentity(g).Hot()
	scr := NewSSSPScratch(csr)
	ref := NewSSSPScratch(csr)
	w := make([]float64, g.NumEdges())
	rng := rand.New(rand.NewSource(3))
	var bufA, bufB []EdgeID
	for trial := 0; trial < 90; trial++ {
		mode := trial % 3 // 0: uniform TreeDial, 1: Tree, 2: TreeDial span 9
		for i := range w {
			if mode == 0 {
				w[i] = 0.5
			} else {
				w[i] = float64(1 + rng.Intn(9))
			}
		}
		if err := scr.SetWeights(w); err != nil {
			t.Fatal(err)
		}
		if err := ref.SetWeights(w); err != nil {
			t.Fatal(err)
		}
		src := NodeID(rng.Intn(g.NumNodes()))
		var dsts []NodeID
		for i := 0; i < 1+rng.Intn(3); i++ {
			if d := NodeID(rng.Intn(g.NumNodes())); d != src {
				dsts = append(dsts, d)
			}
		}
		switch mode {
		case 0:
			q, span, ok := QuantizeWeights(w, MaxDialSpan)
			if !ok || q != 0.5 || span != 1 {
				t.Fatalf("trial %d: uniform weights quantize to (%v, %d, %v)", trial, q, span, ok)
			}
			scr.TreeDial(src, dsts, q, span)
		case 1:
			scr.Tree(src, dsts)
		default:
			scr.TreeDial(src, dsts, 1, 9)
		}
		ref.Tree(src, dsts)
		for _, dst := range dsts {
			bufA = bufA[:0]
			bufB = bufB[:0]
			pa, okA := scr.AppendPathTo(dst, bufA)
			pb, okB := ref.AppendPathTo(dst, bufB)
			if okA != okB || !edgesEqual(pa, pb) {
				t.Fatalf("trial %d %d->%d: interleaved %v (%v) vs reference %v (%v)", trial, src, dst, pa, okA, pb, okB)
			}
			if okA && math.Float64bits(scr.Dist(dst)) != math.Float64bits(ref.Dist(dst)) {
				t.Fatalf("trial %d %d->%d: interleaved dist %v vs reference %v", trial, src, dst, scr.Dist(dst), ref.Dist(dst))
			}
		}
	}
}

// TestShareWeights covers the zero-copy weight aliasing used by the
// parallel oracle: a sharing scratch reads the canonical buffer, and
// ReleaseScratch severs the alias so pooled scratch never leaks a foreign
// buffer to its next borrower.
func TestShareWeights(t *testing.T) {
	g := randomGraph(t, 23, 12, 40)
	c := Compile(g)
	// The canonical scratch must live on the same (hot) view as the pooled
	// per-worker scratches, exactly as the oracle builds it.
	canon := NewSSSPScratch(c.Hot())
	w := canon.SlotWeights()
	for i := range w {
		w[i] = float64(i%3) + 1
	}
	s := c.AcquireScratch()
	s.ShareWeightsFrom(canon)
	sw := s.SlotWeights()
	for i := range sw {
		if sw[i] != w[i] {
			t.Fatalf("slot %d: shared weight %v, want %v", i, sw[i], w[i])
		}
	}
	// Writes to the canonical buffer are visible through the alias.
	w[0] = 42
	if s.SlotWeights()[0] != 42 {
		t.Fatal("shared scratch did not observe canonical weight update")
	}
	c.ReleaseScratch(s)
	s2 := c.AcquireScratch()
	defer c.ReleaseScratch(s2)
	if &s2.SlotWeights()[0] == &w[0] {
		t.Fatal("pooled scratch still aliases the canonical buffer after release")
	}
}
