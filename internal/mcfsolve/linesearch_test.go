package mcfsolve

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dcnflow/internal/graph"
	"dcnflow/internal/power"
	"dcnflow/internal/topology"
)

// refBisect is the line search's bisection as it was before the filter:
// phi' at both ends, then 50 bisection steps, each evaluating phi' at its
// mid (52 evaluations in all). The body is that code verbatim, with the
// Solver's cost model passed in.
func refBisect(cost *costModel, support []supportEdge, penActive bool) float64 {
	// With the penalty inactive on the whole segment, a lin probe drops its
	// term: every probe point lies between base + x and base + xHat, hence
	// at most c, up to one ulp of rounding that the generic deriv would
	// still charge.
	lin, dK, pen, capC := cost.lin, cost.dK, cost.pen, cost.c
	if !penActive {
		capC = math.Inf(1)
	}
	phiDeriv := func(gamma float64) float64 {
		var d float64
		g1 := 1 - gamma
		for i := range support {
			e := &support[i]
			w := e.base + (g1*e.x + gamma*e.xHat)
			var dv float64
			if lin {
				dv = linDeriv(w, dK, pen, capC)
			} else {
				dv = cost.deriv(w)
			}
			d += dv * e.dx
		}
		return d
	}
	phi0 := phiDeriv(0)
	if phi0 >= 0 {
		return 0
	}
	phi1 := phiDeriv(1)
	if phi1 <= 0 {
		return 1
	}
	lo, hi := 0.0, 1.0
	for i := 0; i < 50; i++ {
		mid := (lo + hi) / 2
		if phiDeriv(mid) < 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// appendEdge appends one support edge and reports whether the capacity
// penalty of cm is active on it, as lineSearch gathers the support. Edges
// with x == xHat are not part of a support and are dropped.
func appendEdge(support []supportEdge, cm *costModel, base, x, xHat float64) ([]supportEdge, bool) {
	if x == xHat {
		return support, false
	}
	pen := base+x > cm.c || base+xHat > cm.c
	return append(support, supportEdge{x: x, xHat: xHat, base: base, dx: xHat - x}), pen
}

// adversarialSupport draws one support of family fam with about n edges:
// inputs where the sign of phi' at a probe is decided by rounding, or where
// the rounding bound itself is stretched.
func adversarialSupport(rng *rand.Rand, cm *costModel, fam, n int) (support []supportEdge, penActive bool) {
	add := func(base, x, xHat float64) {
		var p bool
		support, p = appendEdge(support, cm, base, x, xHat)
		penActive = penActive || p
	}
	flowVal := func(scale float64) float64 {
		if rng.Intn(3) == 0 {
			return 0
		}
		return scale * rng.Float64()
	}
	switch fam {
	case 0: // Frank–Wolfe-like: flows shifting onto and off oracle paths.
		for i := 0; i < n; i++ {
			add(flowVal(3), flowVal(2), flowVal(2))
		}
	case 1: // Pairs whose phi' vanishes at a dyadic gamma = j/2^m, a mid the
		// bisection probes: each pair moves p off one edge onto another
		// whose base is higher by p(2r-1), in exact arithmetic.
		m := 1 + rng.Intn(10)
		r := float64(1+2*rng.Intn(1<<(m-1))) / float64(uint(1)<<m)
		for i := 0; i < n/2+1; i++ {
			p := math.Ldexp(1+rng.Float64(), rng.Intn(20)-10)
			if rng.Intn(2) == 0 {
				p = math.Ldexp(float64(1+rng.Intn(1<<20)), -rng.Intn(30))
			}
			b1 := flowVal(4)
			if 2*r-1 < 0 {
				b1 += p * (1 - 2*r)
			}
			add(b1, 0, p)
			add(b1+p*(2*r-1), p, 0)
		}
	case 2: // Mirror pairs: x and xHat swapped on equal bases, root at 1/2.
		for i := 0; i < n/2+1; i++ {
			b, p, q := flowVal(3), flowVal(2), flowVal(2)
			add(b, p, q)
			add(b, q, p)
		}
	case 3: // Base far above |dx|: a and phi' cancel heavily.
		for i := 0; i < n; i++ {
			add(math.Ldexp(1+rng.Float64(), 20+rng.Intn(20)), flowVal(1e-3), flowVal(1e-3))
		}
	case 4: // Tiny flows near 1e-300 beside normal ones: products round to
		// subnormals.
		for i := 0; i < n; i++ {
			if rng.Intn(4) == 0 {
				add(flowVal(1), flowVal(1), flowVal(1))
			} else {
				add(flowVal(1e-300), flowVal(1e-300), flowVal(1e-300))
			}
		}
	case 5: // Huge values near 1e150, with some small edges.
		for i := 0; i < n; i++ {
			if rng.Intn(4) == 0 {
				add(flowVal(1), flowVal(1), flowVal(1))
			} else {
				add(flowVal(1e150), flowVal(1e150), flowVal(1e150))
			}
		}
	default: // Small negative bases: a cancelled reservation's residue.
		for i := 0; i < n; i++ {
			b := flowVal(3)
			if rng.Intn(4) == 0 {
				b = -1e-15 * rng.Float64()
			}
			add(b, flowVal(2), flowVal(2))
		}
	}
	return support, penActive
}

const adversarialFamilies = 7

// kernelSolver builds a Solver whose cost model the line-search tests use.
func kernelSolver(t testing.TB, m power.Model, cost CostKind) *Solver {
	t.Helper()
	ft, err := topology.FatTree(4, 100)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSolverCompiled(graph.Compile(ft.Graph), m, Options{Cost: cost})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// sameGamma reports a mismatch between the filtered and the plain search.
func sameGamma(s *Solver, support []supportEdge, penActive bool) (got, want float64, probes int, ok bool) {
	want = refBisect(&s.cost, support, penActive)
	got, probes = s.bisect(support, penActive)
	return got, want, probes, math.Float64bits(got) == math.Float64bits(want)
}

// recordSearches runs n solves of the given shape through the reference
// kernel and returns every line search's support.
func recordSearches(t *testing.T, g *graph.Graph, opts Options, n int, draw func() ([]Commodity, []float64)) []recordedSearch {
	t.Helper()
	ref, err := newRefSolver(g, power.Model{Mu: 1, Alpha: 2, C: 1e12}, opts)
	if err != nil {
		t.Fatal(err)
	}
	ref.record = true
	for i := 0; i < n; i++ {
		comms, base := draw()
		if _, err := ref.SolveBaseWarmCtx(context.Background(), comms, base, WarmStart{}); err != nil {
			t.Fatal(err)
		}
	}
	return ref.recorded
}

// reservationBase is a background load shaped like the reservations of the
// flows in flight during a rolling delta epoch: n random host pairs, each
// reserving a density on one shortest path.
func reservationBase(t *testing.T, rng *rand.Rand, g *graph.Graph, hosts []graph.NodeID, n int) []float64 {
	t.Helper()
	base := make([]float64, g.NumEdges())
	for i := 0; i < n; i++ {
		src, dst := hosts[rng.Intn(len(hosts))], hosts[rng.Intn(len(hosts))]
		if src == dst {
			continue
		}
		p, err := g.ShortestPath(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		d := 0.05 + 0.5*rng.Float64()
		for _, eid := range p.Edges {
			base[eid] += d
		}
	}
	return base
}

// TestLineSearchMatchesBisection pins the filtered bisection to the plain
// one: on random and adversarial supports (dyadic roots, mirror pairs,
// base far above |dx|, values near 1e-300 and 1e150, small negative bases,
// 1 to 4096 edges, capped models with the penalty on and off, and models
// the filter does not apply to), gamma must match bit for bit. On the
// supports of real solves shaped like the paper-k8 and online-delta
// benchmark workloads it must also match, and a bisecting search must
// average at most 16 phi' evaluations (the plain bisection takes 52).
func TestLineSearchMatchesBisection(t *testing.T) {
	models := []struct {
		name string
		s    *Solver
	}{
		{"a2", kernelSolver(t, power.Model{Mu: 1, Alpha: 2}, CostEnvelope)},
		{"a2-mu", kernelSolver(t, power.Model{Mu: 0.37, Alpha: 2}, CostDynamic)},
		{"a2-capped", kernelSolver(t, power.Model{Mu: 1, Alpha: 2, C: 4}, CostEnvelope)},
		{"a2-kink", kernelSolver(t, power.Model{Sigma: 2, Mu: 1, Alpha: 2}, CostEnvelope)},
		{"a3", kernelSolver(t, power.Model{Mu: 0.5, Alpha: 3}, CostDynamic)},
	}
	sizes := []int{1, 2, 3, 4, 8, 16, 64, 256, 1024, 4096}
	rng := rand.New(rand.NewSource(18))
	var filtered, penOn, penOff int
	for _, md := range models {
		for fam := 0; fam < adversarialFamilies; fam++ {
			for rep := 0; rep < 60; rep++ {
				// Mostly up to 256 edges; every 20th support has 1024
				// or 4096.
				n := sizes[rng.Intn(len(sizes)-2)]
				if rep%20 == 0 {
					n = sizes[len(sizes)-2+rep/20%2]
				}
				support, penActive := adversarialSupport(rng, &md.s.cost, fam, n)
				if len(support) == 0 {
					continue
				}
				if got, want, probes, ok := sameGamma(md.s, support, penActive); !ok {
					t.Fatalf("%s family %d, %d edges, penalty %v: gamma %v (%d probes), plain bisection %v",
						md.name, fam, len(support), penActive, got, probes, want)
				} else if probes < 52 && 0 < want && want < 1 {
					filtered++
				}
				if md.name == "a2-capped" {
					if penActive {
						penOn++
					} else {
						penOff++
					}
				}
			}
		}
	}
	if filtered == 0 || penOn == 0 || penOff == 0 {
		t.Fatalf("coverage: %d filtered searches, capped penalty on in %d and off in %d", filtered, penOn, penOff)
	}

	// Supports of real solves on the benchmark shapes.
	ft, err := topology.FatTree(8, 1e12)
	if err != nil {
		t.Fatal(err)
	}
	g := ft.Graph
	shapes := []struct {
		name     string
		searches []recordedSearch
	}{
		{"paper-k8", recordSearches(t, g, Options{MaxIters: 60}, 4, func() ([]Commodity, []float64) {
			return randomCommodities(rng, ft.Hosts, 5+rng.Intn(30)), nil
		})},
		{"online-delta", recordSearches(t, g, Options{MaxIters: 30}, 24, func() ([]Commodity, []float64) {
			return randomCommodities(rng, ft.Hosts, 1+rng.Intn(2)), reservationBase(t, rng, g, ft.Hosts, 20)
		})},
	}
	s := kernelSolver(t, power.Model{Mu: 1, Alpha: 2, C: 1e12}, CostEnvelope)
	for _, sh := range shapes {
		var bisecting, probes int
		for i, rec := range sh.searches {
			got, want, n, ok := sameGamma(s, rec.support, rec.penActive)
			if !ok {
				t.Fatalf("%s search %d: gamma %v, plain bisection %v", sh.name, i, got, want)
			}
			if 0 < want && want < 1 {
				bisecting++
				probes += n
			}
		}
		if bisecting < 50 {
			t.Fatalf("%s: only %d bisecting searches", sh.name, bisecting)
		}
		mean := float64(probes) / float64(bisecting)
		t.Logf("%s: %d bisecting searches, %.1f phi' evaluations each", sh.name, bisecting, mean)
		if mean > 16 {
			t.Fatalf("%s: %.1f phi' evaluations per bisecting search, want at most 16", sh.name, mean)
		}
	}
}

// FuzzLineSearchFilter compares the filtered and the plain bisection on
// small supports read from raw float bits: 24 bytes per edge (base, x and
// xHat; x and xHat lose their sign bit, as flows are never negative), for
// one of three alpha=2 models picked by the first argument.
func FuzzLineSearchFilter(f *testing.F) {
	edge := func(base, x, xHat float64) []byte {
		var b [24]byte
		binary.LittleEndian.PutUint64(b[0:], math.Float64bits(base))
		binary.LittleEndian.PutUint64(b[8:], math.Float64bits(x))
		binary.LittleEndian.PutUint64(b[16:], math.Float64bits(xHat))
		return b[:]
	}
	join := func(parts ...[]byte) []byte {
		var out []byte
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	f.Add(uint8(0), join(edge(0, 0, 1), edge(0, 1, 0)))
	f.Add(uint8(0), join(edge(0.5, 0, 1), edge(0, 1, 0)))
	f.Add(uint8(1), join(edge(1e12, 0, 1e-3), edge(1e12, 2e-3, 0), edge(3, 1, 2)))
	f.Add(uint8(2), join(edge(3.5, 0, 1), edge(0, 2, 0), edge(-1e-16, 0, 0.5)))
	f.Add(uint8(0), join(edge(0, 1e-300, 0), edge(1, 0, 1), edge(1e150, 1e150, 0)))
	solvers := []*Solver{
		kernelSolver(f, power.Model{Mu: 1, Alpha: 2}, CostEnvelope),
		kernelSolver(f, power.Model{Mu: 0.37, Alpha: 2}, CostDynamic),
		kernelSolver(f, power.Model{Mu: 1, Alpha: 2, C: 4}, CostEnvelope),
	}
	f.Fuzz(func(t *testing.T, model uint8, raw []byte) {
		s := solvers[int(model)%len(solvers)]
		var support []supportEdge
		penActive := false
		for ; len(raw) >= 24 && len(support) < 16; raw = raw[24:] {
			base := math.Float64frombits(binary.LittleEndian.Uint64(raw[0:]))
			x := math.Abs(math.Float64frombits(binary.LittleEndian.Uint64(raw[8:])))
			xHat := math.Abs(math.Float64frombits(binary.LittleEndian.Uint64(raw[16:])))
			var p bool
			support, p = appendEdge(support, &s.cost, base, x, xHat)
			penActive = penActive || p
		}
		if len(support) == 0 {
			return
		}
		if got, want, _, ok := sameGamma(s, support, penActive); !ok {
			t.Fatalf("support %s, penalty %v: gamma %v, plain bisection %v", fmt.Sprint(support), penActive, got, want)
		}
	})
}
