package core

import (
	"math"

	"dcnflow/internal/flow"
	"dcnflow/internal/graph"
	"dcnflow/internal/power"
)

// maxExactAlpha is the largest alpha the rounding derandomizes: for an
// integer alpha up to it the expected energy is exact, from the raw
// moments 0..alpha of every link load. Other alphas keep the paper's
// seeded random draws.
const maxExactAlpha = 8

// derandomizable reports whether derandomize can round under alpha.
func derandomizable(alpha float64) bool {
	return alpha == math.Trunc(alpha) && alpha <= maxExactAlpha
}

// derandomize rounds the relaxation by the method of conditional
// expectations (Raghavan, JCSS 1988): taking the flows in id order, it
// fixes each to the candidate that minimises the expected EnergyTotal of
// the schedule while every unfixed flow is still drawn from its
// aggregated candidate weights, as the paper's random rounding draws it.
// The expectation never rises from one flow to the next, so the
// assignment's energy is at most the expected energy of the random
// rounding. m.Alpha must be derandomizable; flows[i] must have id i, as a
// flow.Set's flows do, and candidates. The result is one path per flow,
// in that order.
func derandomize(flows []flow.Flow, cands map[flow.ID][]candidate, interner *graph.PathInterner, rel *relaxation, m power.Model, horizon float64) []graph.PathHandle {
	r := newRounding(flows, cands, interner, rel, m, horizon)
	pick := make([]graph.PathHandle, len(flows))
	for i, f := range flows {
		pick[i] = cands[f.ID][r.fix(i)].handle
	}
	return pick
}

// rounding is the state of derandomize. A cell is one (link, interval)
// pair. A flow is active over a contiguous run of intervals, so each link
// that some candidate uses gets the cells of one window, from the first
// interval of a flow that may use it to the last, and a flow's cells on a
// link are contiguous within it: the tables grow with the candidates, not
// with the fabric, and need no map.
//
// A cell holds the raw moments E[L^0..L^alpha] of its load L, a sum of
// independent terms: D_j for a fixed flow j on the link, and
// D_j * Bernoulli(q_j) for an unfixed one, q_j the probability that its
// draw uses the link. A link's idle power is paid over the whole horizon
// when any flow uses it at all, so each link keeps the probability that no
// flow does, as a product of (1 - q_j) over the flows that may, with the
// factors that are zero (flows certain to use it) counted apart.
type rounding struct {
	m     power.Model
	order int         // highest moment kept: alpha
	binom [][]float64 // binom[k][i] = C(k, i)
	idle  float64     // sigma * horizon: the idle energy of a link in use
	ivLen []float64   // per interval of the relaxation

	links []roundLink
	mom   []float64 // per cell, order+1 moments
	zeros []int32   // per link: the flows certain to use it
	prod  []float64 // per link: product of 1 - q over the others that may

	flows []roundFlow
	w     []float64 // fix's per-edge scratch
}

// roundLink is one link's window of cells: intervals lo to hi - 1, their
// cells from base on.
type roundLink struct{ lo, hi, base int }

// roundFlow is one flow's part of the rounding state.
type roundFlow struct {
	pow    []float64 // density^s for s = 0..order
	lo, hi int       // the flow's intervals, lo to hi - 1
	link   []int32   // link of each distinct edge of the flow's candidates
	q      []float64 // probability that the flow's draw uses each of them
	cands  [][]int32 // per candidate, its indices into link
}

func newRounding(flows []flow.Flow, cands map[flow.ID][]candidate, interner *graph.PathInterner, rel *relaxation, m power.Model, horizon float64) *rounding {
	r := &rounding{m: m, order: int(m.Alpha), idle: m.Sigma * horizon}
	r.binom = make([][]float64, r.order+1)
	for k := range r.binom {
		r.binom[k] = make([]float64, k+1)
		r.binom[k][0], r.binom[k][k] = 1, 1
		for i := 1; i < k; i++ {
			r.binom[k][i] = r.binom[k-1][i-1] + r.binom[k-1][i]
		}
	}
	r.ivLen = make([]float64, len(rel.intervals))
	for k, iv := range rel.intervals {
		r.ivLen[k] = iv.Length()
	}
	r.flows = make([]roundFlow, len(flows))
	for i := range r.flows {
		r.flows[i].lo = -1
	}
	for k, cs := range rel.comms {
		for _, c := range cs {
			rf := &r.flows[c.ID]
			if rf.lo < 0 {
				rf.lo = k
			}
			rf.hi = k + 1
		}
	}

	linkOf := make(map[graph.EdgeID]int32)
	local := make(map[graph.EdgeID]int32)
	width := r.order + 1
	for fi, f := range flows {
		rf := &r.flows[fi]
		rf.pow = make([]float64, width)
		rf.pow[0] = 1
		for s := 1; s < width; s++ {
			rf.pow[s] = rf.pow[s-1] * f.Density()
		}
		list := cands[f.ID]
		var total float64
		for _, c := range list {
			total += c.weight
		}
		clear(local)
		rf.cands = make([][]int32, len(list))
		for ci, c := range list {
			p := c.weight / total
			for _, e := range interner.Edges(c.handle) {
				i, ok := local[e]
				if !ok {
					l, seen := linkOf[e]
					if !seen {
						l = int32(len(r.links))
						linkOf[e] = l
						r.links = append(r.links, roundLink{lo: rf.lo, hi: rf.hi})
					}
					i = int32(len(rf.link))
					local[e] = i
					rf.link = append(rf.link, l)
					rf.q = append(rf.q, 0)
					lk := &r.links[l]
					lk.lo, lk.hi = min(lk.lo, rf.lo), max(lk.hi, rf.hi)
				}
				rf.q[i] += p
				rf.cands[ci] = append(rf.cands[ci], i)
			}
		}
	}
	cells := 0
	for l := range r.links {
		r.links[l].base = cells
		cells += r.links[l].hi - r.links[l].lo
	}
	r.mom = make([]float64, cells*width)
	for c := 0; c < cells; c++ {
		r.mom[c*width] = 1 // E[L^0]
	}
	r.zeros = make([]int32, len(r.links))
	r.prod = make([]float64, len(r.links))
	for l := range r.prod {
		r.prod[l] = 1
	}
	for fi := range r.flows {
		rf := &r.flows[fi]
		for i, l := range rf.link {
			r.addFactor(l, rf.q[i])
			lo, hi := r.cells(l, rf)
			for c := lo; c < hi; c++ {
				r.add(c, rf.pow, rf.q[i])
			}
		}
	}
	return r
}

// cells returns flow f's cells on link l, lo to hi - 1.
func (r *rounding) cells(l int32, f *roundFlow) (lo, hi int) {
	lk := &r.links[l]
	return lk.base + f.lo - lk.lo, lk.base + f.hi - lk.lo
}

// moments returns cell c's moments.
func (r *rounding) moments(c int) []float64 {
	w := r.order + 1
	return r.mom[c*w : (c+1)*w]
}

// add adds an independent term D * Bernoulli(q) to cell c's load (D^s =
// pow[s]; q = 1 adds D itself): E[(L+X)^k] = sum_i C(k,i) E[L^i] E[X^(k-i)],
// with E[X^s] = q D^s for s >= 1, updated from the top moment down so
// every update reads the old lower moments.
func (r *rounding) add(c int, pow []float64, q float64) {
	m := r.moments(c)
	for k := r.order; k >= 1; k-- {
		var s float64
		for i := 0; i < k; i++ {
			s += r.binom[k][i] * m[i] * pow[k-i]
		}
		m[k] += q * s
	}
}

// remove undoes add, from the bottom moment up, so every update reads the
// lower moments already restored.
func (r *rounding) remove(c int, pow []float64, q float64) {
	m := r.moments(c)
	for k := 1; k <= r.order; k++ {
		var s float64
		for i := 0; i < k; i++ {
			s += r.binom[k][i] * m[i] * pow[k-i]
		}
		m[k] -= q * s
	}
}

// delta returns how much putting D (D^s = pow[s]) on cell c raises its
// expected dynamic power.
func (r *rounding) delta(c int, pow []float64) float64 {
	m := r.moments(c)
	a := r.order
	var s float64
	for i := 0; i < a; i++ {
		s += r.binom[a][i] * m[i] * pow[a-i]
	}
	return r.m.Mu * s
}

// addFactor and removeFactor multiply link l's probability of staying
// unused by 1 - q, and divide it back out.
func (r *rounding) addFactor(l int32, q float64) {
	if f := 1 - q; f == 0 {
		r.zeros[l]++
	} else {
		r.prod[l] *= f
	}
}

func (r *rounding) removeFactor(l int32, q float64) {
	if f := 1 - q; f == 0 {
		r.zeros[l]--
	} else {
		r.prod[l] /= f
	}
}

// unused returns the probability that no flow uses link l.
func (r *rounding) unused(l int32) float64 {
	if r.zeros[l] > 0 {
		return 0
	}
	return r.prod[l]
}

// fix fixes flow fi to the candidate of least expected energy and returns
// its index; ties go to the earlier candidate, the heavier one.
func (r *rounding) fix(fi int) int {
	f := &r.flows[fi]
	if len(f.cands) == 1 {
		return 0 // its draw is certain already
	}
	// Taking edge i changes the expected energy by w[i] against leaving it:
	// the flow's load on each of its cells, and the link's idle power over
	// the horizon, which it would otherwise pay only when another flow
	// uses the link.
	w := r.w[:0]
	for i, l := range f.link {
		lo, hi := r.cells(l, f)
		r.removeFactor(l, f.q[i])
		for c := lo; c < hi; c++ {
			r.remove(c, f.pow, f.q[i])
		}
		var dyn float64
		for c, k := lo, f.lo; c < hi; c, k = c+1, k+1 {
			dyn += r.ivLen[k] * r.delta(c, f.pow)
		}
		w = append(w, dyn+r.idle*r.unused(l))
	}
	r.w = w
	best, bestCost := 0, math.Inf(1)
	for ci, idx := range f.cands {
		var cost float64
		for _, i := range idx {
			cost += w[i]
		}
		if cost < bestCost {
			best, bestCost = ci, cost
		}
	}
	for _, i := range f.cands[best] {
		l := f.link[i]
		r.zeros[l]++
		lo, hi := r.cells(l, f)
		for c := lo; c < hi; c++ {
			r.add(c, f.pow, 1)
		}
	}
	return best
}
