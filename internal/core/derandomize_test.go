package core

import (
	"math"
	"testing"

	"dcnflow/internal/flow"
	"dcnflow/internal/graph"
	"dcnflow/internal/mcfsolve"
	"dcnflow/internal/power"
	"dcnflow/internal/schedule"
	"dcnflow/internal/timeline"
)

// roundingCase is a small rounding instance read from fuzz bytes.
type roundingCase struct {
	flows    []flow.Flow
	cands    map[flow.ID][]candidate
	interner *graph.PathInterner
	rel      *relaxation
	m        power.Model
	horizon  timeline.Interval
}

// decodeRoundingCase reads up to 6 flows from raw, 4 bytes each plus one
// per candidate: a release in [0, 4), a span of 1 to 4, a density, and 1
// to 3 candidates, each a non-empty subset of 6 edges with a weight. mode
// picks alpha 2 or 3 and sigma 0 or 1.
func decodeRoundingCase(mode uint8, raw []byte) *roundingCase {
	rc := &roundingCase{
		cands:    make(map[flow.ID][]candidate),
		interner: graph.NewPathInterner(),
		m:        power.Model{Mu: 1, Alpha: float64(2 + mode&1), Sigma: float64(mode >> 1 & 1)},
	}
	for len(rc.flows) < 6 && len(raw) >= 4 {
		release := float64(raw[0] % 4)
		f := flow.Flow{
			ID: flow.ID(len(rc.flows)), Src: 0, Dst: 1,
			Release: release, Deadline: release + 1 + float64(raw[1]%4),
		}
		f.Size = (0.25 + float64(raw[2]%8)/4) * f.Span()
		n := 1 + int(raw[3]%3)
		raw = raw[4:]
		var list []candidate
		for c := 0; c < n && len(raw) > 0; c++ {
			set := raw[0]%63 + 1
			raw = raw[1:]
			var edges []graph.EdgeID
			for e := 0; e < 6; e++ {
				if set>>e&1 == 1 {
					edges = append(edges, graph.EdgeID(e))
				}
			}
			list = append(list, candidate{handle: rc.interner.Intern(edges), weight: float64(1 + set%5)})
		}
		if len(list) == 0 {
			break
		}
		rc.cands[f.ID] = list
		rc.flows = append(rc.flows, f)
	}
	if len(rc.flows) == 0 {
		return nil
	}
	var times []float64
	t0, t1 := math.Inf(1), math.Inf(-1)
	for _, f := range rc.flows {
		times = append(times, f.Release, f.Deadline)
		t0, t1 = min(t0, f.Release), max(t1, f.Deadline)
	}
	rc.horizon = timeline.Interval{Start: t0, End: t1}
	rc.rel = &relaxation{intervals: timeline.Decompose(timeline.Breakpoints(times))}
	rc.rel.comms = make([][]mcfsolve.Commodity, len(rc.rel.intervals))
	for k, iv := range rc.rel.intervals {
		for _, f := range rc.flows {
			if f.Release <= iv.Start+timeline.Eps && f.Deadline >= iv.End-timeline.Eps {
				rc.rel.comms[k] = append(rc.rel.comms[k], mcfsolve.Commodity{ID: f.ID, Demand: f.Density()})
			}
		}
	}
	return rc
}

// expected returns the expected EnergyTotal of the rounding's current
// state.
func (r *rounding) expected() float64 {
	var e float64
	for l, lk := range r.links {
		for k := lk.lo; k < lk.hi; k++ {
			m := r.moments(lk.base + k - lk.lo)
			e += r.ivLen[k] * r.m.Mu * m[r.order]
		}
		e += r.idle * (1 - r.unused(int32(l)))
	}
	return e
}

// bruteExpected is the probability-weighted mean of EnergyTotal over every
// assignment of the flows from fixed on, each flow drawn from its
// candidates' weights; the flows before fixed take pick's candidates.
func (rc *roundingCase) bruteExpected(t *testing.T, pick []int, fixed int) float64 {
	t.Helper()
	choice := append([]int(nil), pick...)
	var walk func(i int, p float64) float64
	walk = func(i int, p float64) float64 {
		if i == len(rc.flows) {
			sched := schedule.New(rc.horizon)
			for j, f := range rc.flows {
				err := sched.SetFlow(&schedule.FlowSchedule{
					FlowID: f.ID,
					Path:   rc.interner.Path(rc.cands[f.ID][choice[j]].handle),
					Segments: []schedule.RateSegment{{
						Interval: timeline.Interval{Start: f.Release, End: f.Deadline}, Rate: f.Density(),
					}},
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			return p * sched.EnergyTotal(rc.m)
		}
		if i < fixed {
			return walk(i+1, p)
		}
		list := rc.cands[rc.flows[i].ID]
		var total, sum float64
		for _, c := range list {
			total += c.weight
		}
		for ci, c := range list {
			choice[i] = ci
			sum += walk(i+1, p*c.weight/total)
		}
		return sum
	}
	return walk(0, 1)
}

// FuzzRoundingEstimator compares the rounding's expected energy with brute
// force, the probability-weighted mean of EnergyTotal over every
// assignment, before any flow is fixed and after each fix; the
// expectation must never rise from one fix to the next.
func FuzzRoundingEstimator(f *testing.F) {
	f.Add(uint8(0), []byte{0, 3, 4, 2, 7, 56, 1, 1, 2, 1, 7, 14})
	f.Add(uint8(1), []byte{0, 0, 1, 2, 9, 18, 36, 1, 2, 3, 1, 9, 36, 2, 1, 5, 0, 27})
	f.Add(uint8(2), []byte{1, 2, 6, 1, 3, 12, 0, 3, 2, 2, 3, 5, 3, 0, 7, 0, 62})
	f.Add(uint8(2), []byte("000210000000"))
	f.Add(uint8(3), []byte{0, 3, 7, 2, 1, 2, 4, 0, 3, 7, 2, 1, 2, 4, 1, 1, 3, 1, 33, 1, 2, 0, 2, 6, 24, 0, 1, 5, 2, 48, 3, 3, 4, 2, 17, 34, 2, 0, 1, 0, 63})
	f.Fuzz(func(t *testing.T, mode uint8, raw []byte) {
		rc := decodeRoundingCase(mode, raw)
		if rc == nil {
			return
		}
		near := func(got, want float64) bool {
			return math.Abs(got-want) <= 1e-9*max(math.Abs(want), 1)
		}
		r := newRounding(rc.flows, rc.cands, rc.interner, rc.rel, rc.m, rc.horizon.Length())
		pick := make([]int, len(rc.flows))
		prev := r.expected()
		if want := rc.bruteExpected(t, pick, 0); !near(prev, want) {
			t.Fatalf("alpha %v sigma %v: expected energy %v, brute force %v", rc.m.Alpha, rc.m.Sigma, prev, want)
		}
		for i := range rc.flows {
			pick[i] = r.fix(i)
			got := r.expected()
			if want := rc.bruteExpected(t, pick, i+1); !near(got, want) {
				t.Fatalf("alpha %v sigma %v, %d flows fixed: expected energy %v, brute force %v", rc.m.Alpha, rc.m.Sigma, i+1, got, want)
			}
			if got > prev+1e-9*max(math.Abs(prev), 1) {
				t.Fatalf("alpha %v sigma %v: fixing flow %d raised the expectation from %v to %v", rc.m.Alpha, rc.m.Sigma, i, prev, got)
			}
			prev = got
		}
	})
}
