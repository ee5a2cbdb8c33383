package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0 <= q <= 1) of xs, interpolating
// linearly between the two nearest ranks. +Inf samples (failed requests,
// which miss every latency limit) sort last; a quantile that reaches one is
// +Inf. It returns NaN for an empty sample.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if frac == 0 || lo+1 >= len(s) {
		return s[lo]
	}
	if math.IsInf(s[lo+1], 1) {
		return math.Inf(1)
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartiles returns the first, second and third quartiles of xs by the
// rule of Python's statistics.quantiles(xs, n=4) (its default "exclusive"
// method), so a spread computed here matches one computed from the same
// values with that function. It needs at least two samples.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0], s[0]
		}
		return math.NaN(), math.NaN(), math.NaN()
	}
	const n = 4
	m := ld + 1
	var out [n - 1]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		j = max(1, min(j, ld-1))
		delta := i*m - j*n
		out[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2]
}

// Verdicts of an A/B comparison of one metric on one workload.
const (
	verdictImproved   = "improved"
	verdictWithin     = "within bound"
	verdictUnresolved = "unresolved"
	verdictRegressed  = "regressed"
)

// judgement is the outcome of comparing paired runs of a parent and a
// change on one metric.
type judgement struct {
	verdict string
	// wins counts the pairs the change won; ties count for neither side.
	wins, pairs int
	// worse is how much worse the change's median is than the parent's,
	// as a share of the parent's median (negative when better).
	worse float64
	// spread is the parent's interquartile range as a share of its median.
	spread float64
}

// judge compares paired samples (parent[i] and change[i] ran as pair i) of
// one metric whose bound is the share of the parent's median by which it
// may worsen. The rules:
//
//   - improved: the change wins at least 9 in 10 pairs and its median beats
//     the parent's by more than the parent's interquartile range;
//   - regressed: the change's median is worse than the parent's by more
//     than the bound;
//   - unresolved: neither, and the parent's own interquartile range is
//     wider than the bound, unless every change run beats every parent run;
//   - within bound: otherwise.
func judge(parent, change []float64, higherBetter bool, bound float64) judgement {
	better := func(c, p float64) bool {
		if higherBetter {
			return c > p
		}
		return c < p
	}
	j := judgement{pairs: min(len(parent), len(change))}
	for i := 0; i < j.pairs; i++ {
		if better(change[i], parent[i]) {
			j.wins++
		}
	}
	q1, mp, q3 := quartiles(parent)
	mc := median(change)
	iqr := q3 - q1
	j.spread = iqr / math.Abs(mp)
	j.worse = (mc - mp) / math.Abs(mp)
	if higherBetter {
		j.worse = -j.worse
	}
	allBetter := true
	for _, c := range change {
		for _, p := range parent {
			allBetter = allBetter && better(c, p)
		}
	}
	switch {
	case j.pairs > 0 && j.wins*10 >= 9*j.pairs && better(mc, mp) && math.Abs(mc-mp) > iqr:
		j.verdict = verdictImproved
	case j.worse > bound:
		j.verdict = verdictRegressed
	case j.spread > bound && !allBetter:
		j.verdict = verdictUnresolved
	default:
		j.verdict = verdictWithin
	}
	return j
}
