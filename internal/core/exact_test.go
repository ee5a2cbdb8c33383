package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dcnflow/internal/flow"
	"dcnflow/internal/power"
	"dcnflow/internal/topology"
)

func TestExactMatchesTheorem2Optimum(t *testing.T) {
	// On the hardness gadget with a perfect partition available, the exact
	// solver must find the proved optimum m * alpha * mu * B^alpha.
	const (
		mGroups = 2
		B       = 3.0
		alpha   = 2.0
	)
	top, src, dst, err := topology.ParallelLinks(3, 1e12)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := flow.HardnessInstance(src, dst, []float64{1, 1, 1, 1, 1, 1}) // 2 groups of B=3
	if err != nil {
		t.Fatal(err)
	}
	model := power.Model{
		Sigma: power.SigmaForRopt(1, alpha, B),
		Mu:    1, Alpha: alpha, C: 1e12,
	}
	exact, err := SolveDCFSRExactCtx(context.Background(), DCFSRInput{Graph: top.Graph, Flows: fs, Model: model},
		ExactOptions{PathsPerFlow: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := float64(mGroups) * alpha * model.Mu * B * B
	if !almostEqual(exact.Energy, want, 1e-9) {
		t.Fatalf("exact = %v, want Theorem 2 optimum %v", exact.Energy, want)
	}
}

func TestExactNeverWorseThanHeuristics(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		top, src, dst, err := topology.ParallelLinks(3, 1e12)
		if err != nil {
			return false
		}
		n := 2 + rng.Intn(4)
		raw := make([]flow.Flow, n)
		for i := range raw {
			r := rng.Float64() * 5
			raw[i] = flow.Flow{
				Src: src, Dst: dst,
				Release: r, Deadline: r + 1 + rng.Float64()*5,
				Size: 0.5 + rng.Float64()*5,
			}
		}
		fs, err := flow.NewSet(raw)
		if err != nil {
			return false
		}
		m := power.Model{Sigma: 1, Mu: 1, Alpha: 2, C: 1e12}
		in := DCFSRInput{Graph: top.Graph, Flows: fs, Model: m, Opts: DCFSROptions{Seed: seed}}
		exact, err := SolveDCFSRExactCtx(context.Background(), in, ExactOptions{PathsPerFlow: 3})
		if err != nil {
			return false
		}
		rs, err := SolveDCFSRCtx(context.Background(), in)
		if err != nil {
			return false
		}
		rsEnergy := rs.Schedule.EnergyTotal(m)
		// Exact <= RS, and exact >= the fractional lower bound would NOT
		// hold in general (LB is for the density-smoothed relaxation), but
		// exact must be positive and finite.
		return exact.Energy <= rsEnergy*(1+1e-9) && exact.Energy > 0 && !math.IsInf(exact.Energy, 1)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestExactGuards(t *testing.T) {
	top, src, dst, err := topology.ParallelLinks(4, 1e12)
	if err != nil {
		t.Fatal(err)
	}
	raw := make([]flow.Flow, 10)
	for i := range raw {
		raw[i] = flow.Flow{Src: src, Dst: dst, Release: 0, Deadline: 1, Size: 1}
	}
	fs, err := flow.NewSet(raw)
	if err != nil {
		t.Fatal(err)
	}
	m := power.Model{Mu: 1, Alpha: 2}
	// 4^10 assignments exceed the default bound.
	_, err = SolveDCFSRExactCtx(context.Background(), DCFSRInput{Graph: top.Graph, Flows: fs, Model: m}, ExactOptions{})
	if !errors.Is(err, ErrBadInput) {
		t.Fatalf("oversized instance err = %v, want ErrBadInput", err)
	}
	if _, err := SolveDCFSRExactCtx(context.Background(), DCFSRInput{Flows: fs, Model: m}, ExactOptions{}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("nil graph err = %v, want ErrBadInput", err)
	}
}

func TestExactEmptyFlows(t *testing.T) {
	line, err := topology.Line(3, 10)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := flow.NewSet(nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SolveDCFSRExactCtx(context.Background(), DCFSRInput{
		Graph: line.Graph, Flows: fs, Model: power.Model{Mu: 1, Alpha: 2},
	}, ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Energy != 0 || res.Assignments != 1 {
		t.Fatalf("empty exact = %+v", res)
	}
}
