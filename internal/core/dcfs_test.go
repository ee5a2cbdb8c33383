package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dcnflow/internal/flow"
	"dcnflow/internal/graph"
	"dcnflow/internal/power"
	"dcnflow/internal/schedule"
	"dcnflow/internal/topology"
	"dcnflow/internal/yds"
)

func almostEqual(a, b, tol float64) bool {
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale < 1 {
		scale = 1
	}
	return diff/scale <= tol
}

// exampleOne builds the paper's Fig. 1 / Example 1 instance.
func exampleOne(t *testing.T) DCFSInput {
	t.Helper()
	line, err := topology.Line(3, 1000)
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := line.Hosts[0], line.Hosts[1], line.Hosts[2]
	fs, err := flow.NewSet([]flow.Flow{
		{Src: a, Dst: c, Release: 2, Deadline: 4, Size: 6}, // j1
		{Src: a, Dst: b, Release: 1, Deadline: 3, Size: 8}, // j2
	})
	if err != nil {
		t.Fatal(err)
	}
	paths := map[flow.ID]graph.Path{}
	for _, f := range fs.Flows() {
		p, err := line.Graph.ShortestPath(f.Src, f.Dst)
		if err != nil {
			t.Fatal(err)
		}
		paths[f.ID] = p
	}
	return DCFSInput{
		Graph: line.Graph,
		Flows: fs,
		Paths: paths,
		Model: power.Model{Sigma: 0, Mu: 1, Alpha: 2, C: 1000},
	}
}

func TestDCFSExampleOneOptimalRates(t *testing.T) {
	in := exampleOne(t)
	res, err := SolveDCFSCtx(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	// Paper Example 1: sqrt(2)*s1 = s2 = (8 + 6*sqrt2)/3.
	wantS2 := (8 + 6*math.Sqrt2) / 3
	wantS1 := wantS2 / math.Sqrt2
	fs1 := res.Schedule.FlowSchedule(0)
	fs2 := res.Schedule.FlowSchedule(1)
	if fs1 == nil || fs2 == nil {
		t.Fatal("missing flow schedules")
	}
	if !almostEqual(fs1.MaxRate(), wantS1, 1e-9) {
		t.Fatalf("s1 = %v, want %v", fs1.MaxRate(), wantS1)
	}
	if !almostEqual(fs2.MaxRate(), wantS2, 1e-9) {
		t.Fatalf("s2 = %v, want %v", fs2.MaxRate(), wantS2)
	}
	// Optimal objective: 12*s1 + 8*s2.
	wantEnergy := 12*wantS1 + 8*wantS2
	if got := res.Schedule.EnergyDynamic(in.Model); !almostEqual(got, wantEnergy, 1e-9) {
		t.Fatalf("energy = %v, want %v", got, wantEnergy)
	}
	if res.Conflicts != 0 {
		t.Fatalf("conflicts = %d, want 0", res.Conflicts)
	}
	// The schedule must be feasible and virtual-circuit exclusive.
	if err := res.Schedule.Verify(in.Graph, in.Flows, in.Model, schedule.VerifyOptions{ExclusiveLinks: true}); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestDCFSExampleOneSingleCriticalRound(t *testing.T) {
	in := exampleOne(t)
	res, err := SolveDCFSCtx(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != 1 {
		t.Fatalf("rounds = %d, want 1 (both flows share the critical interval)", len(res.Rounds))
	}
	r := res.Rounds[0]
	if !almostEqual(r.Window.Start, 1, 1e-12) || !almostEqual(r.Window.End, 4, 1e-12) {
		t.Fatalf("critical window = %v, want [1,4]", r.Window)
	}
	wantDelta := (8 + 6*math.Sqrt2) / 3
	if !almostEqual(r.Intensity, wantDelta, 1e-9) {
		t.Fatalf("intensity = %v, want %v", r.Intensity, wantDelta)
	}
	if len(r.FlowIDs) != 2 {
		t.Fatalf("critical flows = %v, want both", r.FlowIDs)
	}
}

func TestDCFSEmptyFlowSet(t *testing.T) {
	line, err := topology.Line(3, 10)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := flow.NewSet(nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SolveDCFSCtx(context.Background(), DCFSInput{
		Graph: line.Graph, Flows: fs, Paths: map[flow.ID]graph.Path{},
		Model: power.Model{Mu: 1, Alpha: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedule.Len() != 0 {
		t.Fatal("empty instance should produce empty schedule")
	}
}

func TestDCFSInputValidation(t *testing.T) {
	in := exampleOne(t)
	t.Run("nil graph", func(t *testing.T) {
		bad := in
		bad.Graph = nil
		if _, err := SolveDCFSCtx(context.Background(), bad); !errors.Is(err, ErrBadInput) {
			t.Fatalf("err = %v, want ErrBadInput", err)
		}
	})
	t.Run("bad model", func(t *testing.T) {
		bad := in
		bad.Model = power.Model{Mu: 1, Alpha: 0.5}
		if _, err := SolveDCFSCtx(context.Background(), bad); !errors.Is(err, ErrBadInput) {
			t.Fatalf("err = %v, want ErrBadInput", err)
		}
	})
	t.Run("missing path", func(t *testing.T) {
		bad := in
		bad.Paths = map[flow.ID]graph.Path{0: in.Paths[0]}
		if _, err := SolveDCFSCtx(context.Background(), bad); !errors.Is(err, ErrBadInput) {
			t.Fatalf("err = %v, want ErrBadInput", err)
		}
	})
	t.Run("wrong path endpoints", func(t *testing.T) {
		bad := in
		bad.Paths = map[flow.ID]graph.Path{0: in.Paths[1], 1: in.Paths[1]}
		if _, err := SolveDCFSCtx(context.Background(), bad); !errors.Is(err, ErrBadInput) {
			t.Fatalf("err = %v, want ErrBadInput", err)
		}
	})
}

// TestDCFSMatchesYDSOnSharedLink: with a single shared link (|P| = 1 for
// every flow), Most-Critical-First degenerates to YDS exactly.
func TestDCFSMatchesYDSOnSharedLink(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		top, src, dst, err := topology.ParallelLinks(1, 1e9)
		if err != nil {
			return false
		}
		n := 2 + rng.Intn(8)
		raw := make([]flow.Flow, n)
		jobs := make([]yds.Job, n)
		for i := 0; i < n; i++ {
			r := rng.Float64() * 20
			d := r + 1 + rng.Float64()*10
			w := 0.5 + rng.Float64()*8
			raw[i] = flow.Flow{Src: src, Dst: dst, Release: r, Deadline: d, Size: w}
			jobs[i] = yds.Job{ID: i, Release: r, Deadline: d, Work: w}
		}
		fs, err := flow.NewSet(raw)
		if err != nil {
			return false
		}
		p, err := top.Graph.ShortestPath(src, dst)
		if err != nil {
			return false
		}
		paths := map[flow.ID]graph.Path{}
		for _, f := range fs.Flows() {
			paths[f.ID] = p
		}
		alpha := 2.0
		res, err := SolveDCFSCtx(context.Background(), DCFSInput{
			Graph: top.Graph, Flows: fs, Paths: paths,
			Model: power.Model{Mu: 1, Alpha: alpha},
		})
		if err != nil {
			return false
		}
		ydsRes, err := yds.Solve(jobs)
		if err != nil {
			return false
		}
		m := power.Model{Mu: 1, Alpha: alpha}
		return almostEqual(res.Schedule.EnergyDynamic(m), ydsRes.Energy(alpha), 1e-6)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestDCFSFeasibleOnFatTree: random workloads on a fat-tree with
// shortest-path routing always produce feasible schedules.
func TestDCFSFeasibleOnFatTree(t *testing.T) {
	ft, err := topology.FatTree(4, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	m := power.Model{Sigma: 0.5, Mu: 1, Alpha: 2, C: 1e9}
	for seed := int64(0); seed < 5; seed++ {
		fs, err := flow.Uniform(flow.GenConfig{
			N: 30, T0: 1, T1: 100, SizeMean: 10, SizeStddev: 3,
			Hosts: ft.Hosts, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		paths := map[flow.ID]graph.Path{}
		for _, f := range fs.Flows() {
			p, err := ft.Graph.ShortestPath(f.Src, f.Dst)
			if err != nil {
				t.Fatal(err)
			}
			paths[f.ID] = p
		}
		res, err := SolveDCFSCtx(context.Background(), DCFSInput{Graph: ft.Graph, Flows: fs, Paths: paths, Model: m})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := res.Schedule.Verify(ft.Graph, fs, m, schedule.VerifyOptions{}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestDCFSEnergyNeverBelowJensenBound: per-link Jensen lower bound holds.
func TestDCFSEnergyNeverBelowJensenBound(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		line, err := topology.Line(4, 1e9)
		if err != nil {
			return false
		}
		n := 2 + rng.Intn(6)
		raw := make([]flow.Flow, 0, n)
		for i := 0; i < n; i++ {
			s := rng.Intn(3)
			d := s + 1 + rng.Intn(3-s)
			r := rng.Float64() * 10
			raw = append(raw, flow.Flow{
				Src: line.Hosts[s], Dst: line.Hosts[d],
				Release: r, Deadline: r + 1 + rng.Float64()*10,
				Size: 0.5 + rng.Float64()*5,
			})
		}
		fs, err := flow.NewSet(raw)
		if err != nil {
			return false
		}
		paths := map[flow.ID]graph.Path{}
		for _, f := range fs.Flows() {
			p, err := line.Graph.ShortestPath(f.Src, f.Dst)
			if err != nil {
				return false
			}
			paths[f.ID] = p
		}
		m := power.Model{Mu: 1, Alpha: 2}
		res, err := SolveDCFSCtx(context.Background(), DCFSInput{Graph: line.Graph, Flows: fs, Paths: paths, Model: m})
		if err != nil {
			return false
		}
		got := res.Schedule.EnergyDynamic(m)
		// Jensen bound per link: energy >= sum_e |span_e| * (work_e/|span_e|)^alpha
		// over the hull window of the flows on e.
		linkWork := map[graph.EdgeID]float64{}
		linkLo := map[graph.EdgeID]float64{}
		linkHi := map[graph.EdgeID]float64{}
		for _, f := range fs.Flows() {
			for _, eid := range paths[f.ID].Edges {
				linkWork[eid] += f.Size
				if _, ok := linkLo[eid]; !ok {
					linkLo[eid] = f.Release
					linkHi[eid] = f.Deadline
				} else {
					linkLo[eid] = math.Min(linkLo[eid], f.Release)
					linkHi[eid] = math.Max(linkHi[eid], f.Deadline)
				}
			}
		}
		var bound float64
		for eid, w := range linkWork {
			span := linkHi[eid] - linkLo[eid]
			if span > 0 {
				bound += span * math.Pow(w/span, m.Alpha)
			}
		}
		return got >= bound*(1-1e-6)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestDCFSSingleRatePerFlow: Lemma 1 — every flow uses one transmission
// rate across all its segments.
func TestDCFSSingleRatePerFlow(t *testing.T) {
	ft, err := topology.FatTree(4, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := flow.Uniform(flow.GenConfig{
		N: 40, T0: 1, T1: 100, SizeMean: 10, SizeStddev: 3, Hosts: ft.Hosts, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	paths := map[flow.ID]graph.Path{}
	for _, f := range fs.Flows() {
		p, err := ft.Graph.ShortestPath(f.Src, f.Dst)
		if err != nil {
			t.Fatal(err)
		}
		paths[f.ID] = p
	}
	res, err := SolveDCFSCtx(context.Background(), DCFSInput{
		Graph: ft.Graph, Flows: fs, Paths: paths,
		Model: power.Model{Mu: 1, Alpha: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range res.Schedule.FlowIDs() {
		fsch := res.Schedule.FlowSchedule(id)
		for _, seg := range fsch.Segments {
			if !almostEqual(seg.Rate, fsch.Segments[0].Rate, 1e-9) {
				t.Fatalf("flow %d uses multiple rates: %v vs %v", id, seg.Rate, fsch.Segments[0].Rate)
			}
		}
	}
}

// TestDCFSDecreasingIntensity: the critical-interval intensities are
// non-increasing across rounds (the YDS invariant).
func TestDCFSDecreasingIntensity(t *testing.T) {
	ft, err := topology.FatTree(4, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := flow.Uniform(flow.GenConfig{
		N: 30, T0: 1, T1: 100, SizeMean: 10, SizeStddev: 3, Hosts: ft.Hosts, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	paths := map[flow.ID]graph.Path{}
	for _, f := range fs.Flows() {
		p, err := ft.Graph.ShortestPath(f.Src, f.Dst)
		if err != nil {
			t.Fatal(err)
		}
		paths[f.ID] = p
	}
	res, err := SolveDCFSCtx(context.Background(), DCFSInput{
		Graph: ft.Graph, Flows: fs, Paths: paths,
		Model: power.Model{Mu: 1, Alpha: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Rounds); i++ {
		// Intensities may interleave across different links; the classic
		// invariant holds per link. Verify globally with a tolerant slack:
		// a later round on the same link must not exceed an earlier one.
		if res.Rounds[i].Link == res.Rounds[i-1].Link &&
			res.Rounds[i].Intensity > res.Rounds[i-1].Intensity+1e-6 {
			t.Fatalf("intensity increased on link %d: %v -> %v",
				res.Rounds[i].Link, res.Rounds[i-1].Intensity, res.Rounds[i].Intensity)
		}
	}
}

func TestSortedIDsHelper(t *testing.T) {
	m := map[flow.ID]int{3: 0, 1: 0, 2: 0}
	ids := sortedIDs(m)
	if len(ids) != 3 || ids[0] != 1 || ids[1] != 2 || ids[2] != 3 {
		t.Fatalf("sortedIDs = %v", ids)
	}
}
