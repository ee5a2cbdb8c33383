package flow

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"dcnflow/internal/graph"
)

func TestFlowBasics(t *testing.T) {
	f := Flow{Src: 0, Dst: 1, Release: 2, Deadline: 4, Size: 6}
	if f.Span() != 2 {
		t.Fatalf("Span = %v, want 2", f.Span())
	}
	if f.Density() != 3 {
		t.Fatalf("Density = %v, want 3", f.Density())
	}
	if !f.ActiveAt(2) || !f.ActiveAt(3) || !f.ActiveAt(4) {
		t.Fatal("flow should be active on its span")
	}
	if f.ActiveAt(1.999) || f.ActiveAt(4.001) {
		t.Fatal("flow active outside its span")
	}
}

func TestFlowDensityDegenerate(t *testing.T) {
	f := Flow{Release: 3, Deadline: 3, Size: 1}
	if !math.IsInf(f.Density(), 1) {
		t.Fatalf("Density of zero span = %v, want +Inf", f.Density())
	}
}

func TestFlowValidate(t *testing.T) {
	tests := []struct {
		name string
		f    Flow
		ok   bool
	}{
		{"valid", Flow{Src: 0, Dst: 1, Release: 0, Deadline: 1, Size: 1}, true},
		{"zero size", Flow{Src: 0, Dst: 1, Release: 0, Deadline: 1, Size: 0}, false},
		{"negative size", Flow{Src: 0, Dst: 1, Release: 0, Deadline: 1, Size: -2}, false},
		{"deadline before release", Flow{Src: 0, Dst: 1, Release: 2, Deadline: 1, Size: 1}, false},
		{"zero span", Flow{Src: 0, Dst: 1, Release: 1, Deadline: 1, Size: 1}, false},
		{"self loop", Flow{Src: 3, Dst: 3, Release: 0, Deadline: 1, Size: 1}, false},
		{"nan release", Flow{Src: 0, Dst: 1, Release: math.NaN(), Deadline: 1, Size: 1}, false},
		{"infinite release", Flow{Src: 0, Dst: 1, Release: math.Inf(-1), Deadline: 1, Size: 1}, false},
		{"infinite deadline", Flow{Src: 0, Dst: 1, Release: 0, Deadline: math.Inf(1), Size: 1}, false},
		{"infinite size", Flow{Src: 0, Dst: 1, Release: 0, Deadline: 1, Size: math.Inf(1)}, false},
		{"density overflows", Flow{Src: 0, Dst: 1, Release: 0, Deadline: 0.5, Size: 1e308}, false},
		{"span overflows", Flow{Src: 0, Dst: 1, Release: -1e308, Deadline: 1e308, Size: 1}, false},
		{"huge but finite", Flow{Src: 0, Dst: 1, Release: 1, Deadline: 3, Size: 1.5e308}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.f.Validate()
			if (err == nil) != tt.ok {
				t.Fatalf("Validate() = %v, want ok=%v", err, tt.ok)
			}
			if err != nil && !errors.Is(err, ErrInvalidFlow) {
				t.Fatalf("error %v does not wrap ErrInvalidFlow", err)
			}
		})
	}
}

func TestNewSetAssignsIDs(t *testing.T) {
	s, err := NewSet([]Flow{
		{ID: 99, Src: 0, Dst: 1, Release: 0, Deadline: 1, Size: 1},
		{ID: -5, Src: 1, Dst: 0, Release: 1, Deadline: 3, Size: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range s.Flows() {
		if f.ID != ID(i) {
			t.Fatalf("flow %d has ID %d", i, f.ID)
		}
	}
}

func TestNewSetRejectsInvalid(t *testing.T) {
	_, err := NewSet([]Flow{{Src: 0, Dst: 0, Release: 0, Deadline: 1, Size: 1}})
	if err == nil {
		t.Fatal("NewSet accepted invalid flow")
	}
}

func TestSetAccessors(t *testing.T) {
	s, err := NewSet([]Flow{
		{Src: 0, Dst: 1, Release: 2, Deadline: 4, Size: 6},  // density 3
		{Src: 1, Dst: 0, Release: 1, Deadline: 3, Size: 8},  // density 4
		{Src: 0, Dst: 2, Release: 5, Deadline: 10, Size: 5}, // density 1
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	t0, t1 := s.Horizon()
	if t0 != 1 || t1 != 10 {
		t.Fatalf("Horizon = [%v, %v], want [1, 10]", t0, t1)
	}
	if s.TotalData() != 19 {
		t.Fatalf("TotalData = %v, want 19", s.TotalData())
	}
	if got := s.MeanDensity(); math.Abs(got-8.0/3) > 1e-12 {
		t.Fatalf("MeanDensity = %v, want %v", got, 8.0/3)
	}
	if s.MaxDensity() != 4 {
		t.Fatalf("MaxDensity = %v, want 4", s.MaxDensity())
	}
	f, err := s.Flow(1)
	if err != nil || f.Size != 8 {
		t.Fatalf("Flow(1) = %+v, %v", f, err)
	}
	if _, err := s.Flow(99); err == nil {
		t.Fatal("Flow(99) should error")
	}
	if _, err := s.Flow(-1); err == nil {
		t.Fatal("Flow(-1) should error")
	}
}

func TestEmptySet(t *testing.T) {
	s, err := NewSet(nil)
	if err != nil {
		t.Fatal(err)
	}
	t0, t1 := s.Horizon()
	if t0 != 0 || t1 != 0 {
		t.Fatalf("empty Horizon = [%v, %v], want [0, 0]", t0, t1)
	}
	if s.MeanDensity() != 0 || s.MaxDensity() != 0 || s.TotalData() != 0 {
		t.Fatal("empty set aggregates should be zero")
	}
}

func TestFlowsCopySemantics(t *testing.T) {
	s, err := NewSet([]Flow{{Src: 0, Dst: 1, Release: 0, Deadline: 1, Size: 1}})
	if err != nil {
		t.Fatal(err)
	}
	fs := s.Flows()
	fs[0].Size = 999
	f, err := s.Flow(0)
	if err != nil {
		t.Fatal(err)
	}
	if f.Size == 999 {
		t.Fatal("Flows() exposes internal state")
	}
}

func hostIDs(n int) []graph.NodeID {
	out := make([]graph.NodeID, n)
	for i := range out {
		out[i] = graph.NodeID(i)
	}
	return out
}

func TestUniformGenerator(t *testing.T) {
	cfg := GenConfig{
		N: 200, T0: 1, T1: 100,
		SizeMean: 10, SizeStddev: 3,
		Hosts: hostIDs(16), Seed: 42,
	}
	s, err := Uniform(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 200 {
		t.Fatalf("Len = %d, want 200", s.Len())
	}
	var sizeSum float64
	for _, f := range s.Flows() {
		if err := f.Validate(); err != nil {
			t.Fatalf("generated invalid flow: %v", err)
		}
		if f.Release < 1 || f.Deadline > 100 {
			t.Fatalf("span [%v, %v] outside horizon", f.Release, f.Deadline)
		}
		if f.Span() < (100.0-1.0)/100-1e-9 {
			t.Fatalf("span %v below MinSpan default", f.Span())
		}
		sizeSum += f.Size
	}
	mean := sizeSum / 200
	if mean < 8 || mean > 12 {
		t.Fatalf("empirical size mean %v implausible for N(10,3)", mean)
	}
}

func TestUniformDeterminism(t *testing.T) {
	cfg := GenConfig{N: 50, T0: 1, T1: 100, SizeMean: 10, SizeStddev: 3, Hosts: hostIDs(8), Seed: 7}
	a, err := Uniform(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Uniform(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fa, fb := a.Flows(), b.Flows()
	for i := range fa {
		if fa[i] != fb[i] {
			t.Fatalf("flow %d differs across identical seeds: %+v vs %+v", i, fa[i], fb[i])
		}
	}
	cfg.Seed = 8
	c, err := Uniform(cfg)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	fc := c.Flows()
	for i := range fa {
		if fa[i] != fc[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical workloads")
	}
}

func TestUniformErrors(t *testing.T) {
	base := GenConfig{N: 10, T0: 1, T1: 100, SizeMean: 10, SizeStddev: 3, Hosts: hostIDs(4), Seed: 1}
	tests := []struct {
		name string
		mod  func(*GenConfig)
	}{
		{"zero N", func(c *GenConfig) { c.N = 0 }},
		{"empty horizon", func(c *GenConfig) { c.T1 = c.T0 }},
		{"one host", func(c *GenConfig) { c.Hosts = hostIDs(1) }},
		{"bad size mean", func(c *GenConfig) { c.SizeMean = 0 }},
		{"minspan too large", func(c *GenConfig) { c.MinSpan = 1000 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := base
			tt.mod(&cfg)
			if _, err := Uniform(cfg); err == nil {
				t.Fatal("Uniform accepted invalid config")
			}
		})
	}
}

func TestTruncNormalAlwaysPositive(t *testing.T) {
	prop := func(seed int64) bool {
		cfg := GenConfig{N: 20, T0: 0, T1: 10, SizeMean: 0.5, SizeStddev: 5, Hosts: hostIDs(4), Seed: seed}
		s, err := Uniform(cfg)
		if err != nil {
			return false
		}
		for _, f := range s.Flows() {
			if f.Size <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionAggregate(t *testing.T) {
	workers := hostIDs(8)[1:]
	s, err := PartitionAggregate(0, workers, 5, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 7 {
		t.Fatalf("Len = %d, want 7", s.Len())
	}
	for _, f := range s.Flows() {
		if f.Dst != 0 {
			t.Fatalf("flow %d does not target aggregator", f.ID)
		}
		if f.Release != 5 || f.Deadline != 10 || f.Size != 2 {
			t.Fatalf("flow %d parameters wrong: %+v", f.ID, f)
		}
	}
	if _, err := PartitionAggregate(0, nil, 0, 1, 1); err == nil {
		t.Fatal("empty workers accepted")
	}
	if _, err := PartitionAggregate(0, []graph.NodeID{0}, 0, 1, 1); err == nil {
		t.Fatal("worker == aggregator accepted")
	}
}

func TestShuffle(t *testing.T) {
	s, err := Shuffle(hostIDs(4), 0, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 12 { // 4*3 ordered pairs
		t.Fatalf("Len = %d, want 12", s.Len())
	}
	if _, err := Shuffle(hostIDs(1), 0, 10, 3); err == nil {
		t.Fatal("shuffle with one host accepted")
	}
}

func TestHardnessInstance(t *testing.T) {
	sizes := []float64{3, 3, 4, 2, 5, 3}
	s, err := HardnessInstance(0, 1, sizes)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != len(sizes) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(sizes))
	}
	for i, f := range s.Flows() {
		if f.Size != sizes[i] || f.Release != 0 || f.Deadline != 1 {
			t.Fatalf("flow %d = %+v", i, f)
		}
	}
	if _, err := HardnessInstance(0, 1, nil); err == nil {
		t.Fatal("empty sizes accepted")
	}
}

func TestStaggered(t *testing.T) {
	s, err := Staggered(10, 0, 100, 5, hostIDs(6), 3)
	if err != nil {
		t.Fatal(err)
	}
	fs := s.Flows()
	for i := 1; i < len(fs); i++ {
		if fs[i].Release != fs[i-1].Deadline {
			t.Fatalf("staggered windows not contiguous at %d", i)
		}
	}
	if fs[0].Release != 0 || fs[len(fs)-1].Deadline != 100 {
		t.Fatal("staggered windows do not tile the horizon")
	}
	if _, err := Staggered(0, 0, 1, 1, hostIDs(4), 1); err == nil {
		t.Fatal("zero N accepted")
	}
	if _, err := Staggered(5, 1, 1, 1, hostIDs(4), 1); err == nil {
		t.Fatal("empty horizon accepted")
	}
	if _, err := Staggered(5, 0, 1, 1, hostIDs(1), 1); err == nil {
		t.Fatal("single host accepted")
	}
}
