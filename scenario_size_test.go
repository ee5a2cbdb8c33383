package dcnflow

import (
	"context"
	"errors"
	"testing"
)

// TestTopologySizeMatchesGenerators checks the pre-generation size
// arithmetic against what the generators really build, for every kind:
// exact node and directed-edge counts, except Jellyfish, whose random
// wiring may leave a few ports unused, so its edge count is an upper bound.
func TestTopologySizeMatchesGenerators(t *testing.T) {
	specs := []TopologySpec{
		{Kind: "fattree", K: 2}, {Kind: "fattree", K: 4}, {Kind: "fattree", K: 8},
		{Kind: "bcube", K: 2, L: 0}, {Kind: "bcube", K: 4, L: 1}, {Kind: "bcube", K: 3, L: 2},
		{Kind: "leafspine", Spines: 2, Leaves: 4, HostsPerLeaf: 4},
		{Kind: "vl2", Di: 2, Da: 4, Tors: 6, HostsPerTor: 3},
		{Kind: "jellyfish", Switches: 20, Degree: 4, HostsPerSwitch: 2, Seed: 7},
		{Kind: "jellyfish", Switches: 9, Degree: 3, HostsPerSwitch: 0, Seed: 1},
		{Kind: "line", K: 5}, {Kind: "star", K: 6},
	}
	for _, spec := range specs {
		spec.Capacity = 1
		top, err := spec.Build()
		if err != nil {
			t.Fatalf("%s: %v", spec.Label(), err)
		}
		nodes, edges := spec.size()
		gotNodes, gotEdges := float64(top.Graph.NumNodes()), float64(top.Graph.NumEdges())
		if nodes != gotNodes {
			t.Errorf("%s: size() says %v nodes, generator built %v", spec.Label(), nodes, gotNodes)
		}
		if spec.Kind == "jellyfish" {
			if gotEdges > edges {
				t.Errorf("%s: size() bounds edges by %v, generator built %v", spec.Label(), edges, gotEdges)
			}
		} else if edges != gotEdges {
			t.Errorf("%s: size() says %v edges, generator built %v", spec.Label(), edges, gotEdges)
		}
	}
	// The largest topology the repository builds stays well within the
	// limits.
	nodes, edges := TopologySpec{Kind: "fattree", K: 32, Capacity: 1}.size()
	if nodes != 9472 || edges != 49152 {
		t.Fatalf("fat-tree k=32: size() = %v nodes, %v edges; want 9472, 49152", nodes, edges)
	}
}

// TestOversizedSpecsRejectedBeforeGeneration: specs whose generated graph
// or flow set would exceed the package limits fail with ErrBadScenario from
// Validate and from Build, and the check allocates next to nothing, so no
// generator ran. A BCube with l=40 used to die with an unrecoverable
// out-of-memory error inside the generator.
func TestOversizedSpecsRejectedBeforeGeneration(t *testing.T) {
	small := TopologySpec{Kind: "line", K: 3, Capacity: 1}
	uniform := WorkloadSpec{Kind: "uniform", N: 4, T1: 10, SizeMean: 1}
	cases := []struct {
		name string
		top  TopologySpec
		w    WorkloadSpec
	}{
		{"bcube l=40", TopologySpec{Kind: "bcube", K: 2, L: 40, Capacity: 1}, uniform},
		{"fattree k=2^20", TopologySpec{Kind: "fattree", K: 1 << 20, Capacity: 1}, uniform},
		{"jellyfish 10^8 switches", TopologySpec{Kind: "jellyfish", Switches: 1e8, Degree: 4, HostsPerSwitch: 1, Capacity: 1}, uniform},
		{"line above the node limit", TopologySpec{Kind: "line", K: 1<<20 + 1, Capacity: 1}, uniform},
		{"leafspine above the edge limit", TopologySpec{Kind: "leafspine", Spines: 2048, Leaves: 2048, HostsPerLeaf: 1, Capacity: 1}, uniform},
		{"bcube huge level", TopologySpec{Kind: "bcube", K: 2, L: 1 << 62, Capacity: 1}, uniform},
		{"uniform N=10^9", small, WorkloadSpec{Kind: "uniform", N: 1e9, T1: 10, SizeMean: 1}},
		{"shuffle 2^11 hosts", small, WorkloadSpec{Kind: "shuffle", Hosts: 1 << 11, Deadline: 1, Size: 1}},
	}
	eng := NewEngine(EngineOptions{})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := &ScenarioSpec{Topology: tc.top, Workload: tc.w, Model: ModelSpec{Mu: 1, Alpha: 2}}
			if err := spec.Validate(); !errors.Is(err, ErrBadScenario) {
				t.Fatalf("Validate: %v, want ErrBadScenario", err)
			}
			var err error
			if tc.top != small {
				allocs := testing.AllocsPerRun(3, func() { _, err = tc.top.Build() })
				if !errors.Is(err, ErrBadScenario) {
					t.Fatalf("TopologySpec.Build: %v, want ErrBadScenario", err)
				}
				if allocs > 20 {
					t.Fatalf("TopologySpec.Build allocated %v times before refusing", allocs)
				}
			} else {
				top, terr := small.Build()
				if terr != nil {
					t.Fatal(terr)
				}
				allocs := testing.AllocsPerRun(3, func() { _, err = tc.w.Build(top) })
				if !errors.Is(err, ErrBadScenario) {
					t.Fatalf("WorkloadSpec.Build: %v, want ErrBadScenario", err)
				}
				if allocs > 20 {
					t.Fatalf("WorkloadSpec.Build allocated %v times before refusing", allocs)
				}
			}
			if res := eng.Solve(context.Background(), Request{Scenario: spec, Solver: SolverSPMCF}); !errors.Is(res.Err, ErrBadScenario) {
				t.Fatalf("Engine.Solve: %v, want ErrBadScenario", res.Err)
			}
		})
	}
}
