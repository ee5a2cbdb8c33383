package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"testing"

	"dcnflow/internal/flow"
	"dcnflow/internal/graph"
	"dcnflow/internal/mcfsolve"
	"dcnflow/internal/topology"
)

// renumberCorpus builds the same seven topology families as the graph
// package's compile corpus, each with a deadline-feasible uniform workload
// over its hosts. Kept deliberately small: the cross-product below runs
// every family under two memory layouts times three oracle worker counts,
// and make test-race-online replays it all under -race.
func renumberCorpus(t *testing.T) map[string]struct {
	top   *topology.Topology
	flows *flow.Set
} {
	t.Helper()
	out := map[string]struct {
		top   *topology.Topology
		flows *flow.Set
	}{}
	add := func(name string, top *topology.Topology, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fl, err := flow.Uniform(flow.GenConfig{
			N: 10, T0: 1, T1: 100, SizeMean: 10, SizeStddev: 3,
			Hosts: top.Hosts, Seed: 7,
		})
		if err != nil {
			t.Fatalf("%s workload: %v", name, err)
		}
		out[name] = struct {
			top   *topology.Topology
			flows *flow.Set
		}{top, fl}
	}
	ft, err := topology.FatTree(4, 10)
	add("fattree-k4", ft, err)
	bc, err := topology.BCube(2, 1, 10)
	add("bcube-2-1", bc, err)
	ls, err := topology.LeafSpine(2, 3, 2, 10)
	add("leafspine", ls, err)
	vl, err := topology.VL2(4, 4, 4, 2, 10)
	add("vl2", vl, err)
	jf, err := topology.Jellyfish(8, 3, 1, 10, 7)
	add("jellyfish", jf, err)
	ln, err := topology.Line(4, 10)
	add("line-4", ln, err)
	st, err := topology.Star(4, 10)
	add("star-4", st, err)
	return out
}

// scheduleFingerprint renders a DCFSR result as an exact byte string: the
// raw IEEE-754 bits of the bound and energy plus every flow's path and
// rate segments. Two runs are "byte-identical" iff these strings match.
func scheduleFingerprint(res *DCFSRResult, energy float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "lb=%016x energy=%016x\n",
		math.Float64bits(res.LowerBound), math.Float64bits(energy))
	ids := res.Schedule.FlowIDs()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		fs := res.Schedule.FlowSchedule(id)
		fmt.Fprintf(&b, "flow %d path=%s prio=%d", id, fs.Path.Key(), fs.Priority)
		for _, seg := range fs.Segments {
			fmt.Fprintf(&b, " [%016x,%016x)@%016x",
				math.Float64bits(seg.Interval.Start), math.Float64bits(seg.Interval.End),
				math.Float64bits(seg.Rate))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestRenumberDeterminismAcrossFamilies is the cross-family determinism
// guard of the cache-locality overhaul: for all seven topology families,
// solving on the BFS-renumbered hot layout and on the identity layout,
// at oracle worker counts 1, 2 and NumCPU, must produce byte-identical
// schedules, bounds and energies. The memory layout and the parallelism
// grid are pure performance knobs; any drift here means a tie-break
// compared hot ids instead of original ids.
func TestRenumberDeterminismAcrossFamilies(t *testing.T) {
	workers := []int{1, 2, runtime.NumCPU()}
	m := partialModel()
	for name, tc := range renumberCorpus(t) {
		g := tc.top.Graph
		layouts := map[string]*graph.Compiled{
			"renumbered": graph.Compile(g),
			"identity":   graph.CompileIdentity(g),
		}
		want, wantFrom := "", ""
		for lname, c := range layouts {
			for _, w := range workers {
				res, err := SolveDCFSRCtx(context.Background(), DCFSRInput{
					Graph:    g,
					Compiled: c,
					Flows:    tc.flows,
					Model:    m,
					Opts: DCFSROptions{
						Seed:   1,
						Solver: mcfsolve.Options{MaxIters: 24, OracleWorkers: w},
					},
				})
				if err != nil {
					t.Fatalf("%s %s workers=%d: %v", name, lname, w, err)
				}
				got := scheduleFingerprint(res, res.Schedule.EnergyTotal(m))
				label := fmt.Sprintf("%s workers=%d", lname, w)
				if want == "" {
					want, wantFrom = got, label
					continue
				}
				if got != want {
					t.Fatalf("%s: %s diverges from %s:\n--- want ---\n%s--- got ---\n%s",
						name, label, wantFrom, want, got)
				}
			}
		}
	}
}
