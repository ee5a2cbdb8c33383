// Benchmarks regenerating every artifact of the paper's evaluation — one
// benchmark per table/figure (see the DESIGN.md per-experiment index) plus
// component micro-benchmarks. The figure benches run a reduced but
// shape-preserving scale (fewer runs/solver iterations than the paper's 10
// runs) so the whole suite stays in minutes on a laptop; `cmd/dcnflow fig2
// -runs 10` reproduces the full-scale figure. Reported custom metrics are
// the ratio series of the paper's Fig. 2 (energy normalised by the
// fractional lower bound).
package dcnflow_test

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"dcnflow"
	"dcnflow/internal/experiments"
	"dcnflow/internal/graph"
	"dcnflow/internal/mcfsolve"
	"dcnflow/internal/yds"
)

// BenchmarkExampleOne regenerates E1: the Fig. 1 / Example 1 closed-form
// check (Most-Critical-First vs analytic optimum).
func BenchmarkExampleOne(b *testing.B) {
	var maxErr float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunExample1()
		if err != nil {
			b.Fatal(err)
		}
		maxErr = res.MaxRelError
	}
	b.ReportMetric(maxErr, "max-rel-err")
}

// benchFig2 runs one Fig. 2 panel at bench scale and reports the ratio
// series as custom metrics.
func benchFig2(b *testing.B, alpha float64) {
	b.Helper()
	cfg := experiments.Fig2Config{
		Alpha:       alpha,
		FlowCounts:  []int{40, 120, 200},
		Runs:        1,
		FatTreeK:    8,
		Seed:        1,
		SolverIters: 30,
	}
	var last *experiments.Fig2Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig2(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	for _, p := range last.Points {
		b.ReportMetric(p.RS, fmt.Sprintf("RS/LB(n=%d)", p.N))
		b.ReportMetric(p.SPMCF, fmt.Sprintf("SP/LB(n=%d)", p.N))
	}
}

// BenchmarkFig2Alpha2 regenerates F2, the x^2 panel of Fig. 2: LB, RS/LB
// and SP+MCF/LB on the 80-switch fat-tree, flows 40..200.
func BenchmarkFig2Alpha2(b *testing.B) { benchFig2(b, 2) }

// BenchmarkFig2Alpha4 regenerates F2, the x^4 panel of Fig. 2.
func BenchmarkFig2Alpha4(b *testing.B) { benchFig2(b, 4) }

// BenchmarkHardnessGadget regenerates T2/T3: the Theorem 2 3-partition
// gadget (RS vs the provable optimum) and the Theorem 3 constant.
func BenchmarkHardnessGadget(b *testing.B) {
	var last *experiments.HardnessResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunHardness(experiments.HardnessConfig{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.RSRatio, "RS/opt")
	b.ReportMetric(last.Theorem3Gamma, "gamma(alpha)")
}

// BenchmarkAblationLambda regenerates A1: RS/LB as the interval
// granularity (lambda) grows.
func BenchmarkAblationLambda(b *testing.B) {
	var last *experiments.LambdaResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunAblationLambda(
			experiments.AblateConfig{N: 30, Runs: 2, Seed: 1, SolverIters: 25},
			[]float64{20, 5, 1},
		)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	for _, p := range last.Points {
		b.ReportMetric(p.Ratio, fmt.Sprintf("RS/LB(q=%g)", p.Quantum))
	}
}

// BenchmarkAblationRounding regenerates A2: feasibility rate vs the
// re-rounding budget on a capacity-tight instance.
func BenchmarkAblationRounding(b *testing.B) {
	var last *experiments.RoundingResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunAblationRounding(
			experiments.AblateConfig{Runs: 10, Seed: 1},
			[]int{1, 5, 50},
		)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	for _, p := range last.Points {
		b.ReportMetric(p.FeasibleRate, fmt.Sprintf("feasible(att=%d)", p.Attempts))
	}
}

// BenchmarkAblationSurrogate regenerates A3: dynamic vs envelope
// relaxation cost under idle power.
func BenchmarkAblationSurrogate(b *testing.B) {
	var last *experiments.SurrogateResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunAblationSurrogate(
			experiments.AblateConfig{N: 30, Runs: 2, Seed: 1, SolverIters: 25},
		)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	for _, p := range last.Points {
		b.ReportMetric(p.ActiveLinks, "links("+p.Cost[:3]+")")
	}
}

// --- Component micro-benchmarks ---------------------------------------------

// BenchmarkMostCriticalFirst measures the optimal DCFS solver on a
// 100-flow fat-tree instance with shortest-path routing.
func BenchmarkMostCriticalFirst(b *testing.B) {
	ft, err := dcnflow.FatTree(8, 1e12)
	if err != nil {
		b.Fatal(err)
	}
	flows, err := dcnflow.UniformWorkload(dcnflow.WorkloadConfig{
		N: 100, T0: 1, T1: 100, SizeMean: 10, SizeStddev: 3,
		Hosts: ft.Hosts, Seed: 42,
	})
	if err != nil {
		b.Fatal(err)
	}
	model := dcnflow.PowerModel{Mu: 1, Alpha: 2, C: 1e12}
	paths, err := dcnflow.ShortestPathRouting(ft.Graph, flows)
	if err != nil {
		b.Fatal(err)
	}
	inst, err := dcnflow.NewInstanceBuilder().
		Graph(ft.Graph).Flows(flows).Model(model).Routing(paths).Build()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dcnflow.Solve(context.Background(), dcnflow.SolverDCFSMCF, inst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRandomSchedule measures the full DCFSR pipeline on a 40-flow
// k=4 fat-tree instance.
func BenchmarkRandomSchedule(b *testing.B) {
	ft, err := dcnflow.FatTree(4, 1e12)
	if err != nil {
		b.Fatal(err)
	}
	flows, err := dcnflow.UniformWorkload(dcnflow.WorkloadConfig{
		N: 40, T0: 1, T1: 100, SizeMean: 10, SizeStddev: 3,
		Hosts: ft.Hosts, Seed: 42,
	})
	if err != nil {
		b.Fatal(err)
	}
	inst, err := dcnflow.NewInstance(ft.Graph, flows, dcnflow.PowerModel{Mu: 1, Alpha: 2, C: 1e12})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dcnflow.Solve(context.Background(), dcnflow.SolverDCFSR, inst,
			dcnflow.WithSeed(1), dcnflow.WithSolverOptions(dcnflow.SolverOptions{MaxIters: 25})); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFrankWolfe measures one F-MCF solve (30 commodities, k=8
// fat-tree).
func BenchmarkFrankWolfe(b *testing.B) {
	ft, err := dcnflow.FatTree(8, 1e12)
	if err != nil {
		b.Fatal(err)
	}
	comms := make([]mcfsolve.Commodity, 30)
	for i := range comms {
		comms[i] = mcfsolve.Commodity{
			Src:    ft.Hosts[(i*7)%len(ft.Hosts)],
			Dst:    ft.Hosts[(i*13+5)%len(ft.Hosts)],
			Demand: 1 + float64(i%5),
		}
	}
	model := dcnflow.PowerModel{Mu: 1, Alpha: 2, C: 1e12}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := mcfsolve.NewSolverCompiled(graph.Compile(ft.Graph), model, mcfsolve.Options{MaxIters: 30})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Solve(comms); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFrankWolfeDelta measures one F-MCF solve of the rolling delta
// epoch's shape: fat-tree k=8, alpha=2, MaxIters 30, one or two
// commodities routed against a background load built like the
// reservations of 20 flows in flight (a density on one shortest path
// each). One reused Solver cycles through 16 such instances, so the
// branch predictor cannot learn a single replayed input; ns/op is per
// solve.
func BenchmarkFrankWolfeDelta(b *testing.B) {
	ft, err := dcnflow.FatTree(8, 1e12)
	if err != nil {
		b.Fatal(err)
	}
	g := ft.Graph
	hosts := ft.Hosts
	type instance struct {
		comms []mcfsolve.Commodity
		base  []float64
	}
	// pick never returns src == dst: the two indices differ by 16i + 11,
	// an odd number, so never by a multiple of the 128 hosts.
	pick := func(i int) (graph.NodeID, graph.NodeID) {
		return hosts[(i*37)%len(hosts)], hosts[(i*53+11)%len(hosts)]
	}
	var insts []instance
	for k := 0; k < 16; k++ {
		base := make([]float64, g.NumEdges())
		for j := 0; j < 20; j++ {
			src, dst := pick(20*k + j)
			p, err := g.ShortestPath(src, dst)
			if err != nil {
				b.Fatal(err)
			}
			for _, eid := range p.Edges {
				base[eid] += 0.05 + 0.5*float64((7*k+j)%10)/10
			}
		}
		var comms []mcfsolve.Commodity
		for j := 0; j < 1+k%2; j++ {
			src, dst := pick(1000 + 2*k + j)
			comms = append(comms, mcfsolve.Commodity{Src: src, Dst: dst, Demand: 0.2 + float64((3*k+j)%8)/4})
		}
		insts = append(insts, instance{comms, base})
	}
	s, err := mcfsolve.NewSolverCompiled(graph.Compile(g), dcnflow.PowerModel{Mu: 1, Alpha: 2, C: 1e12}, mcfsolve.Options{MaxIters: 30})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := &insts[i%len(insts)]
		if _, err := s.SolveBaseWarmCtx(ctx, in.comms, in.base, mcfsolve.WarmStart{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDijkstraFatTree8 measures the shortest-path oracle on the
// paper's evaluation topology.
func BenchmarkDijkstraFatTree8(b *testing.B) {
	ft, err := dcnflow.FatTree(8, 1e12)
	if err != nil {
		b.Fatal(err)
	}
	src, dst := ft.Hosts[0], ft.Hosts[len(ft.Hosts)-1]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ft.Graph.ShortestPath(src, dst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkYDS measures the single-processor speed-scaling substrate on
// 100 jobs.
func BenchmarkYDS(b *testing.B) {
	jobs := make([]yds.Job, 100)
	for i := range jobs {
		r := float64(i%37) * 2.3
		jobs[i] = yds.Job{ID: i, Release: r, Deadline: r + 5 + float64(i%11), Work: 1 + float64(i%7)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := yds.Solve(jobs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExactSmall measures the brute-force DCFSR verifier on a
// 4-flow, 3-parallel-link instance (81 assignments).
func BenchmarkExactSmall(b *testing.B) {
	top, src, dst, err := dcnflow.ParallelLinks(3, 1e12)
	if err != nil {
		b.Fatal(err)
	}
	flows, err := dcnflow.NewFlowSet([]dcnflow.Flow{
		{Src: src, Dst: dst, Release: 0, Deadline: 1, Size: 1},
		{Src: src, Dst: dst, Release: 0, Deadline: 2, Size: 2},
		{Src: src, Dst: dst, Release: 1, Deadline: 3, Size: 1.5},
		{Src: src, Dst: dst, Release: 0.5, Deadline: 2.5, Size: 1},
	})
	if err != nil {
		b.Fatal(err)
	}
	inst, err := dcnflow.NewInstance(top.Graph, flows, dcnflow.PowerModel{Sigma: 1, Mu: 1, Alpha: 2, C: 1e12})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dcnflow.Solve(context.Background(), dcnflow.SolverExact, inst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOnlineGreedy measures the online admission pipeline on 100
// flows.
func BenchmarkOnlineGreedy(b *testing.B) {
	ft, err := dcnflow.FatTree(8, 1e12)
	if err != nil {
		b.Fatal(err)
	}
	flows, err := dcnflow.UniformWorkload(dcnflow.WorkloadConfig{
		N: 100, T0: 1, T1: 100, SizeMean: 10, SizeStddev: 3,
		Hosts: ft.Hosts, Seed: 42,
	})
	if err != nil {
		b.Fatal(err)
	}
	inst, err := dcnflow.NewInstance(ft.Graph, flows, dcnflow.PowerModel{Mu: 1, Alpha: 2, C: 1e12})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dcnflow.Solve(context.Background(), dcnflow.SolverGreedyOnline, inst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOnlineRolling measures the rolling-horizon online scheduler on
// the slowly-varying diurnal chain — the workload DESIGN.md predicts warm
// starts pay on. The recorder=off/recorder=on sub-benchmarks bound the
// decision-tracing overhead (nil recorder vs an attached DecisionMemory);
// recorder=off additionally reports fw-iters-warm / fw-iters-cold, the total
// Frank–Wolfe iterations of warm-started vs cold-started epoch re-solves.
func BenchmarkOnlineRolling(b *testing.B) {
	ft, err := dcnflow.FatTree(4, 1e12)
	if err != nil {
		b.Fatal(err)
	}
	flows, err := dcnflow.DiurnalWorkload(dcnflow.DiurnalConfig{
		N: 40, T0: 0, T1: 100, PeakFactor: 5,
		SizeMean: 8, SizeStddev: 2, Hosts: ft.Hosts, Seed: 7,
	})
	if err != nil {
		b.Fatal(err)
	}
	inst, err := dcnflow.NewInstance(ft.Graph, flows, dcnflow.PowerModel{Mu: 1, Alpha: 2, C: 1e12})
	if err != nil {
		b.Fatal(err)
	}
	runOnce := func(warm bool, rec dcnflow.DecisionRecorder) map[string]float64 {
		sol, err := dcnflow.Solve(context.Background(), dcnflow.SolverRollingOnline, inst,
			dcnflow.WithRollingOptions(dcnflow.RollingOptions{
				Policy: dcnflow.FixedPeriod{Period: 2},
				DCFSR: dcnflow.DCFSROptions{
					Seed:      1,
					Solver:    dcnflow.SolverOptions{MaxIters: 30},
					WarmStart: warm,
				},
				Recorder: rec,
			}))
		if err != nil {
			b.Fatal(err)
		}
		return sol.Stats
	}
	b.Run("recorder=off", func(b *testing.B) {
		var warm map[string]float64
		for i := 0; i < b.N; i++ {
			warm = runOnce(true, nil)
		}
		b.StopTimer()
		cold := runOnce(false, nil)
		b.ReportMetric(warm["fw_iters"], "fw-iters-warm")
		b.ReportMetric(cold["fw_iters"], "fw-iters-cold")
		b.ReportMetric(warm["epochs"], "epochs")
	})
	b.Run("recorder=on", func(b *testing.B) {
		var decisions int
		for i := 0; i < b.N; i++ {
			mem := &dcnflow.DecisionMemory{}
			runOnce(true, mem)
			decisions = len(mem.Records)
		}
		b.ReportMetric(float64(decisions), "decisions")
	})
}

// deltaMiceFixture drives the rolling scheduler through an elephant-mice
// trace by hand: `elephants` long-lived flows all released at t=0 against a
// single shared deadline (one full epoch plus per-arrival delta epochs, all
// at tau=0, so their reservations share piece boundaries), then `mice`
// short-span arrivals at unit spacing, each triggering its own per-arrival
// re-plan. It returns the scheduler after the elephant phase so callers can
// time the mice phase alone — the per-arrival re-plan cost with `elephants`
// flows in flight.
type deltaMiceFixture struct {
	sched *dcnflow.RollingScheduler
	hosts []dcnflow.NodeID
}

const deltaHorizonEnd = 10_000.0

func newDeltaMiceFixture(b *testing.B, ft *dcnflow.Topology, elephants int, delta bool) *deltaMiceFixture {
	b.Helper()
	model := dcnflow.PowerModel{Mu: 1, Alpha: 2, C: 1e12}
	opts := dcnflow.RollingOptions{
		Policy: dcnflow.ArrivalCount{N: 1},
		DCFSR: dcnflow.DCFSROptions{
			Seed:      1,
			Solver:    dcnflow.SolverOptions{MaxIters: 30},
			WarmStart: true,
		},
	}
	if delta {
		opts.Delta = dcnflow.DeltaOptions{Enabled: true, DriftBound: 0.5}
	}
	s, err := dcnflow.NewRollingScheduler(ft.Graph, model, dcnflow.Interval{Start: 0, End: deltaHorizonEnd}, opts)
	if err != nil {
		b.Fatal(err)
	}
	f := &deltaMiceFixture{sched: s, hosts: ft.Hosts}
	h := len(ft.Hosts)
	for i := 0; i < elephants; i++ {
		err := s.Arrive(dcnflow.Flow{
			ID:       dcnflow.FlowID(i + 1),
			Src:      ft.Hosts[i%h],
			Dst:      ft.Hosts[(i+1+i%(h-1))%h],
			Release:  0,
			Deadline: deltaHorizonEnd,
			Size:     100,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	return f
}

// runMice fires `mice` short-span arrivals at unit spacing and returns the
// wall-clock per-arrival cost in microseconds. Every arrival is one epoch
// re-solve (ArrivalCount{N: 1}); with delta enabled the elephants' tail
// interval is reused, without it every arrival re-plans the whole in-flight
// set.
func (f *deltaMiceFixture) runMice(b *testing.B, mice int) float64 {
	b.Helper()
	h := len(f.hosts)
	start := time.Now()
	for i := 0; i < mice; i++ {
		t := 10 + float64(i)
		err := f.sched.Arrive(dcnflow.Flow{
			ID:       dcnflow.FlowID(1_000_000 + i),
			Src:      f.hosts[(3*i)%h],
			Dst:      f.hosts[(3*i+5)%h],
			Release:  t,
			Deadline: t + 8,
			Size:     4,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	return float64(time.Since(start).Microseconds()) / float64(mice)
}

// BenchmarkOnlineDelta measures the sensitivity-bounded delta re-solve of
// the rolling scheduler on elephant-mice traces: a standing fleet of
// long-lived elephants plus a stream of per-arrival mice (per-arrival
// re-plan cost must stay sublinear in the in-flight flow count).
//
//   - smoke: the CI-sized fleet; sanity-checks that delta epochs actually
//     fire and intervals are reused.
//   - full-vs-delta: the same small trace with delta off vs on; reports the
//     per-arrival speedup and both solved-interval counts.
//   - scaling: per-arrival cost at 1.5k/12k/96k in-flight elephants (the
//     largest point is a ~96k-flow trace) and the fitted log-log slope —
//     sublinear means slope < 1.
func BenchmarkOnlineDelta(b *testing.B) {
	ft, err := dcnflow.FatTree(4, 1e12)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("smoke", func(b *testing.B) {
		var stats dcnflow.RollingStats
		var perArrival float64
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			f := newDeltaMiceFixture(b, ft, 192, true)
			b.StartTimer()
			perArrival = f.runMice(b, 64)
			stats = f.sched.Stats()
		}
		if stats.DeltaEpochs == 0 {
			b.Fatal("no delta epochs fired")
		}
		if stats.ReusedIntervals == 0 {
			b.Fatal("delta epochs reused no intervals")
		}
		b.ReportMetric(perArrival, "per-arrival-us")
		b.ReportMetric(float64(stats.ReusedIntervals), "reused-intervals")
	})
	b.Run("full-vs-delta", func(b *testing.B) {
		const elephants, mice = 192, 24
		var speedup, solvedFull, solvedDelta float64
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			full := newDeltaMiceFixture(b, ft, elephants, false)
			del := newDeltaMiceFixture(b, ft, elephants, true)
			b.StartTimer()
			usFull := full.runMice(b, mice)
			usDelta := del.runMice(b, mice)
			speedup = usFull / usDelta
			solvedFull = float64(full.sched.Stats().SolvedIntervals)
			solvedDelta = float64(del.sched.Stats().SolvedIntervals)
		}
		b.ReportMetric(speedup, "speedup")
		b.ReportMetric(solvedFull, "solved-intervals-full")
		b.ReportMetric(solvedDelta, "solved-intervals-delta")
	})
	b.Run("scaling", func(b *testing.B) {
		fleets := []int{1500, 12_000, 96_000}
		perArrival := make([]float64, len(fleets))
		for i := 0; i < b.N; i++ {
			for j, n := range fleets {
				b.StopTimer()
				f := newDeltaMiceFixture(b, ft, n, true)
				b.StartTimer()
				perArrival[j] = f.runMice(b, 256)
			}
		}
		for j, n := range fleets {
			b.ReportMetric(perArrival[j], fmt.Sprintf("per-arrival-us-%d", n))
		}
		// Fitted log-log slope of per-arrival cost vs in-flight count over
		// the measured fleet sizes: < 1 is sublinear.
		slope := math.Log(perArrival[len(fleets)-1]/perArrival[0]) /
			math.Log(float64(fleets[len(fleets)-1])/float64(fleets[0]))
		b.ReportMetric(slope, "scaling-slope")
	})
}

// BenchmarkSimulator measures the discrete-event simulator on a 100-flow
// SP+MCF schedule.
func BenchmarkSimulator(b *testing.B) {
	ft, err := dcnflow.FatTree(8, 1e12)
	if err != nil {
		b.Fatal(err)
	}
	flows, err := dcnflow.UniformWorkload(dcnflow.WorkloadConfig{
		N: 100, T0: 1, T1: 100, SizeMean: 10, SizeStddev: 3,
		Hosts: ft.Hosts, Seed: 42,
	})
	if err != nil {
		b.Fatal(err)
	}
	model := dcnflow.PowerModel{Mu: 1, Alpha: 2, C: 1e12}
	inst, err := dcnflow.NewInstance(ft.Graph, flows, model)
	if err != nil {
		b.Fatal(err)
	}
	sp, err := dcnflow.Solve(context.Background(), dcnflow.SolverSPMCF, inst)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dcnflow.Simulate(ft.Graph, flows, sp.Schedule, model, dcnflow.SimOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Large-topology benchmarks ---------------------------------------------

// largeFixtures are the 1k–100k-node fabrics of the scale benchmarks, built
// once per process and shared across benchmark functions: FatTree k=16
// (1344 nodes) and k=32 (9472 nodes), a VL2 Clos at datacenter scale (9144
// nodes), a 10k-node Jellyfish random graph and a 100k-node Jellyfish —
// the stress fixture for the BFS-renumbered cache-blocked layout (random
// wiring is the worst case for insertion-order locality).
var largeFixtures = struct {
	once sync.Once
	tops map[string]*dcnflow.Topology
	err  error
}{}

func largeFixture(b *testing.B, name string) *dcnflow.Topology {
	b.Helper()
	largeFixtures.once.Do(func() {
		largeFixtures.tops = map[string]*dcnflow.Topology{}
		for _, f := range []struct {
			name  string
			build func() (*dcnflow.Topology, error)
		}{
			{"fattree16", func() (*dcnflow.Topology, error) { return dcnflow.FatTree(16, 1e12) }},
			{"fattree32", func() (*dcnflow.Topology, error) { return dcnflow.FatTree(32, 1e12) }},
			{"vl2-9k", func() (*dcnflow.Topology, error) { return dcnflow.VL2(48, 96, 1000, 8, 1e12) }},
			{"jellyfish10k", func() (*dcnflow.Topology, error) { return dcnflow.Jellyfish(5000, 8, 1, 1e12, 1) }},
			{"jellyfish100k", func() (*dcnflow.Topology, error) { return dcnflow.Jellyfish(50_000, 8, 1, 1e12, 1) }},
		} {
			top, err := f.build()
			if err != nil {
				largeFixtures.err = fmt.Errorf("%s: %w", f.name, err)
				return
			}
			largeFixtures.tops[f.name] = top
		}
	})
	if largeFixtures.err != nil {
		b.Fatal(largeFixtures.err)
	}
	top, ok := largeFixtures.tops[name]
	if !ok {
		b.Fatalf("unknown large fixture %q", name)
	}
	return top
}

// BenchmarkSSSPLarge measures one full shortest-path tree build on each
// large fabric, comparing the binary-heap Dijkstra against the dial level
// queue on the unit weights the cold-start oracle sweep uses (where the
// dial variant is selected automatically). It runs on the compiled hot
// view — the BFS-renumbered, cache-blocked layout the oracle itself
// traverses — so it measures exactly what production sweeps pay per tree.
func BenchmarkSSSPLarge(b *testing.B) {
	for _, name := range []string{"fattree16", "fattree32", "vl2-9k", "jellyfish10k", "jellyfish100k"} {
		b.Run(name, func(b *testing.B) {
			top := largeFixture(b, name)
			c := graph.Compile(top.Graph)
			scr := c.AcquireScratch()
			defer c.ReleaseScratch(scr)
			w := scr.SlotWeights()
			for i := range w {
				w[i] = 1
			}
			scr.ScanWeights() // as the oracle does before a heap sweep
			src := c.ToHot(top.Hosts[0])
			b.Run("heap", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					scr.Tree(src, nil)
				}
			})
			b.Run("dial", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					scr.TreeDial(src, nil, 1, 1)
				}
			})
		})
	}
}

// largeCommodities spreads 64 commodities with distinct sources across a
// fixture's hosts, so one oracle sweep has 64 independent source groups to
// fan out.
func largeCommodities(top *dcnflow.Topology) []mcfsolve.Commodity {
	n := len(top.Hosts)
	comms := make([]mcfsolve.Commodity, 64)
	for i := range comms {
		comms[i] = mcfsolve.Commodity{
			Src:    top.Hosts[(i*(n/64+1))%n],
			Dst:    top.Hosts[(i*(n/64+1)+n/2)%n],
			Demand: 1 + float64(i%5),
		}
	}
	return comms
}

// BenchmarkFrankWolfeLarge measures one single-interval F-MCF solve (64
// commodities, 8 Frank–Wolfe iterations) on the large fabrics, sequential
// vs all-core intra-solve parallelism. The acceptance bar for the parallel
// oracle is workers=N beating workers=1 by >= 2x on fattree16; outputs are
// byte-identical at every worker count (TestSolveBitIdenticalAcrossOracleWorkers).
func BenchmarkFrankWolfeLarge(b *testing.B) {
	model := dcnflow.PowerModel{Mu: 1, Alpha: 2, C: 1e12}
	for _, name := range []string{"fattree16", "fattree32", "jellyfish10k", "jellyfish100k"} {
		b.Run(name, func(b *testing.B) {
			top := largeFixture(b, name)
			comms := largeCommodities(top)
			grid := []int{1}
			if n := runtime.NumCPU(); n > 1 {
				if n > 2 {
					grid = append(grid, 2)
				}
				grid = append(grid, n)
			}
			if name == "jellyfish100k" {
				// One all-core point only: sequential 100k-node solves
				// would dominate the whole suite's runtime.
				grid = []int{runtime.NumCPU()}
			}
			for _, workers := range grid {
				b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
					s, err := mcfsolve.NewSolverCompiled(graph.Compile(top.Graph), model, mcfsolve.Options{
						MaxIters: 8, OracleWorkers: workers,
					})
					if err != nil {
						b.Fatal(err)
					}
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if _, err := s.Solve(comms); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		})
	}
}

// benchEngineSolve runs one engine request of the compile-once/solve-many
// benchmark scenario (fat-tree k=8 under a small flow batch — the
// cache-win shape: compilation dominates a cold solve).
func benchEngineSolve(b *testing.B, eng *dcnflow.Engine) {
	b.Helper()
	r := eng.Solve(context.Background(), dcnflow.Request{
		Scenario: engineBenchScenario(),
		Solver:   dcnflow.SolverDCFSR,
		Options:  engineBenchOptions(),
	})
	if r.Err != nil {
		b.Fatal(r.Err)
	}
}

// BenchmarkEngineRepeatedSolve measures the warm path of the Engine: one
// shared engine solving the same scenario repeatedly, every request served
// from the compiled-instance cache and pooled solver scratch. Compare
// against BenchmarkEngineColdVsWarm/cold for the cache win
// (TestEngineWarmCacheAllocWin pins allocs-warm <= allocs-cold/2).
func BenchmarkEngineRepeatedSolve(b *testing.B) {
	eng := dcnflow.NewEngine(dcnflow.EngineOptions{})
	benchEngineSolve(b, eng) // prime the caches
	hits0 := eng.Stats().Hits
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchEngineSolve(b, eng)
	}
	b.StopTimer()
	b.ReportMetric(float64(eng.Stats().Hits-hits0)/float64(b.N), "cache-hits/op")
}

// BenchmarkEngineColdVsWarm contrasts a fresh engine per solve (topology
// generation + graph compilation + scratch allocation every time) with one
// warm shared engine on the identical request.
func BenchmarkEngineColdVsWarm(b *testing.B) {
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchEngineSolve(b, dcnflow.NewEngine(dcnflow.EngineOptions{}))
		}
	})
	b.Run("warm", func(b *testing.B) {
		eng := dcnflow.NewEngine(dcnflow.EngineOptions{})
		benchEngineSolve(b, eng)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchEngineSolve(b, eng)
		}
	})
}
