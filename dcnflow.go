// Package dcnflow is a library for energy-efficient scheduling and routing
// of deadline-constrained flows in data center networks, reproducing
//
//	Wang, Zhang, Zheng, Vasilakos, Ren, Liu:
//	"Energy-Efficient Flow Scheduling and Routing with Hard Deadlines in
//	Data Center Networks", ICDCS 2014 (arXiv:1405.7484).
//
// The library covers both problem versions from the paper:
//
//   - DCFS (routing given): the "dcfs-mcf" solver runs the optimal
//     Most-Critical-First combinatorial algorithm (Algorithm 1 / Theorem 1 /
//     Corollary 1) on an Instance's fixed routing.
//   - DCFSR (joint routing + scheduling, strongly NP-hard): the "dcfsr"
//     solver runs the Random-Schedule relaxation/rounding approximation
//     (Algorithm 2 / Theorems 4, 6, 7), rounding by conditional
//     expectations for integer alpha up to 8 (by the paper's seeded
//     random draws otherwise, and after an assignment that violates link
//     capacities), and its Solution.LowerBound is a certified bound for
//     density-rate single-path schedules such as its own: per interval,
//     the larger of the relaxation's Frank–Wolfe dual bound and the
//     isolated-flow bound sum mu*D^alpha*hops. LowerBound exposes the
//     paper's fractional value, the normaliser of its evaluation, which
//     is not a certified bound.
//
// Beyond the paper, the library implements the online setting its authors
// defer to future work: flows revealed at release time, scheduled by either
// the irrevocable marginal-cost greedy ("greedy-online") or the
// rolling-horizon re-optimizer ("rolling-online"), which re-runs the
// Random-Schedule relaxation over the remaining horizon with frozen
// commitments at every epoch boundary and validates every run with the
// discrete-event simulator.
//
// # Scenario/Solver API
//
// The unified entry point is a typed Instance (graph + flows + power model
// + horizon, validated once) solved by any built-in solver family under a
// context.Context:
//
//	ft, _ := dcnflow.FatTree(8, 1000)            // 80 switches, 128 hosts
//	flows, _ := dcnflow.UniformWorkload(dcnflow.WorkloadConfig{
//	    N: 100, T0: 1, T1: 100, SizeMean: 10, SizeStddev: 3,
//	    Hosts: ft.Hosts, Seed: 42,
//	})
//	model := dcnflow.PowerModel{Sigma: 1, Mu: 1, Alpha: 2, C: 1000}
//	inst, _ := dcnflow.NewInstance(ft.Graph, flows, model)
//	sol, _ := dcnflow.Solve(ctx, "dcfsr", inst, dcnflow.WithSeed(1))
//	fmt.Println("energy:", sol.Energy, "LB:", sol.LowerBound)
//
// SolverNames lists the eight built-in families (dcfsr, dcfs-mcf, sp-mcf,
// ecmp-mcf, always-on, exact, greedy-online, rolling-online), a fixed set.
// Instances also load declaratively from JSON scenario specs
// (LoadScenario / ScenarioSpec.Instance; `dcnflow run spec.json -solver
// dcfsr` on the command line), so experiments are data. Solves accept a
// context — cancellation is observed at Frank–Wolfe iteration and epoch
// boundaries — and an optional progress callback (WithProgress).
//
// Whole evaluation campaigns are data too: a SweepSpec crosses topology,
// workload, deadline-tightness and seed axes with a solver list, and Sweep
// executes the grid on a bounded worker pool with byte-deterministic
// output — results ordered by cell, every seed derived from the spec, so
// the worker count is a pure wall-clock lever (`dcnflow sweep grid.json
// -workers 8 -out results.jsonl`; see DESIGN.md's "Sweep engine" chapter).
//
// # Engine & serving
//
// The compile-once/solve-many entry point is the Engine: a bounded LRU
// cache of compiled instances (generated topologies, flat adjacency
// views, pooled shortest-path and solver scratch, built workload
// instances) keyed by the canonical topology+model spec fragment, plus a
// deterministic batch executor:
//
//	eng := dcnflow.NewEngine(dcnflow.EngineOptions{})
//	r := eng.Solve(ctx, dcnflow.Request{Scenario: spec, Solver: "dcfsr"})
//	results := eng.SolveBatch(ctx, reqs)
//
// Engine output is bit-identical to direct Solve calls whether the cache
// hits or misses; warm solves skip topology generation, graph compilation
// and scratch allocation (>= 2x fewer allocations, pinned by regression
// test). Sweep, the experiment runners and the CLI dispatch through a
// shared Engine, and `dcnflow serve` exposes one over HTTP (POST
// /v1/solve, POST /v1/batch, GET /healthz — see NewServeHandler and
// Client, and DESIGN.md's "Engine & serving" chapter).
//
// The subsystems (graph, topologies, power model, workloads, YDS,
// F-MCF solver, simulator, baselines, experiment harness) live under
// internal/ and are surfaced here through aliases, so external users never
// import internal paths directly.
//
// # Performance knobs
//
// The Random-Schedule pipeline is engineered around a zero-allocation
// Frank–Wolfe hot path (flat CSR adjacency, reusable shortest-path
// scratch, interned path handles, sparse line search); see DESIGN.md for
// the architecture. The levers exposed here:
//
//   - DCFSROptions.Parallelism bounds concurrent per-interval relaxation
//     solves (default NumCPU), in offline solves and in the re-solved
//     intervals of rolling delta epochs. Workers claim intervals in any
//     order but results are reduced in interval order, so they never
//     depend on the worker count — parallelism is purely a wall-clock
//     lever.
//   - SolverOptions.OracleWorkers fans the per-source shortest-path runs
//     inside each Frank–Wolfe iteration across a bounded worker pool
//     (default sequential; negative means all cores). The parallel sweep
//     merges in ascending-source order, so outputs stay byte-identical at
//     any worker count — the lever for single-solve latency on large
//     fabrics, composing multiplicatively with Parallelism.
//   - SolverOptions.MaxIters and SolverOptions.Tol bound the Frank–Wolfe
//     iterations (default 60) and the relative duality-gap stop (default
//     1e-3): Tol trades lower-bound tightness for time, with the residual
//     gap reported per solve.
//   - DCFSROptions.WarmStart makes "rolling-online" seed each epoch's
//     per-interval Frank–Wolfe solves from the previous epoch's
//     decompositions. On full re-plans of a slowly varying diurnal
//     workload it saves about a third of the Frank–Wolfe iterations
//     (`dcnflow online -mode rolling` defaults: 5,408 warm vs 8,448 cold);
//     on delta epochs (RollingOptions.Delta) almost none (9,533 vs 9,569),
//     because a touched interval seeds only when its commodity multiset
//     repeats (see DESIGN.md's "Online scheduling" chapter). Offline
//     solves always start cold, which on the paper's evaluation workloads
//     converges in fewer iterations. Off by default.
package dcnflow

import (
	"context"
	"io"

	"dcnflow/internal/baseline"
	"dcnflow/internal/core"
	"dcnflow/internal/flow"
	"dcnflow/internal/graph"
	"dcnflow/internal/mcfsolve"
	"dcnflow/internal/online"
	"dcnflow/internal/power"
	"dcnflow/internal/schedule"
	"dcnflow/internal/sim"
	"dcnflow/internal/timeline"
	"dcnflow/internal/topology"
)

// Graph model re-exports.
type (
	// Graph is the directed network graph (two directed edges per physical
	// link).
	Graph = graph.Graph
	// NodeID identifies a switch or host.
	NodeID = graph.NodeID
	// EdgeID identifies one direction of a physical link.
	EdgeID = graph.EdgeID
	// Path is a directed path given by its edge ids.
	Path = graph.Path
	// Topology bundles a generated graph with its host and switch lists.
	Topology = topology.Topology
)

// Flow model re-exports.
type (
	// Flow is a deadline-constrained flow: Size units of data from Src to
	// Dst within [Release, Deadline].
	Flow = flow.Flow
	// FlowID identifies a flow within a FlowSet.
	FlowID = flow.ID
	// FlowSet is an ordered, validated collection of flows.
	FlowSet = flow.Set
	// WorkloadConfig parameterises the random workload generator used by
	// the paper's evaluation (uniform spans, N(mean, stddev) sizes).
	WorkloadConfig = flow.GenConfig
)

// Power and schedule re-exports.
type (
	// PowerModel is the link power function f(x) = sigma + mu*x^alpha for
	// 0 < x <= C and f(0) = 0.
	PowerModel = power.Model
	// Schedule is a complete solution: per-flow paths and rate functions.
	Schedule = schedule.Schedule
	// FlowSchedule is one flow's path and piecewise-constant rate function.
	FlowSchedule = schedule.FlowSchedule
	// RateSegment is one constant-rate piece of a flow schedule.
	RateSegment = schedule.RateSegment
	// VerifyOptions controls Schedule.Verify strictness.
	VerifyOptions = schedule.VerifyOptions
	// Interval is a closed time interval.
	Interval = timeline.Interval
)

// Solver re-exports.
type (
	// DCFSROptions tunes Random-Schedule.
	DCFSROptions = core.DCFSROptions
	// ExactOptions bounds the brute-force small-instance DCFSR solver.
	ExactOptions = core.ExactOptions
	// SimResult reports simulator measurements.
	SimResult = sim.Result
	// SimOptions configures the simulator.
	SimOptions = sim.Options
	// EDFReport is the Theorem 4 per-link EDF time-sharing check.
	EDFReport = sim.EDFReport
	// SolverOptions tunes the Frank–Wolfe F-MCF relaxation inside
	// Random-Schedule (DCFSROptions.Solver).
	SolverOptions = mcfsolve.Options
	// CostKind selects the relaxation's per-link cost.
	CostKind = mcfsolve.CostKind
	// ProgressEvent is one observation of a running solve (per-interval
	// relaxation events, per-epoch rolling re-plan events).
	ProgressEvent = core.ProgressEvent
	// ProgressFunc observes solve progress (DCFSROptions.Progress,
	// WithProgress).
	ProgressFunc = core.ProgressFunc
)

// Relaxation cost kinds.
const (
	// CostDynamic relaxes with g(x) = mu*x^alpha (the paper's Section V-A
	// speed-scaling relaxation).
	CostDynamic = mcfsolve.CostDynamic
	// CostEnvelope relaxes with the convex lower envelope of the full
	// power function f, rewarding consolidation under idle power.
	CostEnvelope = mcfsolve.CostEnvelope
)

// Topology constructors.
var (
	// FatTree builds a k-ary fat-tree (k=8 gives the paper's 80 switches /
	// 128 servers).
	FatTree = topology.FatTree
	// BCube builds a BCube(n, l) server-centric topology.
	BCube = topology.BCube
	// LeafSpine builds a two-tier Clos.
	LeafSpine = topology.LeafSpine
	// VL2 builds a VL2-style folded Clos with dual-homed ToRs.
	VL2 = topology.VL2
	// Jellyfish builds a random regular switch graph (seeded).
	Jellyfish = topology.Jellyfish
	// Line builds the paper's Fig. 1 line network.
	Line = topology.Line
	// Star builds a single-switch star.
	Star = topology.Star
	// ParallelLinks builds the Theorem 2/3 hardness gadget.
	ParallelLinks = topology.ParallelLinks
)

// Online scheduling (the paper's future-work direction): flows are revealed
// only at their release times. Two schedulers cover the effort/quality
// spectrum — the marginal-cost greedy places each flow irrevocably on
// arrival, and the rolling-horizon re-optimizer batches arrivals into
// epochs and re-runs the Random-Schedule relaxation over the remaining
// horizon with frozen commitments at every epoch boundary.
type (
	// OnlineOptions tunes the greedy online scheduler.
	OnlineOptions = online.Options
	// OnlineScheduler admits flows one at a time (marginal-cost greedy).
	OnlineScheduler = online.Scheduler
	// RollingOptions tunes the rolling-horizon online scheduler.
	RollingOptions = online.RollingOptions
	// RollingScheduler is the rolling-horizon online DCFSR scheduler.
	RollingScheduler = online.RollingScheduler
	// RollingStats aggregates per-epoch diagnostics of a rolling run.
	RollingStats = online.RollingStats
	// ReplanPolicy decides when the rolling scheduler re-optimises.
	ReplanPolicy = online.ReplanPolicy
	// FixedPeriod re-plans every Period time units.
	FixedPeriod = online.FixedPeriod
	// ArrivalCount re-plans once N arrivals are queued.
	ArrivalCount = online.ArrivalCount
	// DeltaOptions tunes the rolling scheduler's sensitivity-bounded
	// incremental delta re-solve (RollingOptions.Delta): opt-in interval
	// reuse across epochs under a load-drift bound and a staleness cap.
	DeltaOptions = core.DeltaOptions
	// DiurnalConfig parameterises the sinusoidal time-varying workload.
	DiurnalConfig = flow.DiurnalConfig
	// PacketLevelOptions configures the store-and-forward simulation.
	PacketLevelOptions = sim.PacketLevelOptions
	// PacketLevelResult reports per-flow completion under the per-link EDF
	// serialisation discipline.
	PacketLevelResult = sim.PacketLevelResult
)

// NewOnlineScheduler creates an incremental online scheduler for callers
// that admit flows as they arrive. The scheduler binds g (it routes on
// g's compiled view), so g must not be mutated while it is in use.
func NewOnlineScheduler(g *Graph, m PowerModel, horizon Interval, opts OnlineOptions) (*OnlineScheduler, error) {
	return online.New(g, m, horizon, opts)
}

// NewRollingScheduler creates an incremental rolling-horizon scheduler for
// callers that feed arrivals themselves (Arrive/AdvanceTo/Finish in release
// order).
func NewRollingScheduler(g *Graph, m PowerModel, horizon Interval, opts RollingOptions) (*RollingScheduler, error) {
	return online.NewRollingCtx(context.Background(), g, m, horizon, opts)
}

// SimulatePacketLevel runs the store-and-forward per-link EDF simulation
// of a Random-Schedule output.
func SimulatePacketLevel(g *Graph, flows *FlowSet, sched *Schedule, opts PacketLevelOptions) (*PacketLevelResult, error) {
	return sim.RunPacketLevel(g, flows, sched, opts)
}

// WriteTrace serializes a flow set as CSV (id,src,dst,release,deadline,size).
func WriteTrace(w io.Writer, flows *FlowSet) error { return flow.WriteTrace(w, flows) }

// ReadTrace parses a CSV flow trace produced by WriteTrace.
func ReadTrace(r io.Reader) (*FlowSet, error) { return flow.ReadTrace(r) }

// DiurnalWorkload draws flows from a sinusoidal arrival-intensity profile,
// modelling the time-varying load the paper's introduction cites.
func DiurnalWorkload(cfg DiurnalConfig) (*FlowSet, error) { return flow.Diurnal(cfg) }

// IncastWorkload generates a many-to-one pattern with a shared deadline:
// every sender transmits size units to the receiver within
// [release, deadline].
func IncastWorkload(receiver NodeID, senders []NodeID, release, deadline, size float64) (*FlowSet, error) {
	return flow.Incast(receiver, senders, release, deadline, size)
}

// Workload constructors.
var (
	// NewFlowSet validates and indexes a set of flows.
	NewFlowSet = flow.NewSet
	// UniformWorkload draws the paper's evaluation workload.
	UniformWorkload = flow.Uniform
	// PartitionAggregateWorkload models search-style fan-in with one
	// shared deadline.
	PartitionAggregateWorkload = flow.PartitionAggregate
	// ShuffleWorkload models an all-to-all shuffle stage.
	ShuffleWorkload = flow.Shuffle
	// SplitFlow divides a flow into k equal sub-flows sharing its span —
	// the paper's Section II-B device for multi-path routing.
	SplitFlow = flow.Split
	// SplitFlowSet splits every flow above a size threshold.
	SplitFlowSet = flow.SplitSet
)

// LowerBound computes the fractional relaxation value used to normalise the
// paper's Fig. 2: sum over intervals of |I_k| times the Frank–Wolfe primal
// value of the interval's F-MCF, every interval solve running to Tol or
// its iteration cap. A primal value bounds the relaxation optimum from
// above, so it is not a certified bound; the "dcfsr" solver's
// Solution.LowerBound is. Cancellation follows
// Solve: the relaxation checks ctx at every Frank–Wolfe iteration, and a
// cancelled ctx returns the wrapped context error and no bound.
func LowerBound(ctx context.Context, g *Graph, flows *FlowSet, m PowerModel, opts DCFSROptions) (float64, error) {
	return core.LowerBoundCtx(ctx, g, flows, m, opts)
}

// ShortestPathRouting assigns every flow its deterministic minimum-hop
// path — the input for the SP+MCF comparison scheme.
func ShortestPathRouting(g *Graph, flows *FlowSet) (map[FlowID]Path, error) {
	return baseline.ShortestPaths(g, flows)
}

// Simulate executes a schedule on the network with the discrete-event
// simulator, independently measuring energy, deadlines and capacities.
func Simulate(g *Graph, flows *FlowSet, sched *Schedule, m PowerModel, opts SimOptions) (*SimResult, error) {
	return sim.Run(g, flows, sched, m, opts)
}

// VerifyEDFTimeSharing checks Theorem 4's per-link EDF discipline on a
// Random-Schedule output.
func VerifyEDFTimeSharing(g *Graph, flows *FlowSet, sched *Schedule) (*EDFReport, error) {
	return sim.VerifyEDFTimeSharing(g, flows, sched)
}

// SigmaForRopt returns the idle power sigma that places the energy-optimal
// link rate (Lemma 3) at r: sigma = mu*(alpha-1)*r^alpha.
func SigmaForRopt(mu, alpha, r float64) float64 {
	return power.SigmaForRopt(mu, alpha, r)
}
