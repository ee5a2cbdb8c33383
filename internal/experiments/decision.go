package experiments

import (
	"context"
	"fmt"

	"dcnflow/internal/core"
	"dcnflow/internal/decision"
	"dcnflow/internal/flow"
	"dcnflow/internal/graph"
	"dcnflow/internal/mcfsolve"
	"dcnflow/internal/online"
	"dcnflow/internal/power"
	"dcnflow/internal/sim"
	"dcnflow/internal/stats"
	"dcnflow/internal/timeline"
	"dcnflow/internal/topology"
)

// DecisionConfig configures the O2 decision-regret experiment and the
// `dcnflow decisions` record/replay/score modes.
type DecisionConfig struct {
	OnlineConfig
	// TopK bounds the alternative paths replayed per recorded admission.
	// Default 2.
	TopK int
	// MaxDecisions bounds the admit records the counterfactual replayer
	// expands (each costs one full re-run). Default 4.
	MaxDecisions int
	// Fitness weighs the run outcomes; the zero value selects
	// decision.DefaultFitness (energy only).
	Fitness decision.Fitness
}

func (c DecisionConfig) withDefaults() DecisionConfig {
	c.OnlineConfig = c.OnlineConfig.withDefaults()
	if c.TopK <= 0 {
		c.TopK = 2
	}
	if c.MaxDecisions <= 0 {
		c.MaxDecisions = 4
	}
	if c.Fitness == (decision.Fitness{}) {
		c.Fitness = decision.DefaultFitness()
	}
	return c
}

// meta packages the run description a recorded log needs for replay.
func (c DecisionConfig) meta(scheduler string) decision.Meta {
	return decision.Meta{
		Scheduler: scheduler,
		Workload:  c.Workload,
		N:         c.N,
		FatTreeK:  c.FatTreeK,
		Seed:      c.Seed,
		Alpha:     c.Alpha,
		Iters:     c.SolverIters,
		Epoch:     c.Epoch,
	}
}

// decisionConfigFromMeta inverts DecisionConfig.meta: the experiment
// configuration that reproduces a recorded run.
func decisionConfigFromMeta(m decision.Meta) DecisionConfig {
	return DecisionConfig{OnlineConfig: OnlineConfig{
		AblateConfig: AblateConfig{
			N: m.N, FatTreeK: m.FatTreeK, Seed: m.Seed,
			Alpha: m.Alpha, SolverIters: m.Iters,
		},
		Workload: m.Workload,
		Epoch:    m.Epoch,
	}}.withDefaults()
}

// DecisionInstance rebuilds the exact instance a decision log was recorded
// on from its meta header: the fat-tree fabric, the workload draw, and the
// O1 evaluation power model (sigma = 0).
func DecisionInstance(m decision.Meta) (*topology.Topology, *flow.Set, power.Model, error) {
	if err := m.Validate(); err != nil {
		return nil, nil, power.Model{}, err
	}
	cfg := decisionConfigFromMeta(m)
	return decisionInstance(cfg)
}

func decisionInstance(cfg DecisionConfig) (*topology.Topology, *flow.Set, power.Model, error) {
	ft, err := topology.FatTree(cfg.FatTreeK, 1e12)
	if err != nil {
		return nil, nil, power.Model{}, fmt.Errorf("experiments: %w", err)
	}
	fs, err := OnlineWorkloadInstance(cfg.OnlineConfig, ft, cfg.N, cfg.Seed)
	if err != nil {
		return nil, nil, power.Model{}, fmt.Errorf("experiments: %w", err)
	}
	model := ablateModel(cfg.AblateConfig, fs)
	model.Sigma = 0
	return ft, fs, model, nil
}

// decisionEngine builds the recorded scheduler with an optional recorder
// and overrides attached — the one construction path shared by recording,
// the replay factory, and the forced-path demonstrations.
func decisionEngine(scheduler string, cfg DecisionConfig, ft *topology.Topology, fs *flow.Set,
	m power.Model, rec decision.Recorder, ov *decision.Overrides) (sim.OnlineEngine, error) {
	t0, t1 := fs.Horizon()
	horizon := timeline.Interval{Start: t0, End: t1}
	switch scheduler {
	case "greedy":
		return online.New(ft.Graph, m, horizon, online.Options{Recorder: rec, Overrides: ov})
	case "rolling":
		var policy online.ReplanPolicy = online.ArrivalCount{N: 1}
		if cfg.Epoch > 0 {
			policy = online.FixedPeriod{Period: cfg.Epoch}
		}
		return online.NewRollingCtx(context.Background(), ft.Graph, m, horizon, online.RollingOptions{
			Policy: policy,
			DCFSR: core.DCFSROptions{
				Seed:      cfg.Seed,
				Solver:    mcfsolve.Options{MaxIters: cfg.SolverIters},
				WarmStart: true,
			},
			Recorder:  rec,
			Overrides: ov,
		})
	default:
		return nil, fmt.Errorf("%w: unknown scheduler %q", decision.ErrBadLog, scheduler)
	}
}

// DecisionFactory returns the decision.EngineFactory that rebuilds the
// recorded scheduler from a log's meta header — the glue `dcnflow decisions
// -mode replay` and the O2 experiment hand to decision.Replay.
func DecisionFactory(m decision.Meta, ft *topology.Topology, fs *flow.Set, model power.Model) decision.EngineFactory {
	cfg := decisionConfigFromMeta(m)
	return func(ov *decision.Overrides) (sim.OnlineEngine, error) {
		return decisionEngine(m.Scheduler, cfg, ft, fs, model, nil, ov)
	}
}

// RecordDecisions runs one scheduler ("greedy" or "rolling") over the
// configured workload with a decision recorder attached and returns the
// packaged log alongside the sim-validated replay outcome.
func RecordDecisions(cfg DecisionConfig, scheduler string) (*decision.Log, *sim.ReplayResult, error) {
	cfg = cfg.withDefaults()
	ft, fs, model, err := decisionInstance(cfg)
	if err != nil {
		return nil, nil, err
	}
	mem := &decision.Memory{Meta: cfg.meta(scheduler)}
	rep, err := runDecisionEngine(scheduler, cfg, ft, fs, model, mem, nil)
	if err != nil {
		return nil, nil, err
	}
	return mem.Log(), rep, nil
}

func runDecisionEngine(scheduler string, cfg DecisionConfig, ft *topology.Topology, fs *flow.Set,
	m power.Model, rec decision.Recorder, ov *decision.Overrides) (*sim.ReplayResult, error) {
	engine, err := decisionEngine(scheduler, cfg, ft, fs, m, rec, ov)
	if err != nil {
		return nil, err
	}
	rep, err := sim.ReplayOnline(ft.Graph, fs, m, engine, sim.Options{})
	if err != nil {
		return nil, fmt.Errorf("experiments: %s replay: %w", scheduler, err)
	}
	return rep, nil
}

// DecisionDemo is one forced-path demonstration: a flow where the rolling
// scheduler's chosen path differs from the greedy's, re-run with the
// greedy's choice forced into the rolling run and both full runs scored on
// the weighted fitness. Positive regret means the rolling scheduler's own
// choice beats the greedy's at that decision point.
type DecisionDemo struct {
	Flow flow.ID
	// Epoch is the rolling epoch the decision was taken in.
	Epoch int
	// RollingScore and ForcedScore are the full-run weighted fitness of the
	// recorded run and the greedy-path-forced run (lower better).
	RollingScore float64
	ForcedScore  float64
	// Regret is ForcedScore - RollingScore: what forcing the greedy's path
	// would have cost.
	Regret float64
	// Valid reports the forced run stayed sim-clean (no capacity or
	// deadline violations), so the comparison is apples-to-apples.
	Valid bool
}

// DecisionRegretResult is the O2 experiment outcome.
type DecisionRegretResult struct {
	Config DecisionConfig
	// GreedyLog and RollingLog are the recorded traces.
	GreedyLog, RollingLog *decision.Log
	// Greedy and Rolling are the sim-validated full-run outcomes.
	Greedy, Rolling decision.Outcome
	// Demos are the forced-path demonstrations, recorded-decision order.
	Demos []DecisionDemo
	// Replay is the top-k counterfactual replay of the rolling log.
	Replay *decision.ReplayReport
}

// RollingWins counts demonstrations where the rolling scheduler's choice
// strictly beats the forced greedy choice on weighted fitness.
func (r *DecisionRegretResult) RollingWins() int {
	n := 0
	for _, d := range r.Demos {
		if d.Valid && d.Regret > 0 {
			n++
		}
	}
	return n
}

// Table renders the experiment: the two schedulers' outcomes, then one row
// per forced-path demonstration.
func (r *DecisionRegretResult) Table() string {
	tb := stats.NewTable("scheduler", "energy", "misses", "slack p99", "fitness")
	tb.AddRow("greedy", r.Greedy.Energy, r.Greedy.Misses, r.Greedy.SlackP99, r.Greedy.Score)
	tb.AddRow("rolling", r.Rolling.Energy, r.Rolling.Misses, r.Rolling.SlackP99, r.Rolling.Score)
	out := tb.String()
	if len(r.Demos) > 0 {
		dt := stats.NewTable("flow", "epoch", "rolling fit", "greedy-path fit", "regret", "valid")
		for _, d := range r.Demos {
			dt.AddRow(int(d.Flow), d.Epoch, d.RollingScore, d.ForcedScore, d.Regret, d.Valid)
		}
		out += "\nforced greedy-path counterfactuals (regret > 0: rolling's choice wins):\n" + dt.String()
	}
	return out
}

// maxDemos bounds the greedy-vs-rolling forced-path demonstrations of
// RunDecisionRegret; each costs one full rolling re-run.
const maxDemos = 4

// RunDecisionRegret is the O2 experiment: record the greedy and rolling
// schedulers on the same diurnal workload, then quantify decision quality
// two ways — (a) for flows the two schedulers routed differently, force the
// greedy's path into the rolling run and measure the weighted-fitness
// regret of that substitution; (b) replay the rolling log's own top-k
// recorded alternatives through decision.Replay for sim-validated
// per-decision regret. Demonstrating at least one decision where the
// rolling choice beats the greedy's (positive regret, Valid) is the
// experiment's acceptance gate.
func RunDecisionRegret(cfg DecisionConfig) (*DecisionRegretResult, error) {
	cfg = cfg.withDefaults()
	ft, fs, model, err := decisionInstance(cfg)
	if err != nil {
		return nil, err
	}
	gMem := &decision.Memory{Meta: cfg.meta("greedy")}
	gRep, err := runDecisionEngine("greedy", cfg, ft, fs, model, gMem, nil)
	if err != nil {
		return nil, err
	}
	rMem := &decision.Memory{Meta: cfg.meta("rolling")}
	rRep, err := runDecisionEngine("rolling", cfg, ft, fs, model, rMem, nil)
	if err != nil {
		return nil, err
	}
	res := &DecisionRegretResult{
		Config:     cfg,
		GreedyLog:  gMem.Log(),
		RollingLog: rMem.Log(),
		Greedy:     scoreReplay(fs, gRep, cfg.Fitness),
		Rolling:    scoreReplay(fs, rRep, cfg.Fitness),
	}

	// (a) Forced-path demonstrations at the decision points where the two
	// schedulers disagreed.
	greedyPath := make(map[flow.ID][]graph.EdgeID)
	for _, rec := range res.GreedyLog.Admits() {
		greedyPath[rec.Flow] = rec.Path
	}
	for _, rec := range res.RollingLog.Admits() {
		if len(res.Demos) == maxDemos {
			break
		}
		gp, ok := greedyPath[rec.Flow]
		if !ok || graph.ComparePathKeys(gp, rec.Path) == 0 {
			continue
		}
		forced, err := runDecisionEngine("rolling", cfg, ft, fs, model, nil,
			&decision.Overrides{ForcePath: map[flow.ID][]graph.EdgeID{rec.Flow: gp}})
		if err != nil {
			return nil, fmt.Errorf("experiments: forcing greedy path on flow %d: %w", rec.Flow, err)
		}
		out := scoreReplay(fs, forced, cfg.Fitness)
		res.Demos = append(res.Demos, DecisionDemo{
			Flow: rec.Flow, Epoch: rec.Epoch,
			RollingScore: res.Rolling.Score, ForcedScore: out.Score,
			Regret: out.Score - res.Rolling.Score,
			Valid:  out.CapacityViolations == 0 && out.Misses <= res.Rolling.Misses,
		})
	}

	// (b) Counterfactual replay of the rolling log's own alternatives.
	res.Replay, err = decision.Replay(decision.ReplayInput{
		Log: res.RollingLog, Graph: ft.Graph, Flows: fs, Model: model,
		Factory: DecisionFactory(res.RollingLog.Meta, ft, fs, model),
		Opts: decision.ReplayOptions{
			TopK: cfg.TopK, MaxDecisions: cfg.MaxDecisions, Fitness: cfg.Fitness,
		},
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// scoreReplay collapses a validated replay outcome to a decision.Outcome
// under the given weights.
func scoreReplay(fs *flow.Set, rep *sim.ReplayResult, f decision.Fitness) decision.Outcome {
	comp := decision.SimComponents(fs, rep.Sim)
	return decision.Outcome{
		Energy:             comp.Energy,
		Misses:             comp.Misses,
		SlackP99:           comp.SlackP99,
		CapacityViolations: rep.CapacityViolations,
		Score:              f.Score(comp),
	}
}
