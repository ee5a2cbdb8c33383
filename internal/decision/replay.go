package decision

import (
	"fmt"
	"math"

	"dcnflow/internal/flow"
	"dcnflow/internal/graph"
	"dcnflow/internal/power"
	"dcnflow/internal/sim"
	"dcnflow/internal/stats"
)

// EngineFactory builds a fresh online engine for one (re-)run, honoring the
// given overrides (nil means none — the base run). Replay re-runs the
// realized arrival sequence once per counterfactual, so the factory must
// return an engine whose un-overridden decisions reproduce the recorded
// run; callers supply it because decision sits below the schedulers (no
// import cycle) and because it is exactly the hook that lets Replay drive
// any sim.OnlineEngine, not just the two built-ins.
type EngineFactory func(ov *Overrides) (sim.OnlineEngine, error)

// ReplayInput is one counterfactual-replay request: the recorded log, the
// realized instance it was recorded against, and the engine factory.
type ReplayInput struct {
	// Log is the recorded trace; only its admit records spawn
	// counterfactuals.
	Log *Log
	// Graph, Flows and Model are the realized instance the log was
	// recorded on.
	Graph *graph.Graph
	Flows *flow.Set
	Model power.Model
	// Factory rebuilds the engine per run.
	Factory EngineFactory
	// Opts tunes the counterfactual generation.
	Opts ReplayOptions
}

// ReplayOptions tunes Replay.
type ReplayOptions struct {
	// TopK bounds the alternative paths tried per admit record (best
	// first); default 2.
	TopK int
	// Fitness weighs the outcomes into per-decision regret; the zero value
	// selects DefaultFitness (energy only).
	Fitness Fitness
	// MaxDecisions bounds the admit records expanded (0 = all), oldest
	// first — the smoke-test lever.
	MaxDecisions int
}

// Outcome summarises one full run (base or counterfactual) through the
// simulator's validation.
type Outcome struct {
	// Energy is the simulator-measured total energy.
	Energy float64 `json:"energy"`
	// Misses counts missed deadlines (rejected flows included).
	Misses int `json:"misses"`
	// SlackP99 is the tail slack (see FitnessComponents).
	SlackP99 float64 `json:"slack_p99"`
	// CapacityViolations echoes the simulator's count.
	CapacityViolations int `json:"capacity_violations"`
	// Score is the weighted fitness of the run, lower better.
	Score float64 `json:"score"`
}

// CounterfactualOutcome is one re-scored alternative decision.
type CounterfactualOutcome struct {
	// Seq and Flow identify the flipped decision record.
	Seq  int     `json:"seq"`
	Flow flow.ID `json:"flow"`
	// Alternative indexes the record's Alternatives.
	Alternative int `json:"alternative"`
	// Outcome is the full-run result with this one decision substituted
	// and the suffix re-planned by the engine.
	Outcome Outcome `json:"outcome"`
	// Regret is base score minus this outcome's score: positive means the
	// alternative would have beaten the recorded choice, negative means
	// the recorded choice wins by that margin.
	Regret float64 `json:"regret"`
	// Valid reports a sim-clean counterfactual: no capacity violations and
	// no deadline misses beyond the base run's.
	Valid bool `json:"valid"`
	// Err records a counterfactual whose re-run failed outright (invalid
	// forced path, infeasible suffix); its Outcome is zero.
	Err string `json:"error,omitempty"`
}

// ReplayReport is the outcome of a counterfactual replay.
type ReplayReport struct {
	// Base is the un-overridden re-run of the recorded trace.
	Base Outcome
	// Counterfactuals holds one entry per (admit record, alternative)
	// pair, in record order.
	Counterfactuals []CounterfactualOutcome
	// Fitness echoes the weights the scores used.
	Fitness Fitness
}

// RegretRows counts counterfactuals whose regret is meaningfully nonzero —
// decisions where the recorded choice and the alternative measurably differ
// (either direction), beyond float noise relative to the base score. The
// decisions-smoke gate asserts this is positive.
func (r *ReplayReport) RegretRows() int {
	eps := 1e-9 * (1 + math.Abs(r.Base.Score))
	n := 0
	for _, c := range r.Counterfactuals {
		if c.Err == "" && math.Abs(c.Regret) > eps {
			n++
		}
	}
	return n
}

// Table renders the report: the base run, then one row per counterfactual.
func (r *ReplayReport) Table() string {
	tb := stats.NewTable("seq", "flow", "alt", "energy", "dE", "misses", "regret", "valid")
	tb.AddRow("base", "-", "-", r.Base.Energy, 0.0, r.Base.Misses, 0.0, true)
	for _, c := range r.Counterfactuals {
		if c.Err != "" {
			tb.AddRow(c.Seq, int(c.Flow), c.Alternative, "-", "-", "-", "-", c.Err)
			continue
		}
		tb.AddRow(c.Seq, int(c.Flow), c.Alternative,
			c.Outcome.Energy, c.Outcome.Energy-r.Base.Energy, c.Outcome.Misses, c.Regret, c.Valid)
	}
	return tb.String()
}

// runOnce drives one engine through the realized arrival sequence and
// scores the validated result.
func runOnce(in ReplayInput, ov *Overrides) (Outcome, error) {
	engine, err := in.Factory(ov)
	if err != nil {
		return Outcome{}, err
	}
	rep, err := sim.ReplayOnline(in.Graph, in.Flows, in.Model, engine, sim.Options{})
	if err != nil {
		return Outcome{}, err
	}
	comp := SimComponents(in.Flows, rep.Sim)
	f := in.Opts.Fitness
	if f == (Fitness{}) {
		f = DefaultFitness()
	}
	return Outcome{
		Energy:             comp.Energy,
		Misses:             comp.Misses,
		SlackP99:           comp.SlackP99,
		CapacityViolations: rep.CapacityViolations,
		Score:              f.Score(comp),
	}, nil
}

// Replay re-runs a recorded trace against the realized arrival sequence,
// substituting alternatives at the recorded decision points: for each admit
// record, the top-k alternative paths are forced through Overrides one at
// a time, the engine re-plans the suffix — decisions before the flipped one
// are untouched, since the override only changes state from that flow's
// admission onward — and the whole run is re-scored by the discrete-event
// simulator. The report carries per-decision regret: energy delta, misses
// introduced or avoided, and the weighted-fitness gap against the base run.
func Replay(in ReplayInput) (*ReplayReport, error) {
	if in.Log == nil || in.Graph == nil || in.Flows == nil || in.Factory == nil {
		return nil, fmt.Errorf("%w: replay needs a log, graph, flows and engine factory", ErrBadLog)
	}
	if err := in.Log.Validate(); err != nil {
		return nil, err
	}
	topK := in.Opts.TopK
	if topK <= 0 {
		topK = 2
	}
	f := in.Opts.Fitness
	if f == (Fitness{}) {
		f = DefaultFitness()
	}
	in.Opts.Fitness = f

	base, err := runOnce(in, nil)
	if err != nil {
		return nil, fmt.Errorf("decision: replaying the base run: %w", err)
	}
	report := &ReplayReport{Base: base, Fitness: f}

	admits := in.Log.Admits()
	if in.Opts.MaxDecisions > 0 && len(admits) > in.Opts.MaxDecisions {
		admits = admits[:in.Opts.MaxDecisions]
	}
	for _, rec := range admits {
		alts := rec.Alternatives
		if len(alts) > topK {
			alts = alts[:topK]
		}
		for ai, alt := range alts {
			out := CounterfactualOutcome{Seq: rec.Seq, Flow: rec.Flow, Alternative: ai}
			o, err := runOnce(in, &Overrides{ForcePath: map[flow.ID][]graph.EdgeID{rec.Flow: alt.Path}})
			if err != nil {
				out.Err = err.Error()
			} else {
				out.Outcome = o
				out.Regret = base.Score - o.Score
				out.Valid = o.CapacityViolations == 0 && o.Misses <= base.Misses
			}
			report.Counterfactuals = append(report.Counterfactuals, out)
		}
	}
	return report, nil
}
