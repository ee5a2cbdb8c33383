package dcnflow

import (
	"io"

	"dcnflow/internal/decision"
)

// ErrBadDecisionLog reports a decision log that failed strict decoding or
// validation; errors from LoadDecisionLog wrap it (mirroring
// ErrBadScenario).
var ErrBadDecisionLog = decision.ErrBadLog

// Decision-log subsystem re-exports (internal/decision): typed records of
// every online-scheduler admission and replan decision, counterfactual
// replay, and the weighted multi-objective fitness.
type (
	// DecisionRecord is one typed decision of an online scheduler: flow,
	// epoch, admit/reject with reason, chosen path, scored alternatives,
	// residual slack, all under a deterministic sequence number.
	DecisionRecord = decision.Record
	// DecisionKind classifies a record ("admit", "reject", "replan").
	DecisionKind = decision.Kind
	// DecisionAlternative is one scored candidate path a scheduler
	// considered but did not choose.
	DecisionAlternative = decision.Alternative
	// DecisionRecorder receives records as a scheduler makes them; attach
	// one via OnlineOptions.Recorder or RollingOptions.Recorder. Nil
	// disables tracing at zero cost.
	DecisionRecorder = decision.Recorder
	// DecisionMemory is the in-memory DecisionRecorder; its Log method
	// packages the trace for serialization.
	DecisionMemory = decision.Memory
	// DecisionMeta is a log's run-description header — enough to rebuild
	// the instance and scheduler for a counterfactual replay.
	DecisionMeta = decision.Meta
	// DecisionLog is a complete recorded trace (meta + records), JSONL
	// serialized.
	DecisionLog = decision.Log
	// DecisionOverrides forces specific decisions during a counterfactual
	// re-run (a forced path).
	DecisionOverrides = decision.Overrides
	// DecisionReplayInput is one counterfactual-replay request for
	// ReplayDecisions.
	DecisionReplayInput = decision.ReplayInput
	// DecisionReplayOptions tunes the counterfactual generation (top-k,
	// fitness weights, decision budget).
	DecisionReplayOptions = decision.ReplayOptions
	// DecisionReplayReport is the replay outcome: the base run plus one
	// sim-validated row per counterfactual with its regret.
	DecisionReplayReport = decision.ReplayReport
	// DecisionOutcome is one full run's sim-validated summary (energy,
	// misses, tail slack, weighted score).
	DecisionOutcome = decision.Outcome
	// Fitness collapses a run or sweep cell to one weighted scalar (lower
	// better); wire it into SweepOptions.Fitness to rank policies.
	Fitness = decision.Fitness
	// FitnessComponents are the raw per-run quantities a Fitness weighs.
	FitnessComponents = decision.FitnessComponents
)

// The decision-record kinds.
const (
	// DecisionAdmit marks an admitted flow.
	DecisionAdmit = decision.KindAdmit
	// DecisionReject marks a refused flow.
	DecisionReject = decision.KindReject
	// DecisionReplan marks a rolling epoch boundary.
	DecisionReplan = decision.KindReplan
)

// DefaultFitness weighs energy alone — the paper's objective.
func DefaultFitness() Fitness { return decision.DefaultFitness() }

// LoadDecisionLog strictly decodes one JSONL decision log; arbitrary input
// yields a validated log or an error wrapping ErrBadDecisionLog, never a
// panic.
func LoadDecisionLog(r io.Reader) (*DecisionLog, error) { return decision.LoadLog(r) }

// LoadDecisionLogFile is LoadDecisionLog on a file path.
func LoadDecisionLogFile(path string) (*DecisionLog, error) { return decision.LoadLogFile(path) }

// SaveDecisionLog validates and writes a log in the canonical JSONL form;
// Save(Load(x)) is byte-identical for canonical x.
func SaveDecisionLog(w io.Writer, l *DecisionLog) error { return decision.SaveLog(w, l) }

// SaveDecisionLogFile is SaveDecisionLog on a file path.
func SaveDecisionLogFile(path string, l *DecisionLog) error { return decision.SaveLogFile(path, l) }

// ReplayDecisions re-runs a recorded trace against the realized arrival
// sequence, substituting the recorded top-k alternatives one decision at a
// time and re-scoring each full run with the discrete-event simulator —
// per-decision regret for the online schedulers. See decision.Replay.
func ReplayDecisions(in DecisionReplayInput) (*DecisionReplayReport, error) {
	return decision.Replay(in)
}
