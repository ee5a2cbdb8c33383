// Package decision is the structured decision-log subsystem of the online
// schedulers: typed records of every admission and epoch-replan decision
// (who was admitted, on which path, what the alternatives would have cost),
// a counterfactual replayer that re-runs a recorded trace with one decision
// flipped and re-scores the suffix with the discrete-event simulator, and a
// weighted multi-objective fitness function that collapses a run (or a
// sweep cell) to one comparable scalar.
//
// The package sits below internal/online: the schedulers call a Recorder at
// every decision point and consult Overrides during counterfactual re-runs,
// while decision itself never imports the schedulers — Replay drives any
// sim.OnlineEngine through a caller-supplied factory.
//
// Determinism contract: records carry sequence numbers assigned in decision
// order (epoch/arrival order, never goroutine order), so two runs of the
// same instance produce byte-identical logs at any worker or parallelism
// count.
package decision

import (
	"dcnflow/internal/flow"
	"dcnflow/internal/graph"
)

// Kind classifies a decision record.
type Kind string

// The record kinds a scheduler emits.
const (
	// KindAdmit records an admitted flow: the chosen path, its rate and
	// exact marginal energy, and the scored alternatives.
	KindAdmit Kind = "admit"
	// KindReject records a flow refused by admission control.
	KindReject Kind = "reject"
	// KindReplan records an epoch re-solve boundary of the rolling
	// scheduler (the greedy never emits it).
	KindReplan Kind = "replan"
)

// NoFlow is the Flow field of records not tied to a flow (replan
// boundaries). Flow IDs are non-negative, so the value cannot collide.
const NoFlow flow.ID = -1

// Alternative is one scored candidate the scheduler considered but did not
// choose — for the rolling scheduler a relaxation-candidate path with its
// aggregated rounding weight, for the greedy the min-hop path. Marginal
// energies are exact (integrated against the reservations at decision
// time), so counterfactual replays can be ranked before re-running anything.
type Alternative struct {
	// Path is the candidate's directed edge sequence.
	Path []graph.EdgeID `json:"path"`
	// Weight is the relaxation distribution mass behind the candidate
	// (zero for safety-net and greedy alternatives).
	Weight float64 `json:"weight,omitempty"`
	// MarginalEnergy is the exact energy increase of reserving the flow's
	// rate on this path over its residual span, at decision time.
	MarginalEnergy float64 `json:"marginal_energy"`
}

// Record is one typed decision of an online scheduler.
type Record struct {
	// Seq is the deterministic sequence number, assigned in decision order
	// starting at 0.
	Seq int `json:"seq"`
	// Time is the simulated decision instant (arrival time for the greedy,
	// epoch boundary for the rolling scheduler).
	Time float64 `json:"time"`
	// Epoch is the 1-based epoch index of the rolling scheduler; zero for
	// the greedy, which has no epochs.
	Epoch int `json:"epoch,omitempty"`
	// Kind classifies the decision; see KindAdmit, KindReject, KindReplan.
	Kind Kind `json:"kind"`
	// Flow names the decided flow; NoFlow (-1) for replan records.
	Flow flow.ID `json:"flow"`
	// Reason names the rule that produced the decision ("marginal-cost",
	// "over-capacity", "forced", "boundary", ...).
	Reason string `json:"reason,omitempty"`
	// Path is the chosen path's edge sequence (admits only).
	Path []graph.EdgeID `json:"path,omitempty"`
	// Rate is the admitted nominal rate (the residual density at decision
	// time; admits only).
	Rate float64 `json:"rate,omitempty"`
	// MarginalEnergy is the chosen path's exact marginal energy at decision
	// time (admits only), comparable against Alternatives.
	MarginalEnergy float64 `json:"marginal_energy,omitempty"`
	// Slack is the residual slack at decision time: deadline minus the
	// decision instant.
	Slack float64 `json:"slack,omitempty"`
	// Pending counts batched arrivals at a replan boundary.
	Pending int `json:"pending,omitempty"`
	// Alternatives are the scored candidates not chosen, best first.
	Alternatives []Alternative `json:"alternatives,omitempty"`
}

// Recorder receives decision records as a scheduler makes them. A nil
// Recorder disables tracing: the schedulers guard every call site, build no
// record and allocate nothing (the zero-alloc fast path pinned by
// TestEmitNilRecorderZeroAlloc).
//
// Record is called serially in decision order — schedulers decide one flow
// at a time even when their inner solves fan out — so implementations need
// no locking when used by a single run.
type Recorder interface {
	// Record observes one decision.
	Record(Record)
}

// Emit sends rec to r when r is non-nil. The nil path is a zero-alloc
// no-op, so schedulers may call it unconditionally with a pre-built record;
// call sites that would allocate building the record should still guard on
// the recorder themselves.
func Emit(r Recorder, rec Record) {
	if r != nil {
		r.Record(rec)
	}
}

// Memory is an in-memory Recorder accumulating records in decision order.
// Pair it with a Meta describing the run and call Log to package the trace
// for serialization.
type Memory struct {
	// Meta describes the recorded run (scheduler, workload, seeds); filled
	// by the caller, echoed into Log.
	Meta Meta
	// Records holds the accumulated records in sequence order.
	Records []Record
}

// Record implements Recorder.
func (m *Memory) Record(rec Record) { m.Records = append(m.Records, rec) }

// Log packages the accumulated trace.
func (m *Memory) Log() *Log { return &Log{Meta: m.Meta, Records: m.Records} }

// Overrides forces specific decisions during a counterfactual re-run: the
// schedulers consult it at each decision point before their own logic. The
// zero value (and a nil pointer) forces nothing.
type Overrides struct {
	// ForcePath routes a flow on the given edge sequence instead of the
	// scheduler's choice. The path must connect the flow's endpoints; the
	// scheduler validates and errors otherwise.
	ForcePath map[flow.ID][]graph.EdgeID
}

// ForcedPath returns the override path for a flow, or ok=false. Nil-safe.
func (o *Overrides) ForcedPath(id flow.ID) (graph.Path, bool) {
	if o == nil {
		return graph.Path{}, false
	}
	edges, ok := o.ForcePath[id]
	if !ok {
		return graph.Path{}, false
	}
	return graph.Path{Edges: edges}, true
}
