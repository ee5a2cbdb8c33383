// Package flow defines the deadline-constrained flow model of Section II-B
// and the synthetic workload generators used by the evaluation: every flow
// j_i carries w_i units of data from source p_i to destination q_i and must
// complete within its span S_i = [r_i, d_i].
package flow

import (
	"errors"
	"fmt"
	"math"

	"dcnflow/internal/graph"
)

// ID identifies a flow within a Set.
type ID int

// Flow is a deadline-constrained flow (Section II-B).
type Flow struct {
	// ID is the flow's index within its Set.
	ID ID
	// Src and Dst are the endpoints (p_i and q_i).
	Src, Dst graph.NodeID
	// Release and Deadline delimit the span S_i = [r_i, d_i].
	Release, Deadline float64
	// Size is the amount of data w_i to transfer.
	Size float64
}

// Span returns the length of the flow's feasible window d_i - r_i.
func (f Flow) Span() float64 { return f.Deadline - f.Release }

// Density returns D_i = w_i / (d_i - r_i), the minimum sustained rate that
// completes the flow exactly at its deadline.
func (f Flow) Density() float64 {
	s := f.Span()
	if s <= 0 {
		return math.Inf(1)
	}
	return f.Size / s
}

// ActiveAt reports whether t lies within the flow's span.
func (f Flow) ActiveAt(t float64) bool { return t >= f.Release && t <= f.Deadline }

// Validate checks the flow's parameters for internal consistency: release,
// deadline and size must be finite, the size positive, the span non-empty,
// and the span and density D_i finite (a huge size over a short span
// overflows the density).
func (f Flow) Validate() error {
	switch {
	case math.IsNaN(f.Release) || math.IsNaN(f.Deadline) || math.IsNaN(f.Size):
		return fmt.Errorf("flow %d: %w: NaN field", f.ID, ErrInvalidFlow)
	case math.IsInf(f.Release, 0) || math.IsInf(f.Deadline, 0) || math.IsInf(f.Size, 0):
		return fmt.Errorf("flow %d: %w: infinite release %v, deadline %v or size %v", f.ID, ErrInvalidFlow, f.Release, f.Deadline, f.Size)
	case f.Size <= 0:
		return fmt.Errorf("flow %d: %w: size %v <= 0", f.ID, ErrInvalidFlow, f.Size)
	case f.Deadline <= f.Release:
		return fmt.Errorf("flow %d: %w: deadline %v <= release %v", f.ID, ErrInvalidFlow, f.Deadline, f.Release)
	case math.IsInf(f.Span(), 0) || math.IsInf(f.Density(), 0):
		return fmt.Errorf("flow %d: %w: span %v or density %v overflows", f.ID, ErrInvalidFlow, f.Span(), f.Density())
	case f.Src == f.Dst:
		return fmt.Errorf("flow %d: %w: src == dst (%d)", f.ID, ErrInvalidFlow, f.Src)
	}
	return nil
}

// Errors returned by flow validation.
var ErrInvalidFlow = errors.New("flow: invalid flow")

// Set is an ordered collection of flows; the paper's J = {j_1, ..., j_n}.
type Set struct {
	flows []Flow
}

// NewSet builds a Set from the given flows, reassigning IDs to the
// positional index and validating every flow.
func NewSet(flows []Flow) (*Set, error) {
	s := &Set{flows: make([]Flow, len(flows))}
	copy(s.flows, flows)
	for i := range s.flows {
		s.flows[i].ID = ID(i)
		if err := s.flows[i].Validate(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Len returns the number of flows.
func (s *Set) Len() int { return len(s.flows) }

// Flow returns the flow with the given id.
func (s *Set) Flow(id ID) (Flow, error) {
	if id < 0 || int(id) >= len(s.flows) {
		return Flow{}, fmt.Errorf("flow %d: %w", id, ErrInvalidFlow)
	}
	return s.flows[id], nil
}

// Flows returns a copy of all flows in id order.
func (s *Set) Flows() []Flow {
	out := make([]Flow, len(s.flows))
	copy(out, s.flows)
	return out
}

// Horizon returns [T0, T1]: the earliest release and the latest deadline.
// It returns (0, 0) for an empty set.
func (s *Set) Horizon() (t0, t1 float64) {
	if len(s.flows) == 0 {
		return 0, 0
	}
	t0, t1 = s.flows[0].Release, s.flows[0].Deadline
	for _, f := range s.flows[1:] {
		t0 = math.Min(t0, f.Release)
		t1 = math.Max(t1, f.Deadline)
	}
	return t0, t1
}

// TotalData returns the sum of flow sizes.
func (s *Set) TotalData() float64 {
	var sum float64
	for _, f := range s.flows {
		sum += f.Size
	}
	return sum
}

// MeanDensity returns the average of the flow densities D_i.
func (s *Set) MeanDensity() float64 {
	if len(s.flows) == 0 {
		return 0
	}
	var sum float64
	for _, f := range s.flows {
		sum += f.Density()
	}
	return sum / float64(len(s.flows))
}

// MaxDensity returns D = max_i D_i (used by the approximation bound of
// Theorem 6).
func (s *Set) MaxDensity() float64 {
	var max float64
	for _, f := range s.flows {
		if d := f.Density(); d > max {
			max = d
		}
	}
	return max
}
