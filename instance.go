package dcnflow

import (
	"errors"
	"fmt"
)

// ErrBadInstance reports an Instance that failed validation: nil graph or
// flows, an invalid power model, flow endpoints missing from the graph, or a
// fixed routing that is not a valid path set.
var ErrBadInstance = errors.New("dcnflow: invalid instance")

// Instance is a fully validated problem instance of the Scenario/Solver
// API: the network graph, the deadline-constrained flow set, the link power
// model and the scheduling horizon, checked once at construction so every
// solver family can consume it without re-validating. Build one with
// NewInstance (the common case) or NewInstanceBuilder (optional routing,
// horizon override, topology attachment), or declaratively from a
// ScenarioSpec via its Instance method.
//
// An Instance is immutable after Build and safe for concurrent use by
// multiple solvers.
type Instance struct {
	graph   *Graph
	flows   *FlowSet
	model   PowerModel
	horizon Interval
	topo    *Topology
	paths   map[FlowID]Path
}

// NewInstance validates and packages a problem instance with the default
// horizon (the flow set's span) and no fixed routing.
func NewInstance(g *Graph, flows *FlowSet, m PowerModel) (*Instance, error) {
	return NewInstanceBuilder().Graph(g).Flows(flows).Model(m).Build()
}

// Graph returns the network graph.
func (in *Instance) Graph() *Graph { return in.graph }

// Flows returns the flow set.
func (in *Instance) Flows() *FlowSet { return in.flows }

// Model returns the link power model.
func (in *Instance) Model() PowerModel { return in.model }

// Horizon returns the scheduling horizon: the flow set's span unless the
// builder overrode it.
func (in *Instance) Horizon() Interval { return in.horizon }

// Topology returns the topology the graph came from, when the instance was
// built from one (NewInstanceBuilder.Topology or a ScenarioSpec); nil
// otherwise. Solvers never need it, but callers often want the host list.
func (in *Instance) Topology() *Topology { return in.topo }

// Routing returns the optional fixed routing (nil when the instance leaves
// routing to the solver). The "dcfs-mcf" solver schedules on exactly these
// paths; routing-and-scheduling solvers ignore them.
func (in *Instance) Routing() map[FlowID]Path { return in.paths }

// InstanceBuilder assembles an Instance step by step. Methods return the
// builder for chaining; errors are deferred and reported once by Build.
type InstanceBuilder struct {
	g       *Graph
	topo    *Topology
	flows   *FlowSet
	model   PowerModel
	horizon *Interval
	paths   map[FlowID]Path
}

// NewInstanceBuilder starts an empty builder.
func NewInstanceBuilder() *InstanceBuilder { return &InstanceBuilder{} }

// Graph sets the network graph.
func (b *InstanceBuilder) Graph(g *Graph) *InstanceBuilder {
	b.g = g
	return b
}

// Topology sets the graph from a generated topology and attaches the
// topology to the instance (Instance.Topology).
func (b *InstanceBuilder) Topology(t *Topology) *InstanceBuilder {
	b.topo = t
	if t != nil {
		b.g = t.Graph
	}
	return b
}

// Flows sets the flow set.
func (b *InstanceBuilder) Flows(fs *FlowSet) *InstanceBuilder {
	b.flows = fs
	return b
}

// Model sets the link power model.
func (b *InstanceBuilder) Model(m PowerModel) *InstanceBuilder {
	b.model = m
	return b
}

// Horizon overrides the scheduling horizon (default: the flow set's span).
// It must contain every flow's [Release, Deadline] window. The online
// solvers ("greedy-online", "rolling-online") use it as the run window —
// a wider window changes the rolling scheduler's default replan cadence
// and the span idle energy is accounted over. The offline solvers always
// schedule over the flow span; for them the override is only validated.
func (b *InstanceBuilder) Horizon(iv Interval) *InstanceBuilder {
	b.horizon = &iv
	return b
}

// Routing fixes each flow's path, turning a joint routing-and-scheduling
// instance into a scheduling-only one (the "dcfs-mcf" solver's input).
func (b *InstanceBuilder) Routing(paths map[FlowID]Path) *InstanceBuilder {
	b.paths = paths
	return b
}

// Build validates everything once and returns the immutable Instance.
func (b *InstanceBuilder) Build() (*Instance, error) {
	if b.g == nil {
		return nil, fmt.Errorf("%w: nil graph", ErrBadInstance)
	}
	if b.flows == nil {
		return nil, fmt.Errorf("%w: nil flow set", ErrBadInstance)
	}
	if err := b.model.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadInstance, err)
	}
	for _, f := range b.flows.Flows() {
		if !b.g.HasNode(f.Src) || !b.g.HasNode(f.Dst) {
			return nil, fmt.Errorf("%w: flow %d endpoints %d->%d not in graph", ErrBadInstance, f.ID, f.Src, f.Dst)
		}
	}
	t0, t1 := b.flows.Horizon()
	horizon := Interval{Start: t0, End: t1}
	if b.horizon != nil {
		if b.flows.Len() > 0 && (b.horizon.Start > t0 || b.horizon.End < t1) {
			return nil, fmt.Errorf("%w: horizon %v does not contain the flow span [%v, %v]",
				ErrBadInstance, *b.horizon, t0, t1)
		}
		horizon = *b.horizon
	}
	if b.paths != nil {
		for _, f := range b.flows.Flows() {
			p, ok := b.paths[f.ID]
			if !ok {
				return nil, fmt.Errorf("%w: routing misses flow %d", ErrBadInstance, f.ID)
			}
			if err := p.Validate(b.g, f.Src, f.Dst); err != nil {
				return nil, fmt.Errorf("%w: routing for flow %d: %v", ErrBadInstance, f.ID, err)
			}
		}
	}
	return &Instance{
		graph:   b.g,
		flows:   b.flows,
		model:   b.model,
		horizon: horizon,
		topo:    b.topo,
		paths:   b.paths,
	}, nil
}
