package dcnflow

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"dcnflow/internal/flow"
	"dcnflow/internal/topology"
)

// ErrBadScenario reports a scenario spec that failed strict decoding or
// validation; the wrapped message names the offending field.
var ErrBadScenario = errors.New("dcnflow: invalid scenario spec")

// Scenario kind vocabularies, in the order they are documented.
var (
	// TopologyKinds lists the TopologySpec.Kind values LoadScenario accepts.
	TopologyKinds = []string{"fattree", "bcube", "leafspine", "vl2", "jellyfish", "line", "star"}
	// WorkloadKinds lists the WorkloadSpec.Kind values LoadScenario accepts.
	WorkloadKinds = []string{"uniform", "diurnal", "incast", "partition-aggregate", "shuffle"}
)

// TopologySpec declares a generated topology by kind and parameters. Only
// the fields of the selected kind are consulted; Capacity is shared by all
// kinds (it is the per-link rate cap C's physical counterpart).
//
//	fattree:   k (arity; 8 = the paper's 80 switches / 128 servers)
//	bcube:     k (port count n), l (level)
//	leafspine: spines, leaves, hosts_per_leaf
//	vl2:       di, da, tors, hosts_per_tor
//	jellyfish: switches, degree, hosts_per_switch, seed
//	line:      k (switch count)
//	star:      k (leaf count)
type TopologySpec struct {
	// Kind selects the generator; see TopologyKinds.
	Kind string `json:"kind"`
	// K is the fat-tree arity, BCube port count, line length or star size.
	K int `json:"k,omitempty"`
	// L is the BCube level.
	L int `json:"l,omitempty"`
	// Spines, Leaves and HostsPerLeaf shape a leaf-spine Clos.
	Spines       int `json:"spines,omitempty"`
	Leaves       int `json:"leaves,omitempty"`
	HostsPerLeaf int `json:"hosts_per_leaf,omitempty"`
	// Di, Da, Tors and HostsPerTor shape a VL2 folded Clos.
	Di          int `json:"di,omitempty"`
	Da          int `json:"da,omitempty"`
	Tors        int `json:"tors,omitempty"`
	HostsPerTor int `json:"hosts_per_tor,omitempty"`
	// Switches, Degree and HostsPerSwitch shape a Jellyfish random graph.
	Switches       int `json:"switches,omitempty"`
	Degree         int `json:"degree,omitempty"`
	HostsPerSwitch int `json:"hosts_per_switch,omitempty"`
	// Seed drives the Jellyfish random wiring.
	Seed int64 `json:"seed,omitempty"`
	// Capacity is the per-link capacity every generated link carries.
	Capacity float64 `json:"capacity"`
}

// Validate checks the cheap, generator-independent invariants: the kind is
// known, the shared capacity is positive, and the topology stays within
// 2^20 nodes and 2^22 directed edges. (Kind-specific dimension errors
// surface from Build, wrapped in ErrBadScenario.) Shared by
// ScenarioSpec.Validate and SweepSpec.Validate.
func (t TopologySpec) Validate() error {
	known := false
	for _, k := range TopologyKinds {
		known = known || t.Kind == k
	}
	if !known {
		return fmt.Errorf("%w: unknown topology kind %q (want one of %s)",
			ErrBadScenario, t.Kind, strings.Join(TopologyKinds, ", "))
	}
	if t.Capacity <= 0 {
		return fmt.Errorf("%w: topology capacity must be positive, got %v", ErrBadScenario, t.Capacity)
	}
	return t.checkSize()
}

// Bounds on what one spec may generate. They are checked before anything
// is allocated, so a single request cannot exhaust memory; the largest spec
// the repository builds (a fat-tree with k=32: 9,472 nodes, 49,152 directed
// edges) is far below them.
const (
	maxSpecNodes = 1 << 20
	maxSpecEdges = 1 << 22 // directed
	maxSpecFlows = 1 << 20
)

// size returns the number of nodes and directed edges the spec generates
// (for jellyfish, an upper bound on the edges). It counts in float64, which
// is exact far beyond the limits and grows to +Inf instead of wrapping
// around, so no dimension can slip an overflowed count past the check. A
// negative dimension counts as zero; the generator rejects it.
func (t TopologySpec) size() (nodes, edges float64) {
	d := func(x int) float64 { return max(float64(x), 0) }
	var links float64 // physical links; each is two directed edges
	switch t.Kind {
	case "fattree":
		// k^2/4 core switches; k pods of k/2 aggregation switches, k/2
		// edge switches and k^2/4 hosts, with k^2/4 agg-edge, core-agg
		// and edge-host links each.
		k := d(t.K)
		half := math.Floor(k / 2)
		nodes = half*half + k*2*half + k*half*half
		links = 3 * k * half * half
	case "bcube":
		// n^(l+1) servers; l+1 levels of n^l switches with n ports each.
		n, l := d(t.K), d(t.L)
		perLevel := math.Pow(n, l)
		nodes = perLevel*n + (l+1)*perLevel
		links = (l + 1) * perLevel * n
	case "leafspine":
		sp, lv, h := d(t.Spines), d(t.Leaves), d(t.HostsPerLeaf)
		nodes = sp + lv + lv*h
		links = sp*lv + lv*h
	case "vl2":
		di, da, tors, h := d(t.Di), d(t.Da), d(t.Tors), d(t.HostsPerTor)
		nodes = di + da + tors*(1+h)
		links = di*da + tors*(2+h)
	case "jellyfish":
		sw, deg, h := d(t.Switches), d(t.Degree), d(t.HostsPerSwitch)
		nodes = sw * (1 + h)
		links = math.Floor(sw*deg/2) + sw*h
	case "line":
		nodes = d(t.K)
		links = max(nodes-1, 0)
	case "star":
		nodes = d(t.K) + 1
		links = d(t.K)
	}
	return nodes, 2 * links
}

// checkSize rejects a topology above maxSpecNodes or maxSpecEdges.
func (t TopologySpec) checkSize() error {
	nodes, edges := t.size()
	if nodes > maxSpecNodes {
		return fmt.Errorf("%w: topology %s would have %.6g nodes, above the limit of %d",
			ErrBadScenario, t.Kind, nodes, maxSpecNodes)
	}
	if edges > maxSpecEdges {
		return fmt.Errorf("%w: topology %s would have %.6g directed edges, above the limit of %d",
			ErrBadScenario, t.Kind, edges, maxSpecEdges)
	}
	return nil
}

// Label is a compact deterministic tag for reports and sweep JSONL rows,
// e.g. "fattree-k8" or "leafspine-2x4x8".
func (t TopologySpec) Label() string {
	switch t.Kind {
	case "fattree", "line", "star":
		return fmt.Sprintf("%s-k%d", t.Kind, t.K)
	case "bcube":
		return fmt.Sprintf("bcube-n%d-l%d", t.K, t.L)
	case "leafspine":
		return fmt.Sprintf("leafspine-%dx%dx%d", t.Spines, t.Leaves, t.HostsPerLeaf)
	case "vl2":
		return fmt.Sprintf("vl2-%d.%d.%d.%d", t.Di, t.Da, t.Tors, t.HostsPerTor)
	case "jellyfish":
		return fmt.Sprintf("jellyfish-%d.%d.%d", t.Switches, t.Degree, t.HostsPerSwitch)
	}
	return t.Kind
}

// Build generates the declared topology. Like Validate, it refuses a
// topology above the node or edge limit before generating anything.
func (t TopologySpec) Build() (*Topology, error) {
	if t.Capacity <= 0 {
		return nil, fmt.Errorf("%w: topology capacity must be positive, got %v", ErrBadScenario, t.Capacity)
	}
	if err := t.checkSize(); err != nil {
		return nil, err
	}
	var (
		top *Topology
		err error
	)
	switch t.Kind {
	case "fattree":
		top, err = topology.FatTree(t.K, t.Capacity)
	case "bcube":
		top, err = topology.BCube(t.K, t.L, t.Capacity)
	case "leafspine":
		top, err = topology.LeafSpine(t.Spines, t.Leaves, t.HostsPerLeaf, t.Capacity)
	case "vl2":
		top, err = topology.VL2(t.Di, t.Da, t.Tors, t.HostsPerTor, t.Capacity)
	case "jellyfish":
		top, err = topology.Jellyfish(t.Switches, t.Degree, t.HostsPerSwitch, t.Capacity, t.Seed)
	case "line":
		top, err = topology.Line(t.K, t.Capacity)
	case "star":
		top, err = topology.Star(t.K, t.Capacity)
	default:
		return nil, fmt.Errorf("%w: unknown topology kind %q (want one of %s)",
			ErrBadScenario, t.Kind, strings.Join(TopologyKinds, ", "))
	}
	if err != nil {
		return nil, fmt.Errorf("%w: topology %s: %v", ErrBadScenario, t.Kind, err)
	}
	return top, nil
}

// WorkloadSpec declares a generated flow set by kind and parameters.
//
//	uniform:             n, t0, t1, size_mean, size_stddev, min_span,
//	                     time_quantum, seed — the paper's evaluation workload
//	diurnal:             n, t0, t1, peak_factor, size_mean, size_stddev,
//	                     span_mean, seed — sinusoidal arrival intensity
//	incast:              hosts (senders + 1), release, deadline, size — the
//	                     first topology host receives from the next hosts-1
//	partition-aggregate: like incast (the aggregator is the first host)
//	shuffle:             hosts, release, deadline, size — all-to-all among
//	                     the first hosts topology hosts
type WorkloadSpec struct {
	// Kind selects the generator; see WorkloadKinds.
	Kind string `json:"kind"`
	// N is the flow count of the random generators.
	N int `json:"n,omitempty"`
	// T0 and T1 delimit the horizon of the random generators.
	T0 float64 `json:"t0,omitempty"`
	T1 float64 `json:"t1,omitempty"`
	// SizeMean and SizeStddev parameterise the truncated-normal sizes.
	SizeMean   float64 `json:"size_mean,omitempty"`
	SizeStddev float64 `json:"size_stddev,omitempty"`
	// MinSpan and TimeQuantum tune the uniform generator (see
	// WorkloadConfig).
	MinSpan     float64 `json:"min_span,omitempty"`
	TimeQuantum float64 `json:"time_quantum,omitempty"`
	// PeakFactor and SpanMean tune the diurnal generator (see
	// DiurnalConfig).
	PeakFactor float64 `json:"peak_factor,omitempty"`
	SpanMean   float64 `json:"span_mean,omitempty"`
	// Hosts is the participant count of the deterministic patterns (incast,
	// partition-aggregate, shuffle), drawn from the front of the topology's
	// host list.
	Hosts int `json:"hosts,omitempty"`
	// Release, Deadline and Size shape the deterministic patterns' shared
	// window and per-flow size.
	Release  float64 `json:"release,omitempty"`
	Deadline float64 `json:"deadline,omitempty"`
	Size     float64 `json:"size,omitempty"`
	// Seed drives the random generators.
	Seed int64 `json:"seed,omitempty"`
	// Tightness is the deadline-tightness override hook: after generation,
	// every flow's window is rescaled to
	// [Release, Release + Tightness*(Deadline-Release)], so values below 1
	// tighten deadlines and values above 1 relax them. Zero (the default)
	// leaves the generated windows untouched. The sweep engine crosses its
	// tightness axis through this field.
	Tightness float64 `json:"tightness,omitempty"`
}

// Validate checks the generator-independent invariants: the kind is known,
// the kind's mandatory parameters are present, the tightness override is
// non-negative, and the workload stays within 2^20 flows. Shared by
// ScenarioSpec.Validate and SweepSpec.Validate.
func (w WorkloadSpec) Validate() error {
	known := false
	for _, k := range WorkloadKinds {
		known = known || w.Kind == k
	}
	if !known {
		return fmt.Errorf("%w: unknown workload kind %q (want one of %s)",
			ErrBadScenario, w.Kind, strings.Join(WorkloadKinds, ", "))
	}
	if w.Tightness < 0 {
		return fmt.Errorf("%w: workload tightness must be positive, got %v", ErrBadScenario, w.Tightness)
	}
	switch w.Kind {
	case "uniform", "diurnal":
		if w.N <= 0 {
			return fmt.Errorf("%w: workload n must be positive, got %d", ErrBadScenario, w.N)
		}
		if w.T1 <= w.T0 {
			return fmt.Errorf("%w: workload horizon [%v, %v] is empty", ErrBadScenario, w.T0, w.T1)
		}
		if w.SizeMean <= 0 {
			return fmt.Errorf("%w: workload size_mean must be positive, got %v", ErrBadScenario, w.SizeMean)
		}
	default:
		if w.Hosts < 2 {
			return fmt.Errorf("%w: workload hosts must be at least 2, got %d", ErrBadScenario, w.Hosts)
		}
		if w.Deadline <= w.Release {
			return fmt.Errorf("%w: workload window [%v, %v] is empty", ErrBadScenario, w.Release, w.Deadline)
		}
		if w.Size <= 0 {
			return fmt.Errorf("%w: workload size must be positive, got %v", ErrBadScenario, w.Size)
		}
	}
	return w.checkSize()
}

// flowCount returns the number of flows the workload generates: N for the
// random generators, one per sender for incast and partition-aggregate,
// one per ordered host pair for shuffle. Like TopologySpec.size it counts
// in float64, so it cannot overflow.
func (w WorkloadSpec) flowCount() float64 {
	senders := max(float64(w.Hosts)-1, 0)
	switch w.Kind {
	case "uniform", "diurnal":
		return max(float64(w.N), 0)
	case "incast", "partition-aggregate":
		return senders
	case "shuffle":
		return (senders + 1) * senders
	}
	return 0
}

// checkSize rejects a workload above maxSpecFlows.
func (w WorkloadSpec) checkSize() error {
	if n := w.flowCount(); n > maxSpecFlows {
		return fmt.Errorf("%w: workload %s would have %.6g flows, above the limit of %d",
			ErrBadScenario, w.Kind, n, maxSpecFlows)
	}
	return nil
}

// Label is a compact deterministic tag for reports and sweep JSONL rows,
// e.g. "uniform-n40" or "incast-h8".
func (w WorkloadSpec) Label() string {
	switch w.Kind {
	case "uniform", "diurnal":
		return fmt.Sprintf("%s-n%d", w.Kind, w.N)
	}
	return fmt.Sprintf("%s-h%d", w.Kind, w.Hosts)
}

// Build generates the declared flow set on the topology's hosts.
func (w WorkloadSpec) Build(top *Topology) (*FlowSet, error) {
	if top == nil {
		return nil, fmt.Errorf("%w: workload needs a topology", ErrBadScenario)
	}
	if w.Tightness < 0 {
		return nil, fmt.Errorf("%w: workload tightness must be positive, got %v", ErrBadScenario, w.Tightness)
	}
	if err := w.checkSize(); err != nil {
		return nil, err
	}
	var (
		fs  *FlowSet
		err error
	)
	switch w.Kind {
	case "uniform":
		fs, err = flow.Uniform(flow.GenConfig{
			N: w.N, T0: w.T0, T1: w.T1,
			SizeMean: w.SizeMean, SizeStddev: w.SizeStddev,
			MinSpan: w.MinSpan, TimeQuantum: w.TimeQuantum,
			Hosts: top.Hosts, Seed: w.Seed,
		})
	case "diurnal":
		fs, err = flow.Diurnal(flow.DiurnalConfig{
			N: w.N, T0: w.T0, T1: w.T1, PeakFactor: w.PeakFactor,
			SizeMean: w.SizeMean, SizeStddev: w.SizeStddev, SpanMean: w.SpanMean,
			Hosts: top.Hosts, Seed: w.Seed,
		})
	case "incast", "partition-aggregate":
		if w.Hosts < 2 || w.Hosts > len(top.Hosts) {
			return nil, fmt.Errorf("%w: %s workload needs 2..%d hosts, got %d",
				ErrBadScenario, w.Kind, len(top.Hosts), w.Hosts)
		}
		fs, err = flow.PartitionAggregate(top.Hosts[0], top.Hosts[1:w.Hosts], w.Release, w.Deadline, w.Size)
	case "shuffle":
		if w.Hosts < 2 || w.Hosts > len(top.Hosts) {
			return nil, fmt.Errorf("%w: shuffle workload needs 2..%d hosts, got %d",
				ErrBadScenario, len(top.Hosts), w.Hosts)
		}
		fs, err = flow.Shuffle(top.Hosts[:w.Hosts], w.Release, w.Deadline, w.Size)
	default:
		return nil, fmt.Errorf("%w: unknown workload kind %q (want one of %s)",
			ErrBadScenario, w.Kind, strings.Join(WorkloadKinds, ", "))
	}
	if err != nil {
		return nil, fmt.Errorf("%w: workload %s: %v", ErrBadScenario, w.Kind, err)
	}
	if w.Tightness > 0 && w.Tightness != 1 {
		if fs, err = tightenDeadlines(fs, w.Tightness); err != nil {
			return nil, fmt.Errorf("%w: workload %s: tightness %v: %v", ErrBadScenario, w.Kind, w.Tightness, err)
		}
	}
	return fs, nil
}

// tightenDeadlines rescales every flow's window to
// [Release, Release + scale*(Deadline-Release)] — the deadline-tightness
// axis of the sweep engine. NewSet re-validates, so a scale that collapses
// a window below the representable span is rejected rather than silently
// producing an infeasible flow.
func tightenDeadlines(fs *FlowSet, scale float64) (*FlowSet, error) {
	flows := fs.Flows()
	for i := range flows {
		flows[i].Deadline = flows[i].Release + scale*(flows[i].Deadline-flows[i].Release)
	}
	return NewFlowSet(flows)
}

// ModelSpec declares the link power model f(x) = sigma + mu*x^alpha for
// 0 < x <= c, f(0) = 0. A zero C means uncapped.
type ModelSpec struct {
	// Sigma is the idle (leakage) power charged while a link is on.
	Sigma float64 `json:"sigma,omitempty"`
	// Mu scales the dynamic (speed-scaling) term.
	Mu float64 `json:"mu"`
	// Alpha is the power exponent (the paper evaluates 2 and 4).
	Alpha float64 `json:"alpha"`
	// C is the link rate cap; zero leaves the model uncapped.
	C float64 `json:"c,omitempty"`
}

// Model converts the spec to the internal power model.
func (m ModelSpec) Model() PowerModel {
	return PowerModel{Sigma: m.Sigma, Mu: m.Mu, Alpha: m.Alpha, C: m.C}
}

// ScenarioSpec is a declarative, JSON-serializable problem description:
// topology kind + parameters, workload kind + parameters, power model and
// seeds. A spec plus a solver name reproduces a run exactly —
// LoadScenario/SaveScenario round-trip bit-identically, so experiments
// become data (see examples/scenarios/ and `dcnflow run`).
type ScenarioSpec struct {
	// Name labels the scenario in reports; free-form.
	Name string `json:"name,omitempty"`
	// Topology declares the network.
	Topology TopologySpec `json:"topology"`
	// Workload declares the flow set, generated on the topology's hosts.
	Workload WorkloadSpec `json:"workload"`
	// Model declares the link power function.
	Model ModelSpec `json:"model"`
	// Seed is the solver seed (randomized rounding, ECMP draws); workload
	// and topology randomness have their own seeds in their specs.
	Seed int64 `json:"seed,omitempty"`
}

// Validate checks the spec without generating anything expensive: kinds are
// known, the model is well-formed and the obviously-broken parameter
// combinations are rejected with field-naming errors.
func (s *ScenarioSpec) Validate() error {
	if s == nil {
		return fmt.Errorf("%w: nil spec", ErrBadScenario)
	}
	if err := s.Topology.Validate(); err != nil {
		return err
	}
	if err := s.Workload.Validate(); err != nil {
		return err
	}
	if err := s.Model.Model().Validate(); err != nil {
		return fmt.Errorf("%w: model: %v", ErrBadScenario, err)
	}
	return nil
}

// Instance generates the topology and workload and packages them as a
// validated Instance (with the topology attached for host-list access).
func (s *ScenarioSpec) Instance() (*Instance, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	top, err := s.Topology.Build()
	if err != nil {
		return nil, err
	}
	fs, err := s.Workload.Build(top)
	if err != nil {
		return nil, err
	}
	return NewInstanceBuilder().Topology(top).Flows(fs).Model(s.Model.Model()).Build()
}

// LoadScenario strictly decodes one JSON scenario spec: unknown fields,
// trailing garbage and invalid parameter combinations are all rejected with
// errors wrapping ErrBadScenario that name the problem.
func LoadScenario(r io.Reader) (*ScenarioSpec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var spec ScenarioSpec
	if err := dec.Decode(&spec); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadScenario, err)
	}
	if dec.More() {
		return nil, fmt.Errorf("%w: trailing data after the spec object", ErrBadScenario)
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &spec, nil
}

// LoadScenarioFile is LoadScenario on a file path.
func LoadScenarioFile(path string) (*ScenarioSpec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dcnflow: %w", err)
	}
	defer f.Close()
	spec, err := LoadScenario(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

// SaveScenario validates the spec and writes it as canonical indented JSON
// (two-space indent, trailing newline) — the byte format the golden-file
// tests and examples/scenarios/ pin. SaveScenario(LoadScenario(x)) is
// byte-identical for canonical x.
func SaveScenario(w io.Writer, spec *ScenarioSpec) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	data, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return fmt.Errorf("dcnflow: encoding scenario: %w", err)
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

// SaveScenarioFile is SaveScenario on a file path.
func SaveScenarioFile(path string, spec *ScenarioSpec) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("dcnflow: %w", err)
	}
	if err := SaveScenario(f, spec); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
