package dcnflow

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"dcnflow/internal/decision"
	"dcnflow/internal/stats"
	"dcnflow/internal/sweep"
)

// ErrBadSweep reports a sweep spec that failed strict decoding or
// validation; the wrapped message names the offending field.
var ErrBadSweep = errors.New("dcnflow: invalid sweep spec")

// MaxSweepCells bounds the grid a single SweepSpec may expand to. The
// product of five axis lengths overflows long before any machine could
// solve the cells, so Validate rejects absurd grids up front with an error
// instead of letting Cells try to allocate them.
const MaxSweepCells = 1 << 20

// SweepSpec is a declarative, JSON-serializable experiment grid — the batch
// counterpart of ScenarioSpec. Its axes (topologies × workloads × deadline
// tightness × seeds) expand to concrete scenarios, each crossed with every
// listed solver, giving CellCount = T*W*G*S*V cells in a fixed nested-loop
// order (solvers innermost, so one scenario's cells are adjacent). A spec
// reproduces a whole evaluation campaign exactly: LoadSweep/SaveSweep
// round-trip byte-identically and every cell's randomness is derived from
// spec data alone.
type SweepSpec struct {
	// Name labels the sweep in reports; free-form.
	Name string `json:"name,omitempty"`
	// Topologies is the topology axis; at least one entry.
	Topologies []TopologySpec `json:"topologies"`
	// Workloads is the workload axis; at least one entry. Per-entry Seed
	// and Tightness fields are overridden per cell by the Seeds and
	// Tightness axes below.
	Workloads []WorkloadSpec `json:"workloads"`
	// Model is the link power model shared by every cell.
	Model ModelSpec `json:"model"`
	// Tightness is the deadline-tightness axis: each scalar rescales every
	// generated flow's window via WorkloadSpec.Tightness. Empty means {1}
	// (generated deadlines unchanged).
	Tightness []float64 `json:"tightness,omitempty"`
	// Seeds is the randomness axis: each entry seeds both the cell's
	// workload generation and its solver (rounding draws, ECMP picks).
	// Empty means {1}.
	Seeds []int64 `json:"seeds,omitempty"`
	// Solvers lists solver names (SolverNames), each run on every scenario.
	Solvers []string `json:"solvers"`
}

// tightnessAxis returns the tightness axis with the {1} default applied.
func (s *SweepSpec) tightnessAxis() []float64 {
	if len(s.Tightness) == 0 {
		return []float64{1}
	}
	return s.Tightness
}

// seedAxis returns the seed axis with the {1} default applied.
func (s *SweepSpec) seedAxis() []int64 {
	if len(s.Seeds) == 0 {
		return []int64{1}
	}
	return s.Seeds
}

// Validate checks the spec without generating anything expensive: every
// axis entry validates, every solver is a built-in family, and the
// expanded grid stays below MaxSweepCells.
func (s *SweepSpec) Validate() error {
	if s == nil {
		return fmt.Errorf("%w: nil spec", ErrBadSweep)
	}
	if len(s.Topologies) == 0 {
		return fmt.Errorf("%w: topologies must list at least one entry", ErrBadSweep)
	}
	for i, t := range s.Topologies {
		if err := t.Validate(); err != nil {
			return fmt.Errorf("%w: topologies[%d]: %v", ErrBadSweep, i, err)
		}
	}
	if len(s.Workloads) == 0 {
		return fmt.Errorf("%w: workloads must list at least one entry", ErrBadSweep)
	}
	for i, w := range s.Workloads {
		if err := w.Validate(); err != nil {
			return fmt.Errorf("%w: workloads[%d]: %v", ErrBadSweep, i, err)
		}
	}
	if err := s.Model.Model().Validate(); err != nil {
		return fmt.Errorf("%w: model: %v", ErrBadSweep, err)
	}
	for i, g := range s.Tightness {
		if g <= 0 {
			return fmt.Errorf("%w: tightness[%d] must be positive, got %v", ErrBadSweep, i, g)
		}
	}
	if len(s.Solvers) == 0 {
		return fmt.Errorf("%w: solvers must list at least one registered solver", ErrBadSweep)
	}
	for i, name := range s.Solvers {
		if _, ok := solvers[name]; !ok {
			return fmt.Errorf("%w: solvers[%d]: unknown solver %q (registered: %s)",
				ErrBadSweep, i, name, strings.Join(SolverNames(), ", "))
		}
	}
	// Overflow-safe cell count check: multiply up with a running bound.
	count := 1
	for _, axis := range []int{len(s.Topologies), len(s.Workloads), len(s.tightnessAxis()), len(s.seedAxis()), len(s.Solvers)} {
		if axis > MaxSweepCells/count {
			return fmt.Errorf("%w: grid expands past %d cells", ErrBadSweep, MaxSweepCells)
		}
		count *= axis
	}
	return nil
}

// CellCount returns the number of cells the spec expands to.
func (s *SweepSpec) CellCount() int {
	return len(s.Topologies) * len(s.Workloads) * len(s.tightnessAxis()) * len(s.seedAxis()) * len(s.Solvers)
}

// SweepCell is one expanded grid point: a fully resolved scenario (seed and
// tightness baked into the spec, Name set to a deterministic label) paired
// with one solver. Cells that differ only in solver share a bit-identical
// scenario, so cross-solver comparisons on a cell group are apples to
// apples.
type SweepCell struct {
	// Index is the cell's position in the fixed expansion order.
	Index int
	// Solver names the solver family this cell runs.
	Solver string
	// Tightness and Seed echo the axis values baked into Scenario.
	Tightness float64
	Seed      int64
	// TopologyLabel and WorkloadLabel are the axis labels, disambiguated
	// with a "#<index>" suffix when two axis entries share a Label() (two
	// uniform workloads differing only in size_mean, say) — so scenario
	// names and JSONL coordinates are always unique per scenario.
	TopologyLabel, WorkloadLabel string
	// Scenario is the resolved per-cell scenario spec.
	Scenario ScenarioSpec
}

// dedupeLabels suffixes duplicate axis labels with their axis index so two
// entries that stringify identically stay distinguishable in reports.
func dedupeLabels(labels []string) []string {
	seen := make(map[string]int, len(labels))
	for _, l := range labels {
		seen[l]++
	}
	out := make([]string, len(labels))
	for i, l := range labels {
		if seen[l] > 1 {
			out[i] = fmt.Sprintf("%s#%d", l, i)
		} else {
			out[i] = l
		}
	}
	return out
}

// Cells expands the grid in its fixed nested-loop order: topologies,
// workloads, tightness, seeds, solvers (innermost). The expansion is a pure
// function of the spec — per-cell seeds come from the seed axis, never from
// a shared RNG — which is the root of the engine's worker-count-independent
// output.
func (s *SweepSpec) Cells() []SweepCell {
	topoLabels := make([]string, len(s.Topologies))
	for i, t := range s.Topologies {
		topoLabels[i] = t.Label()
	}
	topoLabels = dedupeLabels(topoLabels)
	wlLabels := make([]string, len(s.Workloads))
	for i, w := range s.Workloads {
		wlLabels[i] = w.Label()
	}
	wlLabels = dedupeLabels(wlLabels)

	cells := make([]SweepCell, 0, s.CellCount())
	for ti, top := range s.Topologies {
		for wi, wl := range s.Workloads {
			for _, tight := range s.tightnessAxis() {
				for _, seed := range s.seedAxis() {
					scen := ScenarioSpec{
						Name:     fmt.Sprintf("%s/%s/x%g/s%d", topoLabels[ti], wlLabels[wi], tight, seed),
						Topology: top,
						Workload: wl,
						Model:    s.Model,
						Seed:     seed,
					}
					scen.Workload.Seed = seed
					scen.Workload.Tightness = tight
					for _, solver := range s.Solvers {
						cells = append(cells, SweepCell{
							Index:         len(cells),
							Solver:        solver,
							Tightness:     tight,
							Seed:          seed,
							TopologyLabel: topoLabels[ti],
							WorkloadLabel: wlLabels[wi],
							Scenario:      scen,
						})
					}
				}
			}
		}
	}
	return cells
}

// LoadSweep strictly decodes one JSON sweep spec: unknown fields, trailing
// garbage and invalid parameter combinations are all rejected with errors
// wrapping ErrBadSweep that name the problem.
func LoadSweep(r io.Reader) (*SweepSpec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var spec SweepSpec
	if err := dec.Decode(&spec); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSweep, err)
	}
	if dec.More() {
		return nil, fmt.Errorf("%w: trailing data after the spec object", ErrBadSweep)
	}
	// Normalize empty axis arrays to nil: SaveSweep omits them (omitempty),
	// so a loaded `"tightness": []` must compare equal to its re-loaded
	// form for the canonical round-trip to hold.
	if len(spec.Tightness) == 0 {
		spec.Tightness = nil
	}
	if len(spec.Seeds) == 0 {
		spec.Seeds = nil
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &spec, nil
}

// LoadSweepFile is LoadSweep on a file path.
func LoadSweepFile(path string) (*SweepSpec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dcnflow: %w", err)
	}
	defer f.Close()
	spec, err := LoadSweep(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

// SaveSweep validates the spec and writes it as canonical indented JSON
// (two-space indent, trailing newline), mirroring SaveScenario.
// SaveSweep(LoadSweep(x)) is byte-identical for canonical x.
func SaveSweep(w io.Writer, spec *SweepSpec) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	data, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return fmt.Errorf("dcnflow: encoding sweep: %w", err)
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

// SaveSweepFile is SaveSweep on a file path.
func SaveSweepFile(path string, spec *SweepSpec) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("dcnflow: %w", err)
	}
	if err := SaveSweep(f, spec); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// SweepCellResult is one solved cell, shaped for JSONL streaming (one
// marshalled line per cell; `dcnflow sweep -out`). Every field except
// RuntimeMS is a deterministic function of the spec — the determinism
// regression tests compare JSONL bodies across worker counts with only the
// runtime_ms field normalised away.
type SweepCellResult struct {
	// Cell is the cell index in expansion order (JSONL lines are emitted
	// in this order regardless of worker count).
	Cell int `json:"cell"`
	// Scenario is the resolved scenario label
	// ("<topology>/<workload>/x<tightness>/s<seed>").
	Scenario string `json:"scenario"`
	// Topology and Workload are the axis labels.
	Topology string `json:"topology"`
	Workload string `json:"workload"`
	// Tightness and Seed are the remaining axis coordinates.
	Tightness float64 `json:"tightness"`
	Seed      int64   `json:"seed"`
	// Solver names the solver family (SolverNames).
	Solver string `json:"solver"`
	// Energy is the solver's accounted total energy.
	Energy float64 `json:"energy,omitempty"`
	// LB is the scenario's shared normalizer (computed once per scenario
	// group unless SweepOptions.SkipLB): the fractional relaxation value
	// the paper's Fig. 2 divides by, in which every flow transmits at its
	// density (dcnflow.LowerBound). It is a Frank–Wolfe primal value, not
	// a certified bound; scheduling-optimal solvers (the MCF family) may
	// dip slightly below it on shared-path topologies, so LBRatio =
	// Energy/LB is a comparison ratio, not a guaranteed >= 1 quantity — the
	// guaranteed inequality is Solution.Energy >= Solution.LowerBound for
	// solvers that report their own bound, and the conformance suite
	// asserts exactly that.
	LB      float64 `json:"lb,omitempty"`
	LBRatio float64 `json:"lb_ratio,omitempty"`
	// Fitness, Misses and SlackP99 are populated when SweepOptions.Fitness
	// is set: the cell's schedule is re-scored by the discrete-event
	// simulator and collapsed to the weighted scalar (lower better), so a
	// sweep can rank replan policies on one axis instead of raw energy.
	Fitness  float64 `json:"fitness,omitempty"`
	Misses   int     `json:"misses,omitempty"`
	SlackP99 float64 `json:"slack_p99,omitempty"`
	// RuntimeMS is the wall-clock solve time — the one nondeterministic
	// field, excluded from the byte-determinism contract.
	RuntimeMS float64 `json:"runtime_ms"`
	// Err records a per-cell failure (solver refusal, infeasible
	// instance). A failed cell does not abort the sweep.
	Err string `json:"error,omitempty"`
	// Stats carries the solver's diagnostics (snake_case keys, sorted by
	// encoding/json on marshal).
	Stats map[string]float64 `json:"stats,omitempty"`
	// Solution is the in-memory result for programmatic consumers
	// (retained only under SweepOptions.KeepSolutions); never serialized.
	Solution *Solution `json:"-"`
}

// SweepOptions configures a Sweep run. The zero value runs the grid on
// GOMAXPROCS workers with a private Engine and per-scenario lower bounds.
type SweepOptions struct {
	// Workers bounds concurrent cell solves; <= 0 selects GOMAXPROCS. The
	// worker count is purely a wall-clock lever: results, JSONL bodies and
	// aggregates are identical for every value (runtime fields aside).
	Workers int
	// Engine dispatches the cells. Nil builds a private engine for the
	// run; passing a shared engine lets a sweep reuse compiled instances
	// and pooled solver scratch warmed by earlier requests — `dcnflow
	// sweep` passes the CLI's shared engine. Results are identical either
	// way.
	Engine *Engine
	// Options is applied to every cell's solver construction before the
	// cell's own WithSeed, e.g. WithSolverOptions to cap Frank–Wolfe
	// iterations sweep-wide.
	Options []SolveOption
	// SkipLB disables the shared per-scenario fractional lower bound.
	// With it set, LB/LBRatio are populated only for cells whose solver
	// reports its own bound.
	SkipLB bool
	// KeepSolutions retains each cell's *Solution (schedule included) in
	// the result — memory-hungry on large grids, handy for conformance
	// harnesses.
	KeepSolutions bool
	// OnCell, when non-nil, observes finished cells serialized and in cell
	// order — the streaming hook the CLI's JSONL writer and progress
	// printer attach to.
	OnCell func(SweepCellResult)
	// Fitness, when non-nil, re-scores every solved cell through the
	// discrete-event simulator and populates the cell's Fitness, Misses and
	// SlackP99 fields plus the aggregate's mean-fitness column
	// (`dcnflow sweep -fit-energy/-fit-miss/-fit-slack`). The scoring is
	// deterministic, so the byte-determinism contract is unchanged.
	Fitness *Fitness
}

// SweepResult is a completed sweep: per-cell results in expansion order
// plus the spec that produced them.
type SweepResult struct {
	Spec  *SweepSpec
	Cells []SweepCellResult
}

// SweepAggregate is one per-solver row of the aggregate table.
type SweepAggregate struct {
	// Solver names the solver family (SolverNames).
	Solver string
	// Cells and Errors count the solver's grid cells and failed cells.
	Cells, Errors int
	// MeanRatio and P95Ratio summarise Energy/LB over the solver's
	// error-free cells with a positive LB (nearest-rank p95).
	MeanRatio, P95Ratio float64
	// MeanFitness summarises the weighted fitness over error-free cells;
	// zero when the sweep ran without SweepOptions.Fitness.
	MeanFitness float64
	// MeanMS and TotalMS summarise wall-clock solve time (excluded from
	// the determinism contract).
	MeanMS, TotalMS float64
}

// Aggregate reduces the sweep to one row per solver, in the spec's solver
// order. Runtime columns aside, the aggregate is deterministic.
func (r *SweepResult) Aggregate() []SweepAggregate {
	bySolver := make(map[string]*SweepAggregate)
	var order []string
	for _, name := range r.Spec.Solvers {
		if _, ok := bySolver[name]; !ok {
			bySolver[name] = &SweepAggregate{Solver: name}
			order = append(order, name)
		}
	}
	ratios := make(map[string][]float64)
	fits := make(map[string][]float64)
	for _, c := range r.Cells {
		agg, ok := bySolver[c.Solver]
		if !ok {
			continue
		}
		agg.Cells++
		if c.Err != "" {
			agg.Errors++
			continue
		}
		agg.TotalMS += c.RuntimeMS
		if c.LBRatio > 0 {
			ratios[c.Solver] = append(ratios[c.Solver], c.LBRatio)
		}
		fits[c.Solver] = append(fits[c.Solver], c.Fitness)
	}
	out := make([]SweepAggregate, 0, len(order))
	for _, name := range order {
		agg := bySolver[name]
		agg.MeanRatio = stats.Mean(ratios[name])
		agg.P95Ratio = stats.Percentile(ratios[name], 0.95)
		agg.MeanFitness = stats.Mean(fits[name])
		if done := agg.Cells - agg.Errors; done > 0 {
			agg.MeanMS = agg.TotalMS / float64(done)
		}
		out = append(out, *agg)
	}
	return out
}

// AggregateTable renders the per-solver aggregate as an aligned text table.
func (r *SweepResult) AggregateTable() string {
	tb := stats.NewTable("solver", "cells", "errors", "mean E/LB", "p95 E/LB", "mean fit", "mean ms", "total ms")
	for _, a := range r.Aggregate() {
		tb.AddRow(a.Solver, a.Cells, a.Errors, a.MeanRatio, a.P95Ratio, a.MeanFitness, a.MeanMS, a.TotalMS)
	}
	return tb.String()
}

// WriteJSONL writes one marshalled SweepCellResult per line, in cell order
// — the same bytes the engine streams through SweepOptions.OnCell.
func (r *SweepResult) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, c := range r.Cells {
		if err := enc.Encode(c); err != nil {
			return fmt.Errorf("dcnflow: encoding sweep cell %d: %w", c.Cell, err)
		}
	}
	return nil
}

// Sweep expands the spec's grid and executes every cell on a bounded worker
// pool, dispatching each through the shared Engine — the root-level facade
// of the sweep engine. Per-scenario instances, lower bounds, compiled
// topologies and pooled solver scratch are all shared through the Engine's
// caches (cells differing only in solver hit the same CompiledInstance),
// replacing the bespoke per-worker solver cache and sync.Once instance
// groups the sweep once carried. Per-cell failures are recorded in the
// cell's Err field and do not abort the run; the returned error is non-nil
// only for an invalid spec or a cancelled context (the pool winds down
// within one in-flight cell per worker and the partial result is
// discarded).
//
// Determinism contract: Cells, their JSONL encoding and Aggregate (runtime
// fields aside) are byte-identical for every Workers value — cells are
// collected and streamed in expansion order, every seed is derived from the
// spec, and the Engine's caches never change results (its own contract).
func Sweep(ctx context.Context, spec *SweepSpec, opts SweepOptions) (*SweepResult, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	eng := opts.Engine
	if eng == nil {
		eng = NewEngine(EngineOptions{})
	}
	cells := spec.Cells()
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cells) {
		workers = len(cells)
	}

	var emit func(int, SweepCellResult)
	if opts.OnCell != nil {
		emit = func(_ int, r SweepCellResult) { opts.OnCell(r) }
	}
	results, err := sweep.Map(ctx, len(cells), workers,
		func(ctx context.Context, i, _ int) (SweepCellResult, error) {
			cell := &cells[i]
			res := SweepCellResult{
				Cell:      cell.Index,
				Scenario:  cell.Scenario.Name,
				Topology:  cell.TopologyLabel,
				Workload:  cell.WorkloadLabel,
				Tightness: cell.Tightness,
				Seed:      cell.Seed,
				Solver:    cell.Solver,
			}
			// The instance is resolved first so a scenario build failure is
			// reported as itself, not disguised as a bound or solve error.
			// Cells of one scenario group share the cached build.
			if _, err := eng.Instance(&cell.Scenario); err != nil {
				res.Err = err.Error()
				return res, nil
			}
			var lb float64
			if !opts.SkipLB {
				// The shared bound reuses the cell-wide solver options (so a
				// sweep-wide Frank–Wolfe iteration cap applies to it too) and
				// is memoised per scenario group on the Engine.
				var err error
				lb, err = eng.LowerBound(ctx, &cell.Scenario, opts.Options...)
				if err != nil {
					if ctx.Err() != nil {
						return res, ctx.Err()
					}
					// A failed shared bound is a per-scenario failure, not
					// something to paper over with the solver's own bound —
					// otherwise the row would silently mix normalizers and
					// look exactly like a SkipLB run.
					res.Err = fmt.Sprintf("scenario lower bound: %v", err)
					return res, nil
				}
			}

			start := time.Now()
			// The engine applies WithSeed(cell.Scenario.Seed) after the
			// sweep-wide options — the cell's seed axis value, baked into
			// the resolved scenario by Cells().
			r := eng.Solve(ctx, Request{
				Scenario: &cell.Scenario,
				Solver:   cell.Solver,
				Options:  opts.Options,
			})
			res.RuntimeMS = float64(time.Since(start)) / float64(time.Millisecond)
			if r.Err != nil {
				// Cancellation aborts the sweep; any other failure is a
				// per-cell outcome worth recording, not a reason to drop
				// the rest of the grid.
				if ctx.Err() != nil && errors.Is(r.Err, ctx.Err()) {
					return res, r.Err
				}
				res.Err = r.Err.Error()
				return res, nil
			}
			sol := r.Solution
			res.Energy = sol.Energy
			res.LB = lb
			if opts.SkipLB {
				res.LB = sol.LowerBound
			}
			if res.LB > 0 {
				res.LBRatio = res.Energy / res.LB
			}
			res.Stats = sol.Stats
			if opts.Fitness != nil && sol.Schedule != nil {
				// Re-score the schedule through the simulator and collapse to
				// the weighted scalar. The instance is the cached scenario
				// build resolved above.
				inst, err := eng.Instance(&cell.Scenario)
				if err != nil {
					res.Err = fmt.Sprintf("fitness scoring: %v", err)
					return res, nil
				}
				simRes, err := Simulate(inst.Graph(), inst.Flows(), sol.Schedule, inst.Model(), SimOptions{})
				if err != nil {
					res.Err = fmt.Sprintf("fitness scoring: %v", err)
					return res, nil
				}
				comp := decision.SimComponents(inst.Flows(), simRes)
				res.Misses = comp.Misses
				res.SlackP99 = comp.SlackP99
				res.Fitness = opts.Fitness.Score(comp)
			}
			if opts.KeepSolutions {
				res.Solution = sol
			}
			return res, nil
		},
		emit)
	if err != nil {
		return nil, fmt.Errorf("dcnflow: sweep: %w", err)
	}
	return &SweepResult{Spec: spec, Cells: results}, nil
}
