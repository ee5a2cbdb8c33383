package experiments

import (
	"context"
	"fmt"

	"dcnflow"
	"dcnflow/internal/core"
	"dcnflow/internal/flow"
	"dcnflow/internal/mcfsolve"
	"dcnflow/internal/power"
	"dcnflow/internal/stats"
	"dcnflow/internal/sweep"
	"dcnflow/internal/topology"
)

// AblateConfig shares the common knobs of the ablation studies (A1-A3):
// a k=4 fat-tree with a moderate workload unless overridden.
type AblateConfig struct {
	FatTreeK    int // default 4
	N           int // flows; default 40
	Runs        int // default 5
	Seed        int64
	Alpha       float64 // default 2
	SolverIters int     // default 40
	// Workers bounds concurrent grid cells on the sweep pool; default 1
	// and never affects results (see gridWorkers).
	Workers int
}

func (c AblateConfig) withDefaults() AblateConfig {
	if c.FatTreeK == 0 {
		c.FatTreeK = 4
	}
	if c.N <= 0 {
		c.N = 40
	}
	if c.Runs <= 0 {
		c.Runs = 5
	}
	if c.Alpha == 0 {
		c.Alpha = 2
	}
	if c.SolverIters <= 0 {
		c.SolverIters = 40
	}
	return c
}

// LambdaPoint is one row of the A1 ablation.
type LambdaPoint struct {
	// Quantum is the workload time-grid spacing; lambda is capped near
	// horizon / Quantum.
	Quantum float64
	Lambda  float64
	Ratio   float64 // RS / LB
}

// LambdaResult is the A1 (interval granularity) ablation: Theorem 6's
// bound scales with lambda^alpha, so shrinking the minimum span (growing
// lambda) should not catastrophically degrade the measured ratio — the
// bound is loose — but the trend is worth quantifying.
type LambdaResult struct {
	Config AblateConfig
	Points []LambdaPoint
}

// Table renders the A1 series.
func (r *LambdaResult) Table() string {
	tb := stats.NewTable("quantum", "lambda", "RS/LB")
	for _, p := range r.Points {
		tb.AddRow(p.Quantum, p.Lambda, p.Ratio)
	}
	return tb.String()
}

// RunAblationLambda sweeps the workload's time quantum, which controls the
// smallest decomposition interval and hence lambda.
func RunAblationLambda(cfg AblateConfig, quanta []float64) (*LambdaResult, error) {
	cfg = cfg.withDefaults()
	if len(quanta) == 0 {
		quanta = []float64{20, 10, 5, 2, 1}
	}
	ft, err := topology.FatTree(cfg.FatTreeK, 1e12)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	type cellResult struct {
		ratio, lambda float64
		haveLB        bool
	}
	results, err := sweep.Map(context.Background(), len(quanta)*cfg.Runs, gridWorkers(cfg.Workers),
		func(_ context.Context, i, _ int) (cellResult, error) {
			q, run := quanta[i/cfg.Runs], i%cfg.Runs
			fs, err := flow.Uniform(flow.GenConfig{
				N: cfg.N, T0: 1, T1: 100, SizeMean: 10, SizeStddev: 3,
				TimeQuantum: q, Hosts: ft.Hosts, Seed: cfg.Seed + int64(run),
			})
			if err != nil {
				return cellResult{}, fmt.Errorf("experiments: %w", err)
			}
			model := ablateModel(cfg, fs)
			res, err := solve(dcnflow.SolverDCFSR, ft.Graph, fs, model,
				dcnflow.WithDCFSROptions(core.DCFSROptions{
					Seed:   cfg.Seed + int64(run),
					Solver: mcfsolve.Options{MaxIters: cfg.SolverIters},
				}))
			if err != nil {
				return cellResult{}, fmt.Errorf("experiments: lambda ablation: %w", err)
			}
			out := cellResult{lambda: res.Stats["lambda"]}
			if res.LowerBound > 0 {
				out.ratio, out.haveLB = res.Energy/res.LowerBound, true
			}
			return out, nil
		}, nil)
	if err != nil {
		return nil, err
	}
	out := &LambdaResult{Config: cfg}
	for qi, q := range quanta {
		var ratios, lambdas []float64
		for run := 0; run < cfg.Runs; run++ {
			c := results[qi*cfg.Runs+run]
			if c.haveLB {
				ratios = append(ratios, c.ratio)
			}
			lambdas = append(lambdas, c.lambda)
		}
		out.Points = append(out.Points, LambdaPoint{
			Quantum: q,
			Lambda:  stats.Mean(lambdas),
			Ratio:   stats.Mean(ratios),
		})
	}
	return out, nil
}

// RoundingPoint is one row of the A2 ablation.
type RoundingPoint struct {
	Attempts     int
	FeasibleRate float64 // fraction of runs ending capacity-feasible
	MeanEnergy   float64 // mean energy of the returned assignment
}

// RoundingResult is the A2 (re-rounding budget) ablation on a
// capacity-tight instance.
type RoundingResult struct {
	Config AblateConfig
	Points []RoundingPoint
}

// Table renders the A2 series.
func (r *RoundingResult) Table() string {
	tb := stats.NewTable("attempts", "feasible", "energy")
	for _, p := range r.Points {
		tb.AddRow(p.Attempts, p.FeasibleRate, p.MeanEnergy)
	}
	return tb.String()
}

// RunAblationRounding sweeps MaxRoundingAttempts on a deliberately tight
// parallel-links instance where a single random draw frequently violates
// C. The first attempt is the derandomized assignment, and the budget buys
// the seeded random draws after it. Idle power is high enough here that
// the derandomized assignment stacks three flows on a link in every run,
// so feasibility rests on the draws alone.
func RunAblationRounding(cfg AblateConfig, attempts []int) (*RoundingResult, error) {
	cfg = cfg.withDefaults()
	if len(attempts) == 0 {
		attempts = []int{1, 2, 5, 10, 50}
	}
	top, src, dst, err := topology.ParallelLinks(4, 2)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	// Six flows of density 0.9 over four C=2 links: feasible iff no link
	// carries three flows, so a draw violates capacity often but not
	// always — exactly the regime where retries matter. With sigma = 10 a
	// link's idle power is about twelve times the dynamic power of a
	// flow on it, so consolidation pays right up to C and past it.
	raw := make([]flow.Flow, 6)
	for i := range raw {
		raw[i] = flow.Flow{Src: src, Dst: dst, Release: 0, Deadline: 1, Size: 0.9}
	}
	fs, err := flow.NewSet(raw)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	model := power.Model{Sigma: 10, Mu: 1, Alpha: cfg.Alpha, C: 2}
	type cellResult struct {
		energy   float64
		feasible bool
	}
	grid := newGrid(attempts, cfg.Runs)
	results, err := sweep.Map(context.Background(), grid.size(), gridWorkers(cfg.Workers),
		func(_ context.Context, i, _ int) (cellResult, error) {
			att, run := grid.cell(i)
			res, err := solve(dcnflow.SolverDCFSR, top.Graph, fs, model,
				dcnflow.WithDCFSROptions(core.DCFSROptions{
					Seed:                cfg.Seed + int64(run),
					MaxRoundingAttempts: att,
				}))
			if err != nil {
				return cellResult{}, fmt.Errorf("experiments: rounding ablation: %w", err)
			}
			return cellResult{energy: res.Energy, feasible: res.Stats["capacity_feasible"] == 1}, nil
		}, nil)
	if err != nil {
		return nil, err
	}
	out := &RoundingResult{Config: cfg}
	for ai, att := range attempts {
		var feasible int
		var energies []float64
		for run := 0; run < cfg.Runs; run++ {
			c := results[ai*cfg.Runs+run]
			if c.feasible {
				feasible++
			}
			energies = append(energies, c.energy)
		}
		out.Points = append(out.Points, RoundingPoint{
			Attempts:     att,
			FeasibleRate: float64(feasible) / float64(cfg.Runs),
			MeanEnergy:   stats.Mean(energies),
		})
	}
	return out, nil
}

// SurrogatePoint is one row of the A3 ablation.
type SurrogatePoint struct {
	Cost        string
	Energy      float64 // mean total energy of RS under the full f
	ActiveLinks float64 // mean powered-on links
}

// SurrogateResult is the A3 (relaxation cost) ablation: rounding from the
// envelope-cost relaxation should power fewer links than rounding from the
// dynamic-only relaxation, because the envelope charges idle power
// proportionally and rewards consolidation.
type SurrogateResult struct {
	Config AblateConfig
	Points []SurrogatePoint
}

// Table renders the A3 comparison.
func (r *SurrogateResult) Table() string {
	tb := stats.NewTable("relaxation cost", "RS energy", "active links")
	for _, p := range r.Points {
		tb.AddRow(p.Cost, p.Energy, p.ActiveLinks)
	}
	return tb.String()
}

// RunAblationSurrogate compares CostDynamic and CostEnvelope relaxations on
// identical workloads and seeds.
func RunAblationSurrogate(cfg AblateConfig) (*SurrogateResult, error) {
	cfg = cfg.withDefaults()
	ft, err := topology.FatTree(cfg.FatTreeK, 1e12)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	kinds := []struct {
		name string
		cost mcfsolve.CostKind
	}{
		{"dynamic (mu*x^a)", mcfsolve.CostDynamic},
		{"envelope of f", mcfsolve.CostEnvelope},
	}
	type cellResult struct {
		energy, links float64
	}
	results, err := sweep.Map(context.Background(), len(kinds)*cfg.Runs, gridWorkers(cfg.Workers),
		func(_ context.Context, i, _ int) (cellResult, error) {
			kind, run := kinds[i/cfg.Runs], i%cfg.Runs
			fs, err := flow.Uniform(flow.GenConfig{
				N: cfg.N, T0: 1, T1: 100, SizeMean: 10, SizeStddev: 3,
				Hosts: ft.Hosts, Seed: cfg.Seed + int64(run),
			})
			if err != nil {
				return cellResult{}, fmt.Errorf("experiments: %w", err)
			}
			model := ablateModel(cfg, fs)
			res, err := solve(dcnflow.SolverDCFSR, ft.Graph, fs, model,
				dcnflow.WithDCFSROptions(core.DCFSROptions{
					Seed:   cfg.Seed + int64(run),
					Solver: mcfsolve.Options{Cost: kind.cost, MaxIters: cfg.SolverIters},
				}))
			if err != nil {
				return cellResult{}, fmt.Errorf("experiments: surrogate ablation: %w", err)
			}
			return cellResult{energy: res.Energy, links: res.Stats["links_on"]}, nil
		}, nil)
	if err != nil {
		return nil, err
	}
	out := &SurrogateResult{Config: cfg}
	for ki, kind := range kinds {
		var energies, links []float64
		for run := 0; run < cfg.Runs; run++ {
			c := results[ki*cfg.Runs+run]
			energies = append(energies, c.energy)
			links = append(links, c.links)
		}
		out.Points = append(out.Points, SurrogatePoint{
			Cost:        kind.name,
			Energy:      stats.Mean(energies),
			ActiveLinks: stats.Mean(links),
		})
	}
	return out, nil
}

// ablateModel mirrors fig2Model for the ablation configs.
func ablateModel(cfg AblateConfig, fs *flow.Set) power.Model {
	ropt := 3 * fs.MeanDensity()
	if ropt <= 0 {
		ropt = 1
	}
	return power.Model{
		Sigma: power.SigmaForRopt(1, cfg.Alpha, ropt),
		Mu:    1,
		Alpha: cfg.Alpha,
		C:     1e12,
	}
}
