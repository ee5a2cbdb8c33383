package experiments

import (
	"fmt"
	"math/rand"

	"dcnflow"
	"dcnflow/internal/core"
	"dcnflow/internal/flow"
	"dcnflow/internal/power"
	"dcnflow/internal/stats"
	"dcnflow/internal/topology"
)

// ExactPoint is one row of the EXT-EXACT comparison.
type ExactPoint struct {
	N int
	// RSOverExact is the mean ratio of Random-Schedule energy to the true
	// optimum (brute-force over path assignments, optimal scheduling per
	// assignment).
	RSOverExact float64
	// LBOverExact is the mean ratio of Random-Schedule's lower bound to the
	// true optimum. That bound is certified for schedules that send each
	// flow on one path at its density; the optimum schedules each
	// assignment by Most-Critical-First, which may shape rates, so the
	// bound need not hold for it.
	LBOverExact float64
}

// ExactResult is the EXT-EXACT experiment: the measured approximation
// quality of Random-Schedule against the *exact* optimum (not just the
// fractional bound), on instances small enough to enumerate.
type ExactResult struct {
	Runs   int
	Points []ExactPoint
}

// Table renders the series.
func (r *ExactResult) Table() string {
	tb := stats.NewTable("n", "RS/exact", "LB/exact")
	for _, p := range r.Points {
		tb.AddRow(p.N, p.RSOverExact, p.LBOverExact)
	}
	return tb.String()
}

// RunExactComparison measures RS and LB against the brute-force optimum on
// small diamond-topology instances (4 parallel two-hop routes).
func RunExactComparison(seed int64, runs int, flowCounts []int) (*ExactResult, error) {
	if runs <= 0 {
		runs = 5
	}
	if len(flowCounts) == 0 {
		flowCounts = []int{2, 3, 4}
	}
	top, src, dst, err := topology.ParallelLinks(4, 1e12)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	out := &ExactResult{Runs: runs}
	for _, n := range flowCounts {
		var rsRatios, lbRatios []float64
		for run := 0; run < runs; run++ {
			rng := rand.New(rand.NewSource(seed + int64(100*n+run)))
			raw := make([]flow.Flow, n)
			for i := range raw {
				r := rng.Float64() * 4
				raw[i] = flow.Flow{
					Src: src, Dst: dst,
					Release: r, Deadline: r + 1 + rng.Float64()*4,
					Size: 1 + rng.Float64()*6,
				}
			}
			fs, err := flow.NewSet(raw)
			if err != nil {
				return nil, fmt.Errorf("experiments: %w", err)
			}
			model := power.Model{
				Sigma: power.SigmaForRopt(1, 2, 2*fs.MeanDensity()),
				Mu:    1, Alpha: 2, C: 1e12,
			}
			exact, err := solve(dcnflow.SolverExact, top.Graph, fs, model,
				dcnflow.WithExactOptions(core.ExactOptions{PathsPerFlow: 4}))
			if err != nil {
				return nil, fmt.Errorf("experiments: exact n=%d run=%d: %w", n, run, err)
			}
			rs, err := solve(dcnflow.SolverDCFSR, top.Graph, fs, model,
				dcnflow.WithSeed(seed+int64(run)))
			if err != nil {
				return nil, fmt.Errorf("experiments: rs n=%d run=%d: %w", n, run, err)
			}
			if exact.Energy > 0 {
				rsRatios = append(rsRatios, rs.Energy/exact.Energy)
				lbRatios = append(lbRatios, rs.LowerBound/exact.Energy)
			}
		}
		out.Points = append(out.Points, ExactPoint{
			N:           n,
			RSOverExact: stats.Mean(rsRatios),
			LBOverExact: stats.Mean(lbRatios),
		})
	}
	return out, nil
}
