package core

import (
	"context"

	"dcnflow/internal/flow"
	"dcnflow/internal/graph"
)

// ExpectedRandomRounding returns the expected EnergyTotal of the paper's
// random rounding, every flow drawn from its aggregated candidate weights,
// on the candidates SolveDCFSRCtx derives for in. It needs an integer alpha
// of at most maxExactAlpha, where the rounding's estimator is exact.
func ExpectedRandomRounding(ctx context.Context, in DCFSRInput) (float64, error) {
	compiled, err := compiledView(in.Compiled, in.Graph)
	if err != nil {
		return 0, err
	}
	rel, err := solveRelaxation(ctx, compiled, in.Flows, in.Model, in.Opts.withDefaults(), relaxStop)
	if err != nil {
		return 0, err
	}
	flows := in.Flows.Flows()
	spans := make(map[flow.ID]float64, len(flows))
	for _, f := range flows {
		spans[f.ID] = f.Span()
	}
	interner := graph.NewPathInterner()
	cands := aggregateCandidates(rel, spans, interner)
	t0, t1 := in.Flows.Horizon()
	return newRounding(flows, cands, interner, rel, in.Model, t1-t0).expected(), nil
}
