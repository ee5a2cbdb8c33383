package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"dcnflow"
	"dcnflow/internal/flow"
	"dcnflow/internal/power"
	"dcnflow/internal/stats"
	"dcnflow/internal/topology"
)

// HardnessConfig parameterises the Theorem 2 construction: 3m flows with
// sizes in [B/4, B/2] summing to m*B, routed src->dst over k >> m parallel
// links within one unit of time, with sigma = mu*(alpha-1)*B^alpha so that
// Ropt = B. A perfect partition uses exactly m links at rate B with energy
// m * alpha * mu * B^alpha.
type HardnessConfig struct {
	// M is the number of 3-element groups; default 4.
	M int
	// B is the group sum; default 12.
	B float64
	// Alpha is the power exponent; default 2.
	Alpha float64
	// Links is the number of parallel links (k >> m); default 8*M.
	Links int
	// Seed drives the size perturbation and the rounding.
	Seed int64
	// Runs averages the RS ratio over several rounding seeds; default 5.
	Runs int
}

func (c HardnessConfig) withDefaults() HardnessConfig {
	if c.M <= 0 {
		c.M = 4
	}
	if c.B <= 0 {
		c.B = 12
	}
	if c.Alpha == 0 {
		c.Alpha = 2
	}
	if c.Links <= 0 {
		c.Links = 8 * c.M
	}
	if c.Runs <= 0 {
		c.Runs = 5
	}
	return c
}

// HardnessResult reports the Theorem 2 gadget outcome and the Theorem 3
// inapproximability constant for the configured alpha.
type HardnessResult struct {
	Config HardnessConfig
	// Optimal is the partition optimum m * alpha * mu * B^alpha.
	Optimal float64
	// RSEnergy is the mean Random-Schedule energy across runs.
	RSEnergy float64
	// RSRatio is RSEnergy / Optimal (>= 1; how close the approximation
	// gets to the NP-hard optimum on its own worst-case family).
	RSRatio float64
	// LowerBound is Random-Schedule's certified lower bound (<= Optimal).
	LowerBound float64
	// ActiveLinksMean is the mean number of links RS powers on (optimum m).
	ActiveLinksMean float64
	// Theorem3Gamma is the approximation lower bound
	// 3/2 * (1 + ((2/3)^alpha - 1)/alpha) from Theorem 3.
	Theorem3Gamma float64
}

// Table renders the gadget summary.
func (r *HardnessResult) Table() string {
	tb := stats.NewTable("quantity", "value")
	tb.AddRow("m (groups)", r.Config.M)
	tb.AddRow("B (group sum)", r.Config.B)
	tb.AddRow("alpha", r.Config.Alpha)
	tb.AddRow("partition optimum", r.Optimal)
	tb.AddRow("RS lower bound", r.LowerBound)
	tb.AddRow("RS energy (mean)", r.RSEnergy)
	tb.AddRow("RS / optimum", r.RSRatio)
	tb.AddRow("mean active links (opt m)", r.ActiveLinksMean)
	tb.AddRow("Theorem 3 gamma(alpha)", r.Theorem3Gamma)
	return tb.String()
}

// Theorem3Gamma returns the inapproximability constant of Theorem 3,
// gamma = 3/2 * (1 + ((2/3)^alpha - 1)/alpha).
func Theorem3Gamma(alpha float64) float64 {
	return 1.5 * (1 + (math.Pow(2.0/3.0, alpha)-1)/alpha)
}

// RunHardness builds the Theorem 2 instance and measures how
// Random-Schedule performs against the known optimum.
func RunHardness(cfg HardnessConfig) (*HardnessResult, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))

	// 3m sizes in [B/4, B/2] summing to m*B: each group draws (a, b) and
	// sets c = B - a - b, redrawing until c lands in range.
	sizes := make([]float64, 0, 3*cfg.M)
	for g := 0; g < cfg.M; g++ {
		for {
			a := cfg.B/4 + rng.Float64()*cfg.B/4
			b := cfg.B/4 + rng.Float64()*cfg.B/4
			c := cfg.B - a - b
			if c >= cfg.B/4 && c <= cfg.B/2 {
				sizes = append(sizes, a, b, c)
				break
			}
		}
	}

	top, src, dst, err := topology.ParallelLinks(cfg.Links, 1e12)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	fs, err := flow.HardnessInstance(src, dst, sizes)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	model := power.Model{
		Sigma: power.SigmaForRopt(1, cfg.Alpha, cfg.B), // Ropt = B
		Mu:    1,
		Alpha: cfg.Alpha,
		C:     1e12,
	}
	optimal := float64(cfg.M) * cfg.Alpha * model.Mu * math.Pow(cfg.B, cfg.Alpha)

	var energies, activeLinks []float64
	var lb float64
	for run := 0; run < cfg.Runs; run++ {
		res, err := solve(dcnflow.SolverDCFSR, top.Graph, fs, model,
			dcnflow.WithSeed(cfg.Seed+int64(run)))
		if err != nil {
			return nil, fmt.Errorf("experiments: hardness run %d: %w", run, err)
		}
		energies = append(energies, res.Energy)
		activeLinks = append(activeLinks, res.Stats["links_on"])
		lb = res.LowerBound
	}
	mean := stats.Mean(energies)
	return &HardnessResult{
		Config:          cfg,
		Optimal:         optimal,
		RSEnergy:        mean,
		RSRatio:         mean / optimal,
		LowerBound:      lb,
		ActiveLinksMean: stats.Mean(activeLinks),
		Theorem3Gamma:   Theorem3Gamma(cfg.Alpha),
	}, nil
}
