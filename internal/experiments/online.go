package experiments

import (
	"context"
	"fmt"

	"dcnflow"
	"dcnflow/internal/core"
	"dcnflow/internal/flow"
	"dcnflow/internal/mcfsolve"
	"dcnflow/internal/online"
	"dcnflow/internal/sim"
	"dcnflow/internal/stats"
	"dcnflow/internal/sweep"
	"dcnflow/internal/topology"
)

// OnlineConfig configures the O1 online comparison experiment.
type OnlineConfig struct {
	AblateConfig
	// Workload selects the arrival pattern: "uniform" (the paper's
	// evaluation workload revealed online), "diurnal" (sinusoidal
	// time-varying load; the default), or "incast" (periodic many-to-one
	// bursts with shared deadlines).
	Workload string
	// Epoch, for workloads where batching is exercised, is reserved for a
	// fixed-period re-plan trigger; zero (the default) re-plans per
	// arrival, the strongest rolling configuration.
	Epoch float64
}

func (c OnlineConfig) withDefaults() OnlineConfig {
	c.AblateConfig = c.AblateConfig.withDefaults()
	if c.Workload == "" {
		c.Workload = "diurnal"
	}
	return c
}

// OnlinePoint is one row of the online comparison: the cost of revealing
// flows at release time, for the irrevocable marginal-cost greedy and the
// rolling-horizon re-optimizer, against the clairvoyant offline
// Random-Schedule — all normalised by the shared offline fractional lower
// bound.
type OnlinePoint struct {
	N       int
	Greedy  float64 // online greedy energy / LB
	Rolling float64 // rolling-horizon energy / LB
	Offline float64 // offline Random-Schedule energy / LB
}

// OnlineResult is the O1 experiment outcome. Every scheme on every run is
// validated by the discrete-event simulator (all deadlines met, no capacity
// violations) before its energy enters the series.
type OnlineResult struct {
	Config OnlineConfig
	Points []OnlinePoint
}

// Table renders the series.
func (r *OnlineResult) Table() string {
	tb := stats.NewTable("n", "greedy/LB", "rolling/LB", "offline RS/LB")
	for _, p := range r.Points {
		tb.AddRow(p.N, p.Greedy, p.Rolling, p.Offline)
	}
	return tb.String()
}

// OnlineWorkloadInstance draws one instance of the configured arrival
// pattern — shared by the comparison runner and the CLI's single-run modes
// so both always see identical workloads.
func OnlineWorkloadInstance(cfg OnlineConfig, ft *topology.Topology, n int, seed int64) (*flow.Set, error) {
	switch cfg.Workload {
	case "uniform":
		return flow.Uniform(flow.GenConfig{
			N: n, T0: 1, T1: 100, SizeMean: 10, SizeStddev: 3,
			Hosts: ft.Hosts, Seed: seed,
		})
	case "diurnal":
		return flow.Diurnal(flow.DiurnalConfig{
			N: n, T0: 0, T1: 100, PeakFactor: 5,
			SizeMean: 8, SizeStddev: 2, Hosts: ft.Hosts, Seed: seed,
		})
	case "incast":
		// Periodic many-to-one bursts: waves of fan-in onto rotating
		// receivers, each wave sharing one release and one deadline.
		waves := (n + 7) / 8
		var flows []flow.Flow
		span := 100.0 / float64(waves)
		for w := 0; w < waves; w++ {
			recv := ft.Hosts[w%len(ft.Hosts)]
			release := float64(w) * span
			count := 8
			if rem := n - w*8; rem < count {
				count = rem
			}
			for i := 0; i < count; i++ {
				src := ft.Hosts[(w+1+i*3)%len(ft.Hosts)]
				if src == recv {
					src = ft.Hosts[(w+2+i*3)%len(ft.Hosts)]
				}
				flows = append(flows, flow.Flow{
					Src: src, Dst: recv,
					Release: release, Deadline: release + span*1.5,
					Size: 8,
				})
			}
		}
		return flow.NewSet(flows)
	default:
		return nil, fmt.Errorf("experiments: unknown online workload %q", cfg.Workload)
	}
}

// RunOnlineComparison sweeps the flow count and measures the online greedy,
// the rolling-horizon re-optimizer and the offline Random-Schedule on
// identical workloads, each normalised by the offline fractional lower
// bound; every schedule is validated by the simulator before its energy is
// recorded. The (n, run) grid executes on the shared sweep pool
// (internal/sweep) — Workers in the embedded AblateConfig is a pure
// wall-clock lever.
func RunOnlineComparison(cfg OnlineConfig, flowCounts []int) (*OnlineResult, error) {
	cfg = cfg.withDefaults()
	if len(flowCounts) == 0 {
		flowCounts = []int{20, 40, 80}
	}
	ft, err := topology.FatTree(cfg.FatTreeK, 1e12)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	type cellResult struct {
		greedy, rolling, offline float64
		haveLB                   bool
	}
	grid := newGrid(flowCounts, cfg.Runs)
	results, err := sweep.Map(context.Background(), grid.size(), gridWorkers(cfg.Workers),
		func(ctx context.Context, i, _ int) (cellResult, error) {
			n, run := grid.cell(i)
			fs, err := OnlineWorkloadInstance(cfg, ft, n, cfg.Seed+int64(1000*n+run))
			if err != nil {
				return cellResult{}, fmt.Errorf("experiments: %w", err)
			}
			model := ablateModel(cfg.AblateConfig, fs)
			model.Sigma = 0 // match the paper's evaluation power function
			// Every scheme is normalised by the paper's fractional
			// relaxation value (LowerBoundCtx's), as in Fig. 2; one
			// relaxation gives it and the offline leg.
			off, lb, err := core.SolveDCFSRWithFractionalCtx(ctx, core.DCFSRInput{
				Graph: ft.Graph, Flows: fs, Model: model,
				Opts: core.DCFSROptions{
					Seed:   cfg.Seed + int64(run),
					Solver: mcfsolve.Options{MaxIters: cfg.SolverIters},
				},
			})
			if err != nil {
				return cellResult{}, fmt.Errorf("experiments: online comparison offline leg: %w", err)
			}
			greedy, err := solve(dcnflow.SolverGreedyOnline, ft.Graph, fs, model)
			if err != nil {
				return cellResult{}, fmt.Errorf("experiments: online comparison greedy leg: %w", err)
			}
			var policy online.ReplanPolicy = online.ArrivalCount{N: 1}
			if cfg.Epoch > 0 {
				policy = online.FixedPeriod{Period: cfg.Epoch}
			}
			roll, err := solve(dcnflow.SolverRollingOnline, ft.Graph, fs, model,
				dcnflow.WithRollingOptions(online.RollingOptions{
					Policy: policy,
					DCFSR: core.DCFSROptions{
						Seed:      cfg.Seed + int64(run),
						Solver:    mcfsolve.Options{MaxIters: cfg.SolverIters},
						WarmStart: true,
					},
				}))
			if err != nil {
				return cellResult{}, fmt.Errorf("experiments: online comparison rolling leg: %w", err)
			}
			// Deadline feasibility of every scheme on every run is part of
			// the experiment's contract, not a soft statistic. The rolling
			// solver's replay validation surfaces in its Solution stats.
			if roll.Stats["deadline_violations"] != 0 || roll.Stats["rejected"] != 0 {
				return cellResult{}, fmt.Errorf("experiments: rolling schedule infeasible (n=%d run=%d): %g violations, %g rejected",
					n, run, roll.Stats["deadline_violations"], roll.Stats["rejected"])
			}
			gSim, err := sim.Run(ft.Graph, fs, greedy.Schedule, model, sim.Options{})
			if err != nil {
				return cellResult{}, fmt.Errorf("experiments: greedy simulation: %w", err)
			}
			oSim, err := sim.Run(ft.Graph, fs, off.Schedule, model, sim.Options{})
			if err != nil {
				return cellResult{}, fmt.Errorf("experiments: offline simulation: %w", err)
			}
			if gSim.DeadlinesMissed != 0 || oSim.DeadlinesMissed != 0 {
				return cellResult{}, fmt.Errorf("experiments: deadline miss (n=%d run=%d): greedy %d, offline %d",
					n, run, gSim.DeadlinesMissed, oSim.DeadlinesMissed)
			}
			if lb <= 0 {
				return cellResult{}, nil
			}
			return cellResult{
				greedy:  greedy.Energy / lb,
				rolling: roll.Energy / lb,
				offline: off.Schedule.EnergyTotal(model) / lb,
				haveLB:  true,
			}, nil
		}, nil)
	if err != nil {
		return nil, err
	}
	out := &OnlineResult{Config: cfg}
	for pi, n := range flowCounts {
		var gRatios, rRatios, offRatios []float64
		for run := 0; run < cfg.Runs; run++ {
			c := results[pi*cfg.Runs+run]
			if !c.haveLB {
				continue
			}
			gRatios = append(gRatios, c.greedy)
			rRatios = append(rRatios, c.rolling)
			offRatios = append(offRatios, c.offline)
		}
		out.Points = append(out.Points, OnlinePoint{
			N:       n,
			Greedy:  stats.Mean(gRatios),
			Rolling: stats.Mean(rRatios),
			Offline: stats.Mean(offRatios),
		})
	}
	return out, nil
}
