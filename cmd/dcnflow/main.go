// Command dcnflow regenerates every artifact of the paper's evaluation
// (DESIGN.md per-experiment index) from the command line:
//
//	dcnflow example1                 # E1: Fig. 1 / Example 1 closed-form check
//	dcnflow fig2 -alpha 2            # F2: Fig. 2, x^2 panel
//	dcnflow fig2 -alpha 4 -runs 10   # F2: Fig. 2, x^4 panel, paper-scale runs
//	dcnflow hardness                 # T2/T3: Theorem 2 gadget + Theorem 3 constant
//	dcnflow ablate lambda            # A1: interval granularity
//	dcnflow ablate rounding          # A2: re-rounding budget
//	dcnflow ablate surrogate         # A3: relaxation cost
//	dcnflow online -mode compare     # O1: greedy vs rolling vs offline RS
//	dcnflow online -mode rolling     # one rolling-horizon run with stats
//	dcnflow decisions -mode score    # O2: greedy vs rolling decision regret
//	dcnflow run scenario.json -solver dcfsr,sp-mcf   # solve a JSON scenario spec
//	dcnflow sweep grid.json -workers 8 -out out.jsonl  # run a scenario-sweep grid
//	dcnflow workload -n 100          # dump a generated workload as CSV
//	dcnflow topo -kind fattree -k 4  # emit a topology in Graphviz DOT
//
// Run `dcnflow <command> -h` for any command's flags. The experiment IDs
// (E1, F2, T2/T3, A1-A3, O1, O2) are defined in DESIGN.md's per-experiment
// index, which maps each one to its runner, benchmark and CLI entry.
// Scheme-running commands (run, sweep, compare, trace) dispatch through
// the solver table of the dcnflow package, so every built-in solver is
// reachable from the command line.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"dcnflow"
	"dcnflow/internal/core"
	"dcnflow/internal/experiments"
	"dcnflow/internal/flow"
	"dcnflow/internal/mcfsolve"
	"dcnflow/internal/online"
	"dcnflow/internal/power"
	"dcnflow/internal/stats"
	"dcnflow/internal/topology"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dcnflow:", err)
		os.Exit(1)
	}
}

// command is one registered dcnflow subcommand. The usage text is
// generated from this table, so a command cannot be added without
// appearing in `dcnflow -h` (enforced by a test).
type command struct {
	name    string
	summary string // one line for the usage listing
	ids     string // DESIGN.md experiment IDs covered, "" for utilities
	run     func(args []string) error
}

// commands returns the registry backing the dispatch and the usage text.
// (A function rather than a package variable: the run functions reference
// newFlagSet, which reads the registry, and Go rejects that cycle in
// variable initialization.)
func commands() []command {
	return []command{
		{"example1", "reproduce Fig. 1 / Example 1 (closed-form optimum check)", "E1", runExample1},
		{"fig2", "reproduce Fig. 2 (approximation performance of Random-Schedule)", "F2", runFig2},
		{"hardness", "run the Theorem 2 gadget and report the Theorem 3 constant", "T2/T3", runHardness},
		{"ablate", "run an ablation study: lambda | rounding | surrogate | exact", "A1 A2 A3", runAblate},
		{"online", "run the online extension: greedy, rolling-horizon, or the O1 comparison", "O1", runOnline},
		{"decisions", "record, replay and score online-scheduler decision logs (counterfactual regret, weighted fitness)", "O2", runDecisions},
		{"run", "solve a JSON scenario spec with registered solvers (see examples/scenarios/)", "", runScenario},
		{"serve", "serve scenario solves over HTTP from a warm engine (POST /v1/solve, /v1/batch; GET /healthz)", "", func(args []string) error { return runServe(args, os.Stdout) }},
		{"sweep", "run a JSON sweep spec: a scenario grid crossed with solvers, on a worker pool (see examples/sweeps/)", "", runSweep},
		{"workload", "generate and print a random workload as CSV", "", runWorkload},
		{"compare", "run every registered solver (and dcfsr's density-rate lower bound) on one workload", "", runCompare},
		{"trace", "schedule a CSV flow trace (id,src,dst,release,deadline,size) on a chosen topology; for scheduler-level decision tracing use `dcnflow decisions`", "", runTrace},
		{"topo", "emit a topology in Graphviz DOT", "", runTopo},
	}
}

// usage renders the self-documenting top-level help from the registry.
func usage() string {
	var b strings.Builder
	b.WriteString("usage: dcnflow <command> [flags]\n\ncommands:\n")
	for _, c := range commands() {
		id := ""
		if c.ids != "" {
			id = " [" + c.ids + "]"
		}
		fmt.Fprintf(&b, "  %-9s %s%s\n", c.name, c.summary, id)
	}
	b.WriteString(`
Bracketed IDs refer to DESIGN.md's per-experiment index, which maps every
artifact of the paper's evaluation to its runner, benchmark and CLI entry.
Run "dcnflow <command> -h" for a command's flags.
`)
	return b.String()
}

// newFlagSet builds a flag set whose -h output names the command and its
// registry summary before the flag listing.
func newFlagSet(name string) *flag.FlagSet {
	summary := ""
	for _, c := range commands() {
		if c.name == strings.Fields(name)[0] {
			summary = c.summary
			break
		}
	}
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: dcnflow %s [flags]\n  %s\n\nflags:\n", name, summary)
		fs.PrintDefaults()
	}
	return fs
}

func run(args []string) error {
	if len(args) == 0 {
		fmt.Print(usage())
		return errors.New("missing command")
	}
	switch args[0] {
	case "help", "-h", "--help":
		fmt.Print(usage())
		return nil
	}
	for _, c := range commands() {
		if c.name == args[0] {
			err := c.run(args[1:])
			if errors.Is(err, flag.ErrHelp) {
				return nil
			}
			return err
		}
	}
	fmt.Print(usage())
	return fmt.Errorf("unknown command %q", args[0])
}

func runExample1(args []string) error {
	fs := newFlagSet("example1")
	if err := fs.Parse(args); err != nil {
		return err
	}
	res, err := experiments.RunExample1()
	if err != nil {
		return err
	}
	fmt.Println("Example 1 (line network, f(x) = x^2):")
	fmt.Print(res.Table())
	return nil
}

func runFig2(args []string) error {
	fs := newFlagSet("fig2")
	alpha := fs.Float64("alpha", 2, "power exponent (paper: 2 or 4)")
	k := fs.Int("k", 8, "fat-tree arity (8 = the paper's 80 switches)")
	runs := fs.Int("runs", 10, "independent runs per point (paper: 10)")
	iters := fs.Int("iters", 40, "Frank-Wolfe iterations per interval")
	seed := fs.Int64("seed", 1, "base seed")
	counts := fs.String("n", "40,80,120,160,200", "comma-separated flow counts")
	idleMult := fs.Float64("idle-mult", 0, "idle-power extension: Ropt at this multiple of mean density (0 = paper's sigma=0)")
	csv := fs.Bool("csv", false, "emit CSV instead of a table")
	workers := fs.Int("workers", 1, "concurrent (n, run) grid cells on the sweep pool; never affects results")
	if err := fs.Parse(args); err != nil {
		return err
	}
	flowCounts, err := parseInts(*counts)
	if err != nil {
		return err
	}
	res, err := experiments.RunFig2(experiments.Fig2Config{
		Alpha:            *alpha,
		FlowCounts:       flowCounts,
		Runs:             *runs,
		FatTreeK:         *k,
		Seed:             *seed,
		SolverIters:      *iters,
		IdleRoptMultiple: *idleMult,
		Workers:          *workers,
	})
	if err != nil {
		return err
	}
	fmt.Printf("Fig. 2 (power function x^%g, fat-tree k=%d, %d runs):\n", *alpha, *k, *runs)
	if *csv {
		tb := stats.NewTable("n", "RS/LB", "RS_std", "SPMCF/LB", "SPMCF_std", "LB")
		for _, p := range res.Points {
			tb.AddRow(p.N, p.RS, p.RSStd, p.SPMCF, p.SPMCFStd, p.LB)
		}
		fmt.Print(tb.CSV())
		return nil
	}
	fmt.Print(res.Table())
	return nil
}

func runHardness(args []string) error {
	fs := newFlagSet("hardness")
	m := fs.Int("m", 4, "number of 3-element groups")
	b := fs.Float64("b", 12, "group sum B")
	alpha := fs.Float64("alpha", 2, "power exponent")
	links := fs.Int("links", 0, "parallel links (0 = 8m)")
	runs := fs.Int("runs", 5, "rounding seeds to average")
	seed := fs.Int64("seed", 1, "base seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	res, err := experiments.RunHardness(experiments.HardnessConfig{
		M: *m, B: *b, Alpha: *alpha, Links: *links, Runs: *runs, Seed: *seed,
	})
	if err != nil {
		return err
	}
	fmt.Println("Theorem 2 gadget (3-partition reduction):")
	fmt.Print(res.Table())
	return nil
}

func runAblate(args []string) error {
	if len(args) == 0 {
		return errors.New("ablate: need one of lambda | rounding | surrogate | exact")
	}
	which := args[0]
	fs := newFlagSet("ablate " + which)
	n := fs.Int("n", 40, "flows")
	runs := fs.Int("runs", 5, "runs per point")
	seed := fs.Int64("seed", 1, "base seed")
	alpha := fs.Float64("alpha", 2, "power exponent")
	iters := fs.Int("iters", 40, "Frank-Wolfe iterations")
	workers := fs.Int("workers", 1, "concurrent grid cells on the sweep pool; never affects results")
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	cfg := experiments.AblateConfig{
		N: *n, Runs: *runs, Seed: *seed, Alpha: *alpha, SolverIters: *iters, Workers: *workers,
	}
	switch which {
	case "lambda":
		res, err := experiments.RunAblationLambda(cfg, nil)
		if err != nil {
			return err
		}
		fmt.Println("A1 — interval granularity (lambda) sensitivity:")
		fmt.Print(res.Table())
	case "rounding":
		res, err := experiments.RunAblationRounding(cfg, nil)
		if err != nil {
			return err
		}
		fmt.Println("A2 — re-rounding budget on a capacity-tight instance:")
		fmt.Print(res.Table())
	case "surrogate":
		res, err := experiments.RunAblationSurrogate(cfg)
		if err != nil {
			return err
		}
		fmt.Println("A3 — relaxation cost (dynamic vs envelope):")
		fmt.Print(res.Table())
	case "exact":
		res, err := experiments.RunExactComparison(cfg.Seed, cfg.Runs, nil)
		if err != nil {
			return err
		}
		fmt.Println("EXT — Random-Schedule vs brute-force optimum (small instances):")
		fmt.Print(res.Table())
	default:
		return fmt.Errorf("ablate: unknown study %q", which)
	}
	return nil
}

func runOnline(args []string) error {
	fs := newFlagSet("online")
	mode := fs.String("mode", "compare", "compare | rolling | greedy")
	workload := fs.String("workload", "diurnal", "uniform | diurnal | incast")
	n := fs.Int("n", 80, "flows per run")
	k := fs.Int("k", 4, "fat-tree arity")
	runs := fs.Int("runs", 3, "runs per point (compare mode)")
	counts := fs.String("counts", "", "comma-separated flow counts for compare mode (default: -n)")
	alpha := fs.Float64("alpha", 2, "power exponent")
	iters := fs.Int("iters", 30, "Frank-Wolfe iterations per interval")
	seed := fs.Int64("seed", 1, "base seed")
	epoch := fs.Float64("epoch", 0, "fixed re-plan period for rolling (0 = re-plan per arrival)")
	warm := fs.Bool("warm", true, "warm-start epoch re-solves from the previous epoch")
	reject := fs.Bool("reject", false, "admission control: reject flows that cannot fit under capacity")
	delta := fs.Bool("delta", false, "rolling mode: enable the incremental delta re-solve across epochs")
	deltaDrift := fs.Float64("delta-drift", 0.25, "delta mode: accumulated load-drift bound before a full re-plan")
	deltaStale := fs.Int("delta-stale", 16, "delta mode: max consecutive delta epochs before a full re-plan (0 = unbounded)")
	workers := fs.Int("workers", 1, "concurrent grid cells on the sweep pool (compare mode); never affects results")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := experiments.OnlineConfig{
		AblateConfig: experiments.AblateConfig{
			FatTreeK: *k, N: *n, Runs: *runs, Seed: *seed, Alpha: *alpha, SolverIters: *iters,
			Workers: *workers,
		},
		Workload: *workload,
		Epoch:    *epoch,
	}
	if *mode == "compare" {
		// The comparison runner pins WarmStart on and admission control
		// off (its contract rejects runs with rejected flows); refuse
		// flags it would silently ignore.
		var ignored []string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "warm", "reject", "delta", "delta-drift", "delta-stale":
				ignored = append(ignored, "-"+f.Name)
			}
		})
		if len(ignored) > 0 {
			return fmt.Errorf("online: %s not supported in -mode compare", strings.Join(ignored, ", "))
		}
		flowCounts := []int{*n}
		if *counts != "" {
			var err error
			if flowCounts, err = parseInts(*counts); err != nil {
				return err
			}
		}
		res, err := experiments.RunOnlineComparison(cfg, flowCounts)
		if err != nil {
			return err
		}
		fmt.Printf("O1 — online comparison (%s workload, fat-tree k=%d, %d runs):\n", *workload, *k, *runs)
		fmt.Print(res.Table())
		return nil
	}

	// Single-run modes: one workload instance, one scheme, full stats.
	ft, err := topology.FatTree(*k, 1e12)
	if err != nil {
		return err
	}
	set, err := experiments.OnlineWorkloadInstance(cfg, ft, *n, *seed)
	if err != nil {
		return err
	}
	model := power.Model{Mu: 1, Alpha: *alpha, C: 1e12}
	lb, err := core.LowerBoundCtx(context.Background(), ft.Graph, set, model, core.DCFSROptions{
		Solver: mcfsolve.Options{MaxIters: *iters},
	})
	if err != nil {
		return err
	}
	switch *mode {
	case "rolling":
		var policy online.ReplanPolicy = online.ArrivalCount{N: 1}
		if *epoch > 0 {
			policy = online.FixedPeriod{Period: *epoch}
		}
		var dopts core.DeltaOptions
		if *delta {
			dopts = core.DeltaOptions{Enabled: true, DriftBound: *deltaDrift, MaxStaleEpochs: *deltaStale}
		}
		res, rep, err := online.RunRollingCtx(context.Background(), ft.Graph, set, model, nil, online.RollingOptions{
			Policy: policy,
			DCFSR: core.DCFSROptions{
				Seed:      *seed,
				Solver:    mcfsolve.Options{MaxIters: *iters},
				WarmStart: *warm,
			},
			RejectOverCapacity: *reject,
			Delta:              dopts,
		})
		if err != nil {
			return err
		}
		e := res.Schedule.EnergyTotal(model)
		fmt.Printf("rolling-horizon on %s (%d flows, %s workload):\n", ft.Name, set.Len(), *workload)
		fmt.Printf("  energy %.4g (%.3fx of offline LB %.4g)\n", e, e/lb, lb)
		fmt.Printf("  epochs %d, FW iterations %d, warm-seeded intervals %d/%d\n",
			res.Stats.Epochs, res.Stats.FWIters, res.Stats.SeededIntervals, res.Stats.SolvedIntervals)
		if *delta {
			fmt.Printf("  delta epochs %d/%d, reused intervals %d\n",
				res.Stats.DeltaEpochs, res.Stats.Epochs, res.Stats.ReusedIntervals)
		}
		fmt.Printf("  admitted %d, rejected %d; deadline violations %d, capacity violations %d\n",
			rep.Admitted, rep.Rejected, rep.DeadlineViolations, rep.CapacityViolations)
	case "greedy":
		res, err := online.RunCtx(context.Background(), ft.Graph, set, model, nil, online.Options{RejectOverCapacity: *reject})
		if err != nil {
			return err
		}
		simRes, err := dcnflow.Simulate(ft.Graph, set, res.Schedule, model, dcnflow.SimOptions{})
		if err != nil {
			return err
		}
		e := res.Schedule.EnergyTotal(model)
		fmt.Printf("marginal-cost greedy on %s (%d flows, %s workload):\n", ft.Name, set.Len(), *workload)
		fmt.Printf("  energy %.4g (%.3fx of offline LB %.4g)\n", e, e/lb, lb)
		fmt.Printf("  admitted %d/%d, peak link rate %.4g, deadlines met %d/%d\n",
			res.Admitted, set.Len(), res.PeakRate, simRes.DeadlinesMet, set.Len())
	default:
		return fmt.Errorf("online: unknown mode %q", *mode)
	}
	return nil
}

// runDecisions is the CLI face of the decision-log subsystem (O2): record a
// scheduler's decision trace as JSONL, replay a recorded trace's top-k
// alternatives for per-decision regret, or run the full greedy-vs-rolling
// decision-regret experiment.
func runDecisions(args []string) error {
	fs := newFlagSet("decisions")
	mode := fs.String("mode", "score", "record | replay | score")
	scheduler := fs.String("scheduler", "rolling", "record mode: greedy | rolling")
	workload := fs.String("workload", "diurnal", "uniform | diurnal | incast")
	n := fs.Int("n", 40, "flows")
	k := fs.Int("k", 4, "fat-tree arity")
	alpha := fs.Float64("alpha", 2, "power exponent")
	iters := fs.Int("iters", 30, "Frank-Wolfe iterations per interval")
	seed := fs.Int64("seed", 1, "workload and solver seed")
	epoch := fs.Float64("epoch", 0, "fixed re-plan period for rolling (0 = re-plan per arrival)")
	out := fs.String("out", "", "record mode: write the decision log to this file (\"-\" = stdout)")
	file := fs.String("file", "", "replay mode: recorded decision log to replay")
	topk := fs.Int("topk", 2, "alternative paths replayed per admit decision")
	maxDec := fs.Int("max-decisions", 4, "admit decisions expanded by replay/score (each costs one full re-run)")
	fitEnergy := fs.Float64("fit-energy", 1, "fitness weight on total energy")
	fitMiss := fs.Float64("fit-miss", 0, "fitness weight per missed deadline")
	fitSlack := fs.Float64("fit-slack", 0, "fitness credit on the p99 tail slack")
	requireRegret := fs.Bool("require-regret", false, "replay mode: fail unless some counterfactual shows nonzero regret")
	requireWin := fs.Bool("require-win", false, "score mode: fail unless rolling demonstrably beats a forced greedy choice")
	if err := fs.Parse(args); err != nil {
		return err
	}
	fit := dcnflow.Fitness{EnergyWeight: *fitEnergy, MissWeight: *fitMiss, SlackP99Weight: *fitSlack}
	cfg := experiments.DecisionConfig{
		OnlineConfig: experiments.OnlineConfig{
			AblateConfig: experiments.AblateConfig{
				FatTreeK: *k, N: *n, Seed: *seed, Alpha: *alpha, SolverIters: *iters,
			},
			Workload: *workload,
			Epoch:    *epoch,
		},
		TopK: *topk, MaxDecisions: *maxDec, Fitness: fit,
	}
	switch *mode {
	case "record":
		log, rep, err := experiments.RecordDecisions(cfg, *scheduler)
		if err != nil {
			return err
		}
		switch *out {
		case "-":
			if err := dcnflow.SaveDecisionLog(os.Stdout, log); err != nil {
				return err
			}
		case "":
			return errors.New("decisions: record mode needs -out (path, or \"-\" for stdout)")
		default:
			if err := dcnflow.SaveDecisionLogFile(*out, log); err != nil {
				return err
			}
			fmt.Printf("recorded %d decisions of the %s scheduler to %s\n", len(log.Records), *scheduler, *out)
		}
		fmt.Fprintf(os.Stderr, "  admitted %d, rejected %d; deadline violations %d, capacity violations %d\n",
			rep.Admitted, rep.Rejected, rep.DeadlineViolations, rep.CapacityViolations)
		return nil
	case "replay":
		if *file == "" {
			return errors.New("decisions: replay mode needs -file")
		}
		log, err := dcnflow.LoadDecisionLogFile(*file)
		if err != nil {
			return err
		}
		ft, set, model, err := experiments.DecisionInstance(log.Meta)
		if err != nil {
			return err
		}
		rep, err := dcnflow.ReplayDecisions(dcnflow.DecisionReplayInput{
			Log: log, Graph: ft.Graph, Flows: set, Model: model,
			Factory: experiments.DecisionFactory(log.Meta, ft, set, model),
			Opts:    dcnflow.DecisionReplayOptions{TopK: *topk, MaxDecisions: *maxDec, Fitness: fit},
		})
		if err != nil {
			return err
		}
		fmt.Printf("counterfactual replay of %s (%s scheduler, fitness %s):\n", *file, log.Meta.Scheduler, fit)
		fmt.Print(rep.Table())
		if *requireRegret && rep.RegretRows() == 0 {
			return errors.New("decisions: no counterfactual produced nonzero regret")
		}
		return nil
	case "score":
		res, err := experiments.RunDecisionRegret(cfg)
		if err != nil {
			return err
		}
		fmt.Printf("O2 — decision regret, greedy vs rolling (%s workload, fat-tree k=%d, fitness %s):\n",
			*workload, *k, fit)
		fmt.Print(res.Table())
		fmt.Printf("rolling wins %d/%d forced-path demonstrations; top-%d replay of the rolling log:\n",
			res.RollingWins(), len(res.Demos), *topk)
		fmt.Print(res.Replay.Table())
		if *requireWin && res.RollingWins() == 0 {
			return errors.New("decisions: no demonstrated rolling win over the forced greedy choice")
		}
		return nil
	default:
		return fmt.Errorf("decisions: unknown mode %q", *mode)
	}
}

// cliEngine is the one shared Engine the scheme-running subcommands (run,
// sweep, compare, trace) dispatch through: compiled topologies, cached
// workload instances and pooled solver scratch are shared across whatever
// a single invocation does. The serve subcommand builds its own engine
// sized by its -cache/-workers flags.
var (
	cliEngineOnce sync.Once
	cliEngineVal  *dcnflow.Engine
)

func cliEngine() *dcnflow.Engine {
	cliEngineOnce.Do(func() {
		cliEngineVal = dcnflow.NewEngine(dcnflow.EngineOptions{})
	})
	return cliEngineVal
}

// runServe starts the HTTP solve server on a warm shared engine. The
// listener address is printed to stdout once serving begins ("listening
// on http://..."), and SIGINT/SIGTERM drain in-flight requests before exit
// — the smoke harness (cmd/servesmoke, `make serve-smoke`) drives exactly
// this sequence.
func runServe(args []string, stdout io.Writer) error {
	fs := newFlagSet("serve")
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
	timeout := fs.Duration("timeout", 60*time.Second, "per-request solve ceiling (requests may ask for less via timeout_ms)")
	maxBatch := fs.Int("max-batch", 64, "largest /v1/batch request accepted")
	cache := fs.Int("cache", 64, "compiled-instance cache entries (distinct topology+model pairs held warm)")
	workers := fs.Int("workers", runtime.NumCPU(), "concurrent batch solves; a pure wall-clock lever")
	drain := fs.Duration("drain", 10*time.Second, "graceful-shutdown drain window after SIGINT/SIGTERM")
	admitRate := fs.Float64("admit-rate", 0, "token-bucket admission rate in requests/s (0 disables admission control)")
	admitBurst := fs.Float64("admit-burst", 0, "admission bucket capacity (0 selects max(admit-rate, 1))")
	admitQueue := fs.Int("admit-queue", 64, "bounded accept-queue depth; a full queue answers 429 with Retry-After")
	solvers := fs.String("solver", "all",
		"solvers served: comma-separated names, or \"all\"; registered: "+strings.Join(dcnflow.SolverNames(), ", "))
	if err := fs.Parse(args); err != nil {
		return err
	}
	names, err := solverList(*solvers)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	eng := dcnflow.NewEngine(dcnflow.EngineOptions{CacheSize: *cache, Workers: *workers})
	handler := dcnflow.NewServeHandler(eng, dcnflow.ServeOptions{
		MaxTimeout: *timeout,
		MaxBatch:   *maxBatch,
		Solvers:    names,
		Admission: dcnflow.AdmissionOptions{
			Rate:       *admitRate,
			Burst:      *admitBurst,
			QueueDepth: *admitQueue,
		},
	})
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	srv := &http.Server{Handler: handler}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	fmt.Fprintf(stdout, "dcnflow serve: listening on http://%s (%d solvers, cache %d)\n",
		ln.Addr().String(), len(names), eng.Stats().Capacity)

	select {
	case err := <-errCh:
		return fmt.Errorf("serve: %w", err)
	case <-ctx.Done():
	}
	stop()
	// Bounce the admission queue (503) before shutting the listener down,
	// so queued requests answer cleanly instead of hanging into Shutdown.
	handler.Drain()
	fmt.Fprintln(stdout, "dcnflow serve: shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("serve: shutdown: %w", err)
	}
	return nil
}

// solverList resolves a -solver flag value against the solver table: a
// comma-separated list of built-in solver names, or "all".
func solverList(value string) ([]string, error) {
	if value == "all" {
		return dcnflow.SolverNames(), nil
	}
	registered := make(map[string]bool)
	for _, name := range dcnflow.SolverNames() {
		registered[name] = true
	}
	var out []string
	for _, name := range strings.Split(value, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if !registered[name] {
			return nil, fmt.Errorf("unknown solver %q (registered: %s)",
				name, strings.Join(dcnflow.SolverNames(), ", "))
		}
		out = append(out, name)
	}
	if len(out) == 0 {
		return nil, errors.New("no solvers selected")
	}
	return out, nil
}

// solutionTable renders solutions uniformly: energy, the ratio against the
// best lower bound any selected solver produced, and active link counts.
// That bound is dcfsr's: it holds for schedules that send each flow on one
// path at its density, so a family that shapes rates over a flow's span
// is only compared against it and may fall below it.
func solutionTable(sols []*dcnflow.Solution, lb float64) *stats.Table {
	tb := stats.NewTable("solver", "energy", "vs LB", "links on")
	if lb > 0 {
		tb.AddRow("density-rate LB", lb, 1.0, "-")
	}
	for _, sol := range sols {
		ratio := "-"
		if lb > 0 {
			ratio = fmt.Sprintf("%.4g", sol.Energy/lb)
		}
		tb.AddRow(sol.Solver, sol.Energy, ratio, int(sol.Stats["links_on"]))
	}
	return tb
}

func runScenario(args []string) (retErr error) {
	fs := newFlagSet("run <scenario.json>")
	solvers := fs.String("solver", "dcfsr",
		"comma-separated solver names, or \"all\"; registered: "+strings.Join(dcnflow.SolverNames(), ", "))
	timeout := fs.Duration("timeout", 0, "cancel the solves after this long (0 = no limit)")
	progress := fs.Bool("progress", false, "stream per-interval / per-epoch progress events to stderr")
	oracleWorkers := fs.Int("oracle-workers", 0,
		"intra-solve shortest-path parallelism for the relaxation solvers (0/1 sequential, -1 = all cores); results are identical at any value")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile of the solves to this file")
	memProfile := fs.String("memprofile", "", "write a pprof heap profile to this file on exit")
	// The spec path may come before the flags (`dcnflow run spec.json
	// -solver x`, the documented form) or after them.
	path := ""
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		path, args = args[0], args[1:]
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if path == "" {
		if fs.NArg() == 0 {
			fs.Usage()
			return errors.New("run: missing scenario file")
		}
		path = fs.Arg(0)
		if fs.NArg() > 1 {
			return fmt.Errorf("run: unexpected arguments %q", fs.Args()[1:])
		}
	} else if fs.NArg() > 0 {
		return fmt.Errorf("run: unexpected arguments %q", fs.Args())
	}
	names, err := solverList(*solvers)
	if err != nil {
		return fmt.Errorf("run: %w", err)
	}
	stopProf, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		return fmt.Errorf("run: %w", err)
	}
	defer func() {
		if err := stopProf(); err != nil && retErr == nil {
			retErr = fmt.Errorf("run: %w", err)
		}
	}()

	spec, err := dcnflow.LoadScenarioFile(path)
	if err != nil {
		return err
	}
	// All solver runs dispatch through the shared engine: the instance is
	// compiled once and every solver draws pooled scratch from it.
	eng := cliEngine()
	inst, err := eng.Instance(spec)
	if err != nil {
		return err
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	var opts []dcnflow.SolveOption
	if *oracleWorkers != 0 {
		opts = append(opts, dcnflow.WithSolverOptions(mcfsolve.Options{OracleWorkers: *oracleWorkers}))
	}
	if *progress {
		opts = append(opts, dcnflow.WithProgress(func(ev dcnflow.ProgressEvent) {
			switch ev.Stage {
			case "epoch":
				fmt.Fprintf(os.Stderr, "  epoch %d at t=%.4g (%d FW iterations)\n", ev.Index, ev.Time, ev.FWIters)
			default:
				fmt.Fprintf(os.Stderr, "  interval %d/%d solved (%d FW iterations)\n", ev.Index+1, ev.Total, ev.FWIters)
			}
		}))
	}

	label := spec.Name
	if label == "" {
		label = path
	}
	m := inst.Model()
	fmt.Printf("scenario %q: %s, %d flows, f(x) = %g + %g*x^%g (C=%g):\n",
		label, inst.Topology().Name, inst.Flows().Len(), m.Sigma, m.Mu, m.Alpha, m.C)

	var (
		sols []*dcnflow.Solution
		lb   float64
	)
	for _, name := range names {
		start := time.Now()
		// The engine applies WithSeed(spec.Seed) itself.
		r := eng.Solve(ctx, dcnflow.Request{Scenario: spec, Solver: name, Options: opts})
		if r.Err != nil {
			return fmt.Errorf("run: solver %s: %w", name, r.Err)
		}
		if *progress {
			fmt.Fprintf(os.Stderr, "%s finished in %v\n", name, time.Since(start).Round(time.Millisecond))
		}
		if r.Solution.LowerBound > lb {
			lb = r.Solution.LowerBound
		}
		sols = append(sols, r.Solution)
	}
	fmt.Print(solutionTable(sols, lb).String())
	return nil
}

// runSweep is the CLI face of the sweep engine: expand a SweepSpec grid,
// solve every cell on a bounded worker pool, stream per-cell JSONL and
// print the per-solver aggregate. JSONL bodies and aggregates are
// byte-identical for every -workers value (runtime fields aside) — the
// engine orders cells by index and derives every seed from the spec.
func runSweep(args []string) (retErr error) {
	fs := newFlagSet("sweep <sweep.json>")
	workers := fs.Int("workers", runtime.NumCPU(),
		"worker pool size; a pure wall-clock lever — results are identical for every value")
	out := fs.String("out", "", "write per-cell results as JSONL to this file (\"-\" = stdout)")
	solvers := fs.String("solver", "",
		"override the spec's solver list: comma-separated names, or \"all\"; registered: "+strings.Join(dcnflow.SolverNames(), ", "))
	iters := fs.Int("iters", 0, "cap Frank-Wolfe iterations sweep-wide (0 = solver default)")
	timeout := fs.Duration("timeout", 0, "cancel the sweep after this long (0 = no limit)")
	progress := fs.Bool("progress", false, "stream per-cell progress to stderr")
	noLB := fs.Bool("no-lb", false, "skip the shared per-scenario relaxation bound (lb/lb_ratio then only on cells whose solver reports its own bound)")
	fitEnergy := fs.Float64("fit-energy", 0, "fitness weight on total energy; any -fit-* flag re-scores every cell through the simulator")
	fitMiss := fs.Float64("fit-miss", 0, "fitness weight per missed deadline")
	fitSlack := fs.Float64("fit-slack", 0, "fitness credit on the p99 tail slack")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile of the sweep to this file")
	memProfile := fs.String("memprofile", "", "write a pprof heap profile to this file on exit")
	// The spec path may come before or after the flags, like `dcnflow run`.
	path := ""
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		path, args = args[0], args[1:]
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if path == "" {
		if fs.NArg() == 0 {
			fs.Usage()
			return errors.New("sweep: missing sweep file")
		}
		path = fs.Arg(0)
		if fs.NArg() > 1 {
			return fmt.Errorf("sweep: unexpected arguments %q", fs.Args()[1:])
		}
	} else if fs.NArg() > 0 {
		return fmt.Errorf("sweep: unexpected arguments %q", fs.Args())
	}

	stopProf, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		return fmt.Errorf("sweep: %w", err)
	}
	defer func() {
		if err := stopProf(); err != nil && retErr == nil {
			retErr = fmt.Errorf("sweep: %w", err)
		}
	}()

	spec, err := dcnflow.LoadSweepFile(path)
	if err != nil {
		return err
	}
	if *solvers != "" {
		names, err := solverList(*solvers)
		if err != nil {
			return fmt.Errorf("sweep: %w", err)
		}
		spec.Solvers = names
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var (
		enc      *json.Encoder
		jsonlErr error
		outFile  *os.File
	)
	if *out == "-" {
		enc = json.NewEncoder(os.Stdout)
	} else if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return fmt.Errorf("sweep: %w", err)
		}
		outFile = f
		defer f.Close()
		enc = json.NewEncoder(f)
	}

	opts := dcnflow.SweepOptions{
		Workers: *workers,
		Engine:  cliEngine(),
		SkipLB:  *noLB,
		OnCell: func(c dcnflow.SweepCellResult) {
			if enc != nil {
				// A failed write must fail the command — a truncated JSONL
				// file that exits 0 reads as a complete grid downstream.
				if err := enc.Encode(c); err != nil && jsonlErr == nil {
					jsonlErr = err
				}
			}
			if *progress {
				status := fmt.Sprintf("energy %.6g", c.Energy)
				if c.Err != "" {
					status = "error: " + c.Err
				}
				fmt.Fprintf(os.Stderr, "  cell %d/%d %s %s: %s (%.0f ms)\n",
					c.Cell+1, spec.CellCount(), c.Scenario, c.Solver, status, c.RuntimeMS)
			}
		},
	}
	if *iters > 0 {
		opts.Options = append(opts.Options, dcnflow.WithSolverOptions(mcfsolve.Options{MaxIters: *iters}))
	}
	if *fitEnergy != 0 || *fitMiss != 0 || *fitSlack != 0 {
		opts.Fitness = &dcnflow.Fitness{EnergyWeight: *fitEnergy, MissWeight: *fitMiss, SlackP99Weight: *fitSlack}
	}

	label := spec.Name
	if label == "" {
		label = path
	}
	fmt.Printf("sweep %q: %d cells (%d topologies x %d workloads x %d tightness x %d seeds x %d solvers), %d workers\n",
		label, spec.CellCount(), len(spec.Topologies), len(spec.Workloads),
		max(1, len(spec.Tightness)), max(1, len(spec.Seeds)), len(spec.Solvers), *workers)
	res, err := dcnflow.Sweep(ctx, spec, opts)
	if err != nil {
		return err
	}
	if jsonlErr != nil {
		return fmt.Errorf("sweep: writing %s: %w", *out, jsonlErr)
	}
	if outFile != nil {
		if err := outFile.Close(); err != nil {
			return fmt.Errorf("sweep: closing %s: %w", *out, err)
		}
	}
	fmt.Print(res.AggregateTable())
	return nil
}

func runWorkload(args []string) error {
	fs := newFlagSet("workload")
	n := fs.Int("n", 100, "number of flows")
	t0 := fs.Float64("t0", 1, "horizon start")
	t1 := fs.Float64("t1", 100, "horizon end")
	mean := fs.Float64("mean", 10, "size mean")
	std := fs.Float64("std", 3, "size stddev")
	k := fs.Int("k", 8, "fat-tree arity for host naming")
	seed := fs.Int64("seed", 1, "seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ft, err := topology.FatTree(*k, 1e12)
	if err != nil {
		return err
	}
	set, err := flow.Uniform(flow.GenConfig{
		N: *n, T0: *t0, T1: *t1, SizeMean: *mean, SizeStddev: *std,
		Hosts: ft.Hosts, Seed: *seed,
	})
	if err != nil {
		return err
	}
	tb := stats.NewTable("id", "src", "dst", "release", "deadline", "size")
	for _, f := range set.Flows() {
		tb.AddRow(int(f.ID), int(f.Src), int(f.Dst), f.Release, f.Deadline, f.Size)
	}
	fmt.Print(tb.CSV())
	return nil
}

// runCompare runs a set of built-in solvers on one generated workload —
// the CLI face of the solver table on ad-hoc (non-spec) inputs.
func runCompare(args []string) error {
	fs := newFlagSet("compare")
	n := fs.Int("n", 60, "number of flows")
	k := fs.Int("k", 4, "fat-tree arity")
	alpha := fs.Float64("alpha", 2, "power exponent")
	seed := fs.Int64("seed", 1, "seed")
	idleMult := fs.Float64("idle-mult", 0, "idle power: Ropt at this multiple of mean density (0 = sigma 0)")
	capacity := fs.Float64("cap", 1000, "link capacity C")
	iters := fs.Int("iters", 40, "Frank-Wolfe iterations")
	solvers := fs.String("solvers", "dcfsr,sp-mcf,ecmp-mcf,greedy-online,rolling-online,always-on",
		"comma-separated solver names, or \"all\"; registered: "+strings.Join(dcnflow.SolverNames(), ", "))
	if err := fs.Parse(args); err != nil {
		return err
	}
	names, err := solverList(*solvers)
	if err != nil {
		return fmt.Errorf("compare: %w", err)
	}
	ft, err := topology.FatTree(*k, *capacity)
	if err != nil {
		return err
	}
	set, err := flow.Uniform(flow.GenConfig{
		N: *n, T0: 1, T1: 100, SizeMean: 10, SizeStddev: 3,
		Hosts: ft.Hosts, Seed: *seed,
	})
	if err != nil {
		return err
	}
	var sigma float64
	if *idleMult > 0 {
		sigma = power.SigmaForRopt(1, *alpha, *idleMult*set.MeanDensity())
	}
	model := power.Model{Sigma: sigma, Mu: 1, Alpha: *alpha, C: *capacity}
	inst, err := dcnflow.NewInstanceBuilder().Topology(ft).Flows(set).Model(model).Build()
	if err != nil {
		return err
	}

	opts := []dcnflow.SolveOption{
		dcnflow.WithSeed(*seed),
		dcnflow.WithSolverOptions(mcfsolve.Options{MaxIters: *iters}),
		dcnflow.WithOnlineOptions(online.Options{CostFull: sigma > 0}),
	}
	var (
		sols []*dcnflow.Solution
		lb   float64
	)
	for _, name := range names {
		r := cliEngine().Solve(context.Background(), dcnflow.Request{Instance: inst, Solver: name, Options: opts})
		if r.Err != nil {
			// compare is a survey: a solver that refuses the instance (the
			// exact enumerator past its assignment bound, always-on without
			// full-rate feasibility) is reported and skipped, not fatal.
			fmt.Printf("(skipping %s: %v)\n", name, r.Err)
			continue
		}
		sol := r.Solution
		if sol.LowerBound > lb {
			lb = sol.LowerBound
		}
		sols = append(sols, sol)
	}
	if len(sols) == 0 {
		return errors.New("compare: every selected solver failed")
	}
	fmt.Printf("%s, %d flows, alpha=%g, sigma=%.4g:\n", ft.Name, set.Len(), *alpha, sigma)
	fmt.Print(solutionTable(sols, lb).String())
	return nil
}

func runTrace(args []string) error {
	fs := newFlagSet("trace")
	path := fs.String("file", "", "trace file (default: stdin)")
	kind := fs.String("topo", "fattree", "fattree | bcube | leafspine | line")
	k := fs.Int("k", 4, "topology size parameter")
	scheme := fs.String("scheme", dcnflow.SolverDCFSR,
		"registered solver: "+strings.Join(dcnflow.SolverNames(), ", "))
	alpha := fs.Float64("alpha", 2, "power exponent")
	sigma := fs.Float64("sigma", 0, "idle power")
	capacity := fs.Float64("cap", 1000, "link capacity C")
	seed := fs.Int64("seed", 1, "rounding seed")
	gantt := fs.Bool("gantt", false, "print an ASCII Gantt chart of the schedule")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var in io.Reader = os.Stdin
	if *path != "" {
		f, err := os.Open(*path)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	set, err := flow.ReadTrace(in)
	if err != nil {
		return err
	}
	var top *topology.Topology
	switch *kind {
	case "fattree":
		top, err = topology.FatTree(*k, *capacity)
	case "bcube":
		top, err = topology.BCube(*k, 1, *capacity)
	case "leafspine":
		top, err = topology.LeafSpine(*k, 2*(*k), 8, *capacity)
	case "line":
		top, err = topology.Line(*k, *capacity)
	default:
		return fmt.Errorf("trace: unknown topology %q", *kind)
	}
	if err != nil {
		return err
	}
	model := power.Model{Sigma: *sigma, Mu: 1, Alpha: *alpha, C: *capacity}
	inst, err := dcnflow.NewInstanceBuilder().Topology(top).Flows(set).Model(model).Build()
	if err != nil {
		return err
	}
	r := cliEngine().Solve(context.Background(), dcnflow.Request{
		Instance: inst,
		Solver:   *scheme,
		Options: []dcnflow.SolveOption{
			dcnflow.WithSeed(*seed),
			dcnflow.WithOnlineOptions(online.Options{CostFull: *sigma > 0}),
		},
	})
	if r.Err != nil {
		if errors.Is(r.Err, dcnflow.ErrUnknownSolver) {
			return fmt.Errorf("trace: unknown scheme %q: %w", *scheme, r.Err)
		}
		return r.Err
	}
	sol := r.Solution
	if sol.LowerBound > 0 {
		fmt.Printf("lower bound: %.4g\n", sol.LowerBound)
	}
	simRes, err := dcnflow.Simulate(top.Graph, set, sol.Schedule, model, dcnflow.SimOptions{})
	if err != nil {
		return err
	}
	fmt.Printf("%s on %s: energy %.4g, deadlines %d/%d, peak rate %.4g, %d links on\n",
		*scheme, top.Name, simRes.TotalEnergy, simRes.DeadlinesMet, set.Len(),
		simRes.MaxLinkRate, simRes.ActiveLinks)
	if *gantt {
		fmt.Print(sol.Schedule.Gantt(72))
	}
	return nil
}

func runTopo(args []string) error {
	fs := newFlagSet("topo")
	kind := fs.String("kind", "fattree", "fattree | bcube | leafspine | line | parallel")
	k := fs.Int("k", 4, "fat-tree arity / bcube n / line length / parallel links")
	l := fs.Int("l", 1, "bcube level")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var (
		top *topology.Topology
		err error
	)
	switch *kind {
	case "fattree":
		top, err = topology.FatTree(*k, 1)
	case "bcube":
		top, err = topology.BCube(*k, *l, 1)
	case "leafspine":
		top, err = topology.LeafSpine(*k, 2*(*k), 8, 1)
	case "line":
		top, err = topology.Line(*k, 1)
	case "parallel":
		top, _, _, err = topology.ParallelLinks(*k, 1)
	default:
		return fmt.Errorf("topo: unknown kind %q", *kind)
	}
	if err != nil {
		return err
	}
	fmt.Print(top.Graph.DOT())
	return nil
}

func parseInts(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("parse %q: %w", p, err)
		}
		out = append(out, v)
	}
	return out, nil
}
