package experiments

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestRunExample1MatchesPaper(t *testing.T) {
	res, err := RunExample1()
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxRelError > 1e-9 {
		t.Fatalf("max relative error %v vs the closed form; table:\n%s", res.MaxRelError, res.Table())
	}
	if !strings.Contains(res.Table(), "s1") {
		t.Fatal("table missing s1 row")
	}
}

func TestRunFig2SmallShape(t *testing.T) {
	// A reduced Fig. 2 (k=4, 2 runs, small n) must exhibit the paper's
	// qualitative shape: both ratios >= 1 and RS <= SP+MCF on average.
	res, err := RunFig2(Fig2Config{
		Alpha:       2,
		FlowCounts:  []int{10, 20},
		Runs:        2,
		FatTreeK:    4,
		Seed:        1,
		SolverIters: 25,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("points = %d, want 2", len(res.Points))
	}
	for _, p := range res.Points {
		if p.RS < 1-1e-6 {
			t.Fatalf("n=%d: RS ratio %v < 1 (below lower bound)", p.N, p.RS)
		}
		if p.SPMCF < 1-1e-6 {
			t.Fatalf("n=%d: SP+MCF ratio %v < 1", p.N, p.SPMCF)
		}
		if p.RS > p.SPMCF*1.05 {
			t.Fatalf("n=%d: RS ratio %v clearly above SP+MCF %v", p.N, p.RS, p.SPMCF)
		}
		if p.LB <= 0 {
			t.Fatalf("n=%d: LB %v", p.N, p.LB)
		}
	}
	out := res.Table()
	for _, want := range []string{"RS/LB", "SP+MCF/LB"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}

func TestRunHardness(t *testing.T) {
	res, err := RunHardness(HardnessConfig{M: 3, B: 9, Alpha: 2, Seed: 2, Runs: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.RSRatio < 1-1e-6 {
		t.Fatalf("RS ratio %v below 1 — RS beat the proven optimum", res.RSRatio)
	}
	if res.LowerBound > res.Optimal*(1+1e-6) {
		t.Fatalf("RS lower bound %v above integral optimum %v", res.LowerBound, res.Optimal)
	}
	if res.RSRatio > 3 {
		t.Fatalf("RS ratio %v implausibly bad on the gadget", res.RSRatio)
	}
	if !strings.Contains(res.Table(), "partition optimum") {
		t.Fatal("table missing optimum row")
	}
}

func TestTheorem3Gamma(t *testing.T) {
	// gamma(2) = 1.5 * (1 + ((4/9) - 1)/2) = 1.5 * (1 - 5/18) = 1.0833...
	want := 1.5 * (1 + (math.Pow(2.0/3.0, 2)-1)/2)
	if got := Theorem3Gamma(2); math.Abs(got-want) > 1e-12 {
		t.Fatalf("gamma(2) = %v, want %v", got, want)
	}
	if Theorem3Gamma(4) <= 1 {
		t.Fatalf("gamma(4) = %v, want > 1", Theorem3Gamma(4))
	}
}

func TestRunAblationLambda(t *testing.T) {
	res, err := RunAblationLambda(
		AblateConfig{N: 12, Runs: 2, Seed: 3, SolverIters: 20},
		[]float64{20, 2},
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("points = %d, want 2", len(res.Points))
	}
	// A finer time grid must grow lambda.
	if res.Points[1].Lambda <= res.Points[0].Lambda {
		t.Fatalf("lambda did not grow when the quantum shrank: %+v", res.Points)
	}
	for _, p := range res.Points {
		if p.Ratio < 1-1e-6 {
			t.Fatalf("ratio %v below 1", p.Ratio)
		}
	}
}

func TestRunAblationRounding(t *testing.T) {
	res, err := RunAblationRounding(AblateConfig{Runs: 4, Seed: 4}, []int{1, 50})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("points = %d, want 2", len(res.Points))
	}
	// More attempts cannot hurt feasibility, and here they must help: the
	// derandomized assignment violates C, so one draw rarely fits.
	if res.Points[1].FeasibleRate <= res.Points[0].FeasibleRate {
		t.Fatalf("feasibility did not rise with attempts: %+v", res.Points)
	}
	if res.Points[1].FeasibleRate <= 0 {
		t.Fatal("50 attempts never found a feasible draw on the tight instance")
	}
}

func TestRunAblationSurrogate(t *testing.T) {
	res, err := RunAblationSurrogate(AblateConfig{N: 15, Runs: 2, Seed: 5, SolverIters: 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("points = %d, want 2", len(res.Points))
	}
	var dyn, env SurrogatePoint
	for _, p := range res.Points {
		if strings.Contains(p.Cost, "envelope") {
			env = p
		} else {
			dyn = p
		}
	}
	// The envelope relaxation should not power on more links on average.
	if env.ActiveLinks > dyn.ActiveLinks*1.15 {
		t.Fatalf("envelope powered more links (%v) than dynamic (%v)", env.ActiveLinks, dyn.ActiveLinks)
	}
}

func TestRunOnlineComparison(t *testing.T) {
	res, err := RunOnlineComparison(
		OnlineConfig{
			AblateConfig: AblateConfig{N: 10, Runs: 2, Seed: 9, SolverIters: 15},
			Workload:     "uniform",
		},
		[]int{8, 16},
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("points = %d, want 2", len(res.Points))
	}
	for _, p := range res.Points {
		if p.Greedy < 1-1e-6 || p.Rolling < 1-1e-6 || p.Offline < 1-1e-6 {
			t.Fatalf("ratio below lower bound: %+v", p)
		}
		// Both online schemes must stay in the same ballpark as offline RS
		// on mild uniform workloads.
		if p.Greedy > 3*p.Offline || p.Rolling > 3*p.Offline {
			t.Fatalf("online ratios implausibly worse than offline: %+v", p)
		}
	}
	if !strings.Contains(res.Table(), "rolling/LB") {
		t.Fatal("table missing rolling column")
	}
}

// TestRunOnlineComparisonDiurnalRollingWins pins the headline claim of the
// online extension: on the diurnal workload, rolling-horizon
// re-optimization strictly beats the irrevocable marginal-cost greedy on
// mean total energy (both normalised by the shared offline lower bound),
// with the simulator validating every schedule inside the runner.
func TestRunOnlineComparisonDiurnalRollingWins(t *testing.T) {
	res, err := RunOnlineComparison(
		OnlineConfig{AblateConfig: AblateConfig{Runs: 3, Seed: 1, SolverIters: 25}},
		[]int{40, 80},
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.Config.Workload != "diurnal" {
		t.Fatalf("default workload = %q, want diurnal", res.Config.Workload)
	}
	for _, p := range res.Points {
		if p.Rolling >= p.Greedy {
			t.Fatalf("n=%d: rolling %v did not beat greedy %v", p.N, p.Rolling, p.Greedy)
		}
	}
}

func TestRunOnlineComparisonIncast(t *testing.T) {
	res, err := RunOnlineComparison(
		OnlineConfig{
			AblateConfig: AblateConfig{Runs: 1, Seed: 3, SolverIters: 15},
			Workload:     "incast",
		},
		[]int{16},
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 1 || res.Points[0].Rolling < 1-1e-6 {
		t.Fatalf("incast points: %+v", res.Points)
	}
	if _, err := RunOnlineComparison(OnlineConfig{Workload: "bogus"}, []int{4}); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestRunExactComparison(t *testing.T) {
	res, err := RunExactComparison(3, 2, []int{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("points = %d, want 2", len(res.Points))
	}
	for _, p := range res.Points {
		if p.RSOverExact < 1-1e-6 {
			t.Fatalf("RS beat the exact optimum: %+v", p)
		}
		if p.LBOverExact > 1+1e-6 {
			t.Fatalf("LB above the exact optimum: %+v", p)
		}
		if p.LBOverExact <= 0 {
			t.Fatalf("degenerate LB ratio: %+v", p)
		}
	}
	if !strings.Contains(res.Table(), "RS/exact") {
		t.Fatal("table missing RS/exact column")
	}
}

func TestFig2ConfigDefaults(t *testing.T) {
	cfg := Fig2Config{}.withDefaults()
	if cfg.Alpha != 2 || cfg.Runs != 10 || cfg.FatTreeK != 8 {
		t.Fatalf("unexpected defaults: %+v", cfg)
	}
	if len(cfg.FlowCounts) != 5 || cfg.FlowCounts[0] != 40 || cfg.FlowCounts[4] != 200 {
		t.Fatalf("flow counts = %v, want paper's 40..200", cfg.FlowCounts)
	}
}

func TestAblationTables(t *testing.T) {
	lr := &LambdaResult{Points: []LambdaPoint{{Quantum: 5, Lambda: 20, Ratio: 2}}}
	if !strings.Contains(lr.Table(), "lambda") {
		t.Fatal("lambda table missing header")
	}
	rr := &RoundingResult{Points: []RoundingPoint{{Attempts: 5, FeasibleRate: 0.8, MeanEnergy: 12}}}
	if !strings.Contains(rr.Table(), "feasible") {
		t.Fatal("rounding table missing header")
	}
	sr := &SurrogateResult{Points: []SurrogatePoint{{Cost: "envelope of f", Energy: 10, ActiveLinks: 3}}}
	if !strings.Contains(sr.Table(), "envelope of f") {
		t.Fatal("surrogate table missing row")
	}
	or := &OnlineResult{Points: []OnlinePoint{{N: 10, Greedy: 1.2, Rolling: 1.1, Offline: 1.3}}}
	if !strings.Contains(or.Table(), "greedy/LB") || !strings.Contains(or.Table(), "rolling/LB") {
		t.Fatal("online table missing header")
	}
	er := &ExactResult{Points: []ExactPoint{{N: 2, RSOverExact: 1.1, LBOverExact: 0.9}}}
	if !strings.Contains(er.Table(), "LB/exact") {
		t.Fatal("exact table missing header")
	}
}

func TestFig2IdleExtensionModel(t *testing.T) {
	// With IdleRoptMultiple > 0 the model must carry positive idle power
	// and place Ropt at the requested multiple of the mean density.
	res, err := RunFig2(Fig2Config{
		Alpha: 2, FlowCounts: []int{6}, Runs: 1, FatTreeK: 4,
		Seed: 2, SolverIters: 10, IdleRoptMultiple: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 1 || res.Points[0].LB <= 0 {
		t.Fatalf("idle extension run broken: %+v", res.Points)
	}
	// Ratios remain >= 1 in the extension regime too.
	if res.Points[0].RS < 1-1e-6 || res.Points[0].SPMCF < 1-1e-6 {
		t.Fatalf("ratios below 1: %+v", res.Points[0])
	}
}

func TestHardnessDefaultsAndCustomLinks(t *testing.T) {
	cfg := HardnessConfig{}.withDefaults()
	if cfg.M != 4 || cfg.B != 12 || cfg.Alpha != 2 || cfg.Links != 32 || cfg.Runs != 5 {
		t.Fatalf("defaults = %+v", cfg)
	}
	res, err := RunHardness(HardnessConfig{M: 2, B: 6, Links: 5, Runs: 1, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Config.Links != 5 {
		t.Fatalf("custom links not honoured: %+v", res.Config)
	}
}

// TestGridWorkersDoNotAffectResults pins the rebased grids' contract: the
// sweep pool under the experiment runners is a pure wall-clock lever, so
// Workers=4 must reproduce the sequential results bit for bit.
func TestGridWorkersDoNotAffectResults(t *testing.T) {
	fig := Fig2Config{Alpha: 2, FlowCounts: []int{6, 10}, Runs: 2, FatTreeK: 4, Seed: 1, SolverIters: 10}
	seq, err := RunFig2(fig)
	if err != nil {
		t.Fatal(err)
	}
	fig.Workers = 4
	par, err := RunFig2(fig)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq.Points, par.Points) {
		t.Errorf("fig2 points differ across worker counts:\n%+v\n%+v", seq.Points, par.Points)
	}

	onl := OnlineConfig{AblateConfig: AblateConfig{N: 8, Runs: 2, Seed: 9, SolverIters: 10}, Workload: "uniform"}
	oseq, err := RunOnlineComparison(onl, []int{6, 8})
	if err != nil {
		t.Fatal(err)
	}
	onl.Workers = 4
	opar, err := RunOnlineComparison(onl, []int{6, 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(oseq.Points, opar.Points) {
		t.Errorf("online points differ across worker counts:\n%+v\n%+v", oseq.Points, opar.Points)
	}

	lam := AblateConfig{N: 8, Runs: 2, Seed: 3, SolverIters: 10}
	lseq, err := RunAblationLambda(lam, []float64{10, 2})
	if err != nil {
		t.Fatal(err)
	}
	lam.Workers = 4
	lpar, err := RunAblationLambda(lam, []float64{10, 2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(lseq.Points, lpar.Points) {
		t.Errorf("lambda points differ across worker counts:\n%+v\n%+v", lseq.Points, lpar.Points)
	}
}
