package experiments

import (
	"strings"
	"testing"
)

// TestDecisionRegretSmoke runs the O2 experiment at a reduced size and pins
// its acceptance gate: sim-clean outcomes for both schedulers, at least one
// demonstrated decision where the rolling choice beats the forced greedy
// path on weighted fitness, and sim-validated counterfactual replay rows.
func TestDecisionRegretSmoke(t *testing.T) {
	cfg := DecisionConfig{
		OnlineConfig: OnlineConfig{AblateConfig: AblateConfig{N: 24, Seed: 5, SolverIters: 25}},
		MaxDecisions: 3,
	}
	res, err := RunDecisionRegret(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Greedy.Misses != 0 || res.Rolling.Misses != 0 ||
		res.Greedy.CapacityViolations != 0 || res.Rolling.CapacityViolations != 0 {
		t.Fatalf("base runs not sim-clean: greedy %+v rolling %+v", res.Greedy, res.Rolling)
	}
	if res.Rolling.Score >= res.Greedy.Score {
		t.Fatalf("rolling fitness %v does not beat greedy %v", res.Rolling.Score, res.Greedy.Score)
	}
	if len(res.Demos) == 0 {
		t.Fatal("no forced-path demonstrations (schedulers never disagreed)")
	}
	if res.RollingWins() == 0 {
		t.Fatalf("no demonstrated rolling win:\n%s", res.Table())
	}
	if res.Replay == nil || len(res.Replay.Counterfactuals) == 0 {
		t.Fatal("no replay counterfactuals")
	}
	for _, c := range res.Replay.Counterfactuals {
		if c.Err != "" {
			t.Fatalf("counterfactual seq=%d failed: %s", c.Seq, c.Err)
		}
		if !c.Valid {
			t.Fatalf("counterfactual seq=%d not sim-clean: %+v", c.Seq, c.Outcome)
		}
	}
	if err := res.RollingLog.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := res.Table(); !strings.Contains(got, "regret") || !strings.Contains(got, "fitness") {
		t.Fatalf("table missing columns:\n%s", got)
	}
	// The replay factory reproduces the recorded run byte-identically: the
	// base outcome's energy matches the recorded rolling run's.
	if res.Replay.Base.Energy != res.Rolling.Energy {
		t.Fatalf("replay base energy %v != recorded rolling energy %v", res.Replay.Base.Energy, res.Rolling.Energy)
	}
}
