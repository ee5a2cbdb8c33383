package decision_test

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"dcnflow/internal/core"
	"dcnflow/internal/decision"
	"dcnflow/internal/flow"
	"dcnflow/internal/graph"
	"dcnflow/internal/mcfsolve"
	"dcnflow/internal/online"
	"dcnflow/internal/power"
	"dcnflow/internal/sim"
	"dcnflow/internal/timeline"
	"dcnflow/internal/topology"
)

func diurnalInstance(t *testing.T, n int, seed int64) (*topology.Topology, *flow.Set) {
	t.Helper()
	ft, err := topology.FatTree(4, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := flow.Diurnal(flow.DiurnalConfig{
		N: n, T0: 0, T1: 100, PeakFactor: 5,
		SizeMean: 8, SizeStddev: 2, Hosts: ft.Hosts, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ft, fs
}

func rollingOpts(parallelism int, rec decision.Recorder, ov *decision.Overrides) online.RollingOptions {
	return online.RollingOptions{
		Policy: online.FixedPeriod{Period: 2},
		DCFSR: core.DCFSROptions{
			Seed:        1,
			Solver:      mcfsolve.Options{MaxIters: 30},
			WarmStart:   true,
			Parallelism: parallelism,
		},
		Recorder:  rec,
		Overrides: ov,
	}
}

// recordRolling runs the rolling scheduler over the diurnal instance with a
// Memory recorder and returns the packaged log.
func recordRolling(t *testing.T, ft *topology.Topology, fs *flow.Set, parallelism int) *decision.Log {
	t.Helper()
	mem := &decision.Memory{Meta: decision.Meta{Scheduler: "rolling", Workload: "diurnal"}}
	m := power.Model{Mu: 1, Alpha: 2, C: 1e9}
	if _, _, err := online.RunRollingCtx(context.Background(), ft.Graph, fs, m, nil, rollingOpts(parallelism, mem, nil)); err != nil {
		t.Fatal(err)
	}
	return mem.Log()
}

func logBytes(t *testing.T, l *decision.Log) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := decision.SaveLog(&buf, l); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDecisionLogDeterministic pins the determinism contract: recorded logs
// are byte-identical across solver parallelism and across re-runs of the
// same instance.
func TestDecisionLogDeterministic(t *testing.T) {
	ft, fs := diurnalInstance(t, 30, 7)
	base := logBytes(t, recordRolling(t, ft, fs, 1))
	if len(base) == 0 {
		t.Fatal("empty recorded log")
	}
	for _, p := range []int{4, 1} {
		got := logBytes(t, recordRolling(t, ft, fs, p))
		if !bytes.Equal(base, got) {
			t.Fatalf("log differs at parallelism %d", p)
		}
	}
}

// TestEmitNilRecorderZeroAlloc pins the nil-recorder fast path: schedulers
// may call Emit unconditionally without tracing cost.
func TestEmitNilRecorderZeroAlloc(t *testing.T) {
	allocs := testing.AllocsPerRun(1000, func() {
		decision.Emit(nil, decision.Record{Kind: decision.KindAdmit, Flow: 1, Rate: 1})
	})
	if allocs != 0 {
		t.Fatalf("Emit(nil, ...) allocates %v per call", allocs)
	}
}

// TestLogRoundTrip: Save→Load→Save is byte-identical on a real recorded log.
func TestLogRoundTrip(t *testing.T) {
	ft, fs := diurnalInstance(t, 20, 3)
	l := recordRolling(t, ft, fs, 0)
	b1 := logBytes(t, l)
	l2, err := decision.LoadLog(bytes.NewReader(b1))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, logBytes(t, l2)) {
		t.Fatal("round trip is not byte-identical")
	}
}

// TestLoadLogRejects: the strict loader refuses malformed input with
// ErrBadLog-class errors.
func TestLoadLogRejects(t *testing.T) {
	meta := `{"scheduler":"rolling"}` + "\n"
	cases := map[string]string{
		"empty":          "",
		"bad scheduler":  `{"scheduler":"lifo"}` + "\n",
		"unknown field":  `{"scheduler":"rolling","turbo":true}` + "\n",
		"unknown kind":   meta + `{"seq":0,"time":0,"kind":"retry","flow":1}` + "\n",
		"gap in seq":     meta + `{"seq":1,"time":0,"kind":"replan","flow":-1}` + "\n",
		"time regressed": meta + `{"seq":0,"time":5,"kind":"replan","flow":-1}` + "\n" + `{"seq":1,"time":4,"kind":"replan","flow":-1}` + "\n",
		"admit sans path": meta +
			`{"seq":0,"time":0,"kind":"admit","flow":2,"rate":1}` + "\n",
		"admit zero rate": meta +
			`{"seq":0,"time":0,"kind":"admit","flow":2,"path":[1],"rate":0}` + "\n",
		"replan with flow": meta + `{"seq":0,"time":0,"kind":"replan","flow":3}` + "\n",
		"trailing junk":    meta + "}{",
	}
	for name, in := range cases {
		if _, err := decision.LoadLog(strings.NewReader(in)); !errors.Is(err, decision.ErrBadLog) {
			t.Errorf("%s: want ErrBadLog, got %v", name, err)
		}
	}
}

// TestGreedyRecords: the greedy scheduler emits one admit record per flow
// with contiguous sequence numbers and a scored min-hop alternative where
// one exists.
func TestGreedyRecords(t *testing.T) {
	ft, fs := diurnalInstance(t, 25, 5)
	mem := &decision.Memory{Meta: decision.Meta{Scheduler: "greedy", Workload: "diurnal"}}
	m := power.Model{Mu: 1, Alpha: 2, C: 1e9}
	if _, err := online.RunCtx(context.Background(), ft.Graph, fs, m, nil, online.Options{Recorder: mem}); err != nil {
		t.Fatal(err)
	}
	l := mem.Log()
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	admits := l.Admits()
	if len(admits) != fs.Len() {
		t.Fatalf("recorded %d admits, want %d", len(admits), fs.Len())
	}
	withAlts := 0
	for _, rec := range admits {
		if rec.MarginalEnergy <= 0 {
			t.Fatalf("flow %d admit has non-positive marginal energy %v", rec.Flow, rec.MarginalEnergy)
		}
		if rec.Slack <= 0 {
			t.Fatalf("flow %d admit has non-positive slack %v", rec.Flow, rec.Slack)
		}
		withAlts += len(rec.Alternatives)
	}
	if withAlts == 0 {
		t.Fatal("no admit recorded any alternative path")
	}
}

// TestOverridesForceGreedy: forcing a path changes the greedy's decision
// exactly as recorded.
func TestOverridesForceGreedy(t *testing.T) {
	ft, fs := diurnalInstance(t, 25, 5)
	m := power.Model{Mu: 1, Alpha: 2, C: 1e9}

	// First recording: pick a flow with a recorded alternative.
	mem := &decision.Memory{Meta: decision.Meta{Scheduler: "greedy"}}
	if _, err := online.RunCtx(context.Background(), ft.Graph, fs, m, nil, online.Options{Recorder: mem}); err != nil {
		t.Fatal(err)
	}
	var target decision.Record
	for _, rec := range mem.Log().Admits() {
		if len(rec.Alternatives) > 0 {
			target = rec
			break
		}
	}
	if target.Kind != decision.KindAdmit {
		t.Fatal("no admit with alternatives to flip")
	}

	// Second run: force the alternative path on the target flow.
	ov := &decision.Overrides{
		ForcePath: map[flow.ID][]graph.EdgeID{target.Flow: target.Alternatives[0].Path},
	}
	mem2 := &decision.Memory{Meta: decision.Meta{Scheduler: "greedy"}}
	if _, err := online.RunCtx(context.Background(), ft.Graph, fs, m, nil, online.Options{Recorder: mem2, Overrides: ov}); err != nil {
		t.Fatal(err)
	}
	forced := false
	for _, rec := range mem2.Records {
		if rec.Flow == target.Flow && rec.Kind == decision.KindAdmit {
			if rec.Reason != "forced" {
				t.Fatalf("forced flow %d admitted with reason %q", rec.Flow, rec.Reason)
			}
			if graph.ComparePathKeys(rec.Path, target.Alternatives[0].Path) != 0 {
				t.Fatalf("forced flow %d took path %v, want %v", rec.Flow, rec.Path, target.Alternatives[0].Path)
			}
			forced = true
		}
	}
	if !forced {
		t.Fatal("override not applied: forced flow never admitted")
	}
}

// TestReplayCounterfactuals: replaying a recorded rolling run over the
// diurnal workload yields sim-validated counterfactual outcomes.
func TestReplayCounterfactuals(t *testing.T) {
	ft, fs := diurnalInstance(t, 25, 9)
	m := power.Model{Mu: 1, Alpha: 2, C: 1e9}
	l := recordRolling(t, ft, fs, 0)

	factory := func(ov *decision.Overrides) (sim.OnlineEngine, error) {
		t0, t1 := fs.Horizon()
		return online.NewRollingCtx(context.Background(), ft.Graph, m, timeline.Interval{Start: t0, End: t1}, rollingOpts(0, nil, ov))
	}
	rep, err := decision.Replay(decision.ReplayInput{
		Log: l, Graph: ft.Graph, Flows: fs, Model: m, Factory: factory,
		Opts: decision.ReplayOptions{TopK: 2, MaxDecisions: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Base.CapacityViolations != 0 || rep.Base.Misses != 0 {
		t.Fatalf("base re-run not clean: %+v", rep.Base)
	}
	if len(rep.Counterfactuals) == 0 {
		t.Fatal("no counterfactuals generated")
	}
	for _, c := range rep.Counterfactuals {
		if c.Err != "" {
			t.Fatalf("counterfactual seq=%d alt=%d failed: %s", c.Seq, c.Alternative, c.Err)
		}
		if !c.Valid {
			t.Fatalf("counterfactual seq=%d alt=%d not sim-clean: %+v", c.Seq, c.Alternative, c.Outcome)
		}
	}
	if got := rep.Table(); !strings.Contains(got, "regret") {
		t.Fatalf("table missing regret column:\n%s", got)
	}
}

// TestFitnessScore pins the weighting arithmetic and the default.
func TestFitnessScore(t *testing.T) {
	f := decision.Fitness{EnergyWeight: 2, MissWeight: 10, SlackP99Weight: 0.5}
	c := decision.FitnessComponents{Energy: 3, Misses: 2, SlackP99: 4}
	if got, want := f.Score(c), 2*3.0+10*2.0-0.5*4.0; got != want {
		t.Fatalf("Score = %v, want %v", got, want)
	}
	if got := decision.DefaultFitness().Score(c); got != 3 {
		t.Fatalf("default score = %v, want energy alone", got)
	}
}
