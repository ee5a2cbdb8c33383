package main

import (
	"context"
	"encoding/json"
	"math"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"dcnflow"
)

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {0.75, 3.25}, {1, 4}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	withFailure := []float64{1, 2, math.Inf(1)}
	if got := percentile(withFailure, 0.5); got != 2 {
		t.Errorf("median with a failure = %v, want 2", got)
	}
	if got := percentile(withFailure, 0.75); !math.IsInf(got, 1) {
		t.Errorf("p75 reaching a failure = %v, want +Inf", got)
	}
	if got := percentile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("percentile of nothing = %v, want NaN", got)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4),
// the function the benchmark's spread rule is stated in.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{4, 3, 2, 1}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{1, 5}, [3]float64{0, 3, 6}},
		{[]float64{7, 7, 7}, [3]float64{7, 7, 7}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestJudge(t *testing.T) {
	parent := []float64{100, 101, 102, 103, 104, 105, 106, 107, 108, 109}
	shift := func(xs []float64, f func(float64) float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = f(x)
		}
		return out
	}
	wide := []float64{50, 150, 60, 140, 70, 130, 80, 120, 90, 110}
	for _, c := range []struct {
		name           string
		parent, change []float64
		higherBetter   bool
		bound          float64
		want           string
		wins           int
	}{
		{"faster", parent, shift(parent, func(x float64) float64 { return x - 20 }), false, 0.1, verdictImproved, 10},
		{"slower", parent, shift(parent, func(x float64) float64 { return x * 1.3 }), false, 0.1, verdictRegressed, 0},
		{"a little slower", parent, shift(parent, func(x float64) float64 { return x + 0.5 }), false, 0.1, verdictWithin, 0},
		{"identical", parent, parent, false, 0.1, verdictWithin, 0},
		{"noisy", wide, []float64{150, 50, 140, 60, 130, 70, 120, 80, 110, 90}, false, 0.1, verdictUnresolved, 5},
		{"more throughput", parent, shift(parent, func(x float64) float64 { return x + 20 }), true, 0.1, verdictImproved, 10},
		{"less throughput", parent, shift(parent, func(x float64) float64 { return x * 0.7 }), true, 0.1, verdictRegressed, 0},
		// Winning 8 of 10 pairs is not enough for a gain.
		{"mostly faster", parent, append(shift(parent[:8], func(x float64) float64 { return x - 20 }), 200, 200), false, 0.5, verdictWithin, 8},
	} {
		j := judge(c.parent, c.change, c.higherBetter, c.bound)
		if j.verdict != c.want || j.wins != c.wins || j.pairs != len(c.parent) {
			t.Errorf("%s: %s with %d/%d wins, want %s with %d", c.name, j.verdict, j.wins, j.pairs, c.want, c.wins)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "a", Start: 20, End: 50},
		{ID: 4, Parent: 1, Name: "b", Start: 90, End: 120},
	}
	st := selfTimes(spans)
	near := func(got [2]float64, ms, n float64) bool { return math.Abs(got[0]-ms) < 1e-12 && got[1] == n }
	if got := st["root"]; !near(got, 50e-6, 1) {
		t.Errorf("root self time = %v, want 50 ns over 1 span", got)
	}
	if got := st["a"]; !near(got, 25e-6, 2) {
		t.Errorf("a self time = %v, want a 25 ns median over 2 spans", got)
	}
}

func TestOKSolves(t *testing.T) {
	text := strings.Join([]string{
		`# TYPE dcnflow_requests_total counter`,
		`dcnflow_requests_total{class="normal",endpoint="solve",outcome="ok"} 12`,
		`dcnflow_requests_total{class="high",endpoint="solve",outcome="ok"} 3`,
		`dcnflow_requests_total{class="normal",endpoint="solve",outcome="solver_error"} 4`,
		`dcnflow_requests_total{class="normal",endpoint="batch",outcome="ok"} 5`,
	}, "\n")
	if got := okSolves(text); got != 15 {
		t.Errorf("okSolves = %d, want 15", got)
	}
}

func TestDeriveSeparatesStreams(t *testing.T) {
	seen := map[int64]string{}
	for _, stream := range []string{"a/request", "a/warmup", "b/request"} {
		for i := 0; i < 100; i++ {
			s := derive(7, stream, i)
			if s <= 0 {
				t.Fatalf("derive(7, %q, %d) = %d, want positive", stream, i, s)
			}
			if prev, dup := seen[s]; dup {
				t.Fatalf("derive(7, %q, %d) repeats %s", stream, i, prev)
			}
			seen[s] = stream
		}
	}
	if derive(7, "a/request", 3) != derive(7, "a/request", 3) {
		t.Fatal("derive is not a function of its inputs")
	}
}

// TestInputsFollowSeed checks that every workload's generated inputs are a
// function of the seed alone: the same seed repeats them, another seed
// changes them.
func TestInputsFollowSeed(t *testing.T) {
	solveReqs := func(p solveParams, seed int64) []dcnflow.ScenarioSpec {
		var out []dcnflow.ScenarioSpec
		for i := 0; i < 5; i++ {
			out = append(out, p.spec(seed, "request", i))
		}
		return out
	}
	top, err := fatTree(8).Build()
	if err != nil {
		t.Fatal(err)
	}
	onlineTrace := func(seed int64) []dcnflow.Flow {
		fs, err := onlineDelta.trace(seed, "trace", 0, top.Hosts)
		if err != nil {
			t.Fatal(err)
		}
		return fs.Flows()
	}
	serveCalls := func(seed int64) []call {
		nreq := len(serveFT8.requests(seed))
		out := serveFT8.schedule(seed, time.Second, nreq)
		for i := 0; i < 50; i++ {
			out = append(out, call{req: serveFT8.closedReq(seed, i, nreq)})
		}
		return out
	}
	for _, c := range []struct {
		name string
		gen  func(seed int64) any
	}{
		{"paper-k8 requests", func(s int64) any { return solveReqs(paperK8, s) }},
		{"large-k32 requests", func(s int64) any { return solveReqs(largeK32, s) }},
		{"online-delta trace", func(s int64) any { return onlineTrace(s) }},
		{"serve-ft8 corpus", func(s int64) any { return serveFT8.requests(s) }},
		{"serve-ft8 schedule", func(s int64) any { return serveCalls(s) }},
	} {
		a, b, other := c.gen(1), c.gen(1), c.gen(2)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave different inputs", c.name)
		}
		if reflect.DeepEqual(a, other) {
			t.Errorf("%s: seeds 1 and 2 gave the same inputs", c.name)
		}
	}
	// Traces arrive in release order with IDs in that order, so every
	// prefix of arrivals is a flow set with unchanged IDs.
	flows := onlineTrace(1)
	for i, f := range flows {
		if int(f.ID) != i || (i > 0 && f.Release < flows[i-1].Release) {
			t.Fatalf("trace flow %d has ID %d, release %v after %v", i, f.ID, f.Release, flows[max(0, i-1)].Release)
		}
	}
}

// TestMetricListsMatchBenchmarkJSON keeps the metric and workload tables of
// this command in step with BENCHMARK.json, from which compare and every
// runner of the benchmark read them.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, dcnbench has %v", names, workloadNames())
	}
	for _, c := range []struct {
		name string
		json []struct{ Name, Unit string }
		defs []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		var got []metricDef
		for _, m := range c.json {
			got = append(got, metricDef{m.Name, m.Unit})
		}
		if !reflect.DeepEqual(got, c.defs) {
			t.Errorf("BENCHMARK.json %s %v, dcnbench has %v", c.name, got, c.defs)
		}
	}
}

// Tiny versions of the workloads, for the smoke tests only.
var (
	tinySolve = solveParams{
		name: "tiny-solve", topo: fatTree(4),
		work:  dcnflow.WorkloadSpec{Kind: "uniform", N: 6, T0: 1, T1: 20, SizeMean: 10, SizeStddev: 3},
		warmN: 3, tailQ: 0.75, rssAfter: 2, replaySets: 2, replayIntervals: 4,
	}
	tinyOnline = onlineParams{
		name: "tiny-online", k: 4, n: 30, t1: 30, peak: 5, sizeMean: 8, sizeStdd: 2,
		iters: 10, drift: 0.25, stale: 16, warmArrivals: 3, rssAfter: 5, replayFlows: 10, replayIntervals: 4, tailQ: 0.9,
	}
	tinyServe = serveParams{
		name: "tiny-serve", k: 4, ns: []int{6}, seedsPer: 1,
		solvers: []string{dcnflow.SolverSPMCF, dcnflow.SolverGreedyOnline},
		rate:    100, openShare: 0.5, tailQ: 0.9, clients: 2, replayIntervals: 4,
	}
)

// inProcessServer serves the API from an httptest server instead of a
// dcnflow process.
func inProcessServer(_ context.Context, solvers []string) (*backend, error) {
	srv := httptest.NewServer(dcnflow.NewServeHandler(nil, dcnflow.ServeOptions{Solvers: solvers}))
	return &backend{url: srv.URL, stop: func() (float64, error) {
		srv.Close()
		return maxRSSMB(), nil
	}}, nil
}

func TestWorkloadsSmoke(t *testing.T) {
	ctx := context.Background()
	for _, c := range []struct {
		name string
		d    time.Duration
		run  func(e *env) (*report, error)
	}{
		{"solve", 100 * time.Millisecond, func(e *env) (*report, error) { return runSolveLoad(ctx, tinySolve, e) }},
		{"online", 100 * time.Millisecond, func(e *env) (*report, error) { return runOnline(ctx, tinyOnline, e) }},
		{"serve", 400 * time.Millisecond, func(e *env) (*report, error) { return runServeLoad(ctx, tinyServe, e, inProcessServer) }},
	} {
		for _, traced := range []bool{false, true} {
			e := &env{seed: 1, duration: c.d}
			if traced {
				e.tr = newTracer()
			}
			rep, err := c.run(e)
			if err != nil {
				t.Fatalf("%s (traced %v): %v", c.name, traced, err)
			}
			res, err := rep.result(traced)
			if err != nil {
				t.Fatalf("%s (traced %v): %v", c.name, traced, err)
			}
			if !res.Correct || res.Attempted == 0 {
				t.Errorf("%s (traced %v): correct %v after %d operations, problems %q",
					c.name, traced, res.Correct, res.Attempted, rep.problems)
			}
		}
	}
}
