package dcnflow_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"strings"
	"testing"
	"time"

	"dcnflow"
)

// infiniteSizeSpec is a valid JSON scenario whose truncated-normal sizes
// (stddev 1e308) overflow to +Inf: flow validation must reject it.
func infiniteSizeSpec() dcnflow.ScenarioSpec {
	return dcnflow.ScenarioSpec{
		Name:     "infinite-sizes",
		Topology: dcnflow.TopologySpec{Kind: "fattree", K: 4, Capacity: 100},
		Workload: dcnflow.WorkloadSpec{Kind: "uniform", N: 40, T0: 1, T1: 100, SizeMean: 10, SizeStddev: 1e308},
		Model:    dcnflow.ModelSpec{Mu: 1, Alpha: 2, C: 100},
		Seed:     1,
	}
}

// hugeSizeSpec has finite sizes (1e200) whose squared rates overflow the
// energy accounting. Four flows keep the exact solver's enumeration small.
func hugeSizeSpec() dcnflow.ScenarioSpec {
	return dcnflow.ScenarioSpec{
		Name:     "huge-sizes",
		Topology: dcnflow.TopologySpec{Kind: "fattree", K: 4, Capacity: 1e300},
		Workload: dcnflow.WorkloadSpec{Kind: "uniform", N: 4, T0: 1, T1: 100, SizeMean: 1e200},
		Model:    dcnflow.ModelSpec{Mu: 1, Alpha: 2},
		Seed:     1,
	}
}

// solveWithin runs one engine request and fails the test if it outlives
// its timeout by a wide margin.
func solveWithin(t *testing.T, eng *dcnflow.Engine, spec dcnflow.ScenarioSpec, solver string) dcnflow.Result {
	t.Helper()
	const timeout = 5 * time.Second
	done := make(chan dcnflow.Result, 1)
	go func() {
		done <- eng.Solve(context.Background(), dcnflow.Request{Scenario: &spec, Solver: solver, Timeout: timeout})
	}()
	select {
	case r := <-done:
		return r
	case <-time.After(6 * timeout):
		t.Fatalf("%s on %s: no answer %v after its %v timeout", solver, spec.Name, 5*timeout, timeout)
		return dcnflow.Result{}
	}
}

// TestInfiniteFlowSizesAreABadScenario: every registered family rejects
// the +Inf-size spec with ErrBadScenario before solving anything.
func TestInfiniteFlowSizesAreABadScenario(t *testing.T) {
	spec := infiniteSizeSpec()
	if _, err := spec.Instance(); !errors.Is(err, dcnflow.ErrBadScenario) || !strings.Contains(err.Error(), "infinite") {
		t.Fatalf("Instance() = %v, want ErrBadScenario naming an infinite field", err)
	}
	eng := dcnflow.NewEngine(dcnflow.EngineOptions{})
	for _, name := range dcnflow.SolverNames() {
		if r := solveWithin(t, eng, spec, name); !errors.Is(r.Err, dcnflow.ErrBadScenario) {
			t.Errorf("%s: err = %v, want ErrBadScenario", name, r.Err)
		}
	}
}

// TestNonFiniteResultsAreErrors: no built-in family answers with a
// non-finite Energy or LowerBound and a nil error; the relaxation and
// shortest-path families, whose energies overflow here, wrap
// ErrBadInstance.
func TestNonFiniteResultsAreErrors(t *testing.T) {
	spec := hugeSizeSpec()
	eng := dcnflow.NewEngine(dcnflow.EngineOptions{})
	for _, name := range dcnflow.SolverNames() {
		r := solveWithin(t, eng, spec, name)
		if r.Err == nil {
			if e, lb := r.Solution.Energy, r.Solution.LowerBound; math.IsInf(e, 0) || math.IsNaN(e) || math.IsInf(lb, 0) || math.IsNaN(lb) {
				t.Errorf("%s: energy %v, lower bound %v with a nil error", name, e, lb)
			}
			continue
		}
		t.Logf("%s: %v", name, r.Err)
	}
	for _, name := range []string{dcnflow.SolverDCFSR, dcnflow.SolverSPMCF} {
		if r := solveWithin(t, eng, spec, name); !errors.Is(r.Err, dcnflow.ErrBadInstance) {
			t.Errorf("%s: err = %v, want ErrBadInstance", name, r.Err)
		}
	}
}

// TestServeNonFiniteSpecs: the serve handler answers both overflow specs
// with a 422 and a JSON error on /v1/solve and per-item errors on
// /v1/batch, and keeps answering /healthz afterwards.
func TestServeNonFiniteSpecs(t *testing.T) {
	srv, client := newServeServer(t, dcnflow.ServeOptions{})
	post := func(path string, body any) (*http.Response, []byte) {
		t.Helper()
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
		resp, err := srv.Client().Post(srv.URL+path, "application/json", &buf)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out bytes.Buffer
		if _, err := out.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp, out.Bytes()
	}
	for _, spec := range []dcnflow.ScenarioSpec{infiniteSizeSpec(), hugeSizeSpec()} {
		var items []dcnflow.ServeRequest
		for _, solver := range []string{dcnflow.SolverDCFSR, dcnflow.SolverSPMCF} {
			req := dcnflow.ServeRequest{Scenario: spec, Solver: solver, TimeoutMS: 2000}
			items = append(items, req)
			resp, body := post("/v1/solve", req)
			var got dcnflow.ServeResponse
			if err := json.Unmarshal(body, &got); err != nil {
				t.Fatalf("%s/%s: status %d, body %q is not JSON: %v", spec.Name, solver, resp.StatusCode, body, err)
			}
			if resp.StatusCode != http.StatusUnprocessableEntity || got.Error == "" {
				t.Fatalf("%s/%s: status %d, error %q; want 422 with an error", spec.Name, solver, resp.StatusCode, got.Error)
			}
		}
		results, err := client.SolveBatch(context.Background(), items)
		if err != nil {
			t.Fatalf("%s: batch: %v", spec.Name, err)
		}
		for i, r := range results {
			if r.Error == "" {
				t.Fatalf("%s: batch item %d (%s) succeeded with energy %v", spec.Name, i, r.Solver, r.Energy)
			}
		}
		if h, err := client.Health(context.Background()); err != nil || h.Status != "ok" {
			t.Fatalf("%s: /healthz after the requests: %+v, %v", spec.Name, h, err)
		}
	}
}
