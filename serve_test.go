package dcnflow_test

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"dcnflow"
)

// serveScenario is a tiny scenario every serve test shares.
func serveScenario() dcnflow.ScenarioSpec {
	return dcnflow.ScenarioSpec{
		Name:     "serve-test",
		Topology: dcnflow.TopologySpec{Kind: "line", K: 3, Capacity: 100},
		Workload: dcnflow.WorkloadSpec{Kind: "shuffle", Hosts: 2, Release: 0, Deadline: 6, Size: 2},
		Model:    dcnflow.ModelSpec{Mu: 1, Alpha: 2, C: 100},
		Seed:     1,
	}
}

func newServeServer(t *testing.T, opts dcnflow.ServeOptions) (*httptest.Server, *dcnflow.Client) {
	t.Helper()
	eng := dcnflow.NewEngine(dcnflow.EngineOptions{})
	srv := httptest.NewServer(dcnflow.NewServeHandler(eng, opts))
	t.Cleanup(srv.Close)
	return srv, &dcnflow.Client{BaseURL: srv.URL, HTTPClient: srv.Client()}
}

// TestServeSolveMatchesDirect: a served solve equals the direct
// solve of the same spec (energy, bound, stats), and the second identical
// request is a cache hit.
func TestServeSolveMatchesDirect(t *testing.T) {
	_, client := newServeServer(t, dcnflow.ServeOptions{})
	spec := serveScenario()

	inst, err := spec.Instance()
	if err != nil {
		t.Fatal(err)
	}
	want, err := dcnflow.Solve(context.Background(), dcnflow.SolverDCFSR, inst, dcnflow.WithSeed(spec.Seed))
	if err != nil {
		t.Fatal(err)
	}

	got, err := client.Solve(context.Background(), dcnflow.ServeRequest{Scenario: spec, Solver: dcnflow.SolverDCFSR})
	if err != nil {
		t.Fatal(err)
	}
	if got.Energy != want.Energy || got.LowerBound != want.LowerBound {
		t.Fatalf("served solve diverged: (%v, %v) vs direct (%v, %v)",
			got.Energy, got.LowerBound, want.Energy, want.LowerBound)
	}
	if got.Solver != dcnflow.SolverDCFSR || got.Scenario != spec.Name {
		t.Errorf("response echoes %q/%q, want %q/%q", got.Scenario, got.Solver, spec.Name, dcnflow.SolverDCFSR)
	}
	again, err := client.Solve(context.Background(), dcnflow.ServeRequest{Scenario: spec, Solver: dcnflow.SolverDCFSR})
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit {
		t.Error("second identical request missed the warm cache")
	}
	if again.Energy != want.Energy {
		t.Errorf("warm solve diverged: %v vs %v", again.Energy, want.Energy)
	}
}

// TestServeBatchAndHealth: /v1/batch answers per-item results in request
// order (failures inline), and /healthz reports the cache counters.
func TestServeBatchAndHealth(t *testing.T) {
	_, client := newServeServer(t, dcnflow.ServeOptions{})
	spec := serveScenario()
	reqs := []dcnflow.ServeRequest{
		{Scenario: spec, Solver: dcnflow.SolverSPMCF},
		{Scenario: spec, Solver: "no-such-solver"},
		{Scenario: spec, Solver: dcnflow.SolverGreedyOnline},
	}
	results, err := client.SolveBatch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("batch answered %d results", len(results))
	}
	if results[0].Error != "" || results[2].Error != "" {
		t.Fatalf("valid batch items failed: %q / %q", results[0].Error, results[2].Error)
	}
	if results[1].Error == "" {
		t.Fatal("unknown solver item did not fail")
	}
	if results[0].Solver != dcnflow.SolverSPMCF || results[2].Solver != dcnflow.SolverGreedyOnline {
		t.Fatal("batch results arrived out of request order")
	}
	if results[0].Energy <= 0 || results[2].Energy <= 0 {
		t.Fatal("batch items carry no energy")
	}

	h, err := client.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Fatalf("health status %q", h.Status)
	}
	if len(h.Solvers) != len(dcnflow.SolverNames()) {
		t.Fatalf("health lists %d solvers, want %d", len(h.Solvers), len(dcnflow.SolverNames()))
	}
	if h.Cache.Misses == 0 {
		t.Fatalf("health cache counters empty: %+v", h.Cache)
	}
}

// TestServeRejectsBadRequests: malformed bodies and disallowed solvers map
// to the documented statuses.
func TestServeRejectsBadRequests(t *testing.T) {
	srv, client := newServeServer(t, dcnflow.ServeOptions{Solvers: []string{dcnflow.SolverSPMCF}})
	post := func(path, body string) *http.Response {
		t.Helper()
		resp, err := srv.Client().Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	for name, tc := range map[string]struct {
		path, body string
		status     int
	}{
		"garbage":        {"/v1/solve", "{not json", http.StatusBadRequest},
		"unknown field":  {"/v1/solve", `{"bogus": 1}`, http.StatusBadRequest},
		"trailing data":  {"/v1/solve", `{} {}`, http.StatusBadRequest},
		"invalid spec":   {"/v1/solve", `{"scenario": {"topology": {"kind": "torus"}}, "solver": "dcfsr"}`, http.StatusBadRequest},
		"empty batch":    {"/v1/batch", `{"requests": []}`, http.StatusBadRequest},
		"batch not json": {"/v1/batch", `nope`, http.StatusBadRequest},
	} {
		if resp := post(tc.path, tc.body); resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d", name, resp.StatusCode, tc.status)
		}
	}

	// A valid request naming a solver outside the allowlist is a 422 with
	// the allowlist in the message.
	var buf bytes.Buffer
	req := dcnflow.ServeRequest{Scenario: serveScenario(), Solver: dcnflow.SolverDCFSR}
	if err := json.NewEncoder(&buf).Encode(req); err != nil {
		t.Fatal(err)
	}
	resp := post("/v1/solve", buf.String())
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("disallowed solver: status %d, want 422", resp.StatusCode)
	}
	if _, err := client.Solve(context.Background(), req); err == nil ||
		!strings.Contains(err.Error(), "not served here") {
		t.Fatalf("client did not surface the allowlist error: %v", err)
	}
}

// TestServeRejectsOversizedBody: a /v1/solve or /v1/batch body past the
// server's 8 MiB bound fails as a 400 bad request that names the size
// limit, and /metrics counts it under bad_request.
func TestServeRejectsOversizedBody(t *testing.T) {
	h := dcnflow.NewServeHandler(nil, dcnflow.ServeOptions{})
	// A syntactically valid body whose one string field alone exceeds the
	// bound: without it, decoding would succeed and fail only validation.
	huge := strings.Repeat("x", 8<<20+1)
	for path, body := range map[string]string{
		"/v1/solve": `{"solver": "` + huge + `"}`,
		"/v1/batch": `{"requests": [{"solver": "` + huge + `"}]}`,
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", path, rec.Code)
		}
		if !strings.Contains(rec.Body.String(), "too large") {
			t.Errorf("%s: error does not name the size limit: %s", path, rec.Body.String())
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	for _, want := range []string{
		`dcnflow_requests_total{class="normal",endpoint="solve",outcome="bad_request"} 1`,
		`dcnflow_requests_total{class="normal",endpoint="batch",outcome="bad_request"} 1`,
	} {
		if !strings.Contains(rec.Body.String(), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestServeTimeout: a request whose timeout_ms cannot fit the solve
// answers 504 and the engine returns no partial result.
func TestServeTimeout(t *testing.T) {
	srv, _ := newServeServer(t, dcnflow.ServeOptions{})
	spec := dcnflow.ScenarioSpec{
		Topology: dcnflow.TopologySpec{Kind: "fattree", K: 8, Capacity: 1000},
		Workload: dcnflow.WorkloadSpec{Kind: "uniform", N: 60, T0: 1, T1: 100, SizeMean: 10, SizeStddev: 3},
		Model:    dcnflow.ModelSpec{Mu: 1, Alpha: 2, C: 1000},
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(dcnflow.ServeRequest{Scenario: spec, Solver: dcnflow.SolverDCFSR, TimeoutMS: 1}); err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Post(srv.URL+"/v1/solve", "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
	var body dcnflow.ServeResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Error == "" || body.Energy != 0 {
		t.Fatalf("timeout reply carries a partial result: %+v", body)
	}
}

// TestServeHugeTimeoutClamps: a timeout_ms too large for a time.Duration
// (9223372036855 ms and up overflow int64 nanoseconds) clamps to the server
// ceiling and solves, as ServeRequest.TimeoutMS promises.
func TestServeHugeTimeoutClamps(t *testing.T) {
	srv, _ := newServeServer(t, dcnflow.ServeOptions{})
	for _, ms := range []int64{9223372036855, math.MaxInt64} {
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(dcnflow.ServeRequest{Scenario: serveScenario(), Solver: dcnflow.SolverSPMCF, TimeoutMS: ms}); err != nil {
			t.Fatal(err)
		}
		resp, err := srv.Client().Post(srv.URL+"/v1/solve", "application/json", &buf)
		if err != nil {
			t.Fatal(err)
		}
		var body dcnflow.ServeResponse
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || body.Error != "" || body.Energy <= 0 {
			t.Fatalf("timeout_ms %d: status %d, body %+v; want 200 with a solution", ms, resp.StatusCode, body)
		}
	}
}

// TestServeRequestCanonicalRoundTrip pins the canonical byte encoding the
// fuzz target relies on.
func TestServeRequestCanonicalRoundTrip(t *testing.T) {
	req := &dcnflow.ServeRequest{Scenario: serveScenario(), Solver: dcnflow.SolverSPMCF, TimeoutMS: 2500}
	var buf bytes.Buffer
	if err := dcnflow.EncodeServeRequest(&buf, req); err != nil {
		t.Fatal(err)
	}
	first := buf.String()
	back, err := dcnflow.DecodeServeRequest(strings.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	if *back != *req {
		t.Fatalf("round-trip changed the request: %+v vs %+v", back, req)
	}
	var again bytes.Buffer
	if err := dcnflow.EncodeServeRequest(&again, back); err != nil {
		t.Fatal(err)
	}
	if again.String() != first {
		t.Fatal("canonical encoding is not a fixed point")
	}
}

// FuzzServeRequest asserts DecodeServeRequest is total, mirroring
// FuzzLoadScenario: arbitrary input either yields a request that validates
// and round-trips canonically, or an error — never a panic, never a
// silently invalid request.
func FuzzServeRequest(f *testing.F) {
	seeds := []string{
		`{}`,
		`{"scenario": {"topology": {"kind": "line", "k": 3, "capacity": 100}, "workload": {"kind": "shuffle", "hosts": 2, "deadline": 6, "size": 2}, "model": {"mu": 1, "alpha": 2}}, "solver": "dcfsr"}`,
		`{"scenario": {"topology": {"kind": "fattree", "k": 4, "capacity": 1000}, "workload": {"kind": "uniform", "n": 4, "t1": 10, "size_mean": 2}, "model": {"mu": 1, "alpha": 2}}, "solver": "sp-mcf", "timeout_ms": 500}`,
		`{"solver": "dcfsr"}`,
		`{"scenario": null, "solver": "dcfsr"}`,
		`{"bogus": true}`,
		`[1, 2]`,
		"null",
		"",
	}
	if data, err := os.ReadFile("testdata/golden_scenario.json"); err == nil {
		seeds = append(seeds, `{"scenario": `+strings.TrimSpace(string(data))+`, "solver": "dcfsr"}`)
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		req, err := dcnflow.DecodeServeRequest(strings.NewReader(input))
		if err != nil {
			return
		}
		if verr := req.Validate(); verr != nil {
			t.Fatalf("DecodeServeRequest accepted a request that fails Validate: %v", verr)
		}
		var buf bytes.Buffer
		if err := dcnflow.EncodeServeRequest(&buf, req); err != nil {
			t.Fatalf("accepted request does not encode: %v", err)
		}
		first := buf.String()
		back, err := dcnflow.DecodeServeRequest(strings.NewReader(first))
		if err != nil {
			t.Fatalf("encoded request does not decode back: %v", err)
		}
		if *back != *req {
			t.Fatalf("round-trip changed the request: %+v != %+v", back, req)
		}
		var again bytes.Buffer
		if err := dcnflow.EncodeServeRequest(&again, back); err != nil {
			t.Fatal(err)
		}
		if again.String() != first {
			t.Fatal("canonical encoding is not a fixed point")
		}
	})
}

// TestServeHandlerConcurrent hammers one handler from many goroutines
// (mixed solve/batch/health) — run under -race by make test-race-online.
func TestServeHandlerConcurrent(t *testing.T) {
	_, client := newServeServer(t, dcnflow.ServeOptions{MaxTimeout: 30 * time.Second})
	spec := serveScenario()
	want, err := client.Solve(context.Background(), dcnflow.ServeRequest{Scenario: spec, Solver: dcnflow.SolverSPMCF})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 6)
	for w := 0; w < 6; w++ {
		go func(w int) {
			for i := 0; i < 4; i++ {
				switch w % 3 {
				case 0:
					got, err := client.Solve(context.Background(), dcnflow.ServeRequest{Scenario: spec, Solver: dcnflow.SolverSPMCF})
					if err == nil && got.Energy != want.Energy {
						err = errEnergyDrift
					}
					if err != nil {
						done <- err
						return
					}
				case 1:
					if _, err := client.SolveBatch(context.Background(), []dcnflow.ServeRequest{
						{Scenario: spec, Solver: dcnflow.SolverGreedyOnline},
						{Scenario: spec, Solver: dcnflow.SolverSPMCF},
					}); err != nil {
						done <- err
						return
					}
				default:
					if _, err := client.Health(context.Background()); err != nil {
						done <- err
						return
					}
				}
			}
			done <- nil
		}(w)
	}
	for w := 0; w < 6; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

type driftErr string

func (e driftErr) Error() string { return string(e) }

var errEnergyDrift = driftErr("concurrent served solve diverged from reference energy")
