package dcnflow_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sync"
	"testing"

	"dcnflow"
)

// shardCorpus builds a corpus of distinct scenarios spanning several
// topologies and solver families, so one serving Engine holds several
// compiled instances at once.
func shardCorpus() []dcnflow.ServeRequest {
	var reqs []dcnflow.ServeRequest
	for i, k := range []int{3, 4, 5, 6} {
		spec := dcnflow.ScenarioSpec{
			Name:     fmt.Sprintf("shard-line-%d", k),
			Topology: dcnflow.TopologySpec{Kind: "line", K: k, Capacity: 100},
			Workload: dcnflow.WorkloadSpec{Kind: "shuffle", Hosts: 2, Release: 0, Deadline: 6 + float64(i), Size: 2},
			Model:    dcnflow.ModelSpec{Mu: 1, Alpha: 2, C: 100},
			Seed:     int64(i + 1),
		}
		reqs = append(reqs,
			dcnflow.ServeRequest{Scenario: spec, Solver: dcnflow.SolverSPMCF},
			dcnflow.ServeRequest{Scenario: spec, Solver: dcnflow.SolverGreedyOnline},
		)
	}
	for _, k := range []int{4, 6} {
		spec := dcnflow.ScenarioSpec{
			Name:     fmt.Sprintf("shard-fattree-%d", k),
			Topology: dcnflow.TopologySpec{Kind: "fattree", K: k, Capacity: 1000},
			Workload: dcnflow.WorkloadSpec{Kind: "uniform", N: 6, T0: 0, T1: 10, SizeMean: 2, SizeStddev: 1},
			Model:    dcnflow.ModelSpec{Mu: 1, Alpha: 2, C: 1000},
			Seed:     int64(k),
		}
		reqs = append(reqs, dcnflow.ServeRequest{Scenario: spec, Solver: dcnflow.SolverDCFSR})
	}
	return reqs
}

// normalizeServeBody strips the two legitimately nondeterministic fields
// (cache_hit, runtime_ms) and re-encodes, yielding the canonical bytes the
// determinism contract covers.
func normalizeServeBody(t *testing.T, raw []byte) []byte {
	t.Helper()
	var resp dcnflow.ServeResponse
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&resp); err != nil {
		t.Fatalf("decoding serve body %q: %v", raw, err)
	}
	if resp.Error != "" {
		t.Fatalf("served solve failed: %s", resp.Error)
	}
	resp.CacheHit = false
	resp.RuntimeMS = 0
	out, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// directEnergies solves every corpus request on a fresh Engine, no HTTP
// anywhere: the reference the served energies must match bit for bit.
func directEnergies(t *testing.T, corpus []dcnflow.ServeRequest) []float64 {
	t.Helper()
	eng := dcnflow.NewEngine(dcnflow.EngineOptions{})
	direct := make([]float64, len(corpus))
	for i, req := range corpus {
		spec := req.Scenario
		res := eng.Solve(context.Background(), dcnflow.Request{Scenario: &spec, Solver: req.Solver})
		if res.Err != nil {
			t.Fatalf("direct solve %d (%s/%s): %v", i, spec.Name, req.Solver, res.Err)
		}
		direct[i] = res.Solution.Energy
	}
	return direct
}

// TestServeShardDeterminism: racing clients on one serving Engine get
// byte-identical solve bodies (energy, bound, stats) for repeats of the
// same request, and every served energy is bit-identical to a direct
// Engine solve of that request.
func TestServeShardDeterminism(t *testing.T) {
	corpus := shardCorpus()
	direct := directEnergies(t, corpus)
	srv, _ := newServeServer(t, dcnflow.ServeOptions{})

	const repeats = 3 // same request raced from several goroutines
	got := make([][]byte, len(corpus)*repeats)
	var wg sync.WaitGroup
	errs := make(chan error, len(got))
	for slot := range got {
		req := corpus[slot%len(corpus)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			if err := json.NewEncoder(&buf).Encode(req); err != nil {
				errs <- err
				return
			}
			resp, err := srv.Client().Post(srv.URL+"/v1/solve", "application/json", &buf)
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("slot %d: status %d", slot, resp.StatusCode)
				return
			}
			var body bytes.Buffer
			if _, err := body.ReadFrom(resp.Body); err != nil {
				errs <- err
				return
			}
			got[slot] = body.Bytes()
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	norm := make([][]byte, len(corpus))
	for slot, raw := range got {
		n := normalizeServeBody(t, raw)
		i := slot % len(corpus)
		if norm[i] == nil {
			norm[i] = n
		} else if !bytes.Equal(norm[i], n) {
			t.Fatalf("racing repeats of request %d diverged:\n%s\nvs\n%s", i, norm[i], n)
		}
	}
	for i := range corpus {
		var resp dcnflow.ServeResponse
		if err := json.Unmarshal(norm[i], &resp); err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(resp.Energy) != math.Float64bits(direct[i]) {
			t.Errorf("request %d: served energy %v is not bit-identical to direct %v", i, resp.Energy, direct[i])
		}
	}
}

// TestServeShardedBatch: one /v1/batch over the multi-topology corpus keeps
// request order, and every item's energy is bit-identical to a direct
// Engine solve.
func TestServeShardedBatch(t *testing.T) {
	corpus := shardCorpus()
	direct := directEnergies(t, corpus)
	_, client := newServeServer(t, dcnflow.ServeOptions{})
	results, err := client.SolveBatch(context.Background(), corpus)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(corpus) {
		t.Fatalf("%d results for %d requests", len(results), len(corpus))
	}
	for i, r := range results {
		if r.Error != "" {
			t.Fatalf("item %d: %s", i, r.Error)
		}
		if r.Scenario != corpus[i].Scenario.Name || r.Solver != corpus[i].Solver {
			t.Fatalf("item %d out of order: %s/%s", i, r.Scenario, r.Solver)
		}
		if math.Float64bits(r.Energy) != math.Float64bits(direct[i]) {
			t.Errorf("item %d: energy %v, direct solve %v", i, r.Energy, direct[i])
		}
	}
}
