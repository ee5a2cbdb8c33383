package dcnflow_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"dcnflow"
)

// drainServer builds a server under admission pressure: the bucket holds
// `burst` tokens and refills so slowly that everyone past the burst queues
// until drained.
func drainServer(t *testing.T, burst float64) (*httptest.Server, *dcnflow.ServeHandler) {
	t.Helper()
	handler := dcnflow.NewServeHandler(dcnflow.NewEngine(dcnflow.EngineOptions{}), dcnflow.ServeOptions{
		Admission: dcnflow.AdmissionOptions{
			Rate:       0.0001, // ~3 hours per token: queued requests stay queued
			Burst:      burst,
			QueueDepth: 32,
		},
	})
	srv := httptest.NewServer(handler)
	t.Cleanup(srv.Close)
	return srv, handler
}

func postSolve(srv *httptest.Server, req dcnflow.ServeRequest) (*http.Response, error) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(req); err != nil {
		return nil, err
	}
	return srv.Client().Post(srv.URL+"/v1/solve", "application/json", &buf)
}

// metricsGauge scrapes one unlabelled gauge series off /metrics.
func metricsGauge(t *testing.T, srv *httptest.Server, name string) float64 {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body bytes.Buffer
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(body.String(), "\n") {
		if strings.HasPrefix(line, name+" ") {
			var v float64
			if _, err := fmt.Sscanf(line, name+" %g", &v); err != nil {
				t.Fatalf("parsing %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("no %s series on /metrics", name)
	return 0
}

func metricsQueueDepth(t *testing.T, srv *httptest.Server) int {
	return int(metricsGauge(t, srv, "dcnflow_admission_queue_depth"))
}

// TestServeDrainUnderLoad: Drain during an in-flight batch with queued
// admissions — the admitted batch completes with 200, every queued request
// gets a clean 503 with a Retry-After, post-drain arrivals get 503, and no
// handler goroutine leaks. Runs under -race via make test-race-online.
func TestServeDrainUnderLoad(t *testing.T) {
	before := runtime.NumGoroutine()

	srv, handler := drainServer(t, 1) // one token: exactly one in-flight batch
	spec := serveScenario()

	// The admitted batch: consumes the only token and stays in flight for
	// seconds (a cold fat-tree compile+solve), so the drain lands mid-batch.
	heavy := dcnflow.ScenarioSpec{
		Name:     "drain-heavy",
		Topology: dcnflow.TopologySpec{Kind: "fattree", K: 6, Capacity: 1000},
		Workload: dcnflow.WorkloadSpec{Kind: "uniform", N: 40, T0: 1, T1: 100, SizeMean: 10, SizeStddev: 3},
		Model:    dcnflow.ModelSpec{Mu: 1, Alpha: 2, C: 1000},
	}
	batchDone := make(chan error, 1)
	go func() {
		client := &dcnflow.Client{BaseURL: srv.URL, HTTPClient: srv.Client()}
		results, err := client.SolveBatch(context.Background(), []dcnflow.ServeRequest{
			{Scenario: heavy, Solver: dcnflow.SolverDCFSR},
			{Scenario: spec, Solver: dcnflow.SolverGreedyOnline},
		})
		if err == nil {
			for i, r := range results {
				if r.Error != "" {
					err = fmt.Errorf("admitted batch item %d failed: %s", i, r.Error)
					break
				}
			}
		}
		batchDone <- err
	}()

	// The batch holds the only token once admitted; wait for that before
	// lining anyone else up, so the queue membership is deterministic.
	deadline := time.Now().Add(10 * time.Second)
	for metricsGauge(t, srv, "dcnflow_admission_tokens") >= 1 {
		if time.Now().After(deadline) {
			t.Fatal("batch never consumed the admission token")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Three queued admissions (no tokens left, refill is hours away).
	const queued = 3
	var wg sync.WaitGroup
	statuses := make(chan int, queued)
	retryAfters := make(chan string, queued)
	for i := 0; i < queued; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := postSolve(srv, dcnflow.ServeRequest{Scenario: spec, Solver: dcnflow.SolverSPMCF})
			if err != nil {
				t.Errorf("queued solve: %v", err)
				return
			}
			defer resp.Body.Close()
			statuses <- resp.StatusCode
			retryAfters <- resp.Header.Get("Retry-After")
			var body struct {
				Error string `json:"error"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || body.Error == "" {
				t.Errorf("queued solve answered no clean JSON error body (decode err %v)", err)
			}
		}()
	}

	// Wait until all three are actually queued (scraped off /metrics), then
	// pull the plug.
	deadline = time.Now().Add(10 * time.Second)
	for metricsQueueDepth(t, srv) != queued {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth never reached %d", queued)
		}
		time.Sleep(2 * time.Millisecond)
	}
	handler.Drain()

	wg.Wait()
	close(statuses)
	close(retryAfters)
	for st := range statuses {
		if st != http.StatusServiceUnavailable {
			t.Errorf("queued request answered %d, want 503", st)
		}
	}
	for ra := range retryAfters {
		if ra == "" {
			t.Error("503 without a Retry-After header")
		}
	}

	// The admitted batch still completes cleanly.
	select {
	case err := <-batchDone:
		if err != nil {
			t.Fatalf("admitted batch: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("admitted batch never finished after drain")
	}

	// New arrivals after the drain are bounced immediately.
	resp, err := postSolve(srv, dcnflow.ServeRequest{Scenario: spec, Solver: dcnflow.SolverSPMCF})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain solve answered %d, want 503", resp.StatusCode)
	}
	handler.Drain() // idempotent

	// No goroutine leaks once the server is down: the admitter's refill
	// timer is stopped and no waiter is parked forever.
	srv.CloseClientConnections()
	srv.Close()
	leakDeadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+2 {
			break
		}
		if time.Now().After(leakDeadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d before, %d after drain\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServeAdmissionEndToEnd: queue-full rejections surface as 429 with a
// Retry-After over real HTTP, and admitted traffic still solves correctly.
func TestServeAdmissionEndToEnd(t *testing.T) {
	handler := dcnflow.NewServeHandler(dcnflow.NewEngine(dcnflow.EngineOptions{}), dcnflow.ServeOptions{
		Admission: dcnflow.AdmissionOptions{Rate: 0.0001, Burst: 1, QueueDepth: 1},
	})
	srv := httptest.NewServer(handler)
	defer srv.Close()
	defer handler.Drain()
	spec := serveScenario()

	// Token 1: solves fine.
	resp, err := postSolve(srv, dcnflow.ServeRequest{Scenario: spec, Solver: dcnflow.SolverSPMCF})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("admitted solve answered %d", resp.StatusCode)
	}

	// Fill the queue's single slot.
	go func() {
		if r, err := postSolve(srv, dcnflow.ServeRequest{Scenario: spec, Solver: dcnflow.SolverSPMCF}); err == nil {
			r.Body.Close()
		}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for metricsQueueDepth(t, srv) != 1 {
		if time.Now().After(deadline) {
			t.Fatal("queue never filled")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Queue full: 429 + Retry-After.
	resp, err = postSolve(srv, dcnflow.ServeRequest{Scenario: spec, Solver: dcnflow.SolverSPMCF})
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("queue-full solve answered %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without a Retry-After header")
	}
}
