// Command servesmoke is the end-to-end smoke test of the serve path,
// wired into CI as `make serve-smoke`:
//
//  1. build the dcnflow binary and start `dcnflow serve` on a free port;
//  2. send a hostile request — a BCube with l=40, whose generator would
//     need 2^41 servers — and require a 400, then a healthy /healthz;
//  3. fire a 3-request batch (three solver families on one example
//     scenario) through the Go client (dcnflow.Client);
//  4. assert every returned energy is bit-identical to the in-process
//     engine solve of the same spec — the exact code path `dcnflow run`
//     prints — and that /healthz answers with warm cache counters;
//  5. SIGTERM the server and require a graceful zero-status exit.
//
// Any divergence, refusal or hang (a 60s watchdog) exits non-zero.
package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"syscall"
	"time"

	"dcnflow"
)

const scenarioPath = "examples/scenarios/incast-leafspine.json"

var smokeSolvers = []string{dcnflow.SolverDCFSR, dcnflow.SolverSPMCF, dcnflow.SolverGreedyOnline}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "servesmoke:", err)
		os.Exit(1)
	}
}

func run() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	spec, err := dcnflow.LoadScenarioFile(scenarioPath)
	if err != nil {
		return err
	}

	// Build a real binary so the server process receives signals directly
	// (go run interposes a wrapper).
	dir, err := os.MkdirTemp("", "servesmoke")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	bin := filepath.Join(dir, "dcnflow")
	build := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/dcnflow")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		return fmt.Errorf("building dcnflow: %w", err)
	}

	srv := exec.CommandContext(ctx, bin, "serve", "-addr", "127.0.0.1:0")
	srv.Stderr = os.Stderr
	stdout, err := srv.StdoutPipe()
	if err != nil {
		return err
	}
	if err := srv.Start(); err != nil {
		return fmt.Errorf("starting serve: %w", err)
	}
	defer srv.Process.Kill() // no-op after a clean Wait

	// The server prints its resolved address once the listener is up.
	scanner := bufio.NewScanner(stdout)
	listen := regexp.MustCompile(`listening on (http://\S+)`)
	base := ""
	for scanner.Scan() {
		if m := listen.FindStringSubmatch(scanner.Text()); m != nil {
			base = m[1]
			break
		}
	}
	if base == "" {
		return fmt.Errorf("serve printed no listen banner (scan error: %v)", scanner.Err())
	}
	go func() { // keep draining so the server never blocks on stdout
		for scanner.Scan() {
		}
	}()
	fmt.Println("servesmoke: server up at", base)

	client := &dcnflow.Client{BaseURL: base}

	// Hostile input: a request of a few dozen bytes whose topology would
	// exhaust memory if generated. It must be refused as a bad request,
	// and the server must keep serving.
	hostile := *spec
	hostile.Topology = dcnflow.TopologySpec{Kind: "bcube", K: 2, L: 40, Capacity: spec.Topology.Capacity}
	_, err = client.Solve(ctx, dcnflow.ServeRequest{Scenario: hostile, Solver: dcnflow.SolverSPMCF})
	var serr *dcnflow.ServeError
	if !errors.As(err, &serr) || serr.Status != http.StatusBadRequest {
		return fmt.Errorf("oversized bcube spec: got %v, want status 400", err)
	}
	if health, err := client.Health(ctx); err != nil || health.Status != "ok" {
		return fmt.Errorf("healthz after the oversized spec: %+v, %v", health, err)
	}
	fmt.Println("servesmoke: oversized bcube spec refused with 400, server healthy")

	// The 3-request batch: three solver families on one scenario.
	reqs := make([]dcnflow.ServeRequest, len(smokeSolvers))
	for i, solver := range smokeSolvers {
		reqs[i] = dcnflow.ServeRequest{Scenario: *spec, Solver: solver}
	}
	results, err := client.SolveBatch(ctx, reqs)
	if err != nil {
		return fmt.Errorf("batch: %w", err)
	}

	// Reference energies: the same engine dispatch `dcnflow run` uses.
	eng := dcnflow.NewEngine(dcnflow.EngineOptions{})
	for i, solver := range smokeSolvers {
		if results[i].Error != "" {
			return fmt.Errorf("batch item %s failed: %s", solver, results[i].Error)
		}
		ref := eng.Solve(ctx, dcnflow.Request{Scenario: spec, Solver: solver})
		if ref.Err != nil {
			return fmt.Errorf("reference solve %s: %w", solver, ref.Err)
		}
		if results[i].Energy != ref.Solution.Energy {
			return fmt.Errorf("%s: served energy %v != dcnflow run energy %v",
				solver, results[i].Energy, ref.Solution.Energy)
		}
		fmt.Printf("servesmoke: %-14s energy %.6f == local (cache hit: %v)\n",
			solver, results[i].Energy, results[i].CacheHit)
	}

	health, err := client.Health(ctx)
	if err != nil {
		return fmt.Errorf("healthz: %w", err)
	}
	if health.Status != "ok" || health.Cache.Misses == 0 {
		return fmt.Errorf("unhealthy server: %+v", health)
	}

	// Graceful shutdown: SIGTERM must drain and exit 0.
	if err := srv.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("signalling serve: %w", err)
	}
	if err := srv.Wait(); err != nil {
		return fmt.Errorf("serve did not exit cleanly: %w", err)
	}
	fmt.Println("servesmoke: OK (batch matched, graceful shutdown)")
	return nil
}
