package main

import (
	"context"
	"errors"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"dcnflow"
)

func TestRunRequiresCommand(t *testing.T) {
	if err := run(nil); err == nil {
		t.Fatal("missing command accepted")
	}
	if err := run([]string{"bogus"}); err == nil {
		t.Fatal("unknown command accepted")
	}
	if err := run([]string{"help"}); err != nil {
		t.Fatalf("help: %v", err)
	}
}

func TestRunExample1Command(t *testing.T) {
	if err := run([]string{"example1"}); err != nil {
		t.Fatalf("example1: %v", err)
	}
}

func TestRunFig2CommandTiny(t *testing.T) {
	err := run([]string{"fig2", "-alpha", "2", "-k", "4", "-runs", "1", "-n", "8", "-iters", "10"})
	if err != nil {
		t.Fatalf("fig2: %v", err)
	}
	err = run([]string{"fig2", "-alpha", "2", "-k", "4", "-runs", "1", "-n", "8", "-iters", "10", "-csv"})
	if err != nil {
		t.Fatalf("fig2 csv: %v", err)
	}
	if err := run([]string{"fig2", "-n", "not-a-number"}); err == nil {
		t.Fatal("bad -n accepted")
	}
}

func TestRunHardnessCommand(t *testing.T) {
	if err := run([]string{"hardness", "-m", "2", "-b", "6", "-runs", "2"}); err != nil {
		t.Fatalf("hardness: %v", err)
	}
}

func TestRunAblateCommands(t *testing.T) {
	if err := run([]string{"ablate"}); err == nil {
		t.Fatal("ablate without study accepted")
	}
	if err := run([]string{"ablate", "bogus"}); err == nil {
		t.Fatal("unknown study accepted")
	}
	if err := run([]string{"ablate", "rounding", "-runs", "2"}); err != nil {
		t.Fatalf("ablate rounding: %v", err)
	}
	if err := run([]string{"ablate", "online"}); err == nil || !strings.Contains(err.Error(), "unknown study") {
		t.Fatalf("ablate online: err = %v, want an unknown study (O1 runs as online -mode compare)", err)
	}
	if err := run([]string{"ablate", "exact", "-runs", "1"}); err != nil {
		t.Fatalf("ablate exact: %v", err)
	}
	if err := run([]string{"ablate", "lambda", "-runs", "1", "-n", "8", "-iters", "10"}); err != nil {
		t.Fatalf("ablate lambda: %v", err)
	}
	if err := run([]string{"ablate", "surrogate", "-runs", "1", "-n", "8", "-iters", "10"}); err != nil {
		t.Fatalf("ablate surrogate: %v", err)
	}
	if err := run([]string{"ablate", "rounding", "-badflag"}); err == nil {
		t.Fatal("bad flag accepted")
	}
}

// TestUsageListsEveryCommand guards the self-documentation contract: every
// registered subcommand must appear in the top-level usage text with its
// one-line summary, and the experiment commands must carry their DESIGN.md
// IDs.
func TestUsageListsEveryCommand(t *testing.T) {
	text := usage()
	for _, c := range commands() {
		if !strings.Contains(text, "\n  "+c.name) {
			t.Errorf("usage missing command %q", c.name)
		}
		if !strings.Contains(text, c.summary) {
			t.Errorf("usage missing summary for %q", c.name)
		}
		if c.ids != "" && !strings.Contains(text, "["+c.ids+"]") {
			t.Errorf("usage missing experiment ids %q for %q", c.ids, c.name)
		}
	}
	if !strings.Contains(text, "DESIGN.md") {
		t.Error("usage does not point at DESIGN.md")
	}
	// Experiment IDs on the CLI surface: the full DESIGN.md index.
	for _, id := range []string{"E1", "F2", "T2/T3", "A1", "A2", "A3", "O1"} {
		if !strings.Contains(text, id) {
			t.Errorf("usage missing experiment id %q", id)
		}
	}
}

// TestExperimentIDsAgreeAcrossDocs pins the documentation contract: the
// CLI usage text, DESIGN.md's per-experiment index and README.md's
// experiment table must all carry the full set of experiment IDs.
func TestExperimentIDsAgreeAcrossDocs(t *testing.T) {
	ids := []string{"E1", "F2", "T2/T3", "A1", "A2", "A3", "O1"}
	sources := map[string]string{"usage": usage()}
	for _, fname := range []string{"README.md", "DESIGN.md"} {
		data, err := os.ReadFile("../../" + fname)
		if err != nil {
			t.Fatalf("reading %s: %v", fname, err)
		}
		sources[fname] = string(data)
	}
	for where, text := range sources {
		for _, id := range ids {
			if !strings.Contains(text, id) {
				t.Errorf("%s missing experiment id %q", where, id)
			}
		}
	}
}

// TestSubcommandHelpSelfDocuments: each command's -h names the command and
// its summary and is not an error.
func TestSubcommandHelpSelfDocuments(t *testing.T) {
	for _, c := range commands() {
		args := []string{c.name, "-h"}
		if c.name == "ablate" {
			args = []string{c.name, "lambda", "-h"}
		}
		if err := run(args); err != nil {
			t.Errorf("%s -h: %v", c.name, err)
		}
	}
}

func TestRunOnlineCommand(t *testing.T) {
	if err := run([]string{"online", "-mode", "compare", "-workload", "uniform", "-n", "8", "-runs", "1", "-iters", "10"}); err != nil {
		t.Fatalf("online compare: %v", err)
	}
	if err := run([]string{"online", "-mode", "rolling", "-n", "10", "-iters", "10"}); err != nil {
		t.Fatalf("online rolling: %v", err)
	}
	if err := run([]string{"online", "-mode", "greedy", "-n", "10", "-iters", "10"}); err != nil {
		t.Fatalf("online greedy: %v", err)
	}
	if err := run([]string{"online", "-mode", "bogus"}); err == nil {
		t.Fatal("unknown mode accepted")
	}
	if err := run([]string{"online", "-mode", "compare", "-warm=false", "-n", "4", "-runs", "1"}); err == nil {
		t.Fatal("compare mode silently ignored -warm")
	}
	if err := run([]string{"online", "-mode", "compare", "-reject", "-n", "4", "-runs", "1"}); err == nil {
		t.Fatal("compare mode silently ignored -reject")
	}
	if err := run([]string{"online", "-mode", "compare", "-workload", "bogus", "-n", "4", "-runs", "1"}); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

// TestRunScenarioCommand exercises the scenario runner end to end: spec
// loading, solver dispatch, multi-solver runs, and the error paths.
func TestRunScenarioCommand(t *testing.T) {
	const spec = "../../examples/scenarios/uniform-fattree.json"
	if err := run([]string{"run", spec, "-solver", "dcfsr,sp-mcf,greedy-online"}); err != nil {
		t.Fatalf("run: %v", err)
	}
	// Flags-before-path order works too.
	if err := run([]string{"run", "-solver", "sp-mcf", spec}); err != nil {
		t.Fatalf("run (flags first): %v", err)
	}
	if err := run([]string{"run"}); err == nil {
		t.Fatal("missing spec path accepted")
	}
	if err := run([]string{"run", spec, "-solver", "bogus"}); err == nil {
		t.Fatal("unknown solver accepted")
	}
	if err := run([]string{"run", "../../testdata/missing.json"}); err == nil {
		t.Fatal("missing spec file accepted")
	}
	if err := run([]string{"run", spec, "extra-arg"}); err == nil {
		t.Fatal("extra positional argument accepted")
	}
	if err := run([]string{"run", "-solver", "sp-mcf", spec, "extra-arg"}); err == nil {
		t.Fatal("extra positional argument accepted in flags-first form")
	}
	// A timeout that has already expired must surface the context error.
	err := run([]string{"run", spec, "-solver", "dcfsr", "-timeout", "1ns"})
	if err == nil || !strings.Contains(err.Error(), "context deadline exceeded") {
		t.Fatalf("expired -timeout returned %v, want context deadline exceeded", err)
	}
}

// TestRunScenarioAllSolversTiny runs every registered solver through the
// CLI on a spec small enough for the exact enumerator.
func TestRunScenarioAllSolversTiny(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/tiny.json"
	spec := `{
  "name": "tiny",
  "topology": {"kind": "fattree", "k": 4, "capacity": 1000},
  "workload": {"kind": "uniform", "n": 6, "t0": 1, "t1": 100, "size_mean": 10, "size_stddev": 3, "seed": 42},
  "model": {"mu": 1, "alpha": 2, "c": 1000},
  "seed": 1
}`
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"run", path, "-solver", "all"}); err != nil {
		t.Fatalf("run -solver all: %v", err)
	}
}

// TestRunUsageListsEverySolver guards the self-documentation contract of
// the scenario runner: `dcnflow run -h` must name every registered solver
// (cmd/doccheck enforces the same by executing the binary).
func TestRunUsageListsEverySolver(t *testing.T) {
	old := os.Stderr
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stderr = w
	runErr := run([]string{"run", "-h"})
	w.Close()
	os.Stderr = old
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if runErr != nil {
		t.Fatalf("run -h: %v", runErr)
	}
	for _, name := range dcnflow.SolverNames() {
		if !strings.Contains(string(out), name) {
			t.Errorf("run -h missing solver %q:\n%s", name, out)
		}
	}
}

// The solver-name documentation contract (README.md and DESIGN.md mention
// every registered solver) is owned by cmd/doccheck: its solverDocs check
// runs in CI and its own tests gate the repository docs, so it is not
// duplicated here.

func TestServeUsageListsEverySolver(t *testing.T) {
	old := os.Stderr
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stderr = w
	runErr := run([]string{"serve", "-h"})
	w.Close()
	os.Stderr = old
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if runErr != nil {
		t.Fatalf("serve -h: %v", runErr)
	}
	for _, name := range dcnflow.SolverNames() {
		if !strings.Contains(string(out), name) {
			t.Errorf("serve -h missing solver %q:\n%s", name, out)
		}
	}
}

// TestServeCommandEndToEnd boots the serve subcommand on a free port,
// solves one scenario through the HTTP client, checks the energy against
// the in-process solve, and shuts the server down gracefully via
// SIGINT — the same sequence `make serve-smoke` drives as a subprocess.
// It passes -cache 0, which selects the default capacity, and requires
// the banner to report the engine's 64 entries rather than the flag.
func TestServeCommandEndToEnd(t *testing.T) {
	r, w := io.Pipe()
	defer w.Close() // ends the stdout drain below
	serveDone := make(chan error, 1)
	go func() { serveDone <- runServe([]string{"-addr", "127.0.0.1:0", "-cache", "0"}, w) }()

	// The listen line is printed once the listener is up.
	buf := make([]byte, 4096)
	n, err := r.Read(buf)
	if err != nil {
		t.Fatalf("reading serve banner: %v", err)
	}
	m := regexp.MustCompile(`listening on (http://[^ ]+)`).FindStringSubmatch(string(buf[:n]))
	if m == nil {
		t.Fatalf("no listen banner in %q", buf[:n])
	}
	if !strings.Contains(string(buf[:n]), "cache 64") {
		t.Fatalf("banner %q does not report the engine's cache capacity 64", buf[:n])
	}
	go func() { // drain any further stdout so the server never blocks on the pipe
		for {
			if _, err := r.Read(buf); err != nil {
				return
			}
		}
	}()

	spec := dcnflow.ScenarioSpec{
		Topology: dcnflow.TopologySpec{Kind: "line", K: 3, Capacity: 100},
		Workload: dcnflow.WorkloadSpec{Kind: "shuffle", Hosts: 2, Deadline: 6, Size: 2},
		Model:    dcnflow.ModelSpec{Mu: 1, Alpha: 2, C: 100},
		Seed:     1,
	}
	client := &dcnflow.Client{BaseURL: m[1]}
	resp, err := client.Solve(context.Background(), dcnflow.ServeRequest{Scenario: spec, Solver: dcnflow.SolverSPMCF})
	if err != nil {
		t.Fatalf("served solve: %v", err)
	}
	inst, err := spec.Instance()
	if err != nil {
		t.Fatal(err)
	}
	want, err := dcnflow.Solve(context.Background(), dcnflow.SolverSPMCF, inst, dcnflow.WithSeed(spec.Seed))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Energy != want.Energy {
		t.Fatalf("served energy %v differs from direct %v", resp.Energy, want.Energy)
	}

	// Graceful shutdown: SIGINT must drain and return nil.
	p, err := os.FindProcess(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-serveDone:
		if err != nil {
			t.Fatalf("serve exited with %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("serve did not shut down after SIGINT")
	}
}

func TestRunWorkloadCommand(t *testing.T) {
	if err := run([]string{"workload", "-n", "5", "-k", "4"}); err != nil {
		t.Fatalf("workload: %v", err)
	}
}

func TestRunTraceCommand(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/trace.csv"
	data := "id,src,dst,release,deadline,size\n0,16,17,0,10,5\n1,17,18,2,12,3\n"
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []string{"dcfsr", "sp-mcf", "greedy-online", "ecmp-mcf"} {
		if err := run([]string{"trace", "-file", path, "-scheme", scheme, "-k", "4"}); err != nil {
			t.Fatalf("trace %s: %v", scheme, err)
		}
	}
	if err := run([]string{"trace", "-file", path, "-gantt"}); err != nil {
		t.Fatalf("trace gantt: %v", err)
	}
	// Only registered names dispatch; the rs/spmcf/online shorthands are
	// not registered names.
	for _, scheme := range []string{"rs", "spmcf", "online", "bogus"} {
		err := run([]string{"trace", "-file", path, "-scheme", scheme})
		if !errors.Is(err, dcnflow.ErrUnknownSolver) {
			t.Fatalf("trace -scheme %s: err = %v, want ErrUnknownSolver", scheme, err)
		}
	}
	if err := run([]string{"trace", "-file", path, "-topo", "bogus"}); err == nil {
		t.Fatal("unknown topology accepted")
	}
	if err := run([]string{"trace", "-file", dir + "/missing.csv"}); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestRunCompareCommand(t *testing.T) {
	if err := run([]string{"compare", "-n", "10", "-k", "4", "-iters", "10"}); err != nil {
		t.Fatalf("compare: %v", err)
	}
	if err := run([]string{"compare", "-n", "10", "-k", "4", "-iters", "10", "-idle-mult", "3"}); err != nil {
		t.Fatalf("compare with idle power: %v", err)
	}
}

func TestRunTopoCommand(t *testing.T) {
	for _, kind := range []string{"fattree", "bcube", "leafspine", "line", "parallel"} {
		if err := run([]string{"topo", "-kind", kind, "-k", "4"}); err != nil {
			t.Fatalf("topo %s: %v", kind, err)
		}
	}
	if err := run([]string{"topo", "-kind", "bogus"}); err == nil {
		t.Fatal("unknown topology accepted")
	}
}

func TestParseInts(t *testing.T) {
	got, err := parseInts("1, 2,3")
	if err != nil || len(got) != 3 || got[2] != 3 {
		t.Fatalf("parseInts = %v, %v", got, err)
	}
	if _, err := parseInts("1,x"); err == nil {
		t.Fatal("bad int accepted")
	}
	if !strings.Contains(usage(), "fig2") {
		t.Fatal("usage missing fig2")
	}
}

// TestRunSweepCommand exercises the sweep runner end to end: spec loading,
// worker pool, JSONL output, solver override, and the error paths.
func TestRunSweepCommand(t *testing.T) {
	const spec = "../../examples/sweeps/smoke.json"
	dir := t.TempDir()
	if err := run([]string{"sweep", spec, "-workers", "2", "-solver", "sp-mcf,always-on", "-out", dir + "/out.jsonl"}); err != nil {
		t.Fatalf("sweep: %v", err)
	}
	data, err := os.ReadFile(dir + "/out.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(string(data), "\n"); got != 8 {
		t.Fatalf("JSONL lines = %d, want 8 (2 topologies x 2 seeds x 2 solvers)", got)
	}
	// Flags-before-path order works too.
	if err := run([]string{"sweep", "-workers", "2", "-solver", "sp-mcf", spec}); err != nil {
		t.Fatalf("sweep (flags first): %v", err)
	}
	if err := run([]string{"sweep"}); err == nil {
		t.Fatal("missing spec path accepted")
	}
	if err := run([]string{"sweep", spec, "-solver", "bogus"}); err == nil {
		t.Fatal("unknown solver override accepted")
	}
	if err := run([]string{"sweep", spec, "extra-arg"}); err == nil {
		t.Fatal("extra positional argument accepted")
	}
	if err := run([]string{"sweep", "../../testdata/missing.json"}); err == nil {
		t.Fatal("missing spec file accepted")
	}
	err = run([]string{"sweep", spec, "-timeout", "1ns"})
	if err == nil || !strings.Contains(err.Error(), "context deadline exceeded") {
		t.Fatalf("expired -timeout returned %v, want context deadline exceeded", err)
	}
}

// TestRunSweepCommandDeterministicAcrossWorkers is the CLI half of the
// byte-determinism acceptance criterion: a >= 24-cell grid solved at
// -workers 1 and -workers 8 writes identical JSONL bodies once the
// runtime_ms field is normalised away.
func TestRunSweepCommandDeterministicAcrossWorkers(t *testing.T) {
	dir := t.TempDir()
	spec := dir + "/grid.json"
	if err := os.WriteFile(spec, []byte(`{
  "topologies": [{"kind": "line", "k": 4, "capacity": 1000}, {"kind": "star", "k": 4, "capacity": 1000}],
  "workloads": [{"kind": "uniform", "n": 4, "t0": 1, "t1": 30, "size_mean": 3, "size_stddev": 1}],
  "model": {"mu": 1, "alpha": 2, "c": 1000},
  "seeds": [1, 2, 3],
  "solvers": ["dcfsr", "sp-mcf", "ecmp-mcf", "always-on"]
}`), 0o644); err != nil {
		t.Fatal(err)
	}
	runtimeMS := regexp.MustCompile(`"runtime_ms":[0-9eE.+-]+`)
	out := func(workers string) string {
		t.Helper()
		path := dir + "/out-" + workers + ".jsonl"
		if err := run([]string{"sweep", spec, "-workers", workers, "-iters", "15", "-out", path}); err != nil {
			t.Fatalf("sweep -workers %s: %v", workers, err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return runtimeMS.ReplaceAllString(string(data), `"runtime_ms":0`)
	}
	one, eight := out("1"), out("8")
	if got := strings.Count(one, "\n"); got != 24 {
		t.Fatalf("JSONL lines = %d, want 24", got)
	}
	if one != eight {
		t.Errorf("sweep JSONL differs between -workers 1 and -workers 8:\n%s\nvs\n%s", one, eight)
	}
}

// TestSweepUsageListsEverySolver guards the self-documentation contract of
// the sweep runner: `dcnflow sweep -h` must name every registered solver
// (cmd/doccheck enforces the same by executing the binary).
func TestSweepUsageListsEverySolver(t *testing.T) {
	old := os.Stderr
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stderr = w
	runErr := run([]string{"sweep", "-h"})
	w.Close()
	os.Stderr = old
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if runErr != nil {
		t.Fatalf("sweep -h: %v", runErr)
	}
	for _, name := range dcnflow.SolverNames() {
		if !strings.Contains(string(out), name) {
			t.Errorf("sweep -h missing solver %q:\n%s", name, out)
		}
	}
}
