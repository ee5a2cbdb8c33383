// Command dcnbench is the repository's benchmark. Four workloads drive
// dcnflow from the outside, the way a user does: through dcnflow.Engine,
// the rolling online scheduler's Arrive, a real `dcnflow serve` process,
// and the public functions of the internal layers. Every output is checked
// (simulator replay, energy against the lower bound, served energies
// against in-process solves), and the run reports its end-to-end metrics,
// or, with -trace 1, the per-layer metrics derived from spans the benchmark
// records around its own calls into each layer.
//
// Run it through bench/run.sh from the repository root, which builds this
// command and the dcnflow binary first:
//
//	bash bench/run.sh -seed 1                                  # every workload, one child process each
//	bash bench/run.sh -workload paper-k8 -seed 1 -seconds 20 -trace 0
//	bash bench/run.sh compare PARENT_DIR CHANGE_DIR            # A/B verdicts, see compare.go
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is 0 only when
// every output check passed.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit. The lists below are the
// ones BENCHMARK.json declares (TestMetricListsMatchBenchmarkJSON keeps the
// two in step).
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees, reported untraced.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"latency_ms_p50", "ms"},
	{"latency_ms_tail", "ms"},
	{"energy_ratio", "ratio"},
	{"max_rss_mb", "MB"},
}

// perLayer are the single-layer metrics a traced run reports. Every one is
// measured on every workload: the layer replays run on each workload's own
// generated inputs.
var perLayer = []metricDef{
	{"graph.compile_ms", "ms"},
	{"graph.sssp_heap_us", "us"},
	{"graph.sssp_dial_us", "us"},
	{"mcfsolve.solve_ms_p50", "ms"},
	{"mcfsolve.fw_iters_per_solve", "count"},
	{"mcfsolve.capped_ratio", "ratio"},
	{"mcfsolve.workers2_speedup", "ratio"},
	{"core.relax_ms_p50", "ms"},
	{"core.round_ms_p50", "ms"},
	{"core.intervals_per_solve", "count"},
	{"core.round_attempts_mean", "count"},
	{"core.dcfs_ms_p50", "ms"},
	{"baseline.sp_route_ms_p50", "ms"},
	{"schedule.energy_ms_p50", "ms"},
	{"sim.replay_ms_p50", "ms"},
	{"sim.deadline_misses", "count"},
	{"sim.capacity_violations", "count"},
	{"engine.solve_ms_p50", "ms"},
	{"engine.cache_hit_ratio", "ratio"},
	{"trace.overhead_pct", "%"},
	{"trace.coverage_pct", "%"},
}

// env is what one workload run is given.
type env struct {
	seed     int64
	duration time.Duration
	// tr records spans; nil in an untraced run.
	tr        *tracer
	serverBin string
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := realMain(ctx, os.Args[1:], os.Stdout)
	stop()
	os.Exit(code)
}

func realMain(ctx context.Context, args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("dcnbench", flag.ContinueOnError)
	name := fs.String("workload", "", "run one workload in this process (default: every workload, each in a child process)")
	seed := fs.Int64("seed", 1, "workload seed; every input is derived from it")
	seconds := fs.Int("seconds", 20, "length of the measured phase of each workload, in seconds")
	trace := fs.Int("trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
	traceOut := fs.String("trace-out", "", "JSONL span file of a traced run (default .bench_build/trace-WORKLOAD-seedN.jsonl)")
	serverBin := fs.String("server-bin", filepath.Join(".bench_build", "bin", "dcnflow"), "dcnflow binary the serve workload starts")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.Arg(0) == "compare" {
		return runCompare(ctx, fs.Args()[1:], stdout)
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "dcnbench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "dcnbench: -trace must be 0 or 1")
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "dcnbench: -seconds must be at least 1")
		return 2
	}
	if *name == "" {
		return runAll(ctx, args, stdout)
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "dcnbench: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	e := &env{seed: *seed, duration: time.Duration(*seconds) * time.Second, serverBin: *serverBin}
	if *trace == 1 {
		e.tr = newTracer()
	}
	rep, err := w.run(ctx, e)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dcnbench: %s: %v\n", w.name, err)
		return 1
	}
	if e.tr != nil {
		path := *traceOut
		if path == "" {
			path = filepath.Join(".bench_build", fmt.Sprintf("trace-%s-seed%d.jsonl", w.name, *seed))
		}
		if err := e.tr.writeJSONL(path); err != nil {
			fmt.Fprintf(os.Stderr, "dcnbench: %s: %v\n", w.name, err)
			return 1
		}
		rep.extra = append(rep.extra, fmt.Sprintf("spans: %d written to %s", len(e.tr.spans), path))
	}
	res, err := rep.result(e.tr != nil)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dcnbench: %s: %v\n", w.name, err)
		return 1
	}
	rep.print(stdout, e.tr != nil)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dcnbench: %s: encoding result: %v\n", w.name, err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runAll runs every workload in its own child process (so max_rss_mb is
// per workload), passing the child its flags, and prints each child's
// report followed by one combined JSON line whose metric names are
// prefixed with the workload name.
func runAll(ctx context.Context, args []string, stdout io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "dcnbench: %v\n", err)
		return 1
	}
	all := result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range workloads {
		var out bytes.Buffer
		cmd := exec.CommandContext(ctx, self, append(append([]string(nil), args...), "-workload", w.name)...)
		cmd.Stdout = io.MultiWriter(stdout, &out)
		cmd.Stderr = os.Stderr
		runErr := cmd.Run()
		child, perr := lastResult(out.Bytes())
		if perr != nil {
			fmt.Fprintf(os.Stderr, "dcnbench: %s: %v (run: %v)\n", w.name, perr, runErr)
			return 1
		}
		all.Correct = all.Correct && child.Correct && runErr == nil
		all.Attempted += child.Attempted
		all.Failed += child.Failed
		for k, m := range child.Metrics {
			all.Metrics[w.name+"/"+k] = m
		}
	}
	line, err := json.Marshal(all)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dcnbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !all.Correct {
		return 1
	}
	return 0
}

// lastResult decodes the JSON result on the last non-empty line of out.
func lastResult(out []byte) (*result, error) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	if last == "" {
		return nil, errors.New("no result line")
	}
	var r result
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		return nil, fmt.Errorf("decoding result line: %w", err)
	}
	return &r, nil
}

// report is what one workload run measured and found.
type report struct {
	workload  string
	attempted int
	failed    int
	// problems lists failed output checks and errors, most recent last
	// (capped so a systematic failure cannot flood the output).
	problems []string
	// e2e and layers hold the metric values by name; notes annotates
	// them (sample counts, percentiles) in the printed report.
	e2e    map[string]float64
	layers map[string]float64
	notes  map[string]string
	// extra holds workload-specific diagnostics, printed only.
	extra []string
}

func newReport(name string) *report {
	return &report{
		workload: name,
		e2e:      map[string]float64{},
		// The simulator counters accumulate from zero across checks.
		layers: map[string]float64{"sim.deadline_misses": 0, "sim.capacity_violations": 0},
		notes:  map[string]string{},
	}
}

const maxProblems = 20

// problem records a failed check or operation.
func (r *report) problem(format string, args ...any) {
	if len(r.problems) < maxProblems {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// result assembles the JSON result: the end-to-end metrics untraced, the
// per-layer metrics traced. A metric missing from the report is an error
// in the benchmark, not in the program under test.
func (r *report) result(traced bool) (*result, error) {
	defs, vals := endToEnd, r.e2e
	if traced {
		defs, vals = perLayer, r.layers
	}
	res := &result{
		Correct:   r.failed == 0 && len(r.problems) == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			// JSON has no such numbers; failed operations or a run too short
			// to sample produce them, and either makes the run incorrect.
			r.problem("metric %s is %v", d.name, v)
			res.Correct = false
			v = 0
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return res, nil
}

// print writes the human-readable report.
func (r *report) print(w io.Writer, traced bool) {
	mode := "untraced"
	defs, vals := endToEnd, r.e2e
	if traced {
		mode = "traced"
		defs, vals = perLayer, r.layers
	}
	fmt.Fprintf(w, "workload %s (%s)\n", r.workload, mode)
	for _, d := range defs {
		fmt.Fprintf(w, "  %-28s %14s %-6s %s\n", d.name, strconv.FormatFloat(vals[d.name], 'g', 6, 64), d.unit, r.notes[d.name])
	}
	rate := 0.0
	if r.attempted > 0 {
		rate = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "  %-28s %14s %-6s (%d of %d operations failed)\n", "error_rate", strconv.FormatFloat(rate, 'g', 6, 64), "ratio", r.failed, r.attempted)
	for _, line := range r.extra {
		fmt.Fprintf(w, "  %s\n", line)
	}
	if len(r.problems) == 0 {
		fmt.Fprintln(w, "  checks: all passed")
		return
	}
	fmt.Fprintf(w, "  checks: %d problem(s)\n", len(r.problems))
	for _, p := range r.problems {
		fmt.Fprintf(w, "    %s\n", p)
	}
}
