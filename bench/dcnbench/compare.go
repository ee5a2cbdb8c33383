package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// benchSpec is the part of BENCHMARK.json that compare uses.
type benchSpec struct {
	Command    []string `json:"command"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func loadBenchSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(s.Command) == 0 || s.RunSeconds < 1 {
		return nil, fmt.Errorf("%s: no command or run_seconds", path)
	}
	return &s, nil
}

// runCompare is `dcnbench compare PARENT_DIR CHANGE_DIR`: it runs the
// benchmark command of BENCHMARK.json in both source trees, alternating
// which side goes first, pair i of both sides on the same seed, and prints
// per workload and end-to-end metric each side's median and quartiles, the
// pairs the change won, and a verdict (see judge). It also flags any rise in
// failed operations. The exit code is 1 when a metric regressed or failures
// rose.
func runCompare(ctx context.Context, args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	runs := fs.Int("runs", 10, "runs of each side per workload (at least 10)")
	only := fs.String("workload", "", "compare only this workload (default: every workload)")
	seed := fs.Int64("seed", 1, "seed of the first pair; pair i runs both sides on seed+i")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 || *runs < 10 {
		fmt.Fprintln(os.Stderr, "usage: dcnbench compare [-runs N>=10] [-workload NAME] [-seed S] PARENT_DIR CHANGE_DIR")
		return 2
	}
	dirs := [2]string{fs.Arg(0), fs.Arg(1)}
	spec, err := loadBenchSpec(filepath.Join(dirs[1], "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintf(os.Stderr, "dcnbench compare: %v\n", err)
		return 2
	}
	worst := 0
	for _, w := range spec.Workloads {
		if *only != "" && w.Name != *only {
			continue
		}
		// side 0 is the parent, side 1 the change.
		var (
			vals              [2]map[string][]float64
			attempted, failed [2]int
		)
		vals[0], vals[1] = map[string][]float64{}, map[string][]float64{}
		for i := 0; i < *runs; i++ {
			order := [2]int{0, 1}
			if i%2 == 1 {
				order = [2]int{1, 0}
			}
			for _, side := range order {
				res, err := benchRun(ctx, dirs[side], spec, w.Name, *seed+int64(i))
				if err != nil {
					fmt.Fprintf(os.Stderr, "dcnbench compare: %s in %s: %v\n", w.Name, dirs[side], err)
					return 2
				}
				attempted[side] += res.Attempted
				failed[side] += res.Failed
				for _, m := range spec.EndToEnd {
					mv, ok := res.Metrics[m.Name]
					if !ok {
						fmt.Fprintf(os.Stderr, "dcnbench compare: %s in %s reported no %s\n", w.Name, dirs[side], m.Name)
						return 2
					}
					vals[side][m.Name] = append(vals[side][m.Name], mv.Value)
				}
			}
		}
		fmt.Fprintf(stdout, "workload %s: %d pairs of %d s runs\n", w.Name, *runs, spec.RunSeconds)
		fmt.Fprintf(stdout, "  %-18s %-6s %-34s %-34s %-6s %s\n", "metric", "unit", "parent median [q1, q3]", "change median [q1, q3]", "wins", "verdict")
		for _, m := range spec.EndToEnd {
			p, c := vals[0][m.Name], vals[1][m.Name]
			j := judge(p, c, m.Better == "higher", m.Bound)
			fmt.Fprintf(stdout, "  %-18s %-6s %-34s %-34s %-6s %s (%+.1f%% vs bound %.0f%%, parent spread %.1f%%)\n",
				m.Name, m.Unit, spread(p), spread(c), fmt.Sprintf("%d/%d", j.wins, j.pairs), j.verdict,
				100*j.worse, 100*m.Bound, 100*j.spread)
			if j.verdict == verdictRegressed {
				worst = 1
			}
		}
		rate := func(side int) float64 { return float64(failed[side]) / float64(max(1, attempted[side])) }
		note := "no change"
		if rate(1) > rate(0) {
			note = "ERROR RATE UP"
			worst = 1
		}
		fmt.Fprintf(stdout, "  %-18s parent %d/%d, change %d/%d failed: %s\n", "error_rate", failed[0], attempted[0], failed[1], attempted[1], note)
	}
	return worst
}

// spread formats a sample's median and quartiles.
func spread(xs []float64) string {
	q1, q2, q3 := quartiles(xs)
	f := func(x float64) string { return strconv.FormatFloat(x, 'g', 5, 64) }
	return fmt.Sprintf("%s [%s, %s]", f(q2), f(q1), f(q3))
}

// benchRun runs the benchmark command once in dir, as the benchmark's
// contract prescribes, and returns its result line. A run whose checks
// failed still returns its result, so failures are counted.
func benchRun(ctx context.Context, dir string, spec *benchSpec, workload string, seed int64) (*result, error) {
	args := append(append([]string(nil), spec.Command[1:]...),
		"--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(spec.RunSeconds), "--trace", "0")
	cmd := exec.CommandContext(ctx, spec.Command[0], args...)
	cmd.Dir = dir
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	res, err := lastResult(out.Bytes())
	if err != nil {
		return nil, fmt.Errorf("%v (exit: %v)", err, runErr)
	}
	return res, nil
}
