package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"dcnflow"
)

// serveParams defines the serving workload against `dcnflow serve`: an
// open-loop phase of Poisson arrivals at a fixed rate, then a closed-loop
// phase in which each of a fixed number of client connections sends its
// next request as soon as its last one returns.
type serveParams struct {
	name string
	k    int
	// The corpus: seedsPer uniform workloads of each flow count in ns, on
	// [1, 100] with sizes N(10, 3), each solved by every solver.
	ns       []int
	seedsPer int
	solvers  []string
	// rate is the open-loop phase's offered rate; that phase takes
	// openShare of the run, the closed-loop phase the rest.
	rate, openShare float64
	// tailQ is the closed-loop percentile reported as latency_ms_tail.
	tailQ           float64
	clients         int
	replayIntervals int
}

// serveFT8 is the request path a deployed service pays (decode, validate,
// engine cache, shortest-path routing, MCF scheduling, greedy admission,
// encode) with no Frank–Wolfe at all: solver-core changes should not move
// it, per-request overheads should. The end-to-end metrics come from the
// closed-loop phase (400-500 requests/s on a 2-core VM, so p99 has about
// 50 samples beyond it). The open-loop phase at a light 50 requests/s is
// reported but feeds no bounded metric: its latency is dominated by how
// fast an idle server and client wake up, which on that VM varied by
// 10-15% from run to run.
var serveFT8 = serveParams{
	name: "serve-ft8", k: 8,
	ns: []int{40, 80, 120}, seedsPer: 1,
	solvers: []string{dcnflow.SolverSPMCF, dcnflow.SolverGreedyOnline},
	rate:    50, openShare: 0.4, tailQ: 0.99,
	clients: 2, replayIntervals: 16,
}

// corpus returns the scenarios requests draw from.
func (p serveParams) corpus(seed int64) []dcnflow.ScenarioSpec {
	var out []dcnflow.ScenarioSpec
	for _, n := range p.ns {
		for j := 0; j < p.seedsPer; j++ {
			i := len(out)
			out = append(out, dcnflow.ScenarioSpec{
				Name:     fmt.Sprintf("%s-n%d-%d", p.name, n, j),
				Topology: fatTree(p.k),
				Workload: dcnflow.WorkloadSpec{
					Kind: "uniform", N: n, T0: 1, T1: 100, SizeMean: 10, SizeStddev: 3,
					Seed: derive(seed, p.name+"/corpus", i),
				},
				Model: paperModel,
				Seed:  derive(seed, p.name+"/rounding", i),
			})
		}
	}
	return out
}

// requests crosses the corpus with the solvers; request r solves scenario
// r / len(solvers).
func (p serveParams) requests(seed int64) []dcnflow.ServeRequest {
	var out []dcnflow.ServeRequest
	for _, spec := range p.corpus(seed) {
		for _, s := range p.solvers {
			out = append(out, dcnflow.ServeRequest{Scenario: spec, Solver: s})
		}
	}
	return out
}

// call is one scheduled request: send request req at offset at.
type call struct {
	at  time.Duration
	req int
}

// schedule returns the open-loop phase's Poisson arrivals over d, each
// drawing a request uniformly from nreq.
func (p serveParams) schedule(seed int64, d time.Duration, nreq int) []call {
	rng := rand.New(rand.NewSource(derive(seed, p.name+"/schedule", 0)))
	var out []call
	for at := time.Duration(0); ; {
		at += time.Duration(rng.ExpFloat64() / p.rate * float64(time.Second))
		if at >= d {
			return out
		}
		out = append(out, call{at: at, req: rng.Intn(nreq)})
	}
}

// closedReq is the request the closed-loop phase sends i-th.
func (p serveParams) closedReq(seed int64, i, nreq int) int {
	return int(uint64(derive(seed, p.name+"/closed", i)) % uint64(nreq))
}

// backend is a running serve API under test.
type backend struct {
	url string
	// stop shuts the server down and returns its peak resident set in MB.
	stop func() (float64, error)
}

// starter starts a backend serving the given solvers.
type starter func(ctx context.Context, solvers []string) (*backend, error)

var listenBanner = regexp.MustCompile(`listening on (http://\S+)`)

// spawnServer starts `bin serve` on a free loopback port (one engine
// shard, no admission control) and waits for its listen banner.
func spawnServer(bin string) starter {
	return func(ctx context.Context, solvers []string) (*backend, error) {
		cmd := exec.CommandContext(ctx, bin, "serve", "-addr", "127.0.0.1:0", "-solver", strings.Join(solvers, ","))
		cmd.Stderr = os.Stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		if err := cmd.Start(); err != nil {
			return nil, fmt.Errorf("starting %s: %w", bin, err)
		}
		banner := make(chan string, 1)
		drained := make(chan struct{})
		go func() {
			defer close(drained)
			sc := bufio.NewScanner(out)
			for sc.Scan() {
				if m := listenBanner.FindStringSubmatch(sc.Text()); m != nil {
					banner <- m[1]
					break
				}
			}
			// Keep reading so the server never blocks on its stdout.
			_, _ = io.Copy(io.Discard, out)
		}()
		kill := func() {
			_ = cmd.Process.Kill()
			<-drained
			_ = cmd.Wait()
		}
		var url string
		select {
		case url = <-banner:
		case <-drained:
			kill()
			return nil, errors.New("server exited before listening")
		case <-time.After(30 * time.Second):
			kill()
			return nil, errors.New("server printed no listen banner within 30 s")
		}
		stop := func() (float64, error) {
			if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
				kill()
				return math.NaN(), fmt.Errorf("signalling server: %w", err)
			}
			select {
			case <-drained:
			case <-time.After(30 * time.Second):
				_ = cmd.Process.Kill()
				<-drained
			}
			err := cmd.Wait()
			rss := math.NaN()
			if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
				rss = float64(ru.Maxrss) / 1024
			}
			if err != nil {
				return rss, fmt.Errorf("server exit: %w", err)
			}
			return rss, nil
		}
		return &backend{url: url, stop: stop}, nil
	}
}

// newClient returns a client holding at most conns connections.
func newClient(url string, conns int) (*dcnflow.Client, *http.Transport) {
	tp := &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns}
	return &dcnflow.Client{BaseURL: url, HTTPClient: &http.Client{Transport: tp, Timeout: 60 * time.Second}}, tp
}

// sample is one request of the timed phase.
type sample struct {
	// req indexes the request list; id numbers the sample across both
	// phases.
	req, id         int
	due, sent, done time.Time
	resp            *dcnflow.ServeResponse
	err             error
}

// latencyMS is the request's latency from its scheduled send; a failed
// request misses every limit.
func (s sample) latencyMS() float64 {
	if s.err != nil {
		return math.Inf(1)
	}
	return float64(s.done.Sub(s.due)) / 1e6
}

func runServeLoad(ctx context.Context, p serveParams, e *env, start starter) (*report, error) {
	rep := newReport(p.name)
	reqs := p.requests(e.seed)

	// Set-up: start the server and send every corpus request once, so its
	// engine holds the compiled topology and every instance.
	var (
		b      *backend
		client *dcnflow.Client
		tp     *http.Transport
	)
	setups := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		var err error
		if b, err = start(ctx, p.solvers); err != nil {
			return nil, err
		}
		client, tp = newClient(b.url, p.clients)
		for _, r := range reqs {
			if _, err := client.Solve(ctx, r); err != nil {
				_, _ = b.stop()
				return nil, fmt.Errorf("warming %s/%s: %w", r.Scenario.Name, r.Solver, err)
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupRepeats-1 {
			tp.CloseIdleConnections()
			if _, err := b.stop(); err != nil {
				return nil, err
			}
		}
	}
	setupMetric(rep, setups)
	stopped := false
	defer func() {
		if !stopped {
			_, _ = b.stop()
		}
	}()

	// Timed phase: open loop at a fixed rate, then closed loop.
	settle()
	openDur := time.Duration(float64(e.duration) * p.openShare)
	open, err := p.runOpen(ctx, client, reqs, p.schedule(e.seed, openDur, len(reqs)), e.tr)
	if err != nil {
		return nil, err
	}
	closed, elapsed, err := p.runClosed(ctx, client, reqs, e.seed, e.duration-openDur, len(open), e.tr)
	if err != nil {
		return nil, err
	}
	all := append(append([]sample(nil), open...), closed...)
	rep.attempted = len(all)

	var openLat, late, lat []float64
	for _, s := range open {
		openLat = append(openLat, s.latencyMS())
		late = append(late, float64(s.sent.Sub(s.due))/1e6)
	}
	for _, s := range closed {
		lat = append(lat, s.latencyMS())
	}
	latencyMetrics(rep, lat, p.tailQ)
	rep.notes["latency_ms_p50"] = fmt.Sprintf("(closed loop, %d connections, n=%d)", p.clients, len(lat))
	rep.e2e["throughput_per_s"] = float64(len(closed)) / elapsed.Seconds()
	rep.notes["throughput_per_s"] = fmt.Sprintf("(closed loop, %d connections: %d requests in %.2f s)", p.clients, len(closed), elapsed.Seconds())
	rep.extra = append(rep.extra, fmt.Sprintf("open loop at %g rps: latency p50 %.3f ms, p98 %.3f ms (n=%d), loadgen.late_ms_p99 %.3f",
		p.rate, median(openLat), percentile(openLat, 0.98), len(openLat), percentile(late, 0.99)))

	// The server's request counters must agree with the client.
	okClient := 0
	for _, s := range all {
		if s.err == nil {
			okClient++
		}
	}
	if text, err := client.Metrics(ctx); err != nil {
		rep.problem("/metrics: %v", err)
	} else if okServer := okSolves(text); okServer != okClient+len(reqs) {
		rep.problem("/metrics counts %d ok solves, the client %d (+%d warm-up)", okServer, okClient, len(reqs))
	}
	tp.CloseIdleConnections()
	stopped = true
	rss, err := b.stop()
	if err != nil {
		rep.problem("%v", err)
	}
	rep.e2e["max_rss_mb"] = rss
	rep.notes["max_rss_mb"] = "(server process)"

	// Output checks: every served energy must be bit-equal to an in-process
	// Engine solve of the same request and at least the scenario's lower
	// bound (from an in-process dcfsr solve, which also feeds energy_ratio).
	eng := dcnflow.NewEngine(dcnflow.EngineOptions{})
	corpus := p.corpus(e.seed)
	lbs := make([]float64, len(corpus))
	var flows []*dcnflow.FlowSet
	for i := range corpus {
		res := engineSolve(ctx, eng, dcnflow.Request{Scenario: &corpus[i], Solver: dcnflow.SolverDCFSR}, e.tr, replayReq, "check")
		if res.Err != nil {
			return nil, fmt.Errorf("lower bound of %s: %w", corpus[i].Name, res.Err)
		}
		lbs[i] = res.Solution.LowerBound
		inst, err := eng.Instance(&corpus[i])
		if err != nil {
			return nil, err
		}
		flows = append(flows, inst.Flows())
	}
	ref := make([]*dcnflow.Solution, len(reqs))
	for r := range reqs {
		res := engineSolve(ctx, eng, dcnflow.Request{Scenario: &reqs[r].Scenario, Solver: reqs[r].Solver}, e.tr, replayReq, "check")
		if res.Err != nil {
			return nil, fmt.Errorf("reference solve of %s/%s: %w", reqs[r].Scenario.Name, reqs[r].Solver, res.Err)
		}
		ref[r] = res.Solution
		inst, err := eng.Instance(&reqs[r].Scenario)
		if err != nil {
			return nil, err
		}
		sc := r / len(p.solvers)
		if bad := checkSchedule(e.tr, r, inst.Graph(), inst.Flows(), res.Solution.Schedule, inst.Model(), res.Solution.Energy, lbs[sc], rep); len(bad) > 0 {
			rep.problem("reference %s/%s: %s", reqs[r].Scenario.Name, reqs[r].Solver, strings.Join(bad, "; "))
		}
	}
	var ratios []float64
	for i, s := range all {
		switch {
		case s.err != nil:
			rep.failed++
			rep.problem("request %d (%s/%s): %v", i, reqs[s.req].Scenario.Name, reqs[s.req].Solver, s.err)
		case math.Float64bits(s.resp.Energy) != math.Float64bits(ref[s.req].Energy):
			rep.failed++
			rep.problem("request %d (%s/%s): served energy %v, in-process %v", i, reqs[s.req].Scenario.Name, reqs[s.req].Solver, s.resp.Energy, ref[s.req].Energy)
		default:
			ratios = append(ratios, s.resp.Energy/lbs[s.req/len(p.solvers)])
		}
	}
	rep.e2e["energy_ratio"] = mean(ratios)
	rep.notes["energy_ratio"] = fmt.Sprintf("(served energy / fractional lower bound, mean of %d)", len(ratios))

	// Serve-path breakdown: the server's own runtime and what the request
	// path adds around it.
	var server, overhead, traced, untraced []float64
	for _, s := range closed {
		if s.err != nil {
			continue
		}
		server = append(server, s.resp.RuntimeMS)
		overhead = append(overhead, float64(s.done.Sub(s.sent))/1e6-s.resp.RuntimeMS)
	}
	rep.extra = append(rep.extra,
		fmt.Sprintf("serve.server_ms p50 %.3f p99 %.3f, serve.overhead_ms p50 %.3f p99 %.3f (closed loop)",
			median(server), percentile(server, p.tailQ), median(overhead), percentile(overhead, p.tailQ)))

	if e.tr != nil {
		for _, s := range closed {
			if s.traced() {
				traced = append(traced, s.latencyMS())
			} else {
				untraced = append(untraced, s.latencyMS())
			}
		}
		engineLayers(e.tr, rep)
		in := layerInput{topo: fatTree(p.k), model: paperModel.Model(), flows: flows, intervals: p.replayIntervals}
		if err := replayLayers(ctx, in, e.tr, rep); err != nil {
			return nil, err
		}
		timedLayers(e.tr, rep, "client.request", 100*(median(traced)/median(untraced)-1),
			fmt.Sprintf("(median of %d traced vs %d untraced closed-loop requests)", len(traced), len(untraced)))
	}
	return rep, nil
}

// traced reports whether the request was one of the traced half.
func (s sample) traced() bool { return s.id%2 == 1 }

// runOpen fires the schedule open loop: p.clients workers take the calls
// in order, each waiting for its call's due time, so a slow response
// delays later sends and the delay counts in their latency. Sample i gets
// id i.
func (p serveParams) runOpen(ctx context.Context, client *dcnflow.Client, reqs []dcnflow.ServeRequest, calls []call, tr *tracer) ([]sample, error) {
	out := make([]sample, len(calls))
	jobs := make(chan int)
	t0 := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < p.clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				c := calls[i]
				due := t0.Add(c.at)
				if d := time.Until(due); d > 0 {
					timer := time.NewTimer(d)
					select {
					case <-timer.C:
					case <-ctx.Done():
						timer.Stop()
					}
				}
				out[i] = send(ctx, client, reqs, c.req, i, due, tr)
			}
		}()
	}
feed:
	for i := range calls {
		select {
		case jobs <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// runClosed keeps every connection busy for d: each worker sends the next
// request of the closed-loop sequence as soon as its last one returns.
// Sample ids continue from firstID. It returns the samples and the time
// from the start to the last response.
func (p serveParams) runClosed(ctx context.Context, client *dcnflow.Client, reqs []dcnflow.ServeRequest, seed int64, d time.Duration, firstID int, tr *tracer) ([]sample, time.Duration, error) {
	var (
		mu   sync.Mutex
		out  []sample
		next int
		wg   sync.WaitGroup
	)
	t0 := time.Now()
	for w := 0; w < p.clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(t0) < d && ctx.Err() == nil {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				s := send(ctx, client, reqs, p.closedReq(seed, i, len(reqs)), firstID+i, time.Time{}, tr)
				mu.Lock()
				out = append(out, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(t0)
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	sort.Slice(out, func(a, b int) bool { return out[a].id < out[b].id })
	return out, elapsed, nil
}

// send issues one request due at due (zero: now, as in a closed loop) and
// records it; every other sample id is traced in a traced run.
func send(ctx context.Context, client *dcnflow.Client, reqs []dcnflow.ServeRequest, req, id int, due time.Time, tr *tracer) sample {
	sent := time.Now()
	if due.IsZero() {
		due = sent
	}
	resp, err := client.Solve(ctx, reqs[req])
	s := sample{req: req, id: id, due: due, sent: sent, done: time.Now(), resp: resp, err: err}
	if s.traced() {
		recordRequest(tr, s, reqs[req].Solver)
	}
	return s
}

// recordRequest records a client.request span with its generator wait and
// the server's reported runtime as children.
func recordRequest(tr *tracer, s sample, solver string) {
	if tr == nil {
		return
	}
	attrs := map[string]any{"phase": "timed", "solver": solver}
	if s.err != nil {
		attrs["error"] = s.err.Error()
	}
	root := tr.add(0, s.id, "client.request", s.due, s.done, attrs)
	if s.sent.After(s.due) {
		tr.add(root, s.id, "client.wait", s.due, s.sent, nil)
	}
	if s.resp != nil {
		end := s.sent.Add(time.Duration(s.resp.RuntimeMS * 1e6))
		tr.add(root, s.id, "server.runtime", s.sent, end, map[string]any{"cache_hit": s.resp.CacheHit})
	}
}

// okSolves sums the server's dcnflow_requests_total counters of successful
// /v1/solve requests from its Prometheus text.
func okSolves(text string) int {
	total := 0
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, "dcnflow_requests_total{") ||
			!strings.Contains(line, `endpoint="solve"`) || !strings.Contains(line, `outcome="ok"`) {
			continue
		}
		fields := strings.Fields(line)
		if n, err := strconv.Atoi(fields[len(fields)-1]); err == nil {
			total += n
		}
	}
	return total
}
