package dcnflow

import (
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"dcnflow/internal/core"
	"dcnflow/internal/graph"
	"dcnflow/internal/mcfsolve"
	"dcnflow/internal/sweep"
)

// ErrBadRequest reports an Engine request (or a serve-API request body)
// that failed validation; the wrapped message names the problem.
var ErrBadRequest = errors.New("dcnflow: invalid request")

// EngineOptions configures NewEngine. The zero value serves from a
// 64-entry compiled-instance cache with GOMAXPROCS batch workers.
type EngineOptions struct {
	// CacheSize bounds the compiled-instance LRU (distinct topology+model
	// pairs held warm); <= 0 selects 64.
	CacheSize int
	// Workers bounds concurrent SolveBatch requests; <= 0 selects
	// GOMAXPROCS. Purely a wall-clock lever: batch results are identical
	// for every value.
	Workers int
}

// Engine is the compile-once/solve-many front door of the library: it owns
// a bounded LRU cache of CompiledInstances (per topology+model: the built
// topology, the compiled graph artifacts and the generated-workload
// instances on it), a bounded registry of pooled per-solver scratch
// (reusable F-MCF solvers keyed by compiled graph, model and solver
// options), and a deterministic batch executor. Repeated and concurrent
// solves of related scenarios — one data-center topology, a stream of flow
// batches — therefore skip topology generation, graph compilation and
// solver-scratch allocation entirely.
//
// Determinism contract: an Engine never changes results. Every Solve
// returns bit-identical output to a direct Solve of the same scenario with
// the same options, whether the cache hits or misses, and SolveBatch
// results are independent of the worker count. The contract is enforced
// by TestEngineMatchesDirectSolve across all built-in solver families
// and by the -race engine tests.
//
// An Engine is safe for concurrent use; `dcnflow serve` exposes one over
// HTTP.
type Engine struct {
	workers int

	mu      sync.Mutex
	cap     int
	entries map[string]*list.Element // topology+model key -> *ceEntry element
	ll      *list.List

	pools *enginePools

	stats struct {
		hits, misses, evictions uint64
	}
}

// EngineStats is a point-in-time snapshot of the engine's cache counters
// (exposed by GET /healthz on the serve API).
type EngineStats struct {
	// Size and Capacity describe the compiled-instance LRU.
	Size     int `json:"size"`
	Capacity int `json:"capacity"`
	// Hits and Misses count compiled-instance lookups; Evictions counts
	// entries dropped by the LRU bound.
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
}

// NewEngine builds an Engine.
func NewEngine(opts EngineOptions) *Engine {
	size := opts.CacheSize
	if size <= 0 {
		size = 64
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Engine{
		workers: workers,
		cap:     size,
		entries: make(map[string]*list.Element),
		ll:      list.New(),
		pools:   newEnginePools(2 * size),
	}
}

// Request is one unit of Engine work: a problem to solve with one
// built-in solver. Exactly one of Scenario and Instance must be set —
// scenarios resolve through the engine's compiled-instance cache, while
// pre-built instances bypass it but still draw pooled solver scratch.
type Request struct {
	// Scenario declares the problem; the engine compiles and caches its
	// topology+model pair and the generated workload instance. The
	// scenario's Seed seeds the solver (applied after Options, exactly as
	// `dcnflow run` does).
	Scenario *ScenarioSpec
	// Instance supplies a pre-built problem instead of a scenario.
	Instance *Instance
	// Solver names the solver family (SolverNames).
	Solver string
	// Timeout, when positive, bounds this request's solve (the context the
	// solver sees is cancelled after this long).
	Timeout time.Duration
	// Options configures the solver.
	Options []SolveOption
}

// Result is one Request's outcome. Exactly one of Solution and Err is
// non-nil except for batch requests abandoned by a cancelled context,
// which carry the context error in Err.
type Result struct {
	// Solution is the solver's outcome when Err is nil.
	Solution *Solution
	// Err records a failed request (invalid request, unknown solver,
	// infeasible instance, cancelled context). A failed request never
	// aborts a batch.
	Err error
	// CacheHit reports whether the request's topology+model pair was
	// served from the compiled-instance cache (always false for Instance
	// requests).
	CacheHit bool
	// Runtime is this request's wall-clock time inside the engine (cache
	// resolution + solve) — per request even inside a batch. The one
	// nondeterministic field.
	Runtime time.Duration
}

// ceEntry is one LRU slot: the build runs under once (losers of the
// insertion race wait on it), so a topology is generated at most once per
// cache residency however many requests arrive together.
type ceEntry struct {
	key  string
	once sync.Once
	ci   *CompiledInstance
	err  error
}

// CompiledInstance is one cached compilation of a topology+model pair: the
// generated topology, whose graph is compiled (flat CSR view, pooled
// shortest-path scratch) when the entry is built, and the instances of
// workloads generated on it. Instances are immutable and shared by every
// solve that hits the cache.
type CompiledInstance struct {
	topo  *Topology
	model PowerModel

	imu    sync.Mutex
	insts  map[string]*instEntry
	iorder []string
	icap   int
}

// Topology returns the cached generated topology.
func (ci *CompiledInstance) Topology() *Topology { return ci.topo }

// Model returns the power model the compilation is keyed by.
func (ci *CompiledInstance) Model() PowerModel { return ci.model }

// instEntry caches one workload's built Instance on a CompiledInstance,
// plus the shared lower bounds computed on it.
type instEntry struct {
	once sync.Once
	inst *Instance
	err  error

	lmu sync.Mutex
	// lbs keys each lower bound by the only options that can change its
	// value, the solver options (seeds, rounding budgets, parallelism and
	// warm starts never reach the offline relaxation).
	lbs map[SolverOptions]*lbMemo
}

// lbMemo memoises one lower bound. Unlike a sync.Once it does not memoise
// context cancellation: a request that times out while computing the bound
// must not poison the cache for later, healthier requests.
type lbMemo struct {
	mu   sync.Mutex
	done bool
	lb   float64
	err  error
}

// topoModelKey is the canonical compiled-instance cache key: the
// topology+model fragment of the spec, canonically marshalled. Scenario
// name, workload and seed are excluded — they never change the compiled
// artifacts.
func topoModelKey(spec *ScenarioSpec) string {
	b, err := json.Marshal(struct {
		T TopologySpec `json:"t"`
		M ModelSpec    `json:"m"`
	}{spec.Topology, spec.Model})
	if err != nil {
		// Specs are plain data; Marshal cannot fail on them.
		panic(fmt.Sprintf("dcnflow: marshalling cache key: %v", err))
	}
	return string(b)
}

// workloadKey is the canonical per-compilation instance cache key.
func workloadKey(spec *ScenarioSpec) string {
	b, err := json.Marshal(spec.Workload)
	if err != nil {
		panic(fmt.Sprintf("dcnflow: marshalling workload key: %v", err))
	}
	return string(b)
}

// Compile resolves the spec's topology+model pair through the engine's
// cache, building (topology generation + graph compilation) at most once
// per cache residency.
func (e *Engine) Compile(spec *ScenarioSpec) (*CompiledInstance, error) {
	ci, _, err := e.compile(spec)
	return ci, err
}

func (e *Engine) compile(spec *ScenarioSpec) (*CompiledInstance, bool, error) {
	if err := spec.Validate(); err != nil {
		return nil, false, err
	}
	key := topoModelKey(spec)
	e.mu.Lock()
	el, hit := e.entries[key]
	if hit {
		e.ll.MoveToFront(el)
		e.stats.hits++
	} else {
		e.stats.misses++
		el = e.ll.PushFront(&ceEntry{key: key})
		e.entries[key] = el
		for e.ll.Len() > e.cap {
			old := e.ll.Back()
			e.ll.Remove(old)
			delete(e.entries, old.Value.(*ceEntry).key)
			e.stats.evictions++
		}
	}
	e.mu.Unlock()
	ent := el.Value.(*ceEntry)
	ent.once.Do(func() {
		ent.ci, ent.err = buildCompiledInstance(spec)
	})
	return ent.ci, hit, ent.err
}

func buildCompiledInstance(spec *ScenarioSpec) (*CompiledInstance, error) {
	top, err := spec.Topology.Build()
	if err != nil {
		return nil, err
	}
	// The compiled bundle is cached on the graph itself, so building it
	// here, under the entry's once and outside the cache lock, spares
	// every solve on the entry the compile.
	graph.Compile(top.Graph)
	return &CompiledInstance{
		topo:  top,
		model: spec.Model.Model(),
		insts: make(map[string]*instEntry),
		icap:  64,
	}, nil
}

// instance resolves the spec's workload to a built Instance on the
// compilation, generating each distinct workload at most once.
func (ci *CompiledInstance) instance(spec *ScenarioSpec) (*Instance, *instEntry, error) {
	key := workloadKey(spec)
	ci.imu.Lock()
	ent, ok := ci.insts[key]
	if !ok {
		ent = &instEntry{lbs: make(map[SolverOptions]*lbMemo)}
		ci.insts[key] = ent
		ci.iorder = append(ci.iorder, key)
		if len(ci.iorder) > ci.icap {
			delete(ci.insts, ci.iorder[0])
			ci.iorder = ci.iorder[1:]
		}
	}
	ci.imu.Unlock()
	ent.once.Do(func() {
		fs, err := spec.Workload.Build(ci.topo)
		if err != nil {
			ent.err = err
			return
		}
		ent.inst, ent.err = NewInstanceBuilder().Topology(ci.topo).Flows(fs).Model(ci.model).Build()
	})
	return ent.inst, ent, ent.err
}

// Instance resolves a scenario to its validated Instance through the
// engine's caches: a warm engine hands back the same shared Instance for
// every request naming the same topology, workload and model.
func (e *Engine) Instance(spec *ScenarioSpec) (*Instance, error) {
	ci, _, err := e.compile(spec)
	if err != nil {
		return nil, err
	}
	inst, _, err := ci.instance(spec)
	return inst, err
}

// Solve runs one request. It never panics on malformed requests — invalid
// specs, unknown solvers and solver failures all come back in Result.Err.
func (e *Engine) Solve(ctx context.Context, req Request) Result {
	start := time.Now()
	done := func(r Result) Result {
		r.Runtime = time.Since(start)
		return r
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if (req.Scenario == nil) == (req.Instance == nil) {
		return done(Result{Err: fmt.Errorf("%w: exactly one of Scenario and Instance must be set", ErrBadRequest)})
	}
	if req.Timeout < 0 {
		return done(Result{Err: fmt.Errorf("%w: negative timeout %v", ErrBadRequest, req.Timeout)})
	}
	if req.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, req.Timeout)
		defer cancel()
	}

	inst := req.Instance
	hit := false
	cfg := newSolverConfig(req.Options)
	if req.Scenario != nil {
		ci, h, err := e.compile(req.Scenario)
		if err != nil {
			return done(Result{Err: err})
		}
		hit = h
		inst, _, err = ci.instance(req.Scenario)
		if err != nil {
			return done(Result{Err: err})
		}
		// The scenario's Seed is the request's seed, applied last exactly
		// like `dcnflow run` applies WithSeed(spec.Seed).
		WithSeed(req.Scenario.Seed)(&cfg)
	}
	cfg.scratch = e.pools
	sol, err := solve(ctx, req.Solver, cfg, inst)
	return done(Result{Solution: sol, Err: err, CacheHit: hit})
}

// SolveBatch runs every request on the engine's bounded worker pool — the
// deterministic batch API behind `dcnflow serve`'s /v1/batch and the sweep
// engine. Results come back in request order, per-request failures are
// recorded in their Result (never aborting the batch), and the outcome is
// independent of the worker count. A cancelled context marks the
// unfinished requests with the context error.
func (e *Engine) SolveBatch(ctx context.Context, reqs []Request) []Result {
	if ctx == nil {
		ctx = context.Background()
	}
	results, err := sweep.Map(ctx, len(reqs), e.workers,
		func(ctx context.Context, i, _ int) (Result, error) {
			if cerr := ctx.Err(); cerr != nil {
				return Result{Err: fmt.Errorf("dcnflow: batch request %d: %w", i, cerr)}, nil
			}
			return e.Solve(ctx, reqs[i]), nil
		}, nil)
	if err != nil {
		// Requests skipped by the winding-down pool hold a zero Result;
		// stamp them with the cancellation so callers can tell them from
		// successful solves.
		for i := range results {
			if results[i].Solution == nil && results[i].Err == nil {
				results[i].Err = fmt.Errorf("dcnflow: batch request %d: %w", i, err)
			}
		}
	}
	return results
}

// LowerBound computes the scenario's fractional relaxation bound — the
// shared normaliser sweep reports divide by — memoised per (instance,
// relaxation options) on the engine's caches, so the per-scenario bound of
// a sweep's cell group is computed once however many solver cells share
// it. Context cancellation is returned but never memoised.
func (e *Engine) LowerBound(ctx context.Context, spec *ScenarioSpec, opts ...SolveOption) (float64, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	ci, _, err := e.compile(spec)
	if err != nil {
		return 0, err
	}
	inst, ent, err := ci.instance(spec)
	if err != nil {
		return 0, err
	}
	d := newSolverConfig(opts).DCFSR
	d.Progress = nil
	ent.lmu.Lock()
	memo, ok := ent.lbs[d.Solver]
	if !ok {
		memo = &lbMemo{}
		ent.lbs[d.Solver] = memo
	}
	ent.lmu.Unlock()

	memo.mu.Lock()
	defer memo.mu.Unlock()
	if memo.done {
		return memo.lb, memo.err
	}
	d.Solvers = e.pools.poolFor(inst.graph, inst.model, d.Solver)
	lb, err := core.LowerBoundCtx(ctx, inst.graph, inst.flows, inst.model, d)
	if err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
		return 0, err
	}
	memo.lb, memo.err, memo.done = lb, err, true
	return lb, err
}

// Stats snapshots the cache counters.
func (e *Engine) Stats() EngineStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return EngineStats{
		Size:      e.ll.Len(),
		Capacity:  e.cap,
		Hits:      e.stats.hits,
		Misses:    e.stats.misses,
		Evictions: e.stats.evictions,
	}
}

// enginePools is the bounded registry of pooled per-solver scratch: one
// mcfsolve.Pool per (compiled graph, model, solver options) triple, keyed
// by compiled-view pointer so distinct graphs can never cross-wire, with a
// FIFO bound so ad-hoc instance churn cannot grow it without limit.
type enginePools struct {
	mu    sync.Mutex
	pools map[enginePoolKey]*mcfsolve.Pool
	order []enginePoolKey
	max   int
}

type enginePoolKey struct {
	c    *graph.Compiled
	m    PowerModel
	opts SolverOptions
}

func newEnginePools(max int) *enginePools {
	if max < 8 {
		max = 8
	}
	return &enginePools{pools: make(map[enginePoolKey]*mcfsolve.Pool), max: max}
}

// poolFor returns the pool bound to (g's compiled view, m, opts), creating
// it on first use. A nil return (invalid binding) makes callers fall back
// to per-call solver construction.
func (p *enginePools) poolFor(g *Graph, m PowerModel, opts SolverOptions) *mcfsolve.Pool {
	if p == nil || g == nil {
		return nil
	}
	key := enginePoolKey{c: graph.Compile(g), m: m, opts: opts}
	p.mu.Lock()
	defer p.mu.Unlock()
	if pool, ok := p.pools[key]; ok {
		return pool
	}
	pool, err := mcfsolve.NewPoolCompiled(key.c, m, opts)
	if err != nil {
		return nil
	}
	p.pools[key] = pool
	p.order = append(p.order, key)
	if len(p.order) > p.max {
		delete(p.pools, p.order[0])
		p.order = p.order[1:]
	}
	return pool
}
