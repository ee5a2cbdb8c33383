package mcfsolve

import (
	"runtime"
	"sync"

	"dcnflow/internal/graph"
	"dcnflow/internal/power"
)

// Pool is a concurrency-safe free list of Solvers bound to one (compiled
// graph, power model, options) triple — the pooled per-solver scratch of
// the compile-once/solve-many architecture. Concurrent solves each Acquire
// a private Solver (constructing one only when the free list is empty) and
// Release it afterwards, so the shortest-path scratch, edge-flow buffers
// and path intern tables a Solver carries amortise across every solve on
// the same topology instead of across one caller's loop.
//
// Pooling is a speed lever only: a Solver's output is a pure function of
// its inputs whatever its scratch history (asserted by the conformance
// suite's scratch-reuse pass), so pooled and per-call solvers are
// bit-identical. The free list is an explicit bounded slice rather than a
// sync.Pool so warm capacity survives garbage collection — allocation
// counts stay deterministic, which the warm-vs-cold benchmark regressions
// rely on.
type Pool struct {
	c    *graph.Compiled
	m    power.Model
	opts Options // defaults applied, the form Solvers carry

	mu   sync.Mutex
	free []*Solver
	max  int
}

// NewPoolCompiled validates the binding and returns a pool on the compiled
// graph view c whose free list keeps at most 2*GOMAXPROCS idle Solvers
// (surplus Releases are dropped to the garbage collector).
func NewPoolCompiled(c *graph.Compiled, m power.Model, opts Options) (*Pool, error) {
	// Construct one Solver eagerly: it validates the triple once and
	// becomes the first warm entry.
	s, err := NewSolverCompiled(c, m, opts)
	if err != nil {
		return nil, err
	}
	p := &Pool{
		c:    c,
		m:    m,
		opts: opts.withDefaults(m),
		max:  2 * runtime.GOMAXPROCS(0),
	}
	p.free = append(p.free, s)
	return p, nil
}

// Matches reports whether the pool is bound to exactly this (graph, model,
// options) triple — the guard callers use before substituting pooled
// solvers for per-call construction.
func (p *Pool) Matches(g *graph.Graph, m power.Model, opts Options) bool {
	return p != nil && p.c.Graph() == g && p.m == m && p.opts == opts.withDefaults(m)
}

// Acquire pops a warm Solver or constructs a fresh one. The caller owns it
// exclusively until Release.
func (p *Pool) Acquire() (*Solver, error) {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		s := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return s, nil
	}
	p.mu.Unlock()
	return NewSolverCompiled(p.c, p.m, p.opts)
}

// Release returns a Solver to the free list. Solvers not built by this
// pool's binding (or nil) are ignored, and the list never grows past its
// bound.
func (p *Pool) Release(s *Solver) {
	if s == nil || s.compiled != p.c || s.m != p.m || s.opts != p.opts {
		return
	}
	p.mu.Lock()
	if len(p.free) < p.max {
		p.free = append(p.free, s)
	}
	p.mu.Unlock()
}
