package dcnflow

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// ServeRequest is the JSON body of the serve API's POST /v1/solve (and one
// element of /v1/batch): a ScenarioSpec-shaped problem plus the solver to
// run it with. The scenario's Seed seeds the solver exactly as `dcnflow
// run` does, so a served solve reproduces the CLI bit for bit.
type ServeRequest struct {
	// Scenario declares the problem (same schema as `dcnflow run` specs).
	Scenario ScenarioSpec `json:"scenario"`
	// Solver names the solver family (SolverNames).
	Solver string `json:"solver"`
	// TimeoutMS optionally bounds this request's solve in milliseconds;
	// the server clamps it to its own per-request ceiling. Zero/absent
	// means the server ceiling alone applies.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Priority is the admission class ("high", "normal" or "low"; empty =
	// "normal"). Under token-bucket admission pressure, queued requests
	// are admitted in priority order (arrival order within a class);
	// without admission control the field is echoed but inert.
	Priority string `json:"priority,omitempty"`
}

// Validate checks the request: the scenario validates, the solver is a
// built-in family and the timeout is non-negative. Errors wrap
// ErrBadRequest (or the scenario's own ErrBadScenario).
func (r *ServeRequest) Validate() error {
	if r == nil {
		return fmt.Errorf("%w: nil request", ErrBadRequest)
	}
	if err := r.Scenario.Validate(); err != nil {
		return err
	}
	if _, ok := solvers[r.Solver]; !ok {
		return fmt.Errorf("%w: unknown solver %q (registered: %s)",
			ErrBadRequest, r.Solver, strings.Join(SolverNames(), ", "))
	}
	if r.TimeoutMS < 0 {
		return fmt.Errorf("%w: negative timeout_ms %d", ErrBadRequest, r.TimeoutMS)
	}
	if _, ok := priorityRank(r.Priority); !ok {
		return fmt.Errorf("%w: unknown priority %q (want one of %s, or empty)",
			ErrBadRequest, r.Priority, strings.Join(PriorityClasses, ", "))
	}
	return nil
}

// ServeBatchRequest is the JSON body of POST /v1/batch.
type ServeBatchRequest struct {
	// Requests lists the batch; the response carries one result per entry
	// in the same order.
	Requests []ServeRequest `json:"requests"`
}

// ServeResponse is one solved request as the serve API reports it: the
// solver's accounted energy, its lower bound when it produces one and its
// diagnostic stats — everything `dcnflow run`'s table shows, minus the
// schedule body (which can be megabytes; recompute it locally from the
// spec when needed, solves are deterministic).
type ServeResponse struct {
	// Scenario echoes the request's scenario name (possibly empty).
	Scenario string `json:"scenario,omitempty"`
	// Solver echoes the request's solver name.
	Solver string `json:"solver"`
	// Energy is the solver's accounted total energy.
	Energy float64 `json:"energy,omitempty"`
	// LowerBound is the solver's own lower bound, when it reports one (see
	// Solution.LowerBound).
	LowerBound float64 `json:"lower_bound,omitempty"`
	// Stats carries the solver's diagnostics (snake_case keys).
	Stats map[string]float64 `json:"stats,omitempty"`
	// CacheHit reports whether the engine served the request's
	// topology+model pair from its compiled-instance cache.
	CacheHit bool `json:"cache_hit"`
	// RuntimeMS is the wall-clock solve time on the server.
	RuntimeMS float64 `json:"runtime_ms"`
	// Error records a failed request (batch responses carry it per item;
	// single solves also signal it via the HTTP status).
	Error string `json:"error,omitempty"`
}

// ServeBatchResponse is the JSON body /v1/batch answers with.
type ServeBatchResponse struct {
	// Results holds one entry per batch request, in request order.
	Results []ServeResponse `json:"results"`
}

// ServeHealth is the JSON body GET /healthz answers with.
type ServeHealth struct {
	// Status is "ok" whenever the handler answers at all.
	Status string `json:"status"`
	// Solvers lists the solver names the server accepts.
	Solvers []string `json:"solvers"`
	// Cache snapshots the engine's compiled-instance cache counters.
	Cache EngineStats `json:"cache"`
}

// DecodeServeRequest strictly decodes one JSON solve request, mirroring
// LoadScenario: unknown fields, trailing garbage and invalid parameter
// combinations are rejected with errors naming the problem, and an
// accepted request always validates. It never panics on any input
// (FuzzServeRequest).
func DecodeServeRequest(r io.Reader) (*ServeRequest, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var req ServeRequest
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if dec.More() {
		return nil, fmt.Errorf("%w: trailing data after the request object", ErrBadRequest)
	}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	return &req, nil
}

// EncodeServeRequest writes the request as canonical indented JSON
// (two-space indent, trailing newline), the byte form
// DecodeServeRequest(EncodeServeRequest(x)) round-trips identically.
func EncodeServeRequest(w io.Writer, req *ServeRequest) error {
	if err := req.Validate(); err != nil {
		return err
	}
	data, err := json.MarshalIndent(req, "", "  ")
	if err != nil {
		return fmt.Errorf("dcnflow: encoding request: %w", err)
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

// maxServeBodyBytes bounds the body of one POST /v1/solve or /v1/batch
// request. A larger body fails decoding as a 400 bad request, so one
// oversized upload cannot grow the decoder's buffer without limit.
const maxServeBodyBytes = 8 << 20

// ServeOptions configures NewServeHandler. The zero value caps every
// request at 60 seconds and batches at 64 requests, accepting every
// built-in solver with admission control off.
type ServeOptions struct {
	// MaxTimeout is the per-request solve ceiling; requests may ask for
	// less via timeout_ms but never more. <= 0 selects 60s.
	MaxTimeout time.Duration
	// MaxBatch bounds the requests one /v1/batch call may carry; <= 0
	// selects 64.
	MaxBatch int
	// Solvers, when non-empty, restricts the solver names requests may
	// use (`dcnflow serve -solver` sets it); empty accepts every built-in
	// solver.
	Solvers []string
	// Admission configures token-bucket admission control; the zero value
	// admits everything immediately (see AdmissionOptions).
	Admission AdmissionOptions
}

// serveHandler is the HTTP face of an Engine.
type serveHandler struct {
	eng      *Engine
	opts     ServeOptions
	allowed  map[string]bool
	adm      *admitter // nil when admission control is off
	metrics  *serveMetrics
	draining atomic.Bool
}

// ServeHandler is the serve API's http.Handler (returned by
// NewServeHandler) plus the lifecycle hook an embedding server needs:
// Drain flips the handler into shutdown mode so queued admissions fail
// fast with 503 while admitted in-flight requests run to completion under
// http.Server.Shutdown.
type ServeHandler struct {
	mux *http.ServeMux
	h   *serveHandler
}

// ServeHTTP dispatches to the API mux.
func (s *ServeHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Drain puts the handler into drain mode: every request queued for
// admission is released immediately with a clean 503, and every solve
// request arriving afterwards answers 503 without queueing — while
// already-admitted requests keep running, so a surrounding
// http.Server.Shutdown drains them gracefully. GET /healthz and
// GET /metrics keep answering. Idempotent and safe for concurrent use.
func (s *ServeHandler) Drain() {
	s.h.draining.Store(true)
	if s.h.adm != nil {
		s.h.adm.drain()
	}
}

// NewServeHandler wraps a warm Engine as the serve API's handler:
//
//	POST /v1/solve  — one ServeRequest in, one ServeResponse out
//	POST /v1/batch  — ServeBatchRequest in, ServeBatchResponse out
//	                  (per-item failures in the items, never a 5xx)
//	GET  /healthz   — ServeHealth (cache counters, accepted solvers)
//	GET  /metrics   — Prometheus text exposition (request counts by
//	                  outcome, latency histogram, cache counters,
//	                  admission gauges)
//
// Malformed bodies answer 400, solver failures 422, per-request timeouts
// 504, admission rejections 429 (with Retry-After) and drains 503; all
// error bodies are {"error": "..."} JSON. The handler is safe for
// concurrent use — it is the `dcnflow serve` subcommand's core, exposed so
// embedders can mount the API on their own mux and tests can drive it via
// httptest.
func NewServeHandler(eng *Engine, opts ServeOptions) *ServeHandler {
	if eng == nil {
		eng = NewEngine(EngineOptions{})
	}
	if opts.MaxTimeout <= 0 {
		opts.MaxTimeout = 60 * time.Second
	}
	if opts.MaxBatch <= 0 {
		opts.MaxBatch = 64
	}
	h := &serveHandler{eng: eng, opts: opts, metrics: newServeMetrics()}
	if opts.Admission.enabled() {
		h.adm = newAdmitter(opts.Admission)
	}
	if len(opts.Solvers) > 0 {
		h.allowed = make(map[string]bool, len(opts.Solvers))
		for _, name := range opts.Solvers {
			h.allowed[name] = true
		}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/solve", h.solve)
	mux.HandleFunc("POST /v1/batch", h.batch)
	mux.HandleFunc("GET /healthz", h.health)
	mux.HandleFunc("GET /metrics", h.metricsPage)
	return &ServeHandler{mux: mux, h: h}
}

// writeJSON writes v with the given status; encoding failures are ignored
// (the connection is gone).
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, struct {
		Error string `json:"error"`
	}{err.Error()})
}

// writeAdmitError answers a rejected admission (429/503), attaching the
// Retry-After hint when the admitter computed one.
func writeAdmitError(w http.ResponseWriter, aerr *admitError) {
	if aerr.retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(aerr.retryAfter))
	} else if aerr.status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	writeError(w, aerr.status, errors.New(aerr.msg))
}

// admitOutcomeLabel maps an admission rejection to its metrics outcome.
func admitOutcomeLabel(aerr *admitError) string {
	if aerr.status == http.StatusTooManyRequests {
		return outcomeRejected
	}
	return outcomeDrained
}

// admit gates one solve-carrying request: drain mode answers an immediate
// 503, then — when admission control is on — the request runs the token
// bucket with its priority class. A nil return means the caller may solve.
func (h *serveHandler) admit(r *http.Request, class string) *admitError {
	if h.draining.Load() {
		return &admitError{status: http.StatusServiceUnavailable, msg: "server is draining"}
	}
	if h.adm == nil {
		return nil
	}
	return h.adm.admit(r.Context().Done(), class)
}

// timeout resolves one request's solve bound against the server ceiling.
// It compares in whole milliseconds before converting, so a timeout_ms too
// large for a time.Duration clamps to the ceiling instead of wrapping
// negative.
func (h *serveHandler) timeout(req *ServeRequest) time.Duration {
	d := h.opts.MaxTimeout
	if req.TimeoutMS > 0 && req.TimeoutMS <= int64(d/time.Millisecond) {
		d = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	return d
}

// allowedSolver guards the optional -solver allowlist.
func (h *serveHandler) allowedSolver(name string) error {
	if h.allowed != nil && !h.allowed[name] {
		return fmt.Errorf("%w: solver %q not served here (available: %s)",
			ErrBadRequest, name, strings.Join(h.opts.Solvers, ", "))
	}
	return nil
}

// run executes one validated request on the engine and shapes the reply,
// also returning the typed engine error (nil on success) so callers can
// classify it without re-parsing the stringified message.
func (h *serveHandler) run(ctx context.Context, req *ServeRequest) (ServeResponse, error) {
	resp := ServeResponse{Scenario: req.Scenario.Name, Solver: req.Solver}
	if err := h.allowedSolver(req.Solver); err != nil {
		resp.Error = err.Error()
		return resp, err
	}
	spec := req.Scenario
	r := h.eng.Solve(ctx, Request{
		Scenario: &spec,
		Solver:   req.Solver,
		Timeout:  h.timeout(req),
	})
	resp.RuntimeMS = float64(r.Runtime) / float64(time.Millisecond)
	resp.CacheHit = r.CacheHit
	if r.Err != nil {
		resp.Error = r.Err.Error()
		return resp, r.Err
	}
	resp.Energy = r.Solution.Energy
	resp.LowerBound = r.Solution.LowerBound
	resp.Stats = r.Solution.Stats
	return resp, nil
}

func (h *serveHandler) solve(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	req, err := DecodeServeRequest(http.MaxBytesReader(w, r.Body, maxServeBodyBytes))
	if err != nil {
		h.metrics.record("solve", outcomeBadRequest, "", time.Since(start).Seconds())
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if aerr := h.admit(r, req.Priority); aerr != nil {
		h.metrics.record("solve", admitOutcomeLabel(aerr), req.Priority, time.Since(start).Seconds())
		writeAdmitError(w, aerr)
		return
	}
	resp, solveErr := h.run(r.Context(), req)
	status := http.StatusOK
	outcome := outcomeOK
	if solveErr != nil {
		status = http.StatusUnprocessableEntity
		outcome = outcomeSolverError
		if errors.Is(solveErr, context.DeadlineExceeded) {
			status = http.StatusGatewayTimeout
			outcome = outcomeTimeout
		}
	}
	h.metrics.record("solve", outcome, req.Priority, time.Since(start).Seconds())
	writeJSON(w, status, resp)
}

// batchClass resolves the admission class of a batch: the most urgent
// priority among its items (a batch is one admission unit; its width is
// bounded by MaxBatch).
func batchClass(reqs []ServeRequest) string {
	best, class := len(PriorityClasses), ""
	for i := range reqs {
		if rank, ok := priorityRank(reqs[i].Priority); ok && rank < best {
			best, class = rank, reqs[i].Priority
		}
	}
	return class
}

func (h *serveHandler) batch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	badBatch := func(err error) {
		h.metrics.record("batch", outcomeBadRequest, "", time.Since(start).Seconds())
		writeError(w, http.StatusBadRequest, err)
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxServeBodyBytes))
	dec.DisallowUnknownFields()
	var breq ServeBatchRequest
	if err := dec.Decode(&breq); err != nil {
		badBatch(fmt.Errorf("%w: %v", ErrBadRequest, err))
		return
	}
	if dec.More() {
		badBatch(fmt.Errorf("%w: trailing data after the batch object", ErrBadRequest))
		return
	}
	if len(breq.Requests) == 0 {
		badBatch(fmt.Errorf("%w: empty batch", ErrBadRequest))
		return
	}
	if len(breq.Requests) > h.opts.MaxBatch {
		badBatch(fmt.Errorf("%w: batch of %d exceeds the %d-request limit", ErrBadRequest, len(breq.Requests), h.opts.MaxBatch))
		return
	}
	class := batchClass(breq.Requests)
	if aerr := h.admit(r, class); aerr != nil {
		h.metrics.record("batch", admitOutcomeLabel(aerr), class, time.Since(start).Seconds())
		writeAdmitError(w, aerr)
		return
	}
	results := make([]ServeResponse, len(breq.Requests))
	reqs := make([]Request, 0, len(breq.Requests))
	slots := make([]int, 0, len(breq.Requests))
	for i := range breq.Requests {
		sr := &breq.Requests[i]
		results[i] = ServeResponse{Scenario: sr.Scenario.Name, Solver: sr.Solver}
		// Per-item validation failures are per-item outcomes, exactly like
		// per-item solve failures — a bad request must not sink its batch.
		if err := sr.Validate(); err != nil {
			results[i].Error = err.Error()
			continue
		}
		if err := h.allowedSolver(sr.Solver); err != nil {
			results[i].Error = err.Error()
			continue
		}
		reqs = append(reqs, Request{
			Scenario: &breq.Requests[i].Scenario,
			Solver:   sr.Solver,
			Timeout:  h.timeout(sr),
		})
		slots = append(slots, i)
	}
	for j, res := range h.eng.SolveBatch(r.Context(), reqs) {
		i := slots[j]
		results[i].RuntimeMS = float64(res.Runtime) / float64(time.Millisecond)
		results[i].CacheHit = res.CacheHit
		if res.Err != nil {
			results[i].Error = res.Err.Error()
			continue
		}
		results[i].Energy = res.Solution.Energy
		results[i].LowerBound = res.Solution.LowerBound
		results[i].Stats = res.Solution.Stats
	}
	ok := 0
	for i := range results {
		if results[i].Error == "" {
			ok++
		}
	}
	h.metrics.recordBatchItems(ok, len(results)-ok)
	h.metrics.record("batch", outcomeOK, class, time.Since(start).Seconds())
	writeJSON(w, http.StatusOK, ServeBatchResponse{Results: results})
}

func (h *serveHandler) health(w http.ResponseWriter, _ *http.Request) {
	solvers := h.opts.Solvers
	if len(solvers) == 0 {
		solvers = SolverNames()
	}
	writeJSON(w, http.StatusOK, ServeHealth{
		Status:  "ok",
		Solvers: solvers,
		Cache:   h.eng.Stats(),
	})
}

// metricsPage answers GET /metrics with the Prometheus text exposition.
func (h *serveHandler) metricsPage(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	h.metrics.render(w, h.eng.Stats(), h.adm)
}

// errServeNoBase reports a Client used without a base URL.
var errServeNoBase = errors.New("dcnflow: client needs a BaseURL")
