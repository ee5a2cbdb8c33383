package dcnflow

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
)

// Serve request outcome labels, the vocabulary of the
// dcnflow_requests_total{outcome=...} counter on /metrics.
const (
	outcomeOK          = "ok"
	outcomeBadRequest  = "bad_request"
	outcomeSolverError = "solver_error"
	outcomeTimeout     = "timeout"
	outcomeRejected    = "rejected" // admission 429
	outcomeDrained     = "drained"  // admission 503 (drain or disconnect)
)

// latencyBuckets are the cumulative histogram upper bounds (seconds) of
// dcnflow_request_duration_seconds; +Inf is implicit.
var latencyBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// reqLabel keys one dcnflow_requests_total series.
type reqLabel struct {
	endpoint string // "solve" | "batch"
	outcome  string
	class    string // priority class (canonicalised)
}

// serveMetrics accumulates the serve handler's counters and the request
// latency histogram. Gauges (tokens, queue depth, cache occupancy) are
// read live at render time from the admitter and engine, so the struct
// itself holds only monotone state. Safe for concurrent use.
type serveMetrics struct {
	mu         sync.Mutex
	requests   map[reqLabel]uint64
	batchItems map[string]uint64 // "ok" | "error"

	bucketCount []uint64 // one per latencyBuckets entry, non-cumulative
	infCount    uint64
	latencySum  float64
}

func newServeMetrics() *serveMetrics {
	return &serveMetrics{
		requests:    make(map[reqLabel]uint64),
		batchItems:  make(map[string]uint64),
		bucketCount: make([]uint64, len(latencyBuckets)),
	}
}

// record counts one finished HTTP request and its latency in seconds.
func (m *serveMetrics) record(endpoint, outcome, class string, seconds float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.requests[reqLabel{endpoint: endpoint, outcome: outcome, class: canonicalPriority(class)}]++
	if seconds < 0 {
		seconds = 0
	}
	m.latencySum += seconds
	for i, le := range latencyBuckets {
		if seconds <= le {
			m.bucketCount[i]++
			return
		}
	}
	m.infCount++
}

// recordBatchItems counts per-item batch outcomes.
func (m *serveMetrics) recordBatchItems(ok, failed int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if ok > 0 {
		m.batchItems["ok"] += uint64(ok)
	}
	if failed > 0 {
		m.batchItems["error"] += uint64(failed)
	}
}

// promValue formats a sample value the way the Prometheus text exposition
// expects (shortest round-trippable float).
func promValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// render writes the Prometheus text exposition (version 0.0.4) of the
// handler's state: request counters, the latency histogram, the engine's
// cache counters and occupancy, and — when admission control is on — the
// live token and queue gauges. Series order is deterministic (sorted
// label sets) so the output is stable for tests and scrapers alike.
func (m *serveMetrics) render(w io.Writer, cache EngineStats, adm *admitter) {
	m.mu.Lock()
	requests := make([]reqLabel, 0, len(m.requests))
	for k := range m.requests {
		requests = append(requests, k)
	}
	sort.Slice(requests, func(i, j int) bool {
		a, b := requests[i], requests[j]
		if a.endpoint != b.endpoint {
			return a.endpoint < b.endpoint
		}
		if a.outcome != b.outcome {
			return a.outcome < b.outcome
		}
		return a.class < b.class
	})
	reqCounts := make([]uint64, len(requests))
	for i, k := range requests {
		reqCounts[i] = m.requests[k]
	}
	itemKeys := make([]string, 0, len(m.batchItems))
	for k := range m.batchItems {
		itemKeys = append(itemKeys, k)
	}
	sort.Strings(itemKeys)
	itemCounts := make([]uint64, len(itemKeys))
	for i, k := range itemKeys {
		itemCounts[i] = m.batchItems[k]
	}
	buckets := append([]uint64(nil), m.bucketCount...)
	infCount := m.infCount
	latencySum := m.latencySum
	m.mu.Unlock()

	fmt.Fprintln(w, "# HELP dcnflow_requests_total Solve-carrying HTTP requests by endpoint, outcome and priority class.")
	fmt.Fprintln(w, "# TYPE dcnflow_requests_total counter")
	for i, k := range requests {
		fmt.Fprintf(w, "dcnflow_requests_total{class=%q,endpoint=%q,outcome=%q} %d\n",
			k.class, k.endpoint, k.outcome, reqCounts[i])
	}

	fmt.Fprintln(w, "# HELP dcnflow_batch_items_total Per-item outcomes inside /v1/batch requests.")
	fmt.Fprintln(w, "# TYPE dcnflow_batch_items_total counter")
	for i, k := range itemKeys {
		fmt.Fprintf(w, "dcnflow_batch_items_total{outcome=%q} %d\n", k, itemCounts[i])
	}

	fmt.Fprintln(w, "# HELP dcnflow_request_duration_seconds End-to-end request latency on the server (admission wait included).")
	fmt.Fprintln(w, "# TYPE dcnflow_request_duration_seconds histogram")
	var cum uint64
	for i, le := range latencyBuckets {
		cum += buckets[i]
		fmt.Fprintf(w, "dcnflow_request_duration_seconds_bucket{le=%q} %d\n", promValue(le), cum)
	}
	cum += infCount
	fmt.Fprintf(w, "dcnflow_request_duration_seconds_bucket{le=\"+Inf\"} %d\n", cum)
	fmt.Fprintf(w, "dcnflow_request_duration_seconds_sum %s\n", promValue(latencySum))
	fmt.Fprintf(w, "dcnflow_request_duration_seconds_count %d\n", cum)

	fmt.Fprintln(w, "# HELP dcnflow_engine_cache_hits_total Compiled-instance cache hits.")
	fmt.Fprintln(w, "# TYPE dcnflow_engine_cache_hits_total counter")
	fmt.Fprintf(w, "dcnflow_engine_cache_hits_total %d\n", cache.Hits)
	fmt.Fprintln(w, "# HELP dcnflow_engine_cache_misses_total Compiled-instance cache misses.")
	fmt.Fprintln(w, "# TYPE dcnflow_engine_cache_misses_total counter")
	fmt.Fprintf(w, "dcnflow_engine_cache_misses_total %d\n", cache.Misses)
	fmt.Fprintln(w, "# HELP dcnflow_engine_cache_evictions_total Compiled-instance cache evictions.")
	fmt.Fprintln(w, "# TYPE dcnflow_engine_cache_evictions_total counter")
	fmt.Fprintf(w, "dcnflow_engine_cache_evictions_total %d\n", cache.Evictions)
	fmt.Fprintln(w, "# HELP dcnflow_engine_cache_entries Compiled instances resident in the cache (occupancy).")
	fmt.Fprintln(w, "# TYPE dcnflow_engine_cache_entries gauge")
	fmt.Fprintf(w, "dcnflow_engine_cache_entries %d\n", cache.Size)
	fmt.Fprintln(w, "# HELP dcnflow_engine_cache_capacity Compiled-instance cache capacity.")
	fmt.Fprintln(w, "# TYPE dcnflow_engine_cache_capacity gauge")
	fmt.Fprintf(w, "dcnflow_engine_cache_capacity %d\n", cache.Capacity)

	if adm != nil {
		tokens, queued := adm.snapshot()
		fmt.Fprintln(w, "# HELP dcnflow_admission_tokens Admission tokens currently available in the bucket.")
		fmt.Fprintln(w, "# TYPE dcnflow_admission_tokens gauge")
		fmt.Fprintf(w, "dcnflow_admission_tokens %s\n", promValue(tokens))
		fmt.Fprintln(w, "# HELP dcnflow_admission_queue_depth Requests waiting in the bounded accept queue.")
		fmt.Fprintln(w, "# TYPE dcnflow_admission_queue_depth gauge")
		fmt.Fprintf(w, "dcnflow_admission_queue_depth %d\n", queued)
	}
}
