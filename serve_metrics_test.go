package dcnflow_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"dcnflow"
)

var (
	promSampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^{}]*\})? (-?[0-9.eE+\-]+|NaN|[+-]?Inf)$`)
	promLabelRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"$`)
	promHelpRe   = regexp.MustCompile(`^# HELP ([a-zA-Z_:][a-zA-Z0-9_:]*) .+$`)
	promTypeRe   = regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram|summary|untyped)$`)
)

// checkPromExposition validates text against the Prometheus text exposition
// format 0.0.4: every line is a HELP/TYPE comment or a well-formed sample,
// every sample's metric is TYPE-declared first, histogram buckets are
// cumulative and agree with _count, and no series repeats.
func checkPromExposition(t *testing.T, text string) {
	t.Helper()
	typed := map[string]string{}
	seen := map[string]bool{}
	bucketCum := map[string]float64{} // histogram base name -> last cumulative bucket
	counts := map[string]float64{}    // histogram base name -> _count value
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			if !promHelpRe.MatchString(line) {
				t.Fatalf("line %d: malformed HELP: %q", ln+1, line)
			}
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			m := promTypeRe.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			typed[m[1]] = m[2]
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("line %d: unknown comment form: %q", ln+1, line)
		}
		m := promSampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("line %d: malformed sample: %q", ln+1, line)
		}
		name, labels := m[1], m[2]
		base := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if b, okSuffix := strings.CutSuffix(name, suffix); okSuffix && typed[b] == "histogram" {
				base = b
				break
			}
		}
		if _, ok := typed[base]; !ok {
			t.Fatalf("line %d: sample %q has no preceding TYPE", ln+1, name)
		}
		if seen[name+labels] {
			t.Fatalf("line %d: duplicate series %q", ln+1, name+labels)
		}
		seen[name+labels] = true
		if labels != "" {
			for _, pair := range strings.Split(strings.Trim(labels, "{}"), ",") {
				if !promLabelRe.MatchString(pair) {
					t.Fatalf("line %d: malformed label %q", ln+1, pair)
				}
			}
		}
		value, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			t.Fatalf("line %d: unparsable value %q", ln+1, m[3])
		}
		switch {
		case strings.HasSuffix(name, "_bucket") && typed[base] == "histogram":
			if value < bucketCum[base] {
				t.Fatalf("line %d: histogram bucket not cumulative: %v < %v", ln+1, value, bucketCum[base])
			}
			bucketCum[base] = value
		case strings.HasSuffix(name, "_count") && typed[base] == "histogram":
			counts[base] = value
		case typed[name] == "counter" || typed[name] == "gauge":
			if value < 0 && typed[name] == "counter" {
				t.Fatalf("line %d: negative counter %q", ln+1, line)
			}
		}
	}
	for base, count := range counts {
		if cum, ok := bucketCum[base]; ok && cum != count {
			t.Fatalf("histogram %s: +Inf bucket %v != _count %v", base, cum, count)
		}
	}
}

// TestServeMetricsEndpoint drives mixed traffic through an admission-enabled
// server and checks /metrics: the exposition is valid, and the counters it
// reports agree with the traffic that was sent.
func TestServeMetricsEndpoint(t *testing.T) {
	handler := dcnflow.NewServeHandler(dcnflow.NewEngine(dcnflow.EngineOptions{}), dcnflow.ServeOptions{
		Admission: dcnflow.AdmissionOptions{Rate: 1000, Burst: 1000},
	})
	srv := httptest.NewServer(handler)
	defer srv.Close()
	defer handler.Drain()
	spec := serveScenario()

	post := func(path, body string) int {
		t.Helper()
		resp, err := srv.Client().Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	encode := func(req dcnflow.ServeRequest) string {
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(req); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}

	// 2 ok solves (one normal, one high), 2 bad requests, 1 batch of 2 ok
	// items — 5 histogram samples in all.
	if st := post("/v1/solve", encode(dcnflow.ServeRequest{Scenario: spec, Solver: dcnflow.SolverSPMCF})); st != 200 {
		t.Fatalf("ok solve: %d", st)
	}
	if st := post("/v1/solve", encode(dcnflow.ServeRequest{Scenario: spec, Solver: dcnflow.SolverSPMCF, Priority: "high"})); st != 200 {
		t.Fatalf("high solve: %d", st)
	}
	if st := post("/v1/solve", "{broken"); st != 400 {
		t.Fatalf("bad request: %d", st)
	}
	if st := post("/v1/solve", encode(dcnflow.ServeRequest{Scenario: spec, Solver: dcnflow.SolverDCFSR, Priority: "nope"})); st != 400 {
		t.Fatalf("unknown priority: %d", st)
	}
	var batch bytes.Buffer
	if err := json.NewEncoder(&batch).Encode(dcnflow.ServeBatchRequest{Requests: []dcnflow.ServeRequest{
		{Scenario: spec, Solver: dcnflow.SolverSPMCF},
		{Scenario: spec, Solver: dcnflow.SolverGreedyOnline},
	}}); err != nil {
		t.Fatal(err)
	}
	if st := post("/v1/batch", batch.String()); st != 200 {
		t.Fatalf("batch: %d", st)
	}

	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") || !strings.Contains(ct, "0.0.4") {
		t.Fatalf("content-type %q is not the 0.0.4 text exposition", ct)
	}
	var body bytes.Buffer
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	text := body.String()
	checkPromExposition(t, text)

	for _, want := range []string{
		`dcnflow_requests_total{class="normal",endpoint="solve",outcome="ok"} 1`,
		`dcnflow_requests_total{class="high",endpoint="solve",outcome="ok"} 1`,
		`dcnflow_requests_total{class="normal",endpoint="solve",outcome="bad_request"} 2`,
		`dcnflow_requests_total{class="normal",endpoint="batch",outcome="ok"} 1`,
		`dcnflow_batch_items_total{outcome="ok"} 2`,
		`dcnflow_request_duration_seconds_count 5`,
		// One topology: the first solve misses, the second solve and both
		// batch items hit.
		"dcnflow_engine_cache_hits_total 3\n",
		"dcnflow_engine_cache_misses_total 1\n",
		"dcnflow_engine_cache_evictions_total 0\n",
		"dcnflow_engine_cache_entries 1\n",
		"dcnflow_engine_cache_capacity 64\n",
		"dcnflow_admission_tokens ",
		"dcnflow_admission_queue_depth 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition is missing %q\n%s", want, text)
		}
	}
}

// designMetricsTable reads the series table of DESIGN.md's "Metrics
// schema" section as name -> type, with every {a,b} group of a name
// expanded.
func designMetricsTable(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(data), "\n### Metrics schema\n")
	if !ok {
		t.Fatal("DESIGN.md has no \"Metrics schema\" section")
	}
	section, _, _ = strings.Cut(section, "\n#")
	row := regexp.MustCompile("^\\| `([^`]+)` \\| ([a-z]+) \\|")
	table := map[string]string{}
	for _, line := range strings.Split(section, "\n") {
		if m := row.FindStringSubmatch(line); m != nil {
			for _, name := range expandBraces(m[1]) {
				table[name] = m[2]
			}
		}
	}
	if len(table) == 0 {
		t.Fatal("DESIGN.md's metrics table has no series rows")
	}
	return table
}

// expandBraces expands every {a,b,...} group of a series name pattern.
func expandBraces(pattern string) []string {
	open := strings.IndexByte(pattern, '{')
	end := strings.IndexByte(pattern, '}')
	if open < 0 || end < open {
		return []string{pattern}
	}
	var out []string
	for _, alt := range strings.Split(pattern[open+1:end], ",") {
		out = append(out, expandBraces(pattern[:open]+alt+pattern[end+1:])...)
	}
	return out
}

// TestMetricsSchemaMatchesDesign: DESIGN.md's metrics table lists exactly
// the series an admission-enabled server renders after a solve and a
// batch, each with the type its # TYPE line declares.
func TestMetricsSchemaMatchesDesign(t *testing.T) {
	want := designMetricsTable(t)
	_, client := newServeServer(t, dcnflow.ServeOptions{
		Admission: dcnflow.AdmissionOptions{Rate: 1000, Burst: 1000},
	})
	ctx := context.Background()
	spec := serveScenario()
	if _, err := client.Solve(ctx, dcnflow.ServeRequest{Scenario: spec, Solver: dcnflow.SolverSPMCF}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.SolveBatch(ctx, []dcnflow.ServeRequest{{Scenario: spec, Solver: dcnflow.SolverGreedyOnline}}); err != nil {
		t.Fatal(err)
	}
	text, err := client.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, line := range strings.Split(text, "\n") {
		if m := promTypeRe.FindStringSubmatch(line); m != nil {
			got[m[1]] = m[2]
		}
	}
	names := make([]string, 0, len(want)+len(got))
	for name := range want {
		names = append(names, name)
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		switch w, g := want[name], got[name]; {
		case g == "":
			t.Errorf("%s (%s) is in DESIGN.md's table, but /metrics does not render it", name, w)
		case w == "":
			t.Errorf("%s (%s) is rendered, but DESIGN.md's table does not list it", name, g)
		case w != g:
			t.Errorf("%s: DESIGN.md says %s, /metrics declares %s", name, w, g)
		}
	}
}

// FuzzMetricsEndpoint: whatever request mix hits the server — well-formed,
// garbage, batches, odd priorities — GET /metrics always answers a valid
// Prometheus 0.0.4 text exposition. The fuzz input chooses the op sequence.
func FuzzMetricsEndpoint(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6})
	f.Add([]byte{6, 6, 6, 1, 1})
	f.Add([]byte{2, 4, 0, 5, 3})
	f.Fuzz(func(t *testing.T, ops []byte) {
		handler := dcnflow.NewServeHandler(dcnflow.NewEngine(dcnflow.EngineOptions{}), dcnflow.ServeOptions{
			Admission: dcnflow.AdmissionOptions{Rate: 10000, Burst: 10000},
		})
		srv := httptest.NewServer(handler)
		defer srv.Close()
		defer handler.Drain()
		spec := serveScenario()

		if len(ops) > 12 {
			ops = ops[:12]
		}
		for _, op := range ops {
			var path, body string
			switch op % 7 {
			case 0:
				b, _ := json.Marshal(dcnflow.ServeRequest{Scenario: spec, Solver: dcnflow.SolverSPMCF})
				path, body = "/v1/solve", string(b)
			case 1:
				path, body = "/v1/solve", "{garbage"
			case 2:
				b, _ := json.Marshal(dcnflow.ServeRequest{Scenario: spec, Solver: "no-such-solver"})
				path, body = "/v1/solve", string(b)
			case 3:
				b, _ := json.Marshal(dcnflow.ServeRequest{Scenario: spec, Solver: dcnflow.SolverGreedyOnline, Priority: "low"})
				path, body = "/v1/solve", string(b)
			case 4:
				b, _ := json.Marshal(dcnflow.ServeBatchRequest{Requests: []dcnflow.ServeRequest{
					{Scenario: spec, Solver: dcnflow.SolverSPMCF, Priority: "high"},
					{Scenario: spec, Solver: "bogus"},
				}})
				path, body = "/v1/batch", string(b)
			case 5:
				path, body = "/v1/batch", `{"requests": []}`
			default:
				resp, err := srv.Client().Get(srv.URL + "/metrics")
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				continue
			}
			resp, err := srv.Client().Post(srv.URL+path, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
		}

		resp, err := srv.Client().Get(srv.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/metrics answered %d", resp.StatusCode)
		}
		var body bytes.Buffer
		if _, err := body.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		checkPromExposition(t, body.String())
		// The histogram count must equal the solve-carrying requests sent
		// (every op except direct scrapes).
		solves := 0
		for _, op := range ops {
			if op%7 != 6 {
				solves++
			}
		}
		want := fmt.Sprintf("dcnflow_request_duration_seconds_count %d", solves)
		if !strings.Contains(body.String(), want) {
			t.Fatalf("exposition is missing %q\n%s", want, body.String())
		}
	})
}
