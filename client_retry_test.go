package dcnflow

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// retryScenario is a minimal valid scenario for request bodies (the flaky
// test server never actually solves it).
func retryScenario() ScenarioSpec {
	return ScenarioSpec{
		Name:     "retry-test",
		Topology: TopologySpec{Kind: "line", K: 3, Capacity: 100},
		Workload: WorkloadSpec{Kind: "shuffle", Hosts: 2, Release: 0, Deadline: 6, Size: 2},
		Model:    ModelSpec{Mu: 1, Alpha: 2, C: 100},
	}
}

// flakyServer answers 429/503 (with an optional Retry-After) for the first
// `fail` requests, then a normal solve response.
func flakyServer(t *testing.T, fail int, status int, retryAfter string) (*httptest.Server, *int) {
	t.Helper()
	attempts := new(int)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		*attempts++
		if *attempts <= fail {
			if retryAfter != "" {
				w.Header().Set("Retry-After", retryAfter)
			}
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(status)
			json.NewEncoder(w).Encode(map[string]string{"error": "busy"})
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(ServeResponse{Scenario: "s", Solver: "greedy"})
	}))
	t.Cleanup(srv.Close)
	return srv, attempts
}

// fakeSleeper records requested backoff delays instead of sleeping.
type fakeSleeper struct{ delays []time.Duration }

func (f *fakeSleeper) sleep(_ context.Context, d time.Duration) error {
	f.delays = append(f.delays, d)
	return nil
}

func TestClientRetryHonorsRetryAfter(t *testing.T) {
	srv, attempts := flakyServer(t, 2, http.StatusTooManyRequests, "2")
	fs := &fakeSleeper{}
	c := &Client{
		BaseURL: srv.URL,
		Retry:   &RetryPolicy{MaxRetries: 3, BaseDelay: 10 * time.Millisecond, MaxDelay: 5 * time.Second},
		sleep:   fs.sleep,
		jitter:  func() float64 { return 0.5 },
	}
	resp, err := c.Solve(context.Background(), ServeRequest{Scenario: retryScenario(), Solver: "greedy"})
	if err != nil {
		t.Fatalf("Solve after retries: %v", err)
	}
	if resp == nil {
		t.Fatal("nil response")
	}
	if *attempts != 3 {
		t.Fatalf("attempts = %d, want 3 (2 rejections + success)", *attempts)
	}
	if len(fs.delays) != 2 {
		t.Fatalf("slept %d times, want 2", len(fs.delays))
	}
	for i, d := range fs.delays {
		if d != 2*time.Second {
			t.Errorf("delay[%d] = %v, want 2s (the Retry-After hint)", i, d)
		}
	}
}

func TestClientRetryExponentialBackoffWithJitter(t *testing.T) {
	srv, attempts := flakyServer(t, 3, http.StatusServiceUnavailable, "")
	fs := &fakeSleeper{}
	c := &Client{
		BaseURL: srv.URL,
		Retry:   &RetryPolicy{MaxRetries: 3, BaseDelay: 100 * time.Millisecond, MaxDelay: 10 * time.Second},
		sleep:   fs.sleep,
		jitter:  func() float64 { return 0.5 }, // midpoint of [d/2, d)
	}
	if _, err := c.Solve(context.Background(), ServeRequest{Scenario: retryScenario(), Solver: "greedy"}); err != nil {
		t.Fatalf("Solve after retries: %v", err)
	}
	if *attempts != 4 {
		t.Fatalf("attempts = %d, want 4", *attempts)
	}
	// With jitter fixed at 0.5, delay = d/2 + 0.5*d/2 = 0.75*d for
	// d = 100ms, 200ms, 400ms.
	want := []time.Duration{75 * time.Millisecond, 150 * time.Millisecond, 300 * time.Millisecond}
	if len(fs.delays) != len(want) {
		t.Fatalf("slept %d times, want %d", len(fs.delays), len(want))
	}
	for i, d := range fs.delays {
		if d != want[i] {
			t.Errorf("delay[%d] = %v, want %v", i, d, want[i])
		}
	}
}

func TestClientRetryBudgetExhausted(t *testing.T) {
	srv, attempts := flakyServer(t, 100, http.StatusTooManyRequests, "1")
	fs := &fakeSleeper{}
	c := &Client{
		BaseURL: srv.URL,
		Retry:   &RetryPolicy{MaxRetries: 2},
		sleep:   fs.sleep,
	}
	_, err := c.Solve(context.Background(), ServeRequest{Scenario: retryScenario(), Solver: "greedy"})
	if err == nil {
		t.Fatal("want error after exhausting retries")
	}
	var se *ServeError
	if !errors.As(err, &se) {
		t.Fatalf("error %T is not *ServeError: %v", err, err)
	}
	if se.Status != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", se.Status)
	}
	if se.RetryAfter != time.Second {
		t.Fatalf("RetryAfter = %v, want 1s", se.RetryAfter)
	}
	if *attempts != 3 {
		t.Fatalf("attempts = %d, want 3 (initial + 2 retries)", *attempts)
	}
}

func TestClientNoRetryOnPermanentError(t *testing.T) {
	srv, attempts := flakyServer(t, 100, http.StatusBadRequest, "")
	fs := &fakeSleeper{}
	c := &Client{BaseURL: srv.URL, Retry: &RetryPolicy{}, sleep: fs.sleep}
	_, err := c.Solve(context.Background(), ServeRequest{Scenario: retryScenario(), Solver: "greedy"})
	if err == nil {
		t.Fatal("want error")
	}
	if *attempts != 1 {
		t.Fatalf("attempts = %d, want 1 (400 must not retry)", *attempts)
	}
	if len(fs.delays) != 0 {
		t.Fatalf("slept %d times, want 0", len(fs.delays))
	}
	if !strings.Contains(err.Error(), "server status 400") {
		t.Fatalf("error %q does not name the status", err)
	}
}

func TestClientNoRetryWithoutPolicy(t *testing.T) {
	srv, attempts := flakyServer(t, 100, http.StatusTooManyRequests, "1")
	c := &Client{BaseURL: srv.URL}
	_, err := c.Solve(context.Background(), ServeRequest{Scenario: retryScenario(), Solver: "greedy"})
	if err == nil {
		t.Fatal("want error")
	}
	if *attempts != 1 {
		t.Fatalf("attempts = %d, want 1 (no Retry policy)", *attempts)
	}
}

func TestClientRetryCancelledWhileWaiting(t *testing.T) {
	srv, _ := flakyServer(t, 100, http.StatusServiceUnavailable, "")
	ctx, cancel := context.WithCancel(context.Background())
	c := &Client{
		BaseURL: srv.URL,
		Retry:   &RetryPolicy{MaxRetries: 5, BaseDelay: time.Hour},
		sleep: func(ctx context.Context, d time.Duration) error {
			cancel()
			return ctx.Err()
		},
	}
	_, err := c.Solve(ctx, ServeRequest{Scenario: retryScenario(), Solver: "greedy"})
	if err == nil {
		t.Fatal("want error when context cancels the backoff wait")
	}
	if !strings.Contains(err.Error(), "retry wait") {
		t.Fatalf("error %q does not mention the retry wait", err)
	}
}

func TestParseRetryAfter(t *testing.T) {
	cases := []struct {
		in   string
		want time.Duration
	}{
		{"", 0},
		{"0", 0},
		{"1", time.Second},
		{" 7 ", 7 * time.Second},
		{"-3", 0},
		{"soon", 0},
		{"Wed, 21 Oct 2015 07:28:00 GMT", 0},
		// Past the Duration range: clamped. Multiplied out unchecked,
		// 9223372037 s wraps negative and 18446744074 s to 290ms.
		{"9223372037", math.MaxInt64},
		{"18446744074", math.MaxInt64},
		// Past the int range too: Atoi's range error still clamps.
		{"99999999999999999999999", math.MaxInt64},
		{"-99999999999999999999999", 0},
	}
	for _, tc := range cases {
		h := http.Header{}
		if tc.in != "" {
			h.Set("Retry-After", tc.in)
		}
		if got := parseRetryAfter(h); got != tc.want {
			t.Errorf("parseRetryAfter(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}
