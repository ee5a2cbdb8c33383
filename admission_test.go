package dcnflow

import (
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock drives an admitter deterministically: now() reads a settable
// instant and afterFunc hands back an inert timer (tests call tick
// themselves).
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1700000000, 0)}
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func (c *fakeClock) afterFunc(time.Duration, func()) *time.Timer {
	// Far-future inert timer; the test advances time and ticks manually.
	return time.AfterFunc(24*time.Hour, func() {})
}

// fakeAdmitter builds an admitter on a fake clock.
func fakeAdmitter(o AdmissionOptions) (*admitter, *fakeClock) {
	clk := newFakeClock()
	a := newAdmitter(o)
	a.now = clk.now
	a.afterFunc = clk.afterFunc
	a.tokens = a.burst
	a.last = clk.now()
	return a, clk
}

func TestAdmissionRefillMath(t *testing.T) {
	cases := []struct {
		name       string
		rate       float64
		burst      float64
		startToken float64
		dt         time.Duration
		want       float64
	}{
		{"accrues_linearly", 10, 100, 0, time.Second, 10},
		{"caps_at_burst", 10, 5, 0, 10 * time.Second, 5},
		{"partial_second", 4, 100, 1, 250 * time.Millisecond, 2},
		{"zero_elapsed", 10, 100, 3, 0, 3},
		{"fractional_rate", 0.5, 10, 0, 3 * time.Second, 1.5},
		{"already_full", 10, 8, 8, time.Minute, 8},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, clk := fakeAdmitter(AdmissionOptions{Rate: tc.rate, Burst: tc.burst})
			a.tokens = tc.startToken
			clk.advance(tc.dt)
			a.mu.Lock()
			a.refillLocked(clk.now())
			got := a.tokens
			a.mu.Unlock()
			if diff := got - tc.want; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("tokens after %v = %v, want %v", tc.dt, got, tc.want)
			}
		})
	}
}

func TestAdmissionFastPathAndExhaustion(t *testing.T) {
	a, clk := fakeAdmitter(AdmissionOptions{Rate: 1, Burst: 3, QueueDepth: 1})
	// Burst admits 3 back to back without queueing.
	for i := 0; i < 3; i++ {
		if err := a.admit(nil, ""); err != nil {
			t.Fatalf("admit %d under burst: %v", i, err)
		}
	}
	tokens, queued := a.snapshot()
	if tokens != 0 || queued != 0 {
		t.Fatalf("after burst: tokens=%v queued=%d, want 0/0", tokens, queued)
	}
	// One second of refill buys exactly one more.
	clk.advance(time.Second)
	if err := a.admit(nil, ""); err != nil {
		t.Fatalf("admit after refill: %v", err)
	}
	if tokens, _ := a.snapshot(); tokens != 0 {
		t.Fatalf("tokens = %v, want 0", tokens)
	}
}

func TestAdmissionQueueFull429(t *testing.T) {
	a, _ := fakeAdmitter(AdmissionOptions{Rate: 0.5, Burst: 1, QueueDepth: 1})
	if err := a.admit(nil, ""); err != nil {
		t.Fatalf("first admit: %v", err)
	}
	// Occupy the single queue slot with a blocked waiter.
	admittedCh := make(chan *admitError, 1)
	go func() { admittedCh <- a.admit(nil, "") }()
	waitQueued(t, a, 1)

	// Queue full: immediate 429 with a Retry-After estimate. Two requests
	// (the queued one + this one) against 0 tokens at 0.5/s = 4s.
	err := a.admit(nil, "")
	if err == nil {
		t.Fatal("want 429 when the queue is full")
	}
	if err.status != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", err.status)
	}
	if err.retryAfter != 4 {
		t.Fatalf("retryAfter = %d, want 4 (2 waiters / 0.5 rps)", err.retryAfter)
	}
	if !strings.Contains(err.msg, "queue full") {
		t.Fatalf("msg %q does not mention the full queue", err.msg)
	}

	// Drain releases the queued waiter with 503.
	a.drain()
	qerr := <-admittedCh
	if qerr == nil || qerr.status != http.StatusServiceUnavailable {
		t.Fatalf("queued waiter got %+v, want 503 on drain", qerr)
	}
}

func TestAdmissionPriorityOrdering(t *testing.T) {
	a, clk := fakeAdmitter(AdmissionOptions{Rate: 1, Burst: 1, QueueDepth: 16})
	if err := a.admit(nil, ""); err != nil {
		t.Fatalf("drain the bucket: %v", err)
	}

	// Queue arrivals worst-first so ordering cannot be FIFO luck.
	order := make(chan string, 3)
	var wg sync.WaitGroup
	for i, class := range []string{PriorityLow, PriorityNormal, PriorityHigh} {
		class := class
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := a.admit(nil, class); err != nil {
				t.Errorf("admit(%s): %v", class, err)
				return
			}
			order <- class
		}()
		waitQueuedAtLeast(t, a, i+1) // enqueue strictly worst-first
	}
	waitQueued(t, a, 3)

	// Release one token at a time; each tick must admit the most urgent
	// remaining class.
	want := []string{PriorityHigh, PriorityNormal, PriorityLow}
	for _, w := range want {
		clk.advance(time.Second)
		a.tick()
		select {
		case got := <-order:
			if got != w {
				t.Fatalf("admitted %q, want %q", got, w)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("no admission after tick (waiting for %q)", w)
		}
	}
	wg.Wait()
}

func TestAdmissionDrainBouncesEveryone(t *testing.T) {
	a, _ := fakeAdmitter(AdmissionOptions{Rate: 1, Burst: 1, QueueDepth: 8})
	if err := a.admit(nil, ""); err != nil {
		t.Fatalf("drain the bucket: %v", err)
	}
	errs := make(chan *admitError, 3)
	for i := 0; i < 3; i++ {
		go func() { errs <- a.admit(nil, "") }()
	}
	waitQueued(t, a, 3)
	a.drain()
	for i := 0; i < 3; i++ {
		if e := <-errs; e == nil || e.status != http.StatusServiceUnavailable {
			t.Fatalf("queued waiter %d got %+v, want 503", i, e)
		}
	}
	// After the drain every new admit answers 503 immediately.
	if e := a.admit(nil, PriorityHigh); e == nil || e.status != http.StatusServiceUnavailable {
		t.Fatalf("post-drain admit got %+v, want 503", e)
	}
	a.drain() // idempotent
}

func TestAdmissionCancelWhileQueued(t *testing.T) {
	a, _ := fakeAdmitter(AdmissionOptions{Rate: 1, Burst: 1, QueueDepth: 8})
	if err := a.admit(nil, ""); err != nil {
		t.Fatalf("drain the bucket: %v", err)
	}
	cancel := make(chan struct{})
	errCh := make(chan *admitError, 1)
	go func() { errCh <- a.admit(cancel, "") }()
	waitQueued(t, a, 1)
	close(cancel)
	e := <-errCh
	if e == nil || e.status != http.StatusServiceUnavailable {
		t.Fatalf("cancelled waiter got %+v, want 503", e)
	}
	if _, queued := a.snapshot(); queued != 0 {
		t.Fatalf("queue depth = %d after cancel, want 0", queued)
	}
}

func TestAdmissionMaxWaitTimeout(t *testing.T) {
	// Real timers here: the wait bound is enforced by afterFunc, so give
	// the admitter a clock that actually fires, a short bound and a refill
	// rate too slow to ever admit the waiter.
	a := newAdmitter(AdmissionOptions{Rate: 0.001, Burst: 1, QueueDepth: 8})
	a.maxWait = 20 * time.Millisecond
	if err := a.admit(nil, ""); err != nil {
		t.Fatalf("drain the bucket: %v", err)
	}
	start := time.Now()
	e := a.admit(nil, "")
	if e == nil {
		t.Fatal("want 429 after maxWait")
	}
	if e.status != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", e.status)
	}
	if e.retryAfter < 1 {
		t.Fatalf("retryAfter = %d, want >= 1", e.retryAfter)
	}
	if waited := time.Since(start); waited < 20*time.Millisecond {
		t.Fatalf("timed out after %v, before maxWait elapsed", waited)
	}
	a.drain()
}

func TestAdmissionDefaults(t *testing.T) {
	a := newAdmitter(AdmissionOptions{Rate: 2})
	if a.burst != 2 {
		t.Fatalf("default burst = %v, want max(rate,1) = 2", a.burst)
	}
	if a.depth != 64 {
		t.Fatalf("default queue depth = %d, want 64", a.depth)
	}
	if a.maxWait != 10*time.Second {
		t.Fatalf("default max wait = %v, want 10s", a.maxWait)
	}
	b := newAdmitter(AdmissionOptions{Rate: 0.25})
	if b.burst != 1 {
		t.Fatalf("sub-1 rate burst = %v, want 1", b.burst)
	}
}

func TestPriorityRank(t *testing.T) {
	cases := []struct {
		class string
		rank  int
		ok    bool
	}{
		{"high", 0, true},
		{"", 1, true},
		{"normal", 1, true},
		{"low", 2, true},
		{"urgent", 0, false},
		{"HIGH", 0, false},
	}
	for _, tc := range cases {
		rank, ok := priorityRank(tc.class)
		if ok != tc.ok || (ok && rank != tc.rank) {
			t.Errorf("priorityRank(%q) = (%d, %v), want (%d, %v)", tc.class, rank, ok, tc.rank, tc.ok)
		}
	}
	if canonicalPriority("") != PriorityNormal {
		t.Error(`canonicalPriority("") != "normal"`)
	}
	if canonicalPriority("low") != "low" {
		t.Error(`canonicalPriority("low") != "low"`)
	}
}

// waitQueued polls until exactly n live waiters are queued.
func waitQueued(t *testing.T, a *admitter, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if _, queued := a.snapshot(); queued == n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	_, queued := a.snapshot()
	t.Fatalf("queue depth = %d, want %d", queued, n)
}

// waitQueuedAtLeast polls until at least n live waiters are queued.
func waitQueuedAtLeast(t *testing.T, a *admitter, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if _, queued := a.snapshot(); queued >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	_, queued := a.snapshot()
	t.Fatalf("queue depth = %d, want >= %d", queued, n)
}
