package dcnflow

import (
	"container/heap"
	"fmt"
	"math"
	"sync"
	"time"
)

// Priority classes the serve API accepts in ServeRequest.Priority, from
// most to least urgent. The empty string is PriorityNormal.
const (
	PriorityHigh   = "high"
	PriorityNormal = "normal"
	PriorityLow    = "low"
)

// PriorityClasses lists the accepted ServeRequest.Priority values in
// admission order (most urgent first).
var PriorityClasses = []string{PriorityHigh, PriorityNormal, PriorityLow}

// priorityRank maps a class name to its admission rank (lower admits
// first); the bool reports whether the name is valid. "" is normal.
func priorityRank(class string) (int, bool) {
	switch class {
	case PriorityHigh:
		return 0, true
	case "", PriorityNormal:
		return 1, true
	case PriorityLow:
		return 2, true
	}
	return 0, false
}

// canonicalPriority normalises "" to PriorityNormal for metrics labels.
func canonicalPriority(class string) string {
	if class == "" {
		return PriorityNormal
	}
	return class
}

// AdmissionOptions configures the serve handler's token-bucket admission
// controller. The zero value disables admission control entirely (every
// request is admitted immediately) — set Rate to turn it on.
//
// Admission charges one token per solve-carrying HTTP request (/v1/solve
// and /v1/batch each cost one token; batch width is bounded separately by
// MaxBatch). When the bucket is empty the request joins a bounded queue
// ordered by priority class then arrival; when the queue is full — or the
// request has queued for maxAdmissionWait — the server answers 429 with a
// Retry-After estimate. During a drain, queued and newly arriving
// requests answer 503 so a load balancer can fail them over cleanly.
type AdmissionOptions struct {
	// Rate is the sustained admission rate in requests per second (the
	// token-bucket refill rate). <= 0 disables admission control.
	Rate float64
	// Burst is the bucket capacity — the largest instantaneous burst
	// admitted without queueing. <= 0 selects max(Rate, 1).
	Burst float64
	// QueueDepth bounds the accept queue of requests waiting for a token;
	// <= 0 selects 64.
	QueueDepth int
}

// maxAdmissionWait bounds how long one request may queue before it is
// bounced with 429.
const maxAdmissionWait = 10 * time.Second

// enabled reports whether the options ask for admission control at all.
func (o AdmissionOptions) enabled() bool { return o.Rate > 0 }

// admitOutcome is the terminal state of one admission attempt.
type admitOutcome int

const (
	admitted admitOutcome = iota
	admitRejected
	admitDrained
	admitTimedOut
)

// waiter is one queued admission request.
type waiter struct {
	rank int
	seq  uint64
	ch   chan admitOutcome
	done bool // cancelled/timed out; skipped by the dispatcher
	idx  int
}

// waiterQueue is a heap ordered by (priority rank, arrival sequence).
type waiterQueue []*waiter

// Len implements heap.Interface.
func (q waiterQueue) Len() int { return len(q) }

// Less orders waiters most-urgent-first, FIFO within a class.
func (q waiterQueue) Less(i, j int) bool {
	if q[i].rank != q[j].rank {
		return q[i].rank < q[j].rank
	}
	return q[i].seq < q[j].seq
}

// Swap implements heap.Interface, keeping each waiter's heap index.
func (q waiterQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].idx = i
	q[j].idx = j
}

// Push implements heap.Interface.
func (q *waiterQueue) Push(x any) {
	w := x.(*waiter)
	w.idx = len(*q)
	*q = append(*q, w)
}

// Pop implements heap.Interface.
func (q *waiterQueue) Pop() any {
	old := *q
	n := len(old)
	w := old[n-1]
	old[n-1] = nil
	w.idx = -1
	*q = old[:n-1]
	return w
}

// admitter is the token-bucket admission controller behind the serve
// handler. Time is injectable (now, afterFunc, maxWait) so the refill math,
// the queue discipline and the wait bound are unit-testable.
type admitter struct {
	rate    float64
	burst   float64
	depth   int
	maxWait time.Duration

	now       func() time.Time
	afterFunc func(d time.Duration, f func()) *time.Timer

	mu       sync.Mutex
	tokens   float64
	last     time.Time
	queue    waiterQueue
	seq      uint64
	draining bool
	timer    *time.Timer
}

// newAdmitter builds an admitter from options (which must be enabled).
func newAdmitter(o AdmissionOptions) *admitter {
	if o.Burst <= 0 {
		o.Burst = math.Max(o.Rate, 1)
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	a := &admitter{
		rate:      o.Rate,
		burst:     o.Burst,
		depth:     o.QueueDepth,
		maxWait:   maxAdmissionWait,
		now:       time.Now,
		afterFunc: time.AfterFunc,
	}
	a.tokens = a.burst
	a.last = a.now()
	return a
}

// refillLocked accrues tokens for the time elapsed since the last refill,
// capped at the bucket capacity. Callers hold mu.
func (a *admitter) refillLocked(now time.Time) {
	dt := now.Sub(a.last).Seconds()
	if dt > 0 {
		a.tokens = math.Min(a.burst, a.tokens+dt*a.rate)
	}
	if now.After(a.last) {
		a.last = now
	}
}

// retryAfterLocked estimates the seconds until a newly arriving request
// could plausibly be admitted: the token deficit of everyone ahead of it
// (the live queue plus itself) divided by the refill rate, at least 1.
// Callers hold mu.
func (a *admitter) retryAfterLocked() int {
	ahead := 0
	for _, w := range a.queue {
		if !w.done {
			ahead++
		}
	}
	deficit := float64(ahead+1) - a.tokens
	if deficit <= 0 {
		return 1
	}
	secs := int(math.Ceil(deficit / a.rate))
	if secs < 1 {
		secs = 1
	}
	return secs
}

// dispatchLocked admits queued waiters while tokens last, dropping
// cancelled entries, and re-arms the refill timer when waiters remain.
// Callers hold mu.
func (a *admitter) dispatchLocked() {
	for len(a.queue) > 0 {
		w := a.queue[0]
		if w.done {
			heap.Pop(&a.queue)
			continue
		}
		if a.tokens < 1 {
			break
		}
		a.tokens--
		heap.Pop(&a.queue)
		w.done = true
		w.ch <- admitted
	}
	a.armLocked()
}

// armLocked schedules the next dispatch at the instant the next token
// accrues, if any live waiter is still queued. Callers hold mu.
func (a *admitter) armLocked() {
	live := false
	for _, w := range a.queue {
		if !w.done {
			live = true
			break
		}
	}
	if !live || a.draining {
		return
	}
	need := 1 - a.tokens
	if need < 0 {
		need = 0
	}
	d := time.Duration(need / a.rate * float64(time.Second))
	if d < time.Millisecond {
		d = time.Millisecond
	}
	if a.timer != nil {
		a.timer.Stop()
	}
	a.timer = a.afterFunc(d, a.tick)
}

// tick is the refill-timer callback.
func (a *admitter) tick() {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.draining {
		return
	}
	a.refillLocked(a.now())
	a.dispatchLocked()
}

// admitError is a rejected admission: an HTTP status plus the Retry-After
// hint (0 = no header).
type admitError struct {
	status     int
	retryAfter int
	msg        string
}

// Error implements error.
func (e *admitError) Error() string { return e.msg }

// admit runs one request through the bucket: immediate admission when a
// token is free and nobody more urgent is queued, otherwise a bounded
// prioritised wait. The returned error is nil (admitted) or an
// *admitError carrying the 429/503 to answer. cancel is the request
// context's done channel (client disconnect).
func (a *admitter) admit(cancel <-chan struct{}, class string) *admitError {
	rank, ok := priorityRank(class)
	if !ok {
		// Validation rejects unknown classes before admission; guard anyway.
		rank = 2
	}
	a.mu.Lock()
	if a.draining {
		a.mu.Unlock()
		return &admitError{status: 503, msg: "server is draining"}
	}
	a.refillLocked(a.now())
	// Fast path: token free and nobody (live) queued ahead.
	liveQueued := 0
	for _, w := range a.queue {
		if !w.done {
			liveQueued++
		}
	}
	if a.tokens >= 1 && liveQueued == 0 {
		a.tokens--
		a.mu.Unlock()
		return nil
	}
	if liveQueued >= a.depth {
		retry := a.retryAfterLocked()
		a.mu.Unlock()
		return &admitError{status: 429, retryAfter: retry,
			msg: fmt.Sprintf("admission queue full (%d waiting)", liveQueued)}
	}
	w := &waiter{rank: rank, seq: a.seq, ch: make(chan admitOutcome, 1)}
	a.seq++
	heap.Push(&a.queue, w)
	// Tokens may be free with queued waiters (a just-vacated slot);
	// dispatch so the new arrival cannot deadlock waiting for a timer that
	// never armed.
	a.dispatchLocked()
	a.mu.Unlock()

	expire := a.afterFunc(a.maxWait, func() {
		a.expire(w, admitTimedOut)
	})
	defer expire.Stop()

	select {
	case out := <-w.ch:
		switch out {
		case admitted:
			return nil
		case admitDrained:
			return &admitError{status: 503, msg: "server is draining"}
		default:
			a.mu.Lock()
			retry := a.retryAfterLocked()
			a.mu.Unlock()
			return &admitError{status: 429, retryAfter: retry,
				msg: fmt.Sprintf("no admission token within %v", a.maxWait)}
		}
	case <-cancel:
		a.expire(w, admitTimedOut)
		// The dispatcher may have admitted w in the race window; consume
		// the outcome so the channel (and a token, if granted) is settled.
		select {
		case out := <-w.ch:
			if out == admitted {
				return nil
			}
		default:
		}
		return &admitError{status: 503, msg: "client went away while queued"}
	}
}

// expire marks a queued waiter as abandoned (timeout or disconnect) and
// signals it, unless the dispatcher already settled it.
func (a *admitter) expire(w *waiter, out admitOutcome) {
	a.mu.Lock()
	if !w.done {
		w.done = true
		if w.idx >= 0 && w.idx < len(a.queue) && a.queue[w.idx] == w {
			heap.Remove(&a.queue, w.idx)
		}
		w.ch <- out
	}
	a.mu.Unlock()
}

// drain flips the admitter into drain mode: every queued waiter is bounced
// with 503 immediately and every later admit answers 503 without queueing.
// Idempotent; stops the refill timer so no goroutine outlives the drain.
func (a *admitter) drain() {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.draining {
		return
	}
	a.draining = true
	if a.timer != nil {
		a.timer.Stop()
		a.timer = nil
	}
	for len(a.queue) > 0 {
		w := heap.Pop(&a.queue).(*waiter)
		if !w.done {
			w.done = true
			w.ch <- admitDrained
		}
	}
}

// snapshot reports the live token count and queue depth for /metrics.
func (a *admitter) snapshot() (tokens float64, queued int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.refillLocked(a.now())
	for _, w := range a.queue {
		if !w.done {
			queued++
		}
	}
	return a.tokens, queued
}
