package dcnflow

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// ServeError is the typed error the Client returns for a non-2xx serve
// reply: the HTTP status, the server's error message and the parsed
// Retry-After hint (zero when the server sent none). errors.As-friendly,
// so callers can branch on Status without string matching.
type ServeError struct {
	// Status is the HTTP status code.
	Status int
	// Message is the server's {"error": ...} body (possibly empty).
	Message string
	// RetryAfter is the server's Retry-After hint, when present.
	RetryAfter time.Duration
}

// Error formats the serve error ("dcnflow: server status 429: ...").
func (e *ServeError) Error() string {
	if e.Message == "" {
		return fmt.Sprintf("dcnflow: server status %d", e.Status)
	}
	return fmt.Sprintf("dcnflow: server status %d: %s", e.Status, e.Message)
}

// Temporary reports whether the failure is worth retrying: admission
// rejections (429) and drains/overload (503).
func (e *ServeError) Temporary() bool {
	return e.Status == http.StatusTooManyRequests || e.Status == http.StatusServiceUnavailable
}

// RetryPolicy bounds the Client's automatic retries of temporary serve
// failures (429 Too Many Requests and 503 Service Unavailable): capped
// exponential backoff with half-open jitter, honoring the server's
// Retry-After when it sends one. The zero value of every field selects
// its default.
type RetryPolicy struct {
	// MaxRetries is the retry budget beyond the first attempt; <= 0
	// selects 3.
	MaxRetries int
	// BaseDelay seeds the exponential backoff (delay grows as
	// BaseDelay * 2^attempt before jitter); <= 0 selects 100ms.
	BaseDelay time.Duration
	// MaxDelay caps every computed delay, including server-supplied
	// Retry-After hints; <= 0 selects 5s.
	MaxDelay time.Duration
}

func (p RetryPolicy) maxRetries() int {
	if p.MaxRetries <= 0 {
		return 3
	}
	return p.MaxRetries
}

func (p RetryPolicy) baseDelay() time.Duration {
	if p.BaseDelay <= 0 {
		return 100 * time.Millisecond
	}
	return p.BaseDelay
}

func (p RetryPolicy) maxDelay() time.Duration {
	if p.MaxDelay <= 0 {
		return 5 * time.Second
	}
	return p.MaxDelay
}

// Client is the Go client of the serve API (`dcnflow serve` /
// NewServeHandler): thin typed wrappers over POST /v1/solve, POST
// /v1/batch and GET /healthz. The zero value is not usable; set BaseURL
// (e.g. "http://127.0.0.1:8080"). A Client is safe for concurrent use.
//
// With Retry set, temporary failures (429/503, the admission controller's
// statuses) are retried with bounded exponential backoff and jitter,
// honoring the server's Retry-After; all other failures surface
// immediately as *ServeError.
type Client struct {
	// BaseURL is the server root, without a trailing slash requirement.
	BaseURL string
	// HTTPClient overrides the transport; nil selects http.DefaultClient.
	HTTPClient *http.Client
	// Retry, when non-nil, enables automatic retries of 429/503 replies.
	Retry *RetryPolicy

	// sleep and jitter are test seams: sleep waits out one backoff delay
	// (default: timer + ctx), jitter draws from [0, 1) (default: a
	// process-wide seeded PRNG). Unit tests inject a fake clock here.
	sleep  func(ctx context.Context, d time.Duration) error
	jitter func() float64
}

func (c *Client) http() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

func (c *Client) url(path string) (string, error) {
	if c.BaseURL == "" {
		return "", errServeNoBase
	}
	return strings.TrimRight(c.BaseURL, "/") + path, nil
}

// jitterRand is the default shared jitter source (rand.Float64 is
// goroutine-safe via its internal lock).
var (
	jitterOnce sync.Once
	jitterSrc  *rand.Rand
	jitterMu   sync.Mutex
)

func defaultJitter() float64 {
	jitterOnce.Do(func() {
		jitterSrc = rand.New(rand.NewSource(time.Now().UnixNano()))
	})
	jitterMu.Lock()
	defer jitterMu.Unlock()
	return jitterSrc.Float64()
}

func defaultSleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// backoff computes the attempt'th retry delay: the server's Retry-After
// when given, else BaseDelay * 2^attempt jittered to [d/2, d); either way
// capped at MaxDelay.
func (c *Client) backoff(p RetryPolicy, attempt int, retryAfter time.Duration) time.Duration {
	maxd := p.maxDelay()
	if retryAfter > 0 {
		if retryAfter > maxd {
			return maxd
		}
		return retryAfter
	}
	d := p.baseDelay() << uint(attempt)
	if d > maxd || d <= 0 {
		d = maxd
	}
	j := c.jitter
	if j == nil {
		j = defaultJitter
	}
	half := d / 2
	return half + time.Duration(j()*float64(half))
}

// doRetry runs fn (one HTTP attempt) under the client's retry policy:
// *ServeError replies that are Temporary are retried up to MaxRetries
// times with backoff; everything else returns immediately.
func (c *Client) doRetry(ctx context.Context, fn func() error) error {
	policy := c.Retry
	if policy == nil {
		return fn()
	}
	sleep := c.sleep
	if sleep == nil {
		sleep = defaultSleep
	}
	var err error
	for attempt := 0; ; attempt++ {
		err = fn()
		se, ok := asServeError(err)
		if !ok || !se.Temporary() || attempt >= policy.maxRetries() {
			return err
		}
		if serr := sleep(ctx, c.backoff(*policy, attempt, se.RetryAfter)); serr != nil {
			return fmt.Errorf("dcnflow: retry wait: %w (last server reply: %v)", serr, err)
		}
	}
}

// asServeError unwraps err to a *ServeError.
func asServeError(err error) (*ServeError, bool) {
	if err == nil {
		return nil, false
	}
	var se *ServeError
	ok := errors.As(err, &se)
	return se, ok
}

// decodeServeError turns a non-2xx serve reply into a *ServeError carrying
// the status, the {"error": ...} body and the Retry-After hint.
func decodeServeError(resp *http.Response, body io.Reader) error {
	se := &ServeError{
		Status:     resp.StatusCode,
		RetryAfter: parseRetryAfter(resp.Header),
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(body).Decode(&e); err == nil {
		se.Message = e.Error
	}
	return se
}

// post sends body as JSON and decodes a 2xx reply into out; non-2xx
// replies come back as *ServeError carrying the server's status, message
// and Retry-After hint (a 422 or 504 solve reply is a full ServeResponse,
// whose "error" field decodes the same way).
func (c *Client) post(ctx context.Context, path string, body, out any) error {
	u, err := c.url(path)
	if err != nil {
		return err
	}
	data, err := json.Marshal(body)
	if err != nil {
		return fmt.Errorf("dcnflow: encoding request: %w", err)
	}
	return c.doRetry(ctx, func() error {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, bytes.NewReader(data))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := c.http().Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode < 200 || resp.StatusCode >= 300 {
			return decodeServeError(resp, resp.Body)
		}
		return json.NewDecoder(resp.Body).Decode(out)
	})
}

// Solve runs one request on the server. A solver-level failure (422/504)
// is returned as an error carrying the server's message; transport and
// decoding failures likewise. Admission rejections (429/503) are retried
// first when Retry is set.
func (c *Client) Solve(ctx context.Context, req ServeRequest) (*ServeResponse, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var out ServeResponse
	if err := c.post(ctx, "/v1/solve", &req, &out); err != nil {
		return nil, err
	}
	if out.Error != "" {
		return nil, fmt.Errorf("dcnflow: server: %s", out.Error)
	}
	return &out, nil
}

// SolveBatch runs a batch on the server and returns one response per
// request, in request order. Per-request failures stay in their item's
// Error field — only transport-level problems (and exhausted 429/503
// retries) error here.
func (c *Client) SolveBatch(ctx context.Context, reqs []ServeRequest) ([]ServeResponse, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var out ServeBatchResponse
	if err := c.post(ctx, "/v1/batch", &ServeBatchRequest{Requests: reqs}, &out); err != nil {
		return nil, err
	}
	if len(out.Results) != len(reqs) {
		return nil, fmt.Errorf("dcnflow: server answered %d results for %d requests", len(out.Results), len(reqs))
	}
	return out.Results, nil
}

// Health fetches the server's health document.
func (c *Client) Health(ctx context.Context) (*ServeHealth, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	u, err := c.url("/healthz")
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeServeError(resp, resp.Body)
	}
	var out ServeHealth
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Metrics fetches the raw Prometheus text exposition from GET /metrics.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	u, err := c.url("/metrics")
	if err != nil {
		return "", err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return "", err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", decodeServeError(resp, resp.Body)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return "", err
	}
	return buf.String(), nil
}

// parseRetryAfter parses a Retry-After header (delta-seconds form; the
// HTTP-date form is ignored — the serve API never sends it). A well-formed
// value past the Duration range, one past the int range included, clamps
// to the largest Duration, which backoff then caps at MaxDelay.
func parseRetryAfter(h http.Header) time.Duration {
	v := h.Get("Retry-After")
	if v == "" {
		return 0
	}
	// On a range error Atoi returns the nearest int, so a huge positive
	// value arrives as math.MaxInt and a huge negative one as math.MinInt.
	secs, err := strconv.Atoi(strings.TrimSpace(v))
	if (err != nil && !errors.Is(err, strconv.ErrRange)) || secs < 0 {
		return 0
	}
	if int64(secs) > int64(math.MaxInt64/time.Second) {
		return math.MaxInt64
	}
	return time.Duration(secs) * time.Second
}
