package client

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/soteria-analysis/soteria/internal/api"
)

// fakeTime is an injectable clock + sleep recorder: sleeps advance the
// clock instantly and are logged for assertion.
type fakeTime struct {
	mu     sync.Mutex
	now    time.Time
	slept  []time.Duration
	refuse bool // make sleep fail like a canceled context
}

func (f *fakeTime) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

func (f *fakeTime) Sleep(ctx context.Context, d time.Duration) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.refuse {
		return context.Canceled
	}
	f.slept = append(f.slept, d)
	f.now = f.now.Add(d)
	return nil
}

func (f *fakeTime) Advance(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.now = f.now.Add(d)
}

func (f *fakeTime) Slept() []time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]time.Duration{}, f.slept...)
}

// newTestClient wires a client to ts with a deterministic clock and
// jitter pinned to the maximum (jitter() == 1 − ε ≈ full ceiling).
func newTestClient(t *testing.T, ts *httptest.Server, mutate func(*Config)) (*Client, *fakeTime) {
	t.Helper()
	ft := &fakeTime{now: time.Unix(1700000000, 0)}
	cfg := Config{
		BaseURL: ts.URL,
		now:     ft.Now,
		sleep:   ft.Sleep,
		jitter:  func() float64 { return 1.0 },
	}
	if mutate != nil {
		mutate(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c, ft
}

// scripted serves canned status codes in order, then the last one
// forever, capturing request bodies.
type scripted struct {
	mu     sync.Mutex
	codes  []int
	calls  int
	bodies []string
	hdr    map[string]string
}

func (s *scripted) handler() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		i := s.calls
		s.calls++
		if i >= len(s.codes) {
			i = len(s.codes) - 1
		}
		code := s.codes[i]
		var body []byte
		if r.Body != nil {
			buf := make([]byte, 64<<10)
			n, _ := r.Body.Read(buf)
			body = buf[:n]
		}
		s.bodies = append(s.bodies, string(body))
		hdr := s.hdr
		s.mu.Unlock()
		for k, v := range hdr {
			w.Header().Set(k, v)
		}
		if code >= 400 {
			w.WriteHeader(code)
			w.Write([]byte(`{"error":"scripted failure"}`))
			return
		}
		w.WriteHeader(code)
		w.Write([]byte(`{"job_id":"j1","status":"done"}`))
	}
}

func (s *scripted) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls
}

func TestRetriesTransientThenSucceeds(t *testing.T) {
	sc := &scripted{codes: []int{500, 503, 200}}
	ts := httptest.NewServer(sc.handler())
	defer ts.Close()
	c, ft := newTestClient(t, ts, nil)

	j, err := c.Analyze(context.Background(), api.AnalyzeRequest{Apps: []api.App{{Name: "a", Source: "x"}}})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if j.JobID != "j1" || !j.Status.Terminal() {
		t.Fatalf("job: %+v", j)
	}
	if sc.count() != 3 {
		t.Fatalf("attempts = %d, want 3", sc.count())
	}
	// Exponential schedule at full jitter: base, 2*base.
	want := []time.Duration{100 * time.Millisecond, 200 * time.Millisecond}
	got := ft.Slept()
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("backoffs = %v, want %v", got, want)
	}
}

func TestIdempotencyKeyStableAcrossRetries(t *testing.T) {
	sc := &scripted{codes: []int{500, 200}}
	ts := httptest.NewServer(sc.handler())
	defer ts.Close()
	c, _ := newTestClient(t, ts, nil)

	if _, err := c.Analyze(context.Background(), api.AnalyzeRequest{Apps: []api.App{{Name: "a", Source: "x"}}}); err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if len(sc.bodies) != 2 {
		t.Fatalf("bodies = %d", len(sc.bodies))
	}
	keys := make([]string, 2)
	for i, b := range sc.bodies {
		var req struct {
			IdempotencyKey string `json:"idempotency_key"`
		}
		if err := json.Unmarshal([]byte(b), &req); err != nil {
			t.Fatalf("body %d: %v", i, err)
		}
		keys[i] = req.IdempotencyKey
	}
	if keys[0] == "" || keys[0] != keys[1] {
		t.Fatalf("idempotency keys across retries: %q vs %q", keys[0], keys[1])
	}
}

func TestHonorsRetryAfterFloor(t *testing.T) {
	sc := &scripted{codes: []int{429, 200}, hdr: map[string]string{"Retry-After": "3"}}
	ts := httptest.NewServer(sc.handler())
	defer ts.Close()
	c, ft := newTestClient(t, ts, nil)

	if _, err := c.Analyze(context.Background(), api.AnalyzeRequest{Apps: []api.App{{Name: "a", Source: "x"}}}); err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	got := ft.Slept()
	if len(got) != 1 || got[0] != 3*time.Second {
		t.Fatalf("backoffs = %v, want [3s] (Retry-After floor over 100ms schedule)", got)
	}
}

func TestNoRetryOnClientError(t *testing.T) {
	sc := &scripted{codes: []int{400}}
	ts := httptest.NewServer(sc.handler())
	defer ts.Close()
	c, _ := newTestClient(t, ts, nil)

	_, err := c.Analyze(context.Background(), api.AnalyzeRequest{Apps: []api.App{{Name: "a", Source: "x"}}})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != 400 {
		t.Fatalf("err = %v, want 400 APIError", err)
	}
	if sc.count() != 1 {
		t.Fatalf("400 was retried: %d attempts", sc.count())
	}
}

func TestDeadlineAwareBackoff(t *testing.T) {
	sc := &scripted{codes: []int{500}}
	ts := httptest.NewServer(sc.handler())
	defer ts.Close()
	c, ft := newTestClient(t, ts, func(cfg *Config) {
		cfg.BaseBackoff = 2 * time.Second // first backoff exceeds the deadline budget
	})
	// The real deadline also governs the HTTP attempt, so the fake
	// clock must track real time for this test.
	ft.mu.Lock()
	ft.now = time.Now()
	ft.mu.Unlock()

	// Deadline 1s out; the first backoff would be 2s — the client must
	// give up immediately instead of sleeping into a dead context.
	ctx, cancel := context.WithDeadline(context.Background(), ft.Now().Add(time.Second))
	defer cancel()
	_, err := c.Analyze(ctx, api.AnalyzeRequest{Apps: []api.App{{Name: "a", Source: "x"}}})
	if err == nil {
		t.Fatalf("expected error")
	}
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != 500 {
		t.Fatalf("deadline abort must surface the last server error, got %v", err)
	}
	if len(ft.Slept()) != 0 {
		t.Fatalf("slept %v with no room before deadline", ft.Slept())
	}
	if sc.count() != 1 {
		t.Fatalf("attempts = %d, want 1", sc.count())
	}
}

func TestCircuitBreakerOpensAndRecovers(t *testing.T) {
	sc := &scripted{codes: []int{500, 500, 200}}
	ts := httptest.NewServer(sc.handler())
	defer ts.Close()
	c, ft := newTestClient(t, ts, func(cfg *Config) {
		cfg.MaxAttempts = 1
		cfg.BreakerThreshold = 2
		cfg.BreakerCooldown = 10 * time.Second
	})
	ctx := context.Background()
	req := api.AnalyzeRequest{Apps: []api.App{{Name: "a", Source: "x"}}}

	for i := 0; i < 2; i++ {
		if _, err := c.Analyze(ctx, req); err == nil {
			t.Fatalf("call %d unexpectedly succeeded", i)
		}
	}
	// Threshold reached: the next call must fail fast, no HTTP attempt.
	before := sc.count()
	_, err := c.Analyze(ctx, req)
	if !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("err = %v, want ErrCircuitOpen", err)
	}
	if sc.count() != before {
		t.Fatalf("open circuit still sent a request")
	}

	// After the cooldown one half-open probe goes through; the healthy
	// response closes the circuit.
	ft.Advance(11 * time.Second)
	if _, err := c.Analyze(ctx, req); err != nil {
		t.Fatalf("half-open probe: %v", err)
	}
	if _, err := c.Analyze(ctx, req); err != nil {
		t.Fatalf("closed circuit: %v", err)
	}
}

func TestWaitPollsToTerminal(t *testing.T) {
	var calls int
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		status := "running"
		if calls >= 3 {
			status = "done"
		}
		json.NewEncoder(w).Encode(map[string]any{"job_id": "j7", "status": status})
	}))
	defer ts.Close()
	c, ft := newTestClient(t, ts, nil)

	j, err := c.Wait(context.Background(), "j7")
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if j.Status != "done" || calls != 3 {
		t.Fatalf("status=%s after %d polls", j.Status, calls)
	}
	for _, d := range ft.Slept() {
		if d != 250*time.Millisecond {
			t.Fatalf("poll pacing: %v", ft.Slept())
		}
	}
}

func TestNetworkErrorRetries(t *testing.T) {
	// A server that is immediately closed: every attempt is a transport
	// error, which must retry and count toward the breaker.
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	url := ts.URL
	ts.Close()
	ft := &fakeTime{now: time.Unix(1700000000, 0)}
	c, err := New(Config{
		BaseURL: url, MaxAttempts: 3,
		now: ft.Now, sleep: ft.Sleep, jitter: func() float64 { return 1.0 },
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	_, aerr := c.Analyze(context.Background(), api.AnalyzeRequest{Apps: []api.App{{Name: "a", Source: "x"}}})
	if aerr == nil {
		t.Fatalf("expected transport failure")
	}
	if got := len(ft.Slept()); got != 2 {
		t.Fatalf("backoffs = %d, want 2 (3 attempts)", got)
	}
}

// TestTraceIDStableAcrossRetries: the client mints one trace ID per
// logical submission and sends it on every attempt's X-Soteria-Trace
// header, so a retried request is one trace in the daemon's logs; the
// echoed ID lands on Job.Trace.
func TestTraceIDStableAcrossRetries(t *testing.T) {
	var (
		mu     sync.Mutex
		traces []string
	)
	calls := 0
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		traces = append(traces, r.Header.Get("X-Soteria-Trace"))
		n := calls
		calls++
		mu.Unlock()
		w.Header().Set("X-Soteria-Trace", r.Header.Get("X-Soteria-Trace"))
		if n < 2 {
			w.WriteHeader(http.StatusInternalServerError)
			w.Write([]byte(`{"error":"scripted failure"}`))
			return
		}
		w.Write([]byte(`{"job_id":"j1","status":"done"}`))
	}))
	defer ts.Close()
	c, _ := newTestClient(t, ts, nil)

	j, err := c.Analyze(context.Background(), api.AnalyzeRequest{Apps: []api.App{{Name: "a", Source: "x"}}})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(traces) != 3 {
		t.Fatalf("attempts = %d, want 3", len(traces))
	}
	if traces[0] == "" {
		t.Fatalf("no trace header on first attempt")
	}
	for i, tr := range traces {
		if tr != traces[0] {
			t.Fatalf("attempt %d trace %q != first attempt's %q", i, tr, traces[0])
		}
	}
	if j.Trace != traces[0] {
		t.Fatalf("Job.Trace = %q, want the sent trace %q", j.Trace, traces[0])
	}
}

// TestTimingsFlagOnWire: AnalyzeRequest.Timings reaches the body.
func TestTimingsFlagOnWire(t *testing.T) {
	sc := &scripted{codes: []int{200}}
	ts := httptest.NewServer(sc.handler())
	defer ts.Close()
	c, _ := newTestClient(t, ts, nil)

	if _, err := c.Analyze(context.Background(), api.AnalyzeRequest{Apps: []api.App{{Name: "a", Source: "x"}}, Timings: true}); err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	var req struct {
		Timings bool `json:"timings"`
	}
	if err := json.Unmarshal([]byte(sc.bodies[0]), &req); err != nil {
		t.Fatalf("body: %v", err)
	}
	if !req.Timings {
		t.Fatalf("timings flag missing from wire body: %s", sc.bodies[0])
	}
}

// TestRetryAfterForms: both RFC 9110 Retry-After forms parse — plain
// delay-seconds and HTTP-date — and negative or already-past values
// clamp to zero instead of producing a negative backoff floor.
func TestRetryAfterForms(t *testing.T) {
	now := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	mk := func(v string) *http.Response {
		h := http.Header{}
		if v != "" {
			h.Set("Retry-After", v)
		}
		return &http.Response{Header: h}
	}
	cases := []struct {
		name, header string
		want         time.Duration
	}{
		{"absent", "", 0},
		{"seconds", "3", 3 * time.Second},
		{"zero seconds", "0", 0},
		{"negative seconds clamp", "-5", 0},
		{"http-date future", now.Add(5 * time.Second).Format(http.TimeFormat), 5 * time.Second},
		{"http-date past clamp", now.Add(-30 * time.Second).Format(http.TimeFormat), 0},
		{"rfc850 future", now.Add(7 * time.Second).Format("Monday, 02-Jan-06 15:04:05 MST"), 7 * time.Second},
		{"garbage", "soon", 0},
	}
	for _, tc := range cases {
		if got := retryAfter(mk(tc.header), now); got != tc.want {
			t.Errorf("%s: retryAfter(%q) = %v, want %v", tc.name, tc.header, got, tc.want)
		}
	}
	if got := retryAfter(nil, now); got != 0 {
		t.Errorf("nil response: %v, want 0", got)
	}
}

// TestRetryAfterHTTPDateFloorsBackoff: a date-form hint reaches the
// backoff as a floor end to end, like the seconds form always has.
func TestRetryAfterHTTPDateFloorsBackoff(t *testing.T) {
	wall := time.Now()
	sc := &scripted{codes: []int{429, 200},
		hdr: map[string]string{"Retry-After": wall.Add(4 * time.Second).Format(http.TimeFormat)}}
	ts := httptest.NewServer(sc.handler())
	defer ts.Close()
	c, ft := newTestClient(t, ts, nil)
	// The date is absolute, so the fake clock must sit at real wall time
	// for the subtraction to mean anything.
	ft.mu.Lock()
	ft.now = wall
	ft.mu.Unlock()

	if _, err := c.Analyze(context.Background(), api.AnalyzeRequest{Apps: []api.App{{Name: "a", Source: "x"}}}); err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	got := ft.Slept()
	if len(got) != 1 || got[0] < 3*time.Second || got[0] > 4*time.Second {
		t.Fatalf("backoffs = %v, want one sleep in [3s, 4s] (HTTP-date floor)", got)
	}
}

// TestBreakerHalfOpenSingleProbe: when the cooldown elapses, exactly
// one of many concurrent callers is admitted as the half-open probe;
// the rest fail fast. Run with -race: the breaker's counters are
// exercised from every goroutine at once.
func TestBreakerHalfOpenSingleProbe(t *testing.T) {
	br := &breaker{threshold: 2, cooldown: 10 * time.Second}
	t0 := time.Unix(1700000000, 0)
	br.record(false, t0)
	br.record(false, t0) // threshold reached: circuit opens at t0

	if br.allow(t0.Add(time.Second)) {
		t.Fatal("open circuit admitted a request inside the cooldown")
	}

	// Cooldown over: 32 concurrent callers race for the probe slot.
	after := t0.Add(11 * time.Second)
	var wg sync.WaitGroup
	var admitted atomic.Int64
	start := make(chan struct{})
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if br.allow(after) {
				admitted.Add(1)
			}
		}()
	}
	close(start)
	wg.Wait()
	if n := admitted.Load(); n != 1 {
		t.Fatalf("half-open admitted %d concurrent probes, want exactly 1", n)
	}

	// The losing callers failed fast without reporting an outcome; the
	// probe's failure re-opens the circuit for another full cooldown...
	br.record(false, after)
	if br.allow(after.Add(5 * time.Second)) {
		t.Fatal("circuit closed after a failed half-open probe")
	}
	// ...and a successful probe closes it for everyone.
	if !br.allow(after.Add(12 * time.Second)) {
		t.Fatal("no probe admitted after the second cooldown")
	}
	br.record(true, after.Add(12*time.Second))
	var open atomic.Int64
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if !br.allow(after.Add(13 * time.Second)) {
				open.Add(1)
			}
		}()
	}
	wg.Wait()
	if open.Load() != 0 {
		t.Fatalf("%d callers rejected after the breaker closed", open.Load())
	}
}

// TestClientHalfOpenConcurrentCallers: the same single-probe guarantee
// through the public API — concurrent Analyze calls against a healthy
// server after an open circuit's cooldown produce exactly one HTTP
// probe; the losers return ErrCircuitOpen without a request.
func TestClientHalfOpenConcurrentCallers(t *testing.T) {
	var reqs atomic.Int64
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reqs.Add(1)
		<-release // hold the probe in flight so the race window stays open
		w.Write([]byte(`{"job_id":"j1","status":"done"}`))
	}))
	defer ts.Close()

	ft := &fakeTime{now: time.Unix(1700000000, 0)}
	c, err := New(Config{
		BaseURL: ts.URL, MaxAttempts: 1,
		BreakerThreshold: 1, BreakerCooldown: 10 * time.Second,
		now: ft.Now, sleep: ft.Sleep, jitter: func() float64 { return 1.0 },
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// Trip the breaker directly: one failure meets the threshold.
	c.br.record(false, ft.Now())

	ft.Advance(11 * time.Second)
	req := api.AnalyzeRequest{Apps: []api.App{{Name: "a", Source: "x"}}}
	var wg sync.WaitGroup
	var fastFails atomic.Int64
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := c.Analyze(context.Background(), req)
			if errors.Is(err, ErrCircuitOpen) {
				fastFails.Add(1)
				return
			}
			errs <- err
		}()
	}
	// Let the losers drain, then release the held probe.
	for ft := 0; ft < 200 && fastFails.Load() < 7; ft++ {
		time.Sleep(5 * time.Millisecond)
	}
	close(release)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("probe winner failed: %v", err)
		}
	}
	if n := reqs.Load(); n != 1 {
		t.Fatalf("half-open window sent %d HTTP requests, want exactly 1 probe", n)
	}
	if n := fastFails.Load(); n != 7 {
		t.Fatalf("%d callers failed fast, want 7 of 8", n)
	}
}
