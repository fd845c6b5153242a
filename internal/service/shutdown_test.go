package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/soteria-analysis/soteria/internal/api"
	"github.com/soteria-analysis/soteria/internal/paperapps"
)

// holdWorkers installs the job-running test hook so every job blocks
// until release is closed. Its cleanup unblocks any still-held workers
// (so a failing test can't wedge a later Shutdown) and restores the
// hook; call it AFTER registering the server's shutdown cleanup so the
// unblock runs first. Returns a channel reporting each job that
// reaches the running state.
func holdWorkers(t *testing.T, release <-chan struct{}) chan *job {
	t.Helper()
	running := make(chan *job, 16)
	abort := make(chan struct{})
	hook := func(j *job) {
		running <- j
		select {
		case <-release:
		case <-abort:
		}
	}
	testHookJobRunning.Store(&hook)
	t.Cleanup(func() {
		close(abort)
		testHookJobRunning.Store(nil)
	})
	return running
}

func postAsync(t *testing.T, url string) (*http.Response, map[string]any) {
	t.Helper()
	body, _ := json.Marshal(map[string]any{
		"name": "smoke", "source": paperapps.SmokeAlarm, "async": true,
	})
	resp, err := http.Post(url+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	var decoded map[string]any
	json.NewDecoder(resp.Body).Decode(&decoded)
	return resp, decoded
}

// TestBackpressure fills the single worker and the one-deep queue,
// then asserts the next submission is rejected with 429 + Retry-After
// instead of blocking or erroring.
func TestBackpressure(t *testing.T) {
	s, err := New(Config{Workers: 1, QueueDepth: 1, RetryAfter: 3 * time.Second})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	release := make(chan struct{})
	running := holdWorkers(t, release)

	// Job A occupies the worker; the sources differ per request key
	// only through options, so identical bodies still re-queue because
	// there is no store configured.
	respA, bodyA := postAsync(t, ts.URL)
	if respA.StatusCode != http.StatusAccepted {
		t.Fatalf("job A: %d", respA.StatusCode)
	}
	select {
	case <-running:
	case <-time.After(10 * time.Second):
		t.Fatal("job A never started running")
	}

	// Job B fills the queue.
	if respB, _ := postAsync(t, ts.URL); respB.StatusCode != http.StatusAccepted {
		t.Fatalf("job B: %d", respB.StatusCode)
	}

	// Job C must bounce with the configured backoff hint.
	respC, bodyC := postAsync(t, ts.URL)
	if respC.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("job C: %d (%v), want 429", respC.StatusCode, bodyC)
	}
	if ra := respC.Header.Get("Retry-After"); ra != "3" {
		t.Fatalf("Retry-After = %q, want \"3\"", ra)
	}
	if got := s.jobsRejected.Load(); got != 1 {
		t.Fatalf("jobsRejected = %d, want 1", got)
	}

	// Releasing the worker drains A and B to completion.
	close(release)
	idA, _ := bodyA["job_id"].(string)
	waitJobStatus(t, ts.URL, idA, "done")
}

// TestShutdownDrainsInFlight is the graceful-drain acceptance test:
// with a worker mid-job and another job queued, Shutdown must reject
// new work (503 on submit and healthz), let both jobs finish, and only
// then return.
func TestShutdownDrainsInFlight(t *testing.T) {
	release := make(chan struct{})
	running := holdWorkers(t, release)

	s, err := New(Config{Workers: 1, QueueDepth: 4})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, bodyA := postAsync(t, ts.URL)
	select {
	case <-running:
	case <-time.After(10 * time.Second):
		t.Fatal("job A never started running")
	}
	_, bodyB := postAsync(t, ts.URL) // queued behind A

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdownErr <- s.Shutdown(ctx)
	}()
	waitFor(t, "server draining", func() bool { return s.Draining() })

	// New work and health checks are refused while draining.
	if resp, _ := postAsync(t, ts.URL); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: %d, want 503", resp.StatusCode)
	}
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: %d, want 503", hresp.StatusCode)
	}

	// The drain must not complete while a job is still in flight.
	select {
	case err := <-shutdownErr:
		t.Fatalf("Shutdown returned %v with a job in flight", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(release)
	select {
	case err := <-shutdownErr:
		if err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Shutdown never returned after release")
	}

	// Both the in-flight and the queued job ran to completion, and
	// their records remain pollable after the drain.
	for _, body := range []map[string]any{bodyA, bodyB} {
		id, _ := body["job_id"].(string)
		j, ok := s.lookupJob(id)
		if !ok {
			t.Fatalf("job %s lost during drain", id)
		}
		if st, results, _ := j.snapshot(); st != api.StatusDone || len(results) != 1 || results[0].Result == nil {
			t.Fatalf("job %s after drain: status %s, results %v", id, st, results)
		}
	}
}

// TestShutdownDeadlineCancelsBudgets exercises the forced-drain path:
// when the drain context expires, Shutdown cancels the jobs' base
// context so blocked analyses abort, and returns the context error
// after the workers exit.
func TestShutdownDeadlineCancelsBudgets(t *testing.T) {
	s, err := New(Config{Workers: 1, QueueDepth: 4})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// The hook holds the job until the server's base context is
	// canceled — simulating an analysis that only stops when its
	// budget's context is torn down.
	hook := func(j *job) { <-s.baseCtx.Done() }
	testHookJobRunning.Store(&hook)
	t.Cleanup(func() { testHookJobRunning.Store(nil) })

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, body := postAsync(t, ts.URL)
	id, _ := body["job_id"].(string)
	waitFor(t, "job running", func() bool {
		j, ok := s.lookupJob(id)
		if !ok {
			return false
		}
		st, _, _ := j.snapshot()
		return st == api.StatusRunning
	})

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want DeadlineExceeded", err)
	}
	// The worker exited, which means the job finished (with whatever
	// partial verdict the canceled budget allowed).
	j, _ := s.lookupJob(id)
	select {
	case <-j.done:
	default:
		t.Fatal("job never completed after forced drain")
	}
}

func waitJobStatus(t *testing.T, base, id, want string) {
	t.Helper()
	waitFor(t, "job "+id+" "+want, func() bool {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		var body map[string]any
		json.NewDecoder(resp.Body).Decode(&body)
		return body["status"] == want
	})
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
