package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"github.com/soteria-analysis/soteria/internal/api"
	"github.com/soteria-analysis/soteria/internal/core"
	"github.com/soteria-analysis/soteria/internal/obs"
	"github.com/soteria-analysis/soteria/internal/report"
)

// Handler returns the service's HTTP API:
//
//	POST /v1/analyze        analyze one app or a multi-app union
//	POST /v1/batch          analyze many items in one job
//	GET  /v1/jobs/{id}      poll an async job
//	GET  /v1/results/{hash} look up a stored record by content address
//	PUT  /v1/results/{hash} park a record in this node's local store
//	GET  /v1/cluster/status fleet membership, shares, routing counters
//	GET  /healthz           liveness (503 while draining)
//	GET  /metrics           Prometheus text metrics
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/analyze", s.handleAnalyze)
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/results/{hash}", s.handleResult)
	mux.HandleFunc("PUT /v1/results/{hash}", s.handlePutResult)
	mux.HandleFunc("GET /v1/cluster/status", s.handleClusterStatus)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s.logRequests(mux)
}

// statusRecorder captures the response status for the request log.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// logRequests emits one structured log line per request. The trace ID
// is taken from the response (the ID the handler adopted or minted),
// falling back to a valid client-supplied header — so every attempt of
// a retried submission logs under the same trace even when it is
// rejected before a job exists.
func (s *Server) logRequests(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		next.ServeHTTP(rec, r)
		trace := rec.Header().Get(api.TraceHeader)
		if trace == "" {
			if h := r.Header.Get(api.TraceHeader); obs.ValidTraceID(h) {
				trace = h
			}
		}
		attrs := []any{
			"method", r.Method, "path", r.URL.Path,
			"status", rec.code, "dur_ms", time.Since(start).Milliseconds(),
		}
		if trace != "" {
			attrs = append(attrs, "trace", trace)
		}
		s.logger.Info("http request", attrs...)
	})
}

// requestTrace adopts a valid client-supplied trace ID or mints one.
func requestTrace(r *http.Request) string {
	if h := r.Header.Get(api.TraceHeader); obs.ValidTraceID(h) {
		return h
	}
	return obs.NewTraceID()
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// readBody reads a capped request body, mapping the cap to 413.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, *httpError) {
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return nil, tooLarge("request body exceeds %d bytes", mbe.Limit)
		}
		return nil, badRequest("reading body: %v", err)
	}
	return data, nil
}

// rejectSubmit maps a submit error to its status code: 429 with a
// Retry-After hint for a full queue, 503 while draining.
func (s *Server) rejectSubmit(w http.ResponseWriter, err error) {
	if errors.Is(err, errDraining) {
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	secs := int64((s.cfg.RetryAfter + time.Second - 1) / time.Second)
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	writeError(w, http.StatusTooManyRequests, "job queue is full, retry after %ds", secs)
}

// respondJob renders a completed or polled job. The job's trace ID is
// returned in X-Soteria-Trace; when the job asked for timings, each
// record in the response carries the span tree on a per-response copy
// (never the stored record — timing data is run-varying and must stay
// out of the content-addressed bytes).
func respondJob(w http.ResponseWriter, code int, j *job) {
	status, results, elapsed := j.snapshot()
	if j.trace != "" {
		w.Header().Set(api.TraceHeader, j.trace)
	}
	resp := api.Job{JobID: j.id, Status: status, ElapsedMS: elapsed.Milliseconds()}
	if !status.Terminal() {
		resp.Poll = "/v1/jobs/" + j.id
		writeJSON(w, code, resp)
		return
	}
	var timing *report.Timing
	if j.timings {
		timing = report.TimingFromSpan(j.trace, j.spanTree())
	}
	withTiming := func(rec *report.Record) *report.Record {
		if rec == nil || timing == nil {
			return rec
		}
		cp := *rec
		cp.Timing = timing
		return &cp
	}
	if j.batch {
		for _, it := range results {
			it.Result = withTiming(it.Result)
			resp.Results = append(resp.Results, it)
		}
	} else if len(results) == 1 {
		resp.Key = results[0].StoreKey
		resp.Cached = results[0].Cached
		resp.Result = withTiming(results[0].Result)
		resp.Error = results[0].Error
		resp.Node = results[0].Node
	}
	writeJSON(w, code, resp)
}

// applyIdemHeader merges the Idempotency-Key header into a parsed
// job. The body field wins when both are present and equal; differing
// values are a client bug worth surfacing.
func applyIdemHeader(j *job, r *http.Request) *httpError {
	h := r.Header.Get("Idempotency-Key")
	if h == "" {
		return nil
	}
	if herr := validateIdemKey(h); herr != nil {
		return herr
	}
	if j.idemKey != "" && j.idemKey != h {
		return badRequest("idempotency_key %q and Idempotency-Key header %q differ", j.idemKey, h)
	}
	j.idemKey = h
	return nil
}

// handleAnalyze serves POST /v1/analyze. The persistent store is
// consulted before any queueing: a content hit answers immediately
// without occupying a worker, so re-analyses of known apps are cheap
// even under full load.
func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	data, herr := s.readBody(w, r)
	if herr == nil {
		var j *job
		j, herr = s.parseAnalyze(data)
		if herr == nil {
			herr = applyIdemHeader(j, r)
		}
		if herr == nil {
			j.raw = data
			s.finishOrQueue(w, r, j)
			return
		}
	}
	writeError(w, herr.code, "%s", herr.msg)
}

// handleBatch serves POST /v1/batch.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	data, herr := s.readBody(w, r)
	if herr == nil {
		var j *job
		j, herr = s.parseBatch(data)
		if herr == nil {
			herr = applyIdemHeader(j, r)
		}
		if herr == nil {
			s.finishOrQueue(w, r, j)
			return
		}
	}
	writeError(w, herr.code, "%s", herr.msg)
}

// finishOrQueue completes a job from the store when every item is a
// hit, otherwise queues it — waiting for completion on sync requests,
// returning 202 + poll URL on async ones.
//
// Ordering for durability: the idempotency claim is taken first (so
// concurrent resubmissions cannot both run), then the accepted entry
// is fsynced into the journal, and only then is the job queued and
// acknowledged. A crash before the ack can at worst re-run a job the
// client never saw accepted; a crash after it cannot lose the job.
func (s *Server) finishOrQueue(w http.ResponseWriter, r *http.Request, j *job) {
	j.id = newJobID()
	// The trace ID is fixed before the job is published anywhere (the
	// idempotency index, the journal, the queue): every log line and
	// response about this job carries the same ID.
	j.trace = requestTrace(r)
	j.forwarded = r.Header.Get(api.ForwardedHeader) != ""
	if j.idemKey != "" {
		if prev, claimed := s.claimIdem(j.idemKey, j); !claimed {
			// Resubmission: the key's original job answers, whatever
			// state it is in — terminal jobs return their results
			// without re-running the analysis, in-flight ones a poll
			// handle.
			s.idemHits.Add(1)
			code := http.StatusOK
			if st, _, _ := prev.snapshot(); !st.Terminal() {
				code = http.StatusAccepted
			}
			respondJob(w, code, prev)
			return
		}
	}
	if s.finishFromStore(j) {
		s.registerJob(j)
		respondJob(w, http.StatusOK, j)
		return
	}
	if s.maybeRoute(w, r, j) {
		return
	}
	if err := s.journal.append(acceptedEvent(j)); err != nil {
		// Durability cannot be promised; better a retryable 503 than an
		// acknowledged job a crash would silently lose.
		s.releaseIdem(j.idemKey, j)
		s.logger.Error("journal accepted append failed", "job", j.id, "trace", j.trace, "error", err)
		w.Header().Set(api.TraceHeader, j.trace)
		writeError(w, http.StatusServiceUnavailable, "job journal write failed")
		return
	}
	if err := s.submit(j); err != nil {
		// Withdraw the accepted entry so a restart does not resurrect a
		// job the client was told to retry, and free its key.
		if jerr := s.journal.append(journalEvent{Op: opRejected, Job: j.id, Idem: j.idemKey}); jerr != nil {
			s.logger.Error("journal rejected append failed", "job", j.id, "trace", j.trace, "error", jerr)
		}
		w.Header().Set(api.TraceHeader, j.trace)
		s.releaseIdem(j.idemKey, j)
		s.rejectSubmit(w, err)
		return
	}
	if j.async {
		respondJob(w, http.StatusAccepted, j)
		return
	}
	select {
	case <-j.done:
		code := http.StatusOK
		if st, _, _ := j.snapshot(); st == api.StatusFailed {
			code = http.StatusUnprocessableEntity
		}
		respondJob(w, code, j)
	case <-r.Context().Done():
		// Client gone; the job keeps running and lands in the store,
		// so a retried request becomes a cache hit.
	}
}

// finishFromStore serves a whole job from the persistent backend —
// the local store, or the fleet's peer-routed view of it, so a node
// answers from any replica's cache before analyzing or forwarding.
// All items must hit; a partial hit set still queues the job (the
// worker's cache reuses whatever is warm).
func (s *Server) finishFromStore(j *job) bool {
	if s.cfg.Store == nil && s.cfg.Cluster == nil {
		return false
	}
	root := obs.NewRoot("job")
	root.Set("trace", j.trace)
	root.Set("cached", "true")
	results := make([]api.BatchItem, len(j.items))
	for i, it := range j.items {
		key := core.AnalysisKey(it.Sources, j.opts)
		rec, ok := s.backend.Get(key)
		if !ok {
			return false
		}
		results[i] = api.BatchItem{Key: it.Key, StoreKey: key, Cached: true, Result: rec}
	}
	s.jobsDone.Add(1)
	root.End()
	j.mu.Lock()
	j.status = api.StatusDone
	j.results = results
	j.elapsed = root.Duration()
	j.span = root
	j.mu.Unlock()
	close(j.done)
	s.jobLatency.Observe(root.Duration())
	return true
}

// handleJob serves GET /v1/jobs/{id}.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	respondJob(w, http.StatusOK, j)
}

// handleResult serves GET /v1/results/{hash} straight from the LOCAL
// store — deliberately not the cluster backend. Peers resolve a key by
// asking its owner on this endpoint, so an owner answering from its
// own disk (and never re-routing) is what terminates every cross-node
// read in one hop.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	rec, ok := s.cfg.Store.Get(hash)
	if !ok {
		writeError(w, http.StatusNotFound, "no stored result for %q", hash)
		return
	}
	data, err := report.Encode(rec)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "encoding record: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

// handleHealth serves GET /healthz: 200 while serving, 503 once
// draining so load balancers stop routing here before shutdown.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"uptime_seconds": int64(time.Since(s.started).Seconds()),
		"workers":        s.cfg.Workers,
	})
}
