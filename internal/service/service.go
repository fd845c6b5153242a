// Package service is soteriad's serving tier: an HTTP JSON API over
// the core analysis pipeline, backed by a bounded job queue with
// per-job deadlines and the persistent content-addressed result store.
//
// Request lifecycle:
//
//	POST /v1/analyze ──▶ validate ──▶ store lookup ──hit──▶ 200 (cached)
//	                                      │miss
//	                                      ▼
//	                          bounded queue ──full──▶ 429 + Retry-After
//	                                      │
//	                                      ▼
//	                   worker pool (guard budgets, panic isolation)
//	                                      │
//	                                      ▼
//	                       store write-through ──▶ 200 / 202+poll
//
// Every analysis runs inside the resilience layer of PR 1 — resource
// budgets, cooperative cancellation, recovery boundaries — so a
// hostile or explosive app degrades one job, never the process. On
// SIGTERM the daemon stops accepting work (503), drains queued and
// in-flight jobs, and only then exits; a drain deadline cancels the
// jobs' budgets so even explosive analyses exit promptly with partial
// results.
package service

import (
	"container/list"
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"io"
	"log/slog"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/soteria-analysis/soteria/internal/api"
	"github.com/soteria-analysis/soteria/internal/cluster"
	"github.com/soteria-analysis/soteria/internal/core"
	"github.com/soteria-analysis/soteria/internal/fsio"
	"github.com/soteria-analysis/soteria/internal/guard"
	"github.com/soteria-analysis/soteria/internal/obs"
	"github.com/soteria-analysis/soteria/internal/report"
	"github.com/soteria-analysis/soteria/internal/store"
)

// Config configures a Server. The zero value is serviceable: defaults
// fill in workers, queue depth, timeouts, and size caps; Store may be
// nil for a purely in-memory (process-lifetime) cache.
type Config struct {
	// Workers is the number of concurrent analysis workers (default
	// GOMAXPROCS).
	Workers int
	// QueueDepth bounds the number of queued (not yet running) jobs;
	// past it, submissions are rejected with 429 (default 64).
	QueueDepth int
	// JobTimeout is the wall-clock ceiling per job; requests may ask
	// for less, never more (default 60s).
	JobTimeout time.Duration
	// MaxBodyBytes caps the request body (default 8 MiB).
	MaxBodyBytes int64
	// MaxSourceBytes caps one app's Groovy source (default 1 MiB).
	MaxSourceBytes int
	// MaxBatchItems caps items per batch request (default 64).
	MaxBatchItems int
	// Parallel is the per-analysis property-checking worker count
	// passed through to the pipeline (default 1).
	Parallel int
	// Limits are the per-job resource limits (states, BDD nodes, SAT
	// conflicts, formula depth); the zero value is unlimited. The
	// wall clock is governed by JobTimeout.
	Limits guard.Limits
	// Store is the persistent result store; nil disables cross-restart
	// memoization (in-process caching still applies).
	Store *store.Store
	// Cluster, when non-nil, turns this node into one member of a
	// sharded fleet: sync requests route to each key's ring owner and
	// federate back, and the result store reads and writes through the
	// owning replica (Store becomes the node's local shard). Nil keeps
	// the single-node behavior unchanged.
	Cluster *cluster.Cluster
	// JournalPath enables the durable job journal ("" disables): every
	// accepted job is journaled and fsynced before its acknowledgment,
	// and on restart the journal is replayed — incomplete jobs
	// re-enqueue under their original IDs, terminal jobs rebuild the
	// /v1/jobs table, and idempotency keys dedupe resubmissions.
	JournalPath string
	// FS overrides the journal's filesystem (nil = fsio.OS{}); tests
	// inject fsio.Faulty, the chaos harness fsio.Chaos.
	FS fsio.FS
	// RetryAfter is the backoff hint attached to 429 responses
	// (default 1s, rounded up to whole seconds).
	RetryAfter time.Duration
	// MaxJobRecords bounds the completed-job records retained for
	// GET /v1/jobs (default 1024; oldest are dropped).
	MaxJobRecords int
	// Logger receives structured request and job logs (every line
	// carries the job's trace ID); nil discards them.
	Logger *slog.Logger
	// SlowJobThreshold, when positive, dumps the full span tree of any
	// job whose wall time exceeds it to the log at Warn level.
	SlowJobThreshold time.Duration
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 60 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.MaxSourceBytes <= 0 {
		c.MaxSourceBytes = 1 << 20
	}
	if c.MaxBatchItems <= 0 {
		c.MaxBatchItems = 64
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.MaxJobRecords <= 0 {
		c.MaxJobRecords = 1024
	}
	return c
}

// job is one queued unit of work: a single analysis or a batch.
type job struct {
	id      string
	idemKey string // client-supplied idempotency key ("" = none)
	batch   bool
	async   bool
	items   []core.BatchItem
	opts    core.Options
	// trace is the job's trace ID: adopted from a valid X-Soteria-Trace
	// request header or minted at submission, then stamped on every log
	// line, response header, and journal entry. Written once before the
	// job is published (idempotency claim / queue), never after.
	trace string
	// timings requests the span tree in the job's response records.
	timings bool
	// forwarded marks a request that already crossed a routing hop: it
	// is served locally, never re-routed (the loop guard).
	forwarded bool
	// raw is the validated request body, kept for forwarding a
	// single-analysis job to its ring owner byte-for-byte.
	raw []byte
	// breq is the decoded batch request, kept for splitting a batch
	// into per-owner sub-batches (nil for single analyses).
	breq *api.BatchRequest
	// queuedAt feeds the queue-wait histogram (zero = not queued).
	queuedAt time.Time

	done chan struct{} // closed on completion

	mu      sync.Mutex
	status  api.Status
	results []api.BatchItem
	elapsed time.Duration
	// span is the job's completed trace tree (nil until terminal).
	span *obs.Span
}

func (j *job) setStatus(s api.Status) {
	j.mu.Lock()
	j.status = s
	j.mu.Unlock()
}

// snapshot returns the job's current state under its lock.
func (j *job) snapshot() (api.Status, []api.BatchItem, time.Duration) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status, j.results, j.elapsed
}

// spanTree returns the job's completed trace tree (nil until terminal).
func (j *job) spanTree() *obs.Span {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.span
}

// Server is the analysis service. Create one with New, mount
// Handler() on an http.Server, and call Shutdown to drain.
type Server struct {
	cfg    Config
	cache  *store.AnalysisCache
	logger *slog.Logger
	// backend is the persistent level requests read through: the local
	// store alone, or the cluster's peer-routed view of it.
	backend store.Backend

	queue    chan *job
	quiesce  sync.RWMutex // submitters hold R; Shutdown holds W to close queue
	draining atomic.Bool
	workers  sync.WaitGroup
	baseCtx  context.Context
	cancel   context.CancelFunc

	queueDepth guard.Gauge
	inflight   guard.Gauge

	jobsDone, jobsFailed, jobsRejected atomic.Int64

	// Cluster-routing counters: requests (or batch groups) forwarded to
	// their ring owner, and owner-unreachable local fallbacks.
	routeForwards, routeFallbacks atomic.Int64

	// journal is the durable job log (nil when Config.JournalPath is
	// empty — every append is then a no-op).
	journal *journal
	// Restart-recovery and idempotency counters for /metrics.
	jobsReplayed, jobsReenqueued, idemHits, journalDupKeys atomic.Int64

	// Latency histograms (log-spaced buckets, atomic): job end-to-end
	// wall time, queue wait at worker pickup, per-phase and per-engine
	// check durations. The maps are built once in New and read-only
	// after, so workers index them without a lock.
	jobLatency *obs.Histogram
	queueWait  *obs.Histogram
	phaseHist  map[string]*obs.Histogram
	engineHist map[string]*obs.Histogram

	// Engine/BDD-kernel and memo counters aggregated from job span
	// trees, surfaced on /metrics.
	bddNodes, bddITELookups, bddITEHits, bddOpLookups, bddOpHits atomic.Int64
	memoLookups, memoHits, memoSubformulas                       atomic.Int64
	slowJobs                                                     atomic.Int64

	jobsMu   sync.Mutex
	jobs     map[string]*job
	jobOrder *list.List      // of job IDs, oldest at back
	idem     map[string]*job // idempotency key → accepted job

	started time.Time
}

// phaseNames and engineNames fix the label sets (and exposition order)
// of the phase and engine histogram families.
var phaseNames = []string{"ir", "statemodel", "kripke", "check.general", "check"}

var engineNames = []string{"explicit", "bdd", "bmc"}

// testHookJobRunning, when set, is called by workers right after a
// job transitions to running. Tests use it to hold workers in place
// and exercise backpressure and drain deterministically. Atomic so a
// test restoring it cannot race a worker still draining.
var testHookJobRunning atomic.Pointer[func(*job)]

// New creates and starts a Server: its worker pool is live on return.
// With a journal configured, New first replays it — rebuilding the job
// table and idempotency index, truncating any torn tail, compacting
// completed history — and re-enqueues every job that was accepted but
// not yet terminal when the previous process died.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	ctx, cancel := context.WithCancel(context.Background())
	var backend store.Backend = cfg.Store
	if cfg.Cluster != nil {
		backend = cfg.Cluster.Backend(cfg.Store)
	}
	s := &Server{
		cfg:        cfg,
		cache:      store.NewAnalysisCache(backend),
		backend:    backend,
		logger:     cfg.Logger,
		baseCtx:    ctx,
		cancel:     cancel,
		jobs:       map[string]*job{},
		jobOrder:   list.New(),
		idem:       map[string]*job{},
		started:    time.Now(),
		jobLatency: obs.NewHistogram(obs.DefaultLatencyBounds()),
		queueWait:  obs.NewHistogram(obs.DefaultLatencyBounds()),
		phaseHist:  map[string]*obs.Histogram{},
		engineHist: map[string]*obs.Histogram{},
	}
	for _, p := range phaseNames {
		s.phaseHist[p] = obs.NewHistogram(obs.DefaultLatencyBounds())
	}
	for _, e := range engineNames {
		s.engineHist[e] = obs.NewHistogram(obs.DefaultLatencyBounds())
	}

	queueCap := cfg.QueueDepth
	var requeue []*job
	if cfg.JournalPath != "" {
		jr, events, err := openJournal(cfg.JournalPath, cfg.FS)
		if err != nil {
			cancel()
			return nil, err
		}
		s.journal = jr
		out := replayEvents(events, s.backend)
		s.jobsReplayed.Store(int64(len(out.jobs)))
		s.journalDupKeys.Store(int64(out.dupKeys))
		for _, j := range out.jobs { // oldest first, so newest ends in front
			s.registerJob(j)
		}
		for k, j := range out.idem {
			s.idem[k] = j
		}
		requeue = out.requeue
		// Re-enqueued jobs must not consume the fresh process's
		// backpressure budget: grow the queue to hold them all.
		queueCap += len(requeue)
		if err := jr.compact(compactEvents(out)); err != nil {
			cancel()
			return nil, err
		}
		if len(events) > 0 || jr.replay.TruncatedBytes > 0 {
			s.logger.Info("journal replayed",
				"events", len(events), "jobs", len(out.jobs), "reenqueued", len(requeue),
				"dup_keys", out.dupKeys, "truncated_bytes", jr.replay.TruncatedBytes)
		}
	}

	s.queue = make(chan *job, queueCap)
	for _, j := range requeue {
		j.setStatus(api.StatusQueued)
		j.queuedAt = time.Now()
		s.queue <- j
		s.queueDepth.Inc()
	}
	s.jobsReenqueued.Store(int64(len(requeue)))

	for i := 0; i < cfg.Workers; i++ {
		s.workers.Add(1)
		go s.worker()
	}
	return s, nil
}

// replayOutcome is the state rebuilt from a journal's events.
type replayOutcome struct {
	jobs    []*job // accepted order, oldest first (rejected ones dropped)
	idem    map[string]*job
	requeue []*job // accepted but not terminal: run them again
	dupKeys int
}

// replayEvents folds journal events into jobs. Terminal results are
// rehydrated from the content-addressed backend when it still holds
// the record — on a fleet member that read goes through the owning
// peer, since write-through placed the record on the key's owner, not
// necessarily on the node that ran the job. A missing record leaves
// the result's store key and status; the verdict bytes are
// re-derivable by resubmission.
func replayEvents(events []journalEvent, st store.Backend) replayOutcome {
	out := replayOutcome{idem: map[string]*job{}}
	byID := map[string]*job{}
	rejected := map[string]bool{}
	for _, ev := range events {
		switch ev.Op {
		case opAccepted:
			if byID[ev.Job] != nil {
				continue // duplicate accepted entry
			}
			if ev.Idem != "" && out.idem[ev.Idem] != nil {
				// A resubmission journaled inside a crash window: the
				// first accepted job answers for the key; running the
				// duplicate would analyze the same content twice.
				out.dupKeys++
				continue
			}
			j := jobFromAccepted(ev)
			byID[ev.Job] = j
			out.jobs = append(out.jobs, j)
			if j.idemKey != "" {
				out.idem[j.idemKey] = j
			}
		case opRejected:
			if j := byID[ev.Job]; j != nil {
				rejected[ev.Job] = true
				if j.idemKey != "" && out.idem[j.idemKey] == j {
					delete(out.idem, j.idemKey)
				}
			}
		case opDone, opFailed:
			j := byID[ev.Job]
			if j == nil {
				// Done-after-crash ordering: the terminal entry landed
				// (or survived compaction) without its accepted entry.
				// Surface the terminal state; there is nothing to re-run.
				j = &job{
					id: ev.Job, idemKey: ev.Idem, batch: ev.Batch, trace: ev.Trace,
					async: true, done: make(chan struct{}),
				}
				byID[ev.Job] = j
				out.jobs = append(out.jobs, j)
				if ev.Idem != "" && out.idem[ev.Idem] == nil {
					out.idem[ev.Idem] = j
				}
			}
			if j.status.Terminal() {
				continue // duplicate terminal entry
			}
			j.status = api.StatusDone
			if ev.Op == opFailed {
				j.status = api.StatusFailed
			}
			j.elapsed = time.Duration(ev.ElapsedMS) * time.Millisecond
			for _, r := range ev.Results {
				ir := api.BatchItem{Key: r.Key, StoreKey: r.StoreKey, Cached: r.Cached, Error: r.Err}
				if r.Err == "" && r.StoreKey != "" && st != nil {
					if rec, ok := st.Get(r.StoreKey); ok {
						ir.Result = rec
					}
				}
				j.results = append(j.results, ir)
			}
			close(j.done)
		}
	}
	kept := out.jobs[:0]
	for _, j := range out.jobs {
		if rejected[j.id] {
			continue
		}
		kept = append(kept, j)
		if j.status == api.StatusQueued && len(j.items) > 0 {
			out.requeue = append(out.requeue, j)
		}
	}
	out.jobs = kept
	return out
}

// compactEvents renders replayed state back to a minimal journal:
// full accepted entries for jobs that still need to run, slim
// accepted+terminal pairs for completed ones (their payloads live in
// the store, not the journal).
func compactEvents(out replayOutcome) []journalEvent {
	var evs []journalEvent
	for _, j := range out.jobs {
		switch j.status {
		case api.StatusDone, api.StatusFailed:
			evs = append(evs,
				journalEvent{Op: opAccepted, Job: j.id, Idem: j.idemKey, Batch: j.batch, Trace: j.trace},
				terminalEvent(j, j.status, j.results, j.elapsed))
		default:
			evs = append(evs, acceptedEvent(j))
		}
	}
	return evs
}

// terminalEvent renders a job's completion for the journal.
func terminalEvent(j *job, status api.Status, results []api.BatchItem, elapsed time.Duration) journalEvent {
	op := opDone
	if status == api.StatusFailed {
		op = opFailed
	}
	ev := journalEvent{
		Op: op, Job: j.id, Idem: j.idemKey, Batch: j.batch, Trace: j.trace,
		ElapsedMS: elapsed.Milliseconds(),
	}
	for _, r := range results {
		ev.Results = append(ev.Results, journalResult{
			Key: r.Key, StoreKey: r.StoreKey, Cached: r.Cached, Err: r.Error,
		})
	}
	return ev
}

// newJobID returns a 16-hex-char random job ID.
func newJobID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// math-free fallback: timestamp-derived, still unique enough
		// for a local job table.
		return fmt.Sprintf("t%015x", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}

// errQueueFull and errDraining classify rejected submissions.
var (
	errQueueFull = fmt.Errorf("service: job queue is full")
	errDraining  = fmt.Errorf("service: server is draining")
)

// submit enqueues a job, registering it in the job table. It never
// blocks: a full queue or a draining server rejects immediately.
func (s *Server) submit(j *job) error {
	s.quiesce.RLock()
	defer s.quiesce.RUnlock()
	if s.draining.Load() {
		s.jobsRejected.Add(1)
		return errDraining
	}
	// queuedAt must land before the channel send publishes j to a
	// worker.
	j.queuedAt = time.Now()
	select {
	case s.queue <- j:
		s.queueDepth.Inc()
		s.registerJob(j)
		return nil
	default:
		s.jobsRejected.Add(1)
		return errQueueFull
	}
}

// registerJob retains j for /v1/jobs lookups, evicting the oldest
// record — and its idempotency claim — past the bound.
func (s *Server) registerJob(j *job) {
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	s.jobs[j.id] = j
	s.jobOrder.PushFront(j.id)
	for s.jobOrder.Len() > s.cfg.MaxJobRecords {
		oldest := s.jobOrder.Back()
		s.jobOrder.Remove(oldest)
		id := oldest.Value.(string)
		if old := s.jobs[id]; old != nil && old.idemKey != "" && s.idem[old.idemKey] == old {
			delete(s.idem, old.idemKey)
		}
		delete(s.jobs, id)
	}
}

// lookupJob returns the retained job with the given ID.
func (s *Server) lookupJob(id string) (*job, bool) {
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// claimIdem makes j the holder of an idempotency key, or returns the
// job already holding it. Claims are taken before the accepted entry
// is journaled, so two concurrent resubmissions cannot both run.
func (s *Server) claimIdem(key string, j *job) (existing *job, claimed bool) {
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	if prev, ok := s.idem[key]; ok {
		return prev, false
	}
	s.idem[key] = j
	return nil, true
}

// releaseIdem withdraws a claim — the submission it covered was
// rejected, so a retry with the same key must be allowed to run.
func (s *Server) releaseIdem(key string, j *job) {
	if key == "" {
		return
	}
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	if s.idem[key] == j {
		delete(s.idem, key)
	}
}

// worker drains the queue until Shutdown closes it.
func (s *Server) worker() {
	defer s.workers.Done()
	for j := range s.queue {
		s.queueDepth.Dec()
		if !j.queuedAt.IsZero() {
			s.queueWait.Observe(time.Since(j.queuedAt))
		}
		s.runJob(j)
	}
}

// runJob executes a job under its deadline. The pipeline's own
// recovery boundaries contain panics and budget exhaustion per item;
// anything that still escapes is a per-item Error, never a dead worker.
func (s *Server) runJob(j *job) {
	s.inflight.Inc()
	j.setStatus(api.StatusRunning)
	if hook := testHookJobRunning.Load(); hook != nil {
		(*hook)(j)
	}
	// The root span IS the job's wall clock: elapsed is read from it,
	// so the timing tree's root duration and the job's elapsed_ms are
	// the same measurement.
	root := obs.NewRoot("job")
	root.Set("trace", j.trace)
	ctx, cancel := context.WithTimeout(s.baseCtx, s.cfg.JobTimeout)
	defer cancel()
	ctx = obs.WithSpan(ctx, root)

	bo := core.BatchOptions{
		Options:  j.opts,
		Parallel: 1, // items of one job run sequentially; jobs are the unit of concurrency
		Cache:    s.cache,
	}
	results := core.AnalyzeBatch(ctx, bo, j.items...)

	out := make([]api.BatchItem, len(results))
	failed := false
	for i, r := range results {
		out[i] = api.BatchItem{
			Key:      j.items[i].Key,
			StoreKey: core.AnalysisKey(j.items[i].Sources, j.opts),
			Cached:   r.Cached,
		}
		if r.Err != nil {
			out[i].Error = r.Err.Error()
			failed = true
			continue
		}
		out[i].Result = report.FromAnalysis(r.Analysis)
	}

	status := api.StatusDone
	if failed && !j.batch {
		// A batch with some failing items is still "done" (per-item
		// errors are in the results); a single analysis that failed is
		// a failed job.
		status = api.StatusFailed
	}
	if status == api.StatusFailed {
		s.jobsFailed.Add(1)
	} else {
		s.jobsDone.Add(1)
	}

	root.Set("status", string(status))
	root.End()
	elapsed := root.Duration()
	j.mu.Lock()
	j.status = status
	j.results = out
	j.elapsed = elapsed
	j.span = root
	j.mu.Unlock()
	// The job leaves the inflight gauge before its waiter is released,
	// so a client that saw the result never reads it as still running.
	s.inflight.Dec()
	close(j.done)
	s.recordTelemetry(root)
	// The terminal entry is appended after the results landed in the
	// store, so replay never sees "done" without its record bytes. A
	// failed append degrades durability of this one completion (the
	// job would re-run after a crash — and hit the store), not the job.
	if err := s.journal.append(terminalEvent(j, status, out, elapsed)); err != nil {
		s.logger.Error("journal terminal append failed", "job", j.id, "trace", j.trace, "error", err)
	}
	s.logger.Info("job finished",
		"job", j.id, "trace", j.trace, "status", string(status),
		"elapsed_ms", elapsed.Milliseconds(), "items", len(j.items))
	if s.cfg.SlowJobThreshold > 0 && elapsed >= s.cfg.SlowJobThreshold {
		s.slowJobs.Add(1)
		s.logger.Warn("slow job",
			"job", j.id, "trace", j.trace, "elapsed_ms", elapsed.Milliseconds(),
			"threshold_ms", s.cfg.SlowJobThreshold.Milliseconds(),
			"spans", "\n"+root.Render())
	}
}

// recordTelemetry folds one completed job's span tree into the
// daemon-wide histograms and engine/memo counters.
func (s *Server) recordTelemetry(root *obs.Span) {
	s.jobLatency.Observe(root.Duration())
	root.Walk(func(_ int, sp *obs.Span) {
		switch sp.Name() {
		case "ir", "statemodel", "kripke", "check.general":
			s.phaseHist[sp.Name()].Observe(sp.Duration())
		case "check":
			s.phaseHist["check"].Observe(sp.Duration())
			addSpanInt(sp, "memo_lookups", &s.memoLookups)
			addSpanInt(sp, "memo_hits", &s.memoHits)
			addSpanInt(sp, "memo_subformulas", &s.memoSubformulas)
		case "engine":
			if e, ok := sp.Str("engine"); ok {
				if h := s.engineHist[e]; h != nil {
					h.Observe(sp.Duration())
				}
			}
			addSpanInt(sp, "bdd_nodes", &s.bddNodes)
			addSpanInt(sp, "bdd_ite_lookups", &s.bddITELookups)
			addSpanInt(sp, "bdd_ite_hits", &s.bddITEHits)
			addSpanInt(sp, "bdd_op_lookups", &s.bddOpLookups)
			addSpanInt(sp, "bdd_op_hits", &s.bddOpHits)
		}
	})
}

func addSpanInt(sp *obs.Span, key string, dst *atomic.Int64) {
	if v, ok := sp.Int(key); ok {
		dst.Add(v)
	}
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// Shutdown drains the service: new submissions are rejected with 503,
// queued and in-flight jobs run to completion, then the worker pool
// exits. If ctx expires first, the jobs' budgets are canceled so the
// remaining analyses degrade to partial results and finish promptly;
// Shutdown still waits for the workers before returning ctx's error.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.draining.CompareAndSwap(false, true) {
		// Wait out in-flight submitters, then close the queue so idle
		// workers exit once it is drained.
		s.quiesce.Lock()
		close(s.queue)
		s.quiesce.Unlock()
	}
	done := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(done)
	}()
	select {
	case <-done:
		if err := s.journal.close(); err != nil {
			s.logger.Error("journal close failed", "error", err)
		}
		return nil
	case <-ctx.Done():
		s.cancel()
		<-done
		if err := s.journal.close(); err != nil {
			s.logger.Error("journal close failed", "error", err)
		}
		return ctx.Err()
	}
}
