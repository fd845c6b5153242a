package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"sort"
	"sync"
	"time"

	"github.com/soteria-analysis/soteria/internal/api"
	"github.com/soteria-analysis/soteria/internal/cluster"
	"github.com/soteria-analysis/soteria/internal/core"
	"github.com/soteria-analysis/soteria/internal/report"
	"github.com/soteria-analysis/soteria/internal/store"
)

// maybeRoute applies cluster routing to a parsed job. It returns true
// when it fully handled the response (forwarded and/or federated);
// false sends the job down the normal local path — because routing is
// off, every key is self-owned, the request already crossed a hop, or
// the single owner was unreachable (degrade to local, don't fail).
//
// Async jobs always run locally: the poll handle in the 202 response
// names this node's job table, so the job must live here.
func (s *Server) maybeRoute(w http.ResponseWriter, r *http.Request, j *job) bool {
	cl := s.cfg.Cluster
	if cl == nil || j.forwarded || j.async {
		return false
	}
	owners := make([]string, len(j.items))
	allLocal := true
	for i, it := range j.items {
		owners[i] = cl.Owner(core.AnalysisKey(it.Sources, j.opts))
		if owners[i] != cl.Self() {
			allLocal = false
		}
	}
	if allLocal {
		return false
	}
	if !j.batch {
		return s.routeSingle(w, r, j, owners[0])
	}
	return s.routeBatch(w, r, j, owners)
}

// routeSingle forwards a whole single-analysis request to its owner —
// the raw validated body, so the owner sees exactly the bytes this
// node accepted. An unreachable owner falls back to the local path.
func (s *Server) routeSingle(w http.ResponseWriter, r *http.Request, j *job, owner string) bool {
	cl := s.cfg.Cluster
	jr, err := cl.Forward(r.Context(), owner, "/v1/analyze", j.raw, j.trace)
	if err != nil {
		s.routeFallbacks.Add(1)
		cl.NoteFallback(owner)
		s.logger.Warn("forward failed, serving locally",
			"owner", owner, "trace", j.trace, "error", err)
		return false
	}
	s.routeForwards.Add(1)
	status := api.StatusDone
	if jr.Status == api.StatusFailed {
		status = api.StatusFailed
	}
	res := api.BatchItem{
		Key: j.items[0].Key, StoreKey: jr.Key, Cached: jr.Cached,
		Result: jr.Result, Error: jr.Error, Node: owner,
	}
	s.finishRouted(j, status, []api.BatchItem{res}, time.Duration(jr.ElapsedMS)*time.Millisecond)
	code := http.StatusOK
	if status == api.StatusFailed {
		code = http.StatusUnprocessableEntity
	}
	respondJob(w, code, j)
	return true
}

// routeBatch splits a batch by owner, forwards each remote group to
// its owner concurrently, runs the local group (plus any group whose
// owner was unreachable) through the normal queue, and federates the
// per-item results back into one response in the original item order,
// each item attributed to the node that produced it.
func (s *Server) routeBatch(w http.ResponseWriter, r *http.Request, j *job, owners []string) bool {
	cl := s.cfg.Cluster
	start := time.Now()
	groups := map[string][]int{}
	for i, o := range owners {
		groups[o] = append(groups[o], i)
	}

	// results is written at disjoint indices by the group goroutines;
	// localIdx collects the groups that must run here.
	results := make([]api.BatchItem, len(j.items))
	var mu sync.Mutex
	localIdx := append([]int{}, groups[cl.Self()]...)
	var wg sync.WaitGroup
	for owner, idx := range groups {
		if owner == cl.Self() {
			continue
		}
		wg.Add(1)
		go func(owner string, idx []int) {
			defer wg.Done()
			body, err := s.subBatchBody(j, owner, idx)
			if err == nil {
				var jr *api.Job
				if jr, err = cl.Forward(r.Context(), owner, "/v1/batch", body, j.trace); err == nil {
					s.routeForwards.Add(1)
					adoptBatchResults(j, owner, idx, jr, results)
					return
				}
			}
			s.routeFallbacks.Add(1)
			cl.NoteFallback(owner)
			s.logger.Warn("batch forward failed, running items locally",
				"owner", owner, "items", len(idx), "trace", j.trace, "error", err)
			mu.Lock()
			localIdx = append(localIdx, idx...)
			mu.Unlock()
		}(owner, idx)
	}
	wg.Wait()
	if len(localIdx) > 0 {
		sort.Ints(localIdx)
		s.runLocalSub(j, localIdx, results)
	}
	s.finishRouted(j, api.StatusDone, results, time.Since(start))
	respondJob(w, http.StatusOK, j)
	return true
}

// subBatchBody renders the sub-batch this node forwards to owner. Item
// keys are pinned to their resolved values (including the "item-N"
// defaults), so the owner's results federate back by key; the
// idempotency key is derived per owner so a client retry dedupes each
// sub-batch against its own first run.
func (s *Server) subBatchBody(j *job, owner string, idx []int) ([]byte, error) {
	req := api.BatchRequest{Options: j.breq.Options, Timings: j.breq.Timings}
	for _, i := range idx {
		it := j.breq.Items[i]
		it.Key = j.items[i].Key
		req.Items = append(req.Items, it)
	}
	if j.idemKey != "" {
		req.IdempotencyKey = derivedIdemKey(j.idemKey, owner)
	}
	return json.Marshal(req)
}

// derivedIdemKey scopes an idempotency key to one owner's sub-batch,
// staying within the key grammar (visible ASCII, <= 128 bytes).
func derivedIdemKey(key, owner string) string {
	sum := sha256.Sum256([]byte(owner))
	suffix := "@" + hex.EncodeToString(sum[:4])
	if len(key)+len(suffix) <= 128 {
		return key + suffix
	}
	whole := sha256.Sum256([]byte(key + "\x00" + owner))
	return "fed-" + hex.EncodeToString(whole[:16])
}

// adoptBatchResults maps one owner's sub-batch response back onto the
// parent batch's item slots.
func adoptBatchResults(j *job, owner string, idx []int, jr *api.Job, results []api.BatchItem) {
	byKey := make(map[string]api.BatchItem, len(jr.Results))
	for _, it := range jr.Results {
		byKey[it.Key] = it
	}
	for _, i := range idx {
		it, ok := byKey[j.items[i].Key]
		if !ok {
			results[i] = api.BatchItem{Key: j.items[i].Key, Node: owner, Error: "owner returned no result for item"}
			continue
		}
		it.Node = owner
		results[i] = it
	}
}

// runLocalSub runs a subset of a federated batch through this node's
// normal path — store fast path, journal, queue — writing the outcomes
// into the parent's result slots. Failures degrade to per-item errors:
// a federated batch answers for every item, well or badly.
func (s *Server) runLocalSub(j *job, idx []int, results []api.BatchItem) {
	self := s.cfg.Cluster.Self()
	sub := &job{
		id:    newJobID(),
		batch: true,
		opts:  j.opts,
		trace: j.trace,
		done:  make(chan struct{}),
	}
	for _, i := range idx {
		sub.items = append(sub.items, j.items[i])
	}
	fail := func(msg string) {
		for _, i := range idx {
			results[i] = api.BatchItem{Key: j.items[i].Key, Node: self, Error: msg}
		}
	}
	if !s.finishFromStore(sub) {
		if err := s.journal.append(acceptedEvent(sub)); err != nil {
			s.logger.Error("journal accepted append failed", "job", sub.id, "trace", sub.trace, "error", err)
			fail("job journal write failed")
			return
		}
		if err := s.submit(sub); err != nil {
			if jerr := s.journal.append(journalEvent{Op: opRejected, Job: sub.id}); jerr != nil {
				s.logger.Error("journal rejected append failed", "job", sub.id, "trace", sub.trace, "error", jerr)
			}
			fail(err.Error())
			return
		}
		<-sub.done
	}
	_, subResults, _ := sub.snapshot()
	for n, i := range idx {
		r := subResults[n]
		r.Key = j.items[i].Key
		r.Node = self
		results[i] = r
	}
}

// finishRouted publishes a routed/federated job's terminal state. The
// job is registered for /v1/jobs but not journaled: each owner
// journals the work it ran, and replaying a pure routing decision
// would re-forward work the owners already hold in their stores.
func (s *Server) finishRouted(j *job, status api.Status, results []api.BatchItem, elapsed time.Duration) {
	if status == api.StatusFailed {
		s.jobsFailed.Add(1)
	} else {
		s.jobsDone.Add(1)
	}
	// Forwarded hops embed their own timing trees in the records they
	// return; there is no meaningful single span tree for a federated
	// job, so the origin never overlays one.
	j.timings = false
	j.mu.Lock()
	j.status = status
	j.results = results
	j.elapsed = elapsed
	j.mu.Unlock()
	close(j.done)
	s.registerJob(j)
	s.logger.Info("job federated",
		"job", j.id, "trace", j.trace, "status", string(status),
		"elapsed_ms", elapsed.Milliseconds(), "items", len(results))
}

// clusterStatusResponse is GET /v1/cluster/status: the routing view
// (ring membership, ownership shares, per-peer counters) plus this
// node's live load. A single-node daemon serves it too — the load
// harness reads one schema whatever the fleet size.
type clusterStatusResponse struct {
	cluster.Status
	api.ClusterLoad
}

func (s *Server) handleClusterStatus(w http.ResponseWriter, r *http.Request) {
	resp := clusterStatusResponse{ClusterLoad: api.ClusterLoad{
		QueueDepth: s.queueDepth.Value(),
		Inflight:   s.inflight.Value(),
	}}
	if cl := s.cfg.Cluster; cl != nil {
		resp.Status = cl.Status()
	} else {
		resp.Status = cluster.Status{Members: 1}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handlePutResult serves PUT /v1/results/{hash}: a peer (or operator)
// parking a record on this node. Writes land in the LOCAL store only —
// never routed — which is the store layer's loop guard: a peer's write
// terminates here, whatever this node's ring says. The key is not
// re-derived from the record (a record alone cannot reproduce its
// analysis key, which hashes sources and options), but it must be a
// well-formed store key and the record a valid current-schema record.
func (s *Server) handlePutResult(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	if !store.ValidKey(hash) {
		writeError(w, http.StatusBadRequest, "invalid result key %q", hash)
		return
	}
	data, herr := s.readBody(w, r)
	if herr != nil {
		writeError(w, herr.code, "%s", herr.msg)
		return
	}
	rec, err := report.Decode(data)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid record: %v", err)
		return
	}
	if err := s.cfg.Store.Put(hash, rec); err != nil {
		writeError(w, http.StatusInternalServerError, "storing record: %v", err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}
