package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"github.com/soteria-analysis/soteria/internal/api"
	"github.com/soteria-analysis/soteria/internal/cluster"
	"github.com/soteria-analysis/soteria/internal/core"
	"github.com/soteria-analysis/soteria/internal/market"
	"github.com/soteria-analysis/soteria/internal/report"
	"github.com/soteria-analysis/soteria/internal/store"
)

// fleet is an in-process N-node fleet: each node is a full Server with
// its own store shard, fronted by an httptest server, all sharing one
// ring. The front ends start before the Servers exist (the ring needs
// every URL up front), so each delegates through an atomic handler
// slot.
type fleet struct {
	servers  []*Server
	fronts   []*httptest.Server
	clusters []*cluster.Cluster
	urls     []string
}

func newFleet(t *testing.T, n int, cfg func(i int) Config) *fleet {
	t.Helper()
	f := &fleet{
		servers:  make([]*Server, n),
		fronts:   make([]*httptest.Server, n),
		clusters: make([]*cluster.Cluster, n),
		urls:     make([]string, n),
	}
	slots := make([]atomic.Pointer[http.Handler], n)
	for i := 0; i < n; i++ {
		i := i
		f.fronts[i] = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			h := slots[i].Load()
			if h == nil {
				http.Error(w, `{"error":"node starting"}`, http.StatusServiceUnavailable)
				return
			}
			(*h).ServeHTTP(w, r)
		}))
		f.urls[i] = f.fronts[i].URL
		t.Cleanup(f.fronts[i].Close)
	}
	for i := 0; i < n; i++ {
		cl, err := cluster.New(cluster.Config{Self: f.urls[i], Peers: f.urls})
		if err != nil {
			t.Fatalf("cluster.New node %d: %v", i, err)
		}
		f.clusters[i] = cl
		c := cfg(i)
		c.Cluster = cl
		s, err := New(c)
		if err != nil {
			t.Fatalf("New node %d: %v", i, err)
		}
		f.servers[i] = s
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			s.Shutdown(ctx)
		})
		h := s.Handler()
		slots[i].Store(&h)
	}
	return f
}

// storeConfig is a per-node Config with a fresh store shard.
func storeConfig(t *testing.T) Config {
	t.Helper()
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	return Config{Workers: 2, MaxBatchItems: 128, Store: st}
}

// corpusBatch renders the 65-app market corpus as one batch request,
// one item per app, keyed by app ID.
func corpusBatch() map[string]any {
	var items []map[string]any
	for _, a := range market.All() {
		items = append(items, map[string]any{
			"key":  a.ID,
			"apps": []map[string]string{{"name": a.ID, "source": a.Source}},
		})
	}
	return map[string]any{"items": items}
}

// canonicalResult re-encodes a response's result object canonically so
// byte comparison is about content, not JSON field ordering en route.
func canonicalResult(t *testing.T, raw json.RawMessage) string {
	t.Helper()
	rec, err := report.Decode(raw)
	if err != nil {
		t.Fatalf("decoding result record: %v", err)
	}
	data, err := report.Encode(rec)
	if err != nil {
		t.Fatalf("re-encoding result record: %v", err)
	}
	return string(data)
}

type wireBatchItem struct {
	Key    string          `json:"key"`
	Store  string          `json:"store_key"`
	Cached bool            `json:"cached"`
	Result json.RawMessage `json:"result"`
	Error  string          `json:"error"`
	Node   string          `json:"node"`
}

type wireBatchResponse struct {
	Status  string          `json:"status"`
	Results []wireBatchItem `json:"results"`
}

func submitCorpus(t *testing.T, url string) map[string]wireBatchItem {
	t.Helper()
	resp, body := postJSON(t, url+"/v1/batch", corpusBatch())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %v", resp.StatusCode, body)
	}
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("re-marshal: %v", err)
	}
	var wire wireBatchResponse
	if err := json.Unmarshal(data, &wire); err != nil {
		t.Fatalf("decode batch response: %v", err)
	}
	out := map[string]wireBatchItem{}
	for _, it := range wire.Results {
		if it.Error != "" {
			t.Fatalf("item %s failed: %s", it.Key, it.Error)
		}
		out[it.Key] = it
	}
	return out
}

// TestFleetCorpusByteIdentical is the fleet's conformance gate: a
// 3-node fleet analyzing the 65-app market corpus returns, for every
// app, a record byte-identical to a single-node daemon's — ownership
// sharding must never change a verdict, and the batch must actually
// have been spread across nodes.
func TestFleetCorpusByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full-corpus fleet comparison")
	}
	_, single := newTestServer(t, storeConfig(t))
	want := submitCorpus(t, single.URL)

	f := newFleet(t, 3, func(int) Config { return storeConfig(t) })
	got := submitCorpus(t, f.urls[0])

	if len(got) != len(want) || len(got) != len(market.All()) {
		t.Fatalf("item counts: single %d, fleet %d, corpus %d", len(want), len(got), len(market.All()))
	}
	nodes := map[string]int{}
	for key, w := range want {
		g, ok := got[key]
		if !ok {
			t.Fatalf("fleet response missing item %s", key)
		}
		if g.Store != w.Store {
			t.Errorf("%s: store key %s (fleet) vs %s (single)", key, g.Store, w.Store)
		}
		if canonicalResult(t, g.Result) != canonicalResult(t, w.Result) {
			t.Errorf("%s: fleet record differs from single-node record", key)
		}
		nodes[g.Node]++
	}
	// All three nodes must have contributed ("" attributes the origin).
	if len(nodes) < 3 {
		t.Errorf("corpus was not spread across the fleet: per-node counts %v", nodes)
	}

	// Resubmitting the corpus to a *different* node must be served
	// entirely from the fleet's caches — the federation dividend.
	again := submitCorpus(t, f.urls[1])
	for key, g := range again {
		if !g.Cached {
			t.Errorf("%s: resubmission to another node re-analyzed instead of hitting the fleet cache", key)
		}
		if canonicalResult(t, g.Result) != canonicalResult(t, want[key].Result) {
			t.Errorf("%s: cached fleet record differs from single-node record", key)
		}
	}
}

// appOwnedBy finds a corpus app whose analysis key (under cfgOpts) is
// owned by the given member.
func appOwnedBy(t *testing.T, s *Server, cl *cluster.Cluster, member string) market.AppSpec {
	t.Helper()
	opts, herr := s.coreOptions(api.Options{})
	if herr != nil {
		t.Fatalf("coreOptions: %v", herr)
	}
	for _, a := range market.All() {
		key := core.AnalysisKey([]core.NamedSource{{Name: a.ID, Source: a.Source}}, opts)
		if cl.Owner(key) == member {
			return a
		}
	}
	t.Fatalf("no corpus app owned by %s", member)
	return market.AppSpec{}
}

// TestFleetForwardsToOwner: a single analysis submitted to a non-owner
// is forwarded (node attribution set), and the owner's shard — not the
// origin's — holds the record.
func TestFleetForwardsToOwner(t *testing.T) {
	f := newFleet(t, 2, func(int) Config { return storeConfig(t) })
	app := appOwnedBy(t, f.servers[0], f.clusters[0], f.urls[1])

	resp, body := postJSON(t, f.urls[0]+"/v1/analyze", map[string]any{"name": app.ID, "source": app.Source})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze status %d: %v", resp.StatusCode, body)
	}
	if body["node"] != f.urls[1] {
		t.Fatalf("node attribution %v, want owner %s", body["node"], f.urls[1])
	}
	key, _ := body["key"].(string)
	if _, ok := f.servers[1].cfg.Store.Get(key); !ok {
		t.Fatalf("owner's shard does not hold %s", key)
	}
	if _, ok := f.servers[0].cfg.Store.Get(key); ok {
		t.Fatalf("origin's shard holds %s although the owner was healthy", key)
	}

	// The origin can now answer for the key from the owner's cache.
	resp, body = postJSON(t, f.urls[0]+"/v1/analyze", map[string]any{"name": app.ID, "source": app.Source})
	if resp.StatusCode != http.StatusOK || body["cached"] != true {
		t.Fatalf("resubmission not served from fleet cache: %d %v", resp.StatusCode, body)
	}
}

// TestFleetLoopGuard: a request carrying the forwarded marker is
// served locally even when the ring says another node owns it — the
// guard that turns any routing disagreement into one extra hop.
func TestFleetLoopGuard(t *testing.T) {
	f := newFleet(t, 2, func(int) Config { return storeConfig(t) })
	app := appOwnedBy(t, f.servers[0], f.clusters[0], f.urls[1])

	data, _ := json.Marshal(map[string]any{"name": app.ID, "source": app.Source})
	req, _ := http.NewRequest(http.MethodPost, f.urls[0]+"/v1/analyze", bytes.NewReader(data))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(api.ForwardedHeader, "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forwarded analyze status %d: %v", resp.StatusCode, body)
	}
	if n, ok := body["node"]; ok && n != "" {
		t.Fatalf("forwarded request was re-routed to %v", n)
	}
	if f.servers[0].routeForwards.Load() != 0 {
		t.Fatal("receiving node re-forwarded a marked request")
	}
	// The analysis RAN on the receiving node (no second hop), but the
	// result still writes through to the key's ring owner — requests
	// stop at one hop, records always land on their owner.
	key, _ := body["key"].(string)
	if _, ok := f.servers[1].cfg.Store.Get(key); !ok {
		t.Fatal("result did not write through to the ring owner's shard")
	}
	if _, ok := f.servers[0].cfg.Store.Get(key); ok {
		t.Fatal("result parked on the non-owner although the owner is healthy")
	}
}

// TestFleetDeadOwnerFallsBackLocally: when a key's owner is down, the
// origin serves the analysis itself (degrade, don't fail) and parks
// the record in its own shard.
func TestFleetDeadOwnerFallsBackLocally(t *testing.T) {
	f := newFleet(t, 2, func(int) Config { return storeConfig(t) })
	app := appOwnedBy(t, f.servers[0], f.clusters[0], f.urls[1])
	f.fronts[1].Close() // the owner dies

	resp, body := postJSON(t, f.urls[0]+"/v1/analyze", map[string]any{"name": app.ID, "source": app.Source})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze with dead owner: status %d: %v", resp.StatusCode, body)
	}
	if n, ok := body["node"]; ok && n != "" {
		t.Fatalf("dead owner attributed: %v", n)
	}
	key, _ := body["key"].(string)
	if _, ok := f.servers[0].cfg.Store.Get(key); !ok {
		t.Fatal("fallback analysis was not parked in the origin's shard")
	}
	if f.servers[0].routeFallbacks.Load() == 0 {
		t.Fatal("fallback not counted")
	}
}

// TestFleetClusterStatus: every node serves /v1/cluster/status with
// the full membership; a cluster-less daemon serves the same schema
// with members=1.
func TestFleetClusterStatus(t *testing.T) {
	f := newFleet(t, 3, func(int) Config { return storeConfig(t) })
	for i, u := range f.urls {
		resp, err := http.Get(u + "/v1/cluster/status")
		if err != nil {
			t.Fatalf("status node %d: %v", i, err)
		}
		var st struct {
			Self    string `json:"self"`
			Members int    `json:"members"`
			Peers   []struct {
				Node  string  `json:"node"`
				Share float64 `json:"share"`
			} `json:"peers"`
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("decode status node %d: %v", i, err)
		}
		if st.Members != 3 || st.Self != u || len(st.Peers) != 3 {
			t.Fatalf("node %d status: %+v", i, st)
		}
		total := 0.0
		for _, p := range st.Peers {
			total += p.Share
		}
		if total < 0.999 || total > 1.001 {
			t.Fatalf("node %d shares sum to %f", i, total)
		}
	}

	_, single := newTestServer(t, Config{Workers: 1})
	resp, err := http.Get(single.URL + "/v1/cluster/status")
	if err != nil {
		t.Fatalf("single-node status: %v", err)
	}
	defer resp.Body.Close()
	var st struct {
		Members int `json:"members"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode single-node status: %v", err)
	}
	if st.Members != 1 {
		t.Fatalf("single-node members = %d, want 1", st.Members)
	}
}

// TestFleetPutAndGetResultLocalOnly: PUT /v1/results writes the LOCAL
// shard even for keys the ring assigns elsewhere, and GET reads only
// the local shard — the store layer's loop guard.
func TestFleetPutAndGetResultLocalOnly(t *testing.T) {
	f := newFleet(t, 2, func(int) Config { return storeConfig(t) })
	// A key owned by node 1, written to node 0.
	var key string
	for i := 0; ; i++ {
		key = fmt.Sprintf("%064x", i)
		if f.clusters[0].Owner(key) == f.urls[1] {
			break
		}
	}
	rec := &report.Record{Schema: report.Schema, Apps: []string{"x"},
		Violations: []report.Violation{}, Checked: []string{}, Diagnostics: []report.Diagnostic{}}
	data, err := report.Encode(rec)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	req, _ := http.NewRequest(http.MethodPut, f.urls[0]+"/v1/results/"+key, bytes.NewReader(data))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("put: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("put status %d", resp.StatusCode)
	}
	if _, ok := f.servers[0].cfg.Store.Get(key); !ok {
		t.Fatal("PUT did not land in the local shard")
	}
	if _, ok := f.servers[1].cfg.Store.Get(key); ok {
		t.Fatal("PUT was routed to the ring owner")
	}
	// GET on the owner (which has no copy) is a 404, not a route.
	resp, err = http.Get(f.urls[1] + "/v1/results/" + key)
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("owner GET status %d, want 404", resp.StatusCode)
	}
}
