package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/soteria-analysis/soteria/internal/api"
	"github.com/soteria-analysis/soteria/internal/report"
	"github.com/soteria-analysis/soteria/internal/store"
)

// fakePeer is a minimal soteriad stand-in: an in-memory result store
// plus a canned forward handler, with counters for assertions.
type fakePeer struct {
	mu       sync.Mutex
	records  map[string]*report.Record
	forwards int
	puts     int
	gets     int
	down     bool // refuse everything with 503
	srv      *httptest.Server
}

func newFakePeer(t *testing.T) *fakePeer {
	t.Helper()
	p := &fakePeer{records: map[string]*report.Record{}}
	p.srv = httptest.NewServer(http.HandlerFunc(p.handle))
	t.Cleanup(p.srv.Close)
	return p
}

func (p *fakePeer) handle(w http.ResponseWriter, r *http.Request) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.down {
		http.Error(w, `{"error":"down"}`, http.StatusServiceUnavailable)
		return
	}
	switch {
	case strings.HasPrefix(r.URL.Path, "/v1/results/"):
		key := strings.TrimPrefix(r.URL.Path, "/v1/results/")
		switch r.Method {
		case http.MethodGet:
			p.gets++
			rec, ok := p.records[key]
			if !ok {
				http.Error(w, `{"error":"not found"}`, http.StatusNotFound)
				return
			}
			json.NewEncoder(w).Encode(rec)
		case http.MethodPut:
			p.puts++
			var rec report.Record
			if err := json.NewDecoder(r.Body).Decode(&rec); err != nil {
				http.Error(w, `{"error":"bad record"}`, http.StatusBadRequest)
				return
			}
			p.records[key] = &rec
			w.WriteHeader(http.StatusNoContent)
		}
	case r.URL.Path == "/v1/analyze":
		p.forwards++
		if r.Header.Get(api.ForwardedHeader) == "" {
			http.Error(w, `{"error":"missing forward marker"}`, http.StatusBadRequest)
			return
		}
		w.Header().Set(api.TraceHeader, r.Header.Get(api.TraceHeader))
		fmt.Fprintln(w, `{"job_id":"jb-peer","status":"done","key":"k","cached":true}`)
	default:
		http.Error(w, `{"error":"not found"}`, http.StatusNotFound)
	}
}

func (p *fakePeer) setDown(down bool) {
	p.mu.Lock()
	p.down = down
	p.mu.Unlock()
}

// twoNodeCluster builds a Cluster where "self" is a placeholder URL
// and the one remote peer is the fake server.
func twoNodeCluster(t *testing.T, remote string) *Cluster {
	t.Helper()
	c, err := New(Config{
		Self:         "http://self.invalid:1",
		Peers:        []string{"http://self.invalid:1", remote},
		StoreTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c
}

func TestNewRejectsSelfOutsidePeers(t *testing.T) {
	_, err := New(Config{Self: "http://me:1", Peers: []string{"http://other:1"}})
	if err == nil {
		t.Fatal("self outside peer list accepted")
	}
}

func TestSingleMemberClusterIsAllLocal(t *testing.T) {
	c, err := New(Config{Self: "http://solo:1", Peers: []string{"http://solo:1"}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("%064x", i)
		if !c.IsLocal(key) {
			t.Fatalf("single-member cluster routed %s remotely", key)
		}
	}
}

func TestForwardSetsMarkerAndTrace(t *testing.T) {
	p := newFakePeer(t)
	c := twoNodeCluster(t, p.srv.URL)
	j, err := c.Forward(context.Background(), p.srv.URL, "/v1/analyze", []byte(`{"apps":[]}`), "tr-abc")
	if err != nil {
		t.Fatalf("Forward: %v", err)
	}
	if j.JobID != "jb-peer" || !j.Cached {
		t.Fatalf("unexpected job: %+v", j)
	}
	if j.Trace != "tr-abc" {
		t.Fatalf("trace not pinned across the hop: %q", j.Trace)
	}
	st := c.Status()
	var remote PeerStatus
	for _, ps := range st.Peers {
		if ps.Node == p.srv.URL {
			remote = ps
		}
	}
	if remote.Forwards != 1 || remote.ForwardErrors != 0 {
		t.Fatalf("peer status counters: %+v", remote)
	}
}

func TestForwardToUnknownNodeFails(t *testing.T) {
	p := newFakePeer(t)
	c := twoNodeCluster(t, p.srv.URL)
	if _, err := c.Forward(context.Background(), "http://stranger:1", "/v1/analyze", nil, ""); err == nil {
		t.Fatal("forward to non-member accepted")
	}
	if _, err := c.Forward(context.Background(), c.Self(), "/v1/analyze", nil, ""); err == nil {
		t.Fatal("forward to self accepted")
	}
}

func testRecord(apps ...string) *report.Record {
	return &report.Record{
		Schema:      report.Schema,
		Apps:        apps,
		Violations:  []report.Violation{},
		Checked:     []string{},
		Diagnostics: []report.Diagnostic{},
	}
}

// keyOwnedBy scans for a valid store key the given member owns.
func keyOwnedBy(t *testing.T, c *Cluster, member string) string {
	t.Helper()
	for i := 0; i < 100000; i++ {
		k := fmt.Sprintf("%064x", i)
		if c.Owner(k) == member {
			return k
		}
	}
	t.Fatalf("no key owned by %s in 100000 probes", member)
	return ""
}

func TestPeerBackendRoutesToOwner(t *testing.T) {
	p := newFakePeer(t)
	c := twoNodeCluster(t, p.srv.URL)
	local, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	b := c.Backend(local)

	localKey := keyOwnedBy(t, c, c.Self())
	remoteKey := keyOwnedBy(t, c, p.srv.URL)

	// Local key: writes and reads never touch the peer.
	if err := b.Put(localKey, testRecord("loc")); err != nil {
		t.Fatalf("Put local: %v", err)
	}
	if rec, ok := b.Get(localKey); !ok || rec.Apps[0] != "loc" {
		t.Fatalf("Get local: %v %v", rec, ok)
	}
	p.mu.Lock()
	if p.puts != 0 || p.gets != 0 {
		t.Fatalf("local key touched the peer: puts=%d gets=%d", p.puts, p.gets)
	}
	p.mu.Unlock()

	// Remote key: write lands on the peer, not the local disk.
	if err := b.Put(remoteKey, testRecord("rem")); err != nil {
		t.Fatalf("Put remote: %v", err)
	}
	p.mu.Lock()
	if p.puts != 1 {
		t.Fatalf("remote put did not reach the owner: puts=%d", p.puts)
	}
	p.mu.Unlock()
	if _, ok := local.Get(remoteKey); ok {
		t.Fatal("remote key was parked locally although the owner is healthy")
	}
	if rec, ok := b.Get(remoteKey); !ok || rec.Apps[0] != "rem" {
		t.Fatalf("Get remote: %v %v", rec, ok)
	}
}

func TestPeerBackendFallsBackWhenOwnerDown(t *testing.T) {
	p := newFakePeer(t)
	c := twoNodeCluster(t, p.srv.URL)
	local, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	b := c.Backend(local)
	remoteKey := keyOwnedBy(t, c, p.srv.URL)

	p.setDown(true)
	// Write degrades: the record parks locally instead of failing.
	if err := b.Put(remoteKey, testRecord("parked")); err != nil {
		t.Fatalf("Put with owner down: %v", err)
	}
	// Read degrades: owner miss falls back to the parked local copy.
	if rec, ok := b.Get(remoteKey); !ok || rec.Apps[0] != "parked" {
		t.Fatalf("Get with owner down: %v %v", rec, ok)
	}

	// Owner recovers: reads prefer it again (its copy wins, but the
	// bytes are canonical so there is nothing to reconcile).
	p.setDown(false)
	p.mu.Lock()
	p.records[remoteKey] = testRecord("parked")
	p.mu.Unlock()
	if rec, ok := b.Get(remoteKey); !ok || rec.Apps[0] != "parked" {
		t.Fatalf("Get after recovery: %v %v", rec, ok)
	}

	st := c.Status()
	for _, ps := range st.Peers {
		if ps.Node == p.srv.URL && ps.StorePutErrors == 0 {
			t.Fatalf("put fallback not counted: %+v", ps)
		}
	}
}

func TestPeerBackendNilLocalStore(t *testing.T) {
	p := newFakePeer(t)
	c := twoNodeCluster(t, p.srv.URL)
	b := c.Backend(nil)
	remoteKey := keyOwnedBy(t, c, p.srv.URL)
	localKey := keyOwnedBy(t, c, c.Self())

	if err := b.Put(remoteKey, testRecord("r")); err != nil {
		t.Fatalf("Put remote with nil local store: %v", err)
	}
	if rec, ok := b.Get(remoteKey); !ok || rec.Apps[0] != "r" {
		t.Fatalf("Get remote with nil local store: %v %v", rec, ok)
	}
	// Local keys on a diskless node: writes drop, reads miss — no panic.
	if err := b.Put(localKey, testRecord("l")); err != nil {
		t.Fatalf("Put local with nil store: %v", err)
	}
	if _, ok := b.Get(localKey); ok {
		t.Fatal("nil local store produced a hit")
	}
}

func TestClusterStatusSharesSumToOne(t *testing.T) {
	p := newFakePeer(t)
	c := twoNodeCluster(t, p.srv.URL)
	st := c.Status()
	if st.Members != 2 || st.Self != c.Self() {
		t.Fatalf("status header: %+v", st)
	}
	total := 0.0
	for _, ps := range st.Peers {
		total += ps.Share
	}
	if total < 0.999 || total > 1.001 {
		t.Fatalf("shares sum to %f", total)
	}
}
