package cluster

import (
	"context"
	"net/http"
	"sync/atomic"
	"time"

	"github.com/soteria-analysis/soteria/internal/api"
	"github.com/soteria-analysis/soteria/internal/client"
	"github.com/soteria-analysis/soteria/internal/obs"
	"github.com/soteria-analysis/soteria/internal/report"
)

// Config describes one node's view of the fleet. Every node is
// configured with the same peer list (order does not matter — the ring
// canonicalizes it), plus its own advertised URL so it can recognize
// the keys it owns.
type Config struct {
	// Self is this node's advertised base URL. It must appear in Peers.
	Self string
	// Peers is the full member list, Self included.
	Peers []string
	// VirtualNodes per member (<= 0 uses DefaultVirtualNodes).
	VirtualNodes int
	// ForwardTimeout bounds one forwarded request end to end, analysis
	// included (default 2m).
	ForwardTimeout time.Duration
	// StoreTimeout bounds one peer store read or write. These sit on
	// the analysis hot path, so the default is short (2s): a slow peer
	// degrades to a local cache miss, not a slow request.
	StoreTimeout time.Duration
	// HTTPClient overrides the transport for peer clients (tests).
	HTTPClient *http.Client
}

// peer is this node's view of one fleet member: two clients with
// different resilience budgets, plus routing telemetry.
type peer struct {
	node string

	// fwd forwards whole requests: generous timeout, one retry, and a
	// breaker so a dead peer costs one failed dial, not one per request.
	fwd *client.Client
	// st serves store reads/writes: single attempt, short timeout — a
	// miss is cheaper than a wait.
	st *client.Client

	routeHist *obs.Histogram

	forwards    atomic.Int64 // requests forwarded to this peer
	forwardErrs atomic.Int64 // forwards that failed (fallback taken)
	fallbacks   atomic.Int64 // keys served locally because this owner was unreachable
	storeGets   atomic.Int64 // remote store reads attempted
	storeHits   atomic.Int64 // remote store reads that returned a record
	storePuts   atomic.Int64 // remote store writes attempted
	storePutErr atomic.Int64 // remote store writes that failed
}

// Cluster is one node's routing state: the ring plus a client per
// remote peer. Safe for concurrent use; membership is immutable for
// the process lifetime.
type Cluster struct {
	self  string
	ring  *Ring
	peers map[string]*peer // remote members only (not self)

	forwardTimeout time.Duration
	storeTimeout   time.Duration
}

// New builds a Cluster from cfg. A single-member fleet (Peers == [Self])
// is valid and routes everything locally — the same code path a
// multi-node fleet takes for self-owned keys.
func New(cfg Config) (*Cluster, error) {
	ring, err := NewRing(cfg.Peers, cfg.VirtualNodes)
	if err != nil {
		return nil, err
	}
	found := false
	for _, m := range ring.Members() {
		if m == cfg.Self {
			found = true
			break
		}
	}
	if !found {
		return nil, errSelfNotMember(cfg.Self)
	}
	if cfg.ForwardTimeout <= 0 {
		cfg.ForwardTimeout = 2 * time.Minute
	}
	if cfg.StoreTimeout <= 0 {
		cfg.StoreTimeout = 2 * time.Second
	}
	c := &Cluster{
		self:           cfg.Self,
		ring:           ring,
		peers:          make(map[string]*peer),
		forwardTimeout: cfg.ForwardTimeout,
		storeTimeout:   cfg.StoreTimeout,
	}
	for _, m := range ring.Members() {
		if m == cfg.Self {
			continue
		}
		// MaxAttempts 2: one retry absorbs a blip; anything longer and
		// the local fallback is the better answer. Breaker trips fast
		// (3 failures) and probes often (2s) so a node rejoining the
		// fleet takes traffic again within seconds.
		fwd, err := client.New(client.Config{
			BaseURL:          m,
			HTTPClient:       cfg.HTTPClient,
			MaxAttempts:      2,
			BaseBackoff:      50 * time.Millisecond,
			MaxBackoff:       500 * time.Millisecond,
			BreakerThreshold: 3,
			BreakerCooldown:  2 * time.Second,
		})
		if err != nil {
			return nil, err
		}
		st, err := client.New(client.Config{
			BaseURL:          m,
			HTTPClient:       cfg.HTTPClient,
			MaxAttempts:      1,
			BreakerThreshold: 3,
			BreakerCooldown:  2 * time.Second,
		})
		if err != nil {
			return nil, err
		}
		c.peers[m] = &peer{
			node:      m,
			fwd:       fwd,
			st:        st,
			routeHist: obs.NewHistogram(obs.DefaultLatencyBounds()),
		}
	}
	return c, nil
}

type errSelfNotMember string

func (e errSelfNotMember) Error() string {
	return "cluster: self node " + string(e) + " is not in the peer list"
}

// Self returns this node's advertised URL.
func (c *Cluster) Self() string { return c.self }

// Ring exposes the ownership ring (for status endpoints and tests).
func (c *Cluster) Ring() *Ring { return c.ring }

// Owner returns the node owning key.
func (c *Cluster) Owner(key string) string { return c.ring.Owner(key) }

// IsLocal reports whether this node owns key.
func (c *Cluster) IsLocal(key string) bool { return c.ring.Owner(key) == c.self }

// Forward relays a pre-encoded analyze/batch body to node and returns
// the owner's job response. The forwarded-hop marker is set so the
// owner serves it locally whatever its ring says; trace pins the
// originating request's trace ID across the hop.
func (c *Cluster) Forward(ctx context.Context, node, path string, body []byte, trace string) (*api.Job, error) {
	p, ok := c.peers[node]
	if !ok {
		return nil, errSelfNotMember(node) // routing bug: forwarding to self or a stranger
	}
	p.forwards.Add(1)
	ctx, cancel := context.WithTimeout(ctx, c.forwardTimeout)
	defer cancel()
	start := time.Now()
	j, err := p.fwd.ForwardRaw(ctx, path, body, trace)
	p.routeHist.Observe(time.Since(start))
	if err != nil {
		p.forwardErrs.Add(1)
		return nil, err
	}
	return j, nil
}

// NoteFallback records that a key owned by node was served locally
// because the owner was unreachable.
func (c *Cluster) NoteFallback(node string) {
	if p, ok := c.peers[node]; ok {
		p.fallbacks.Add(1)
	}
}

// storeGet reads key from its remote owner's store. Misses and errors
// are both "not found" — the Backend contract.
func (c *Cluster) storeGet(node, key string) (*report.Record, bool) {
	p, ok := c.peers[node]
	if !ok {
		return nil, false
	}
	p.storeGets.Add(1)
	ctx, cancel := context.WithTimeout(context.Background(), c.storeTimeout)
	defer cancel()
	rec, err := p.st.Result(ctx, key)
	if err != nil || rec == nil {
		return nil, false
	}
	p.storeHits.Add(1)
	return rec, true
}

// storePut writes key's record to its remote owner's store.
func (c *Cluster) storePut(node, key string, rec *report.Record) error {
	p, ok := c.peers[node]
	if !ok {
		return errSelfNotMember(node)
	}
	p.storePuts.Add(1)
	ctx, cancel := context.WithTimeout(context.Background(), c.storeTimeout)
	defer cancel()
	if err := p.st.PutResult(ctx, key, rec); err != nil {
		p.storePutErr.Add(1)
		return err
	}
	return nil
}

// RouteSeries returns per-peer forward-latency histogram series for
// the /metrics endpoint.
func (c *Cluster) RouteSeries() []obs.Series {
	out := make([]obs.Series, 0, len(c.peers))
	for _, m := range c.ring.Members() {
		if p, ok := c.peers[m]; ok {
			out = append(out, obs.Series{Label: "peer", Value: m, H: p.routeHist})
		}
	}
	return out
}

// PeerStatus is one member's routing view from this node.
type PeerStatus struct {
	Node  string  `json:"node"`
	Self  bool    `json:"self,omitempty"`
	Share float64 `json:"share"` // exact arc-length ownership fraction

	// Routing counters (zero for self: a node never routes to itself).
	Forwards       int64 `json:"forwards,omitempty"`
	ForwardErrors  int64 `json:"forward_errors,omitempty"`
	Fallbacks      int64 `json:"fallbacks,omitempty"`
	StoreGets      int64 `json:"store_gets,omitempty"`
	StoreHits      int64 `json:"store_hits,omitempty"`
	StorePuts      int64 `json:"store_puts,omitempty"`
	StorePutErrors int64 `json:"store_put_errors,omitempty"`
}

// Status is this node's cluster view, served on /v1/cluster/status.
type Status struct {
	Self         string       `json:"self"`
	Members      int          `json:"members"`
	VirtualNodes int          `json:"vnodes"`
	Peers        []PeerStatus `json:"peers"`
}

// Status snapshots the routing state. Counters are monotonic since
// process start.
func (c *Cluster) Status() Status {
	shares := c.ring.Shares()
	st := Status{
		Self:         c.self,
		Members:      len(c.ring.Members()),
		VirtualNodes: c.ring.VirtualNodes(),
	}
	for _, m := range c.ring.Members() {
		ps := PeerStatus{Node: m, Self: m == c.self, Share: shares[m]}
		if p, ok := c.peers[m]; ok {
			ps.Forwards = p.forwards.Load()
			ps.ForwardErrors = p.forwardErrs.Load()
			ps.Fallbacks = p.fallbacks.Load()
			ps.StoreGets = p.storeGets.Load()
			ps.StoreHits = p.storeHits.Load()
			ps.StorePuts = p.storePuts.Load()
			ps.StorePutErrors = p.storePutErr.Load()
		}
		st.Peers = append(st.Peers, ps)
	}
	return st
}
