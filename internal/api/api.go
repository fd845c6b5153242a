// Package api is soteriad's wire contract: the headers, request bodies,
// job responses and status values that the daemon, its Go client,
// cluster routing, the CLI and the load tools exchange. Each is
// defined here once. Validation and resolution of a request (defaults,
// limits, the server's clamps) stay in internal/service; retry,
// idempotency minting and trace capture stay in internal/client.
//
// Field order is part of the contract: responses are encoded from
// these structs, so reordering a field changes the bytes on the wire.
package api

import "github.com/soteria-analysis/soteria/internal/report"

// TraceHeader carries a job's trace ID: client-minted on requests
// (stable across retries) and echoed on responses with the ID the
// daemon adopted or minted. The trace ID is never a body field.
const TraceHeader = "X-Soteria-Trace"

// ForwardedHeader marks a request that already crossed one
// cluster-routing hop. A daemon receiving it serves the request
// locally whatever its ring says, so a routing disagreement between
// two nodes costs one extra hop, never a loop.
const ForwardedHeader = "X-Soteria-Forwarded"

// Status is a job's lifecycle state.
type Status string

const (
	StatusQueued  Status = "queued"
	StatusRunning Status = "running"
	StatusDone    Status = "done"
	StatusFailed  Status = "failed"
)

// Terminal reports whether a job in this state has finished, well or
// badly.
func (s Status) Terminal() bool { return s == StatusDone || s == StatusFailed }

// App is one named Groovy source.
type App struct {
	Name   string `json:"name"`
	Source string `json:"source"`
}

// Options selects property families and resource bounds for a job.
// Absent booleans default to true (check everything), matching
// core.DefaultOptions. TimeoutMS and MaxStates may lower the server's
// limits, never raise them.
type Options struct {
	General     *bool    `json:"general,omitempty"`
	AppSpecific *bool    `json:"app_specific,omitempty"`
	Taint       *bool    `json:"taint,omitempty"`
	Properties  []string `json:"properties,omitempty"`
	TimeoutMS   int64    `json:"timeout_ms,omitempty"`
	MaxStates   int      `json:"max_states,omitempty"`
	Parallel    int      `json:"parallel,omitempty"`
}

// AnalyzeRequest is the POST /v1/analyze body: one app (Name+Source)
// or a multi-app union (Apps). IdempotencyKey (or the Idempotency-Key
// header) makes resubmissions safe: the key's first accepted job
// answers every retry instead of running again.
type AnalyzeRequest struct {
	Name           string  `json:"name,omitempty"`
	Source         string  `json:"source,omitempty"`
	Apps           []App   `json:"apps,omitempty"`
	Options        Options `json:"options"`
	Async          bool    `json:"async,omitempty"`
	IdempotencyKey string  `json:"idempotency_key,omitempty"`
	// Timings embeds the job's span tree (and trace ID) in the
	// response records. Timing data rides the response only — it is
	// never part of the stored, content-addressed record.
	Timings bool `json:"timings,omitempty"`
}

// BatchRequest is the POST /v1/batch body.
type BatchRequest struct {
	Items          []BatchRequestItem `json:"items"`
	Options        Options            `json:"options"`
	Async          bool               `json:"async,omitempty"`
	IdempotencyKey string             `json:"idempotency_key,omitempty"`
	// Timings embeds each job's span tree in the response records.
	Timings bool `json:"timings,omitempty"`
}

// BatchRequestItem is one unit of a batch: an app or multi-app union.
// An empty Key defaults to "item-<index>".
type BatchRequestItem struct {
	Key  string `json:"key,omitempty"`
	Apps []App  `json:"apps"`
}

// Job is a job's state: the analyze and batch endpoints and the jobs
// poll all answer with it.
type Job struct {
	JobID     string `json:"job_id"`
	Status    Status `json:"status"`
	Poll      string `json:"poll,omitempty"`
	ElapsedMS int64  `json:"elapsed_ms,omitempty"`
	// Single-analysis fields.
	Key    string         `json:"key,omitempty"`
	Cached bool           `json:"cached,omitempty"`
	Result *report.Record `json:"result,omitempty"`
	Error  string         `json:"error,omitempty"`
	// Node attributes a routed result to the fleet member that
	// produced it (empty on single-node daemons and local results).
	Node string `json:"node,omitempty"`
	// Batch fields.
	Results []BatchItem `json:"results,omitempty"`

	// Trace is the job's trace ID as received in the TraceHeader
	// response header; it is not encoded in the body.
	Trace string `json:"-"`
}

// BatchItem is one item's outcome inside a job.
type BatchItem struct {
	Key      string         `json:"key"`
	StoreKey string         `json:"store_key"`
	Cached   bool           `json:"cached"`
	Result   *report.Record `json:"result,omitempty"`
	Error    string         `json:"error,omitempty"`
	Node     string         `json:"node,omitempty"`
}

// ClusterLoad is the live-load part of GET /v1/cluster/status, served
// after the routing view by single-node daemons and fleet members
// alike.
type ClusterLoad struct {
	QueueDepth int64 `json:"queue_depth"`
	Inflight   int64 `json:"inflight"`
}
