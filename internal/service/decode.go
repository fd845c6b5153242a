package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"github.com/soteria-analysis/soteria/internal/api"
	"github.com/soteria-analysis/soteria/internal/core"
	"github.com/soteria-analysis/soteria/internal/properties"
	"github.com/soteria-analysis/soteria/internal/taint"
)

// httpError is a client-visible request failure. Every path out of the
// decoder returns one with a 4xx status — malformed, oversized, and
// semantically invalid requests must never panic and never map to 5xx.
type httpError struct {
	code int
	msg  string
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...any) *httpError {
	return &httpError{code: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

func tooLarge(format string, args ...any) *httpError {
	return &httpError{code: http.StatusRequestEntityTooLarge, msg: fmt.Sprintf(format, args...)}
}

// validateIdemKey bounds a client-supplied idempotency key: visible
// ASCII, at most 128 bytes — it is journaled and indexed verbatim.
func validateIdemKey(k string) *httpError {
	if len(k) > 128 {
		return badRequest("idempotency key is %d bytes (limit 128)", len(k))
	}
	for i := 0; i < len(k); i++ {
		if k[i] < 0x21 || k[i] > 0x7e {
			return badRequest("idempotency key must be visible ASCII")
		}
	}
	return nil
}

// decodeJSON strictly parses data into dst: unknown fields and
// trailing garbage are rejected so schema typos surface as 400s
// instead of silently ignored options.
func decodeJSON(data []byte, dst any) *httpError {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return badRequest("invalid JSON: %v", err)
	}
	var trailing any
	if err := dec.Decode(&trailing); !errors.Is(err, io.EOF) {
		return badRequest("trailing data after JSON body")
	}
	return nil
}

// catalogueIDs memoizes the valid property-ID set: the app-specific
// catalogue plus the taint family (exact IDs and the "T.*" wildcard).
var catalogueIDs = sync.OnceValue(func() map[string]bool {
	ids := map[string]bool{}
	for _, p := range properties.Catalogue() {
		ids[p.ID] = true
	}
	for _, id := range taint.IDs() {
		ids[id] = true
	}
	ids["T.*"] = true
	return ids
})

// validateSources checks a request's app list against the per-source
// size cap and non-emptiness.
func validateSources(apps []api.App, maxSource int, where string) *httpError {
	if len(apps) == 0 {
		return badRequest("%s: no app sources", where)
	}
	for i, a := range apps {
		if a.Name == "" {
			return badRequest("%s: app %d has no name", where, i)
		}
		if a.Source == "" {
			return badRequest("%s: app %q has no source", where, a.Name)
		}
		if len(a.Source) > maxSource {
			return tooLarge("%s: app %q source is %d bytes (limit %d)", where, a.Name, len(a.Source), maxSource)
		}
	}
	return nil
}

// coreOptions validates and converts request options. The job's wall
// clock is governed by the server's JobTimeout; a request may lower
// it, never raise it.
func (s *Server) coreOptions(o api.Options) (core.Options, *httpError) {
	opts := core.DefaultOptions()
	if o.General != nil {
		opts.General = *o.General
	}
	if o.AppSpecific != nil {
		opts.AppSpecific = *o.AppSpecific
	}
	if o.Taint != nil {
		opts.Taint = *o.Taint
	}
	if !opts.General && !opts.AppSpecific && !opts.Taint {
		return opts, badRequest("options: nothing to check (general, app_specific, and taint all disabled)")
	}
	valid := catalogueIDs()
	for _, id := range o.Properties {
		if !valid[id] {
			return opts, badRequest("options: unknown property ID %q", id)
		}
	}
	opts.PropertyIDs = append([]string{}, o.Properties...)
	if o.TimeoutMS < 0 {
		return opts, badRequest("options: negative timeout_ms")
	}
	if o.MaxStates < 0 {
		return opts, badRequest("options: negative max_states")
	}
	if o.Parallel < 0 || o.Parallel > 256 {
		return opts, badRequest("options: parallel out of range [0, 256]")
	}
	opts.Limits = s.cfg.Limits
	if o.TimeoutMS > 0 {
		d := time.Duration(o.TimeoutMS) * time.Millisecond
		if d < s.cfg.JobTimeout {
			opts.Limits.Timeout = d
		}
	}
	if o.MaxStates > 0 && (s.cfg.Limits.MaxStates == 0 || o.MaxStates < s.cfg.Limits.MaxStates) {
		opts.Limits.MaxStates = o.MaxStates
	}
	opts.Parallel = o.Parallel
	if opts.Parallel == 0 {
		opts.Parallel = s.cfg.Parallel
	}
	return opts, nil
}

// parseAnalyze decodes and validates a POST /v1/analyze body into a
// ready-to-run job (minus its ID). It is the fuzz target's entry
// point: any input must yield either a job or a 4xx httpError.
func (s *Server) parseAnalyze(data []byte) (*job, *httpError) {
	var req api.AnalyzeRequest
	if herr := decodeJSON(data, &req); herr != nil {
		return nil, herr
	}
	apps := req.Apps
	if req.Name != "" || req.Source != "" {
		if len(apps) > 0 {
			return nil, badRequest("provide either name+source or apps, not both")
		}
		apps = []api.App{{Name: req.Name, Source: req.Source}}
	}
	if herr := validateSources(apps, s.cfg.MaxSourceBytes, "analyze"); herr != nil {
		return nil, herr
	}
	opts, herr := s.coreOptions(req.Options)
	if herr != nil {
		return nil, herr
	}
	if herr := validateIdemKey(req.IdempotencyKey); herr != nil {
		return nil, herr
	}
	sources := make([]core.NamedSource, len(apps))
	for i, a := range apps {
		sources[i] = core.NamedSource{Name: a.Name, Source: a.Source}
	}
	return &job{
		idemKey: req.IdempotencyKey,
		items:   []core.BatchItem{{Sources: sources}},
		opts:    opts,
		async:   req.Async,
		timings: req.Timings,
		status:  api.StatusQueued,
		done:    make(chan struct{}),
	}, nil
}

// parseBatch decodes and validates a POST /v1/batch body.
func (s *Server) parseBatch(data []byte) (*job, *httpError) {
	var req api.BatchRequest
	if herr := decodeJSON(data, &req); herr != nil {
		return nil, herr
	}
	if len(req.Items) == 0 {
		return nil, badRequest("batch: no items")
	}
	if len(req.Items) > s.cfg.MaxBatchItems {
		return nil, tooLarge("batch: %d items (limit %d)", len(req.Items), s.cfg.MaxBatchItems)
	}
	if herr := validateIdemKey(req.IdempotencyKey); herr != nil {
		return nil, herr
	}
	opts, herr := s.coreOptions(req.Options)
	if herr != nil {
		return nil, herr
	}
	seen := map[string]bool{}
	items := make([]core.BatchItem, len(req.Items))
	for i, it := range req.Items {
		if herr := validateSources(it.Apps, s.cfg.MaxSourceBytes, fmt.Sprintf("batch item %d", i)); herr != nil {
			return nil, herr
		}
		key := it.Key
		if key == "" {
			key = fmt.Sprintf("item-%d", i)
		}
		if seen[key] {
			return nil, badRequest("batch: duplicate item key %q", key)
		}
		seen[key] = true
		sources := make([]core.NamedSource, len(it.Apps))
		for j, a := range it.Apps {
			sources[j] = core.NamedSource{Name: a.Name, Source: a.Source}
		}
		items[i] = core.BatchItem{Key: key, Sources: sources}
	}
	return &job{
		idemKey: req.IdempotencyKey,
		batch:   true,
		items:   items,
		opts:    opts,
		async:   req.Async,
		timings: req.Timings,
		breq:    &req,
		status:  api.StatusQueued,
		done:    make(chan struct{}),
	}, nil
}
