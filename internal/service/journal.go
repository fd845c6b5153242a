package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/soteria-analysis/soteria/internal/api"
	"github.com/soteria-analysis/soteria/internal/core"
	"github.com/soteria-analysis/soteria/internal/fsio"
	"github.com/soteria-analysis/soteria/internal/guard"
)

// The job journal is soteriad's write-ahead log of job lifecycle
// events. Every accepted job is appended (and fsynced) before the
// client sees its acknowledgment, so a crash — SIGKILL, OOM, power
// cut — can lose only work the client was never told was accepted.
// On restart the journal is replayed: incomplete jobs re-enqueue with
// their original IDs, terminal jobs rebuild the /v1/jobs table, and
// client-supplied idempotency keys keep resubmissions from running
// twice.
//
// Wire format — one entry per line:
//
//	<crc32-ieee-hex8> <canonical JSON of journalEvent>\n
//
// json.Marshal never emits raw newlines, so lines frame entries; the
// checksum covers the JSON bytes. Replay stops at the first entry that
// fails its checksum or does not parse — the classic torn-tail rule —
// and the file is truncated back to the last good entry.
//
// Appends are fsync-batched (group commit): concurrent appenders pile
// up behind one fsync, so a burst of accepted jobs costs one disk
// flush, not one per job.

// journalOp is a lifecycle event kind.
const (
	opAccepted = "accepted" // job journaled before its ack
	opRejected = "rejected" // accepted entry withdrawn (queue full)
	opDone     = "done"     // terminal: success
	opFailed   = "failed"   // terminal: hard input error
)

// journalEvent is one journal entry. Accepted events carry the whole
// job — sources and options — so replay can re-run it; terminal events
// carry per-item results by store key (the record bytes live in the
// content-addressed store, not the journal).
type journalEvent struct {
	Op        string                 `json:"op"`
	Job       string                 `json:"job"`
	Idem      string                 `json:"idem,omitempty"`
	Batch     bool                   `json:"batch,omitempty"`
	Trace     string                 `json:"trace,omitempty"`
	Items     []api.BatchRequestItem `json:"items,omitempty"`
	Opts      *journalOptions        `json:"opts,omitempty"`
	Results   []journalResult        `json:"results,omitempty"`
	ElapsedMS int64                  `json:"elapsed_ms,omitempty"`
}

// journalOptions is the on-disk record of a job's resolved
// core.Options — after the server's defaults and limit clamps, unlike
// the request's api.Options — so a replayed job re-runs exactly as
// accepted, Parallel included. The family switches are always written;
// an entry without "taint" predates the field and replays with taint
// on, the core.DefaultOptions value it ran with.
type journalOptions struct {
	General         bool     `json:"general"`
	AppSpecific     bool     `json:"app_specific"`
	Taint           *bool    `json:"taint"`
	PropertyIDs     []string `json:"property_ids,omitempty"`
	Parallel        int      `json:"parallel,omitempty"`
	TimeoutMS       int64    `json:"timeout_ms,omitempty"`
	MaxStates       int      `json:"max_states,omitempty"`
	MaxBDDNodes     int      `json:"max_bdd_nodes,omitempty"`
	MaxSATConflicts int      `json:"max_sat_conflicts,omitempty"`
	MaxFormulaDepth int      `json:"max_formula_depth,omitempty"`
}

type journalResult struct {
	Key      string `json:"key,omitempty"`
	StoreKey string `json:"store_key,omitempty"`
	Cached   bool   `json:"cached,omitempty"`
	Err      string `json:"err,omitempty"`
}

func optionsToJournal(o core.Options) *journalOptions {
	return &journalOptions{
		General:         o.General,
		AppSpecific:     o.AppSpecific,
		Taint:           &o.Taint,
		PropertyIDs:     o.PropertyIDs,
		Parallel:        o.Parallel,
		TimeoutMS:       o.Limits.Timeout.Milliseconds(),
		MaxStates:       o.Limits.MaxStates,
		MaxBDDNodes:     o.Limits.MaxBDDNodes,
		MaxSATConflicts: o.Limits.MaxSATConflicts,
		MaxFormulaDepth: o.Limits.MaxFormulaDepth,
	}
}

func (jo *journalOptions) core() core.Options {
	if jo == nil {
		return core.DefaultOptions()
	}
	taint := core.DefaultOptions().Taint
	if jo.Taint != nil {
		taint = *jo.Taint
	}
	return core.Options{
		General:     jo.General,
		AppSpecific: jo.AppSpecific,
		Taint:       taint,
		PropertyIDs: jo.PropertyIDs,
		Parallel:    jo.Parallel,
		Limits: guard.Limits{
			Timeout:         time.Duration(jo.TimeoutMS) * time.Millisecond,
			MaxStates:       jo.MaxStates,
			MaxBDDNodes:     jo.MaxBDDNodes,
			MaxSATConflicts: jo.MaxSATConflicts,
			MaxFormulaDepth: jo.MaxFormulaDepth,
		},
	}
}

// acceptedEvent snapshots a job into its accepted entry.
func acceptedEvent(j *job) journalEvent {
	ev := journalEvent{
		Op:    opAccepted,
		Job:   j.id,
		Idem:  j.idemKey,
		Batch: j.batch,
		Trace: j.trace,
		Opts:  optionsToJournal(j.opts),
	}
	for _, it := range j.items {
		ji := api.BatchRequestItem{Key: it.Key}
		for _, s := range it.Sources {
			ji.Apps = append(ji.Apps, api.App{Name: s.Name, Source: s.Source})
		}
		ev.Items = append(ev.Items, ji)
	}
	return ev
}

// jobFromAccepted reconstructs a runnable job from its accepted entry.
// Replayed jobs are async by construction: their original submitter is
// gone, so nobody waits on the done channel.
func jobFromAccepted(ev journalEvent) *job {
	j := &job{
		id:      ev.Job,
		idemKey: ev.Idem,
		batch:   ev.Batch,
		trace:   ev.Trace,
		async:   true,
		opts:    ev.Opts.core(),
		status:  api.StatusQueued,
		done:    make(chan struct{}),
	}
	for _, it := range ev.Items {
		bi := core.BatchItem{Key: it.Key}
		for _, a := range it.Apps {
			bi.Sources = append(bi.Sources, core.NamedSource{Name: a.Name, Source: a.Source})
		}
		j.items = append(j.items, bi)
	}
	return j
}

// journalStats are the journal's monotonic counters for /metrics.
type journalStats struct {
	appends, syncs atomic.Int64
}

// replayStats describe what opening a journal found.
type replayStats struct {
	// Entries is the count of valid entries replayed.
	Entries int
	// TruncatedBytes is how much torn tail was cut off.
	TruncatedBytes int
}

// journal is the append-only, fsync-batched job journal. A nil
// *journal is inert: appends succeed without doing anything, so a
// journal-less configuration threads through unconditionally.
type journal struct {
	fs   fsio.FS
	path string

	mu       sync.Mutex // guards f and file writes
	f        fsio.File
	writeSeq uint64

	syncMu    sync.Mutex // group commit: one fsync covers piled-up writes
	syncedSeq uint64

	stats  journalStats
	replay replayStats
}

// openJournal opens (or creates) the journal at path, replays its
// valid prefix, and truncates any torn tail. The returned events are
// in append order.
func openJournal(path string, fsys fsio.FS) (*journal, []journalEvent, error) {
	if fsys == nil {
		fsys = fsio.OS{}
	}
	if err := fsys.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	j := &journal{fs: fsys, path: path}

	data, err := fsys.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("journal: reading %s: %w", path, err)
	}
	events, valid := parseJournal(data)
	j.replay.Entries = len(events)
	j.replay.TruncatedBytes = len(data) - valid
	if j.replay.TruncatedBytes > 0 {
		// Cut the torn tail by atomically rewriting the valid prefix —
		// the same temp+rename+dir-sync protocol the store uses.
		if err := j.writeWhole(data[:valid]); err != nil {
			return nil, nil, err
		}
	}
	f, err := fsys.OpenAppend(path)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	j.f = f
	return j, events, nil
}

// parseJournal decodes the valid prefix of journal bytes, returning
// the events and the byte offset up to which the file is sound.
func parseJournal(data []byte) ([]journalEvent, int) {
	var events []journalEvent
	valid := 0
	for off := 0; off < len(data); {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			break // unterminated tail entry
		}
		line := data[off : off+nl]
		if len(line) < 10 || line[8] != ' ' {
			break
		}
		var sum uint32
		if _, err := fmt.Sscanf(string(line[:8]), "%08x", &sum); err != nil {
			break
		}
		payload := line[9:]
		if crc32.ChecksumIEEE(payload) != sum {
			break
		}
		var ev journalEvent
		if err := json.Unmarshal(payload, &ev); err != nil {
			break
		}
		events = append(events, ev)
		off += nl + 1
		valid = off
	}
	return events, valid
}

// writeWhole atomically replaces the journal file's contents.
func (j *journal) writeWhole(data []byte) error {
	dir := filepath.Dir(j.path)
	tmp, err := j.fs.CreateTemp(dir, ".tmp-journal-*")
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	_, werr := tmp.Write(data)
	if werr == nil {
		werr = tmp.Sync()
	}
	cerr := tmp.Close()
	if werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = j.fs.Rename(tmp.Name(), j.path)
	}
	if werr != nil {
		j.fs.Remove(tmp.Name())
		return fmt.Errorf("journal: rewriting %s: %w", j.path, werr)
	}
	_ = j.fs.SyncDir(dir)
	return nil
}

// compact rewrites the journal to exactly the given events — called
// after replay so completed history beyond the retention bound stops
// accumulating — and reopens the append handle.
func (j *journal) compact(events []journalEvent) error {
	if j == nil {
		return nil
	}
	var buf bytes.Buffer
	for _, ev := range events {
		line, err := encodeEntry(ev)
		if err != nil {
			return err
		}
		buf.Write(line)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f != nil {
		j.f.Close()
	}
	if err := j.writeWhole(buf.Bytes()); err != nil {
		return err
	}
	f, err := j.fs.OpenAppend(j.path)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	j.f = f
	return nil
}

// encodeEntry frames one event as a checksummed journal line.
func encodeEntry(ev journalEvent) ([]byte, error) {
	payload, err := json.Marshal(ev)
	if err != nil {
		return nil, fmt.Errorf("journal: encoding event: %w", err)
	}
	line := make([]byte, 0, len(payload)+10)
	line = fmt.Appendf(line, "%08x ", crc32.ChecksumIEEE(payload))
	line = append(line, payload...)
	return append(line, '\n'), nil
}

// append writes one event durably: the call returns only after an
// fsync covering the entry. Concurrent appenders share fsyncs (group
// commit): each waits only for the first flush that covers its write.
func (j *journal) append(ev journalEvent) error {
	if j == nil {
		return nil
	}
	line, err := encodeEntry(ev)
	if err != nil {
		return err
	}
	j.mu.Lock()
	if j.f == nil {
		j.mu.Unlock()
		return fmt.Errorf("journal: closed")
	}
	if _, err := j.f.Write(line); err != nil {
		j.mu.Unlock()
		return fmt.Errorf("journal: append: %w", err)
	}
	j.writeSeq++
	target := j.writeSeq
	j.mu.Unlock()
	j.stats.appends.Add(1)
	return j.syncTo(target)
}

// syncTo ensures an fsync has covered write sequence target.
func (j *journal) syncTo(target uint64) error {
	j.syncMu.Lock()
	defer j.syncMu.Unlock()
	if j.syncedSeq >= target {
		return nil // a piled-up appender's fsync already covered us
	}
	j.mu.Lock()
	covered := j.writeSeq
	f := j.f
	j.mu.Unlock()
	if f == nil {
		return fmt.Errorf("journal: closed")
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("journal: fsync: %w", err)
	}
	j.stats.syncs.Add(1)
	j.syncedSeq = covered
	return nil
}

// close syncs and closes the journal file.
func (j *journal) close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	serr := j.f.Sync()
	cerr := j.f.Close()
	j.f = nil
	if serr != nil {
		return serr
	}
	return cerr
}
