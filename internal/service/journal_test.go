package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"github.com/soteria-analysis/soteria/internal/api"
	"github.com/soteria-analysis/soteria/internal/core"
	"github.com/soteria-analysis/soteria/internal/fsio"
	"github.com/soteria-analysis/soteria/internal/guard"
	"github.com/soteria-analysis/soteria/internal/guard/faultinject"
	"github.com/soteria-analysis/soteria/internal/paperapps"
	"github.com/soteria-analysis/soteria/internal/store"
)

// journalPath returns a journal location inside a fresh temp dir.
func journalPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "journal.wal")
}

// drainCtx is the shutdown deadline tests hand to Shutdown.
func drainCtx() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), 10*time.Second)
}

// smokeJob builds a runnable single-item job around the smoke-alarm
// paper app, the same source the end-to-end tests analyze.
func smokeJob(id string) *job {
	return &job{
		id: id,
		items: []core.BatchItem{{
			Sources: []core.NamedSource{{Name: "smoke-alarm", Source: paperapps.SmokeAlarm}},
		}},
		opts:   core.DefaultOptions(),
		async:  true,
		status: api.StatusQueued,
		done:   make(chan struct{}),
	}
}

// TestJournalRoundTrip appends events through the durable path and
// replays them from a fresh open: order, payloads, and options must
// survive the encode/decode cycle.
func TestJournalRoundTrip(t *testing.T) {
	path := journalPath(t)
	j, events, err := openJournal(path, nil)
	if err != nil {
		t.Fatalf("openJournal: %v", err)
	}
	if len(events) != 0 {
		t.Fatalf("fresh journal replayed %d events", len(events))
	}
	src := smokeJob("0123456789abcdef")
	src.idemKey = "client-key-1"
	if err := j.append(acceptedEvent(src)); err != nil {
		t.Fatalf("append accepted: %v", err)
	}
	done := terminalEvent(src, api.StatusDone, []api.BatchItem{{StoreKey: "aa", Cached: false}}, 42*time.Millisecond)
	if err := j.append(done); err != nil {
		t.Fatalf("append done: %v", err)
	}
	if err := j.close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	j2, events, err := openJournal(path, nil)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer j2.close()
	if len(events) != 2 {
		t.Fatalf("replayed %d events, want 2", len(events))
	}
	acc := events[0]
	if acc.Op != opAccepted || acc.Job != src.id || acc.Idem != "client-key-1" {
		t.Fatalf("accepted entry: %+v", acc)
	}
	if len(acc.Items) != 1 || acc.Items[0].Apps[0].Source != paperapps.SmokeAlarm {
		t.Fatalf("accepted entry lost its sources")
	}
	if got := acc.Opts.core(); got.General != src.opts.General || got.AppSpecific != src.opts.AppSpecific {
		t.Fatalf("options round trip: %+v", got)
	}
	if events[1].Op != opDone || events[1].ElapsedMS != 42 || events[1].Results[0].StoreKey != "aa" {
		t.Fatalf("terminal entry: %+v", events[1])
	}
}

// TestJournalTruncatedTail is the torn-write rule: a crash mid-append
// leaves a partial last line, and reopening must replay the valid
// prefix, report the cut, and physically truncate the file so the next
// append starts from a sound base.
func TestJournalTruncatedTail(t *testing.T) {
	path := journalPath(t)
	j, _, err := openJournal(path, nil)
	if err != nil {
		t.Fatalf("openJournal: %v", err)
	}
	if err := j.append(journalEvent{Op: opAccepted, Job: "aaaa"}); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := j.append(journalEvent{Op: opDone, Job: "aaaa"}); err != nil {
		t.Fatalf("append: %v", err)
	}
	j.close()

	sound, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read journal: %v", err)
	}
	// Simulate the torn append: half of a third entry, no newline.
	line, _ := encodeEntry(journalEvent{Op: opAccepted, Job: "bbbb"})
	torn := append(append([]byte{}, sound...), line[:len(line)/2]...)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatalf("write torn journal: %v", err)
	}

	j2, events, err := openJournal(path, nil)
	if err != nil {
		t.Fatalf("reopen torn journal: %v", err)
	}
	defer j2.close()
	if len(events) != 2 || events[1].Op != opDone {
		t.Fatalf("torn replay returned %d events: %+v", len(events), events)
	}
	if got := j2.replay.TruncatedBytes; got != len(line)/2 {
		t.Fatalf("TruncatedBytes = %d, want %d", got, len(line)/2)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read truncated journal: %v", err)
	}
	if string(after) != string(sound) {
		t.Fatalf("file not truncated back to valid prefix: %d bytes vs %d", len(after), len(sound))
	}
}

// TestJournalTornTailVariants drives parseJournal over the corruption
// taxonomy: flipped checksum, non-JSON payload, malformed header, and
// missing trailing newline must each stop replay at the last good entry.
func TestJournalTornTailVariants(t *testing.T) {
	good, _ := encodeEntry(journalEvent{Op: opAccepted, Job: "aaaa"})
	bad, _ := encodeEntry(journalEvent{Op: opDone, Job: "aaaa"})
	flipped := append([]byte{}, bad...)
	flipped[len(flipped)-2] ^= 0x01 // corrupt payload byte → checksum mismatch
	cases := []struct {
		name string
		tail []byte
	}{
		{"checksum-mismatch", flipped},
		{"not-json", []byte("deadbeef not json at all\n")},
		{"short-header", []byte("ab\n")},
		{"no-newline", bad[:len(bad)-1]},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := append(append([]byte{}, good...), tc.tail...)
			events, valid := parseJournal(data)
			if len(events) != 1 || events[0].Job != "aaaa" {
				t.Fatalf("replayed %d events: %+v", len(events), events)
			}
			if valid != len(good) {
				t.Fatalf("valid offset = %d, want %d", valid, len(good))
			}
		})
	}
}

// TestReplayDuplicateIdemKey covers the crash-window resubmission: two
// accepted entries sharing an idempotency key must collapse to one
// runnable job, with the duplicate counted, so the same content is not
// analyzed twice after restart.
func TestReplayDuplicateIdemKey(t *testing.T) {
	a, b := smokeJob("1111111111111111"), smokeJob("2222222222222222")
	a.idemKey, b.idemKey = "retry-key", "retry-key"
	out := replayEvents([]journalEvent{acceptedEvent(a), acceptedEvent(b)}, nil)
	if len(out.jobs) != 1 || out.jobs[0].id != a.id {
		t.Fatalf("jobs after dup-key replay: %d", len(out.jobs))
	}
	if out.dupKeys != 1 {
		t.Fatalf("dupKeys = %d, want 1", out.dupKeys)
	}
	if out.idem["retry-key"] != out.jobs[0] {
		t.Fatalf("idempotency index does not point at the surviving job")
	}
	if len(out.requeue) != 1 {
		t.Fatalf("requeue = %d jobs, want 1", len(out.requeue))
	}
}

// TestReplayDoneAfterCrash covers the ordering where a terminal entry
// survives (e.g. compaction) without its accepted entry: replay must
// surface the terminal job for /v1/jobs without trying to re-run it.
func TestReplayDoneAfterCrash(t *testing.T) {
	out := replayEvents([]journalEvent{{
		Op: opDone, Job: "3333333333333333", Idem: "orphan-key",
		Results: []journalResult{{StoreKey: "cc", Cached: true}}, ElapsedMS: 7,
	}}, nil)
	if len(out.jobs) != 1 {
		t.Fatalf("jobs = %d, want 1", len(out.jobs))
	}
	j := out.jobs[0]
	if j.status != api.StatusDone || len(j.results) != 1 || j.results[0].StoreKey != "cc" {
		t.Fatalf("done-after-crash job: status=%s results=%+v", j.status, j.results)
	}
	select {
	case <-j.done:
	default:
		t.Fatalf("done channel not closed on terminal replay")
	}
	if len(out.requeue) != 0 {
		t.Fatalf("terminal-only job was requeued")
	}
	if out.idem["orphan-key"] != j {
		t.Fatalf("idempotency key of terminal job not indexed")
	}
}

// TestReplayRejectedWithdrawal: an accepted entry followed by its
// rejected pair (queue-full after journaling) must vanish — no requeue,
// no idempotency claim — so the client's post-429 retry runs fresh.
func TestReplayRejectedWithdrawal(t *testing.T) {
	j := smokeJob("4444444444444444")
	j.idemKey = "burst-key"
	out := replayEvents([]journalEvent{
		acceptedEvent(j),
		{Op: opRejected, Job: j.id, Idem: j.idemKey},
	}, nil)
	if len(out.jobs) != 0 || len(out.requeue) != 0 {
		t.Fatalf("rejected job survived replay: jobs=%d requeue=%d", len(out.jobs), len(out.requeue))
	}
	if _, ok := out.idem["burst-key"]; ok {
		t.Fatalf("rejected job still holds its idempotency key")
	}
}

// TestReplayDuplicateTerminal: a repeated terminal entry (possible when
// a crash lands between append and compaction on a later restart) must
// not double-close the done channel or overwrite results.
func TestReplayDuplicateTerminal(t *testing.T) {
	j := smokeJob("5555555555555555")
	evs := []journalEvent{
		acceptedEvent(j),
		{Op: opDone, Job: j.id, Results: []journalResult{{StoreKey: "dd"}}},
		{Op: opFailed, Job: j.id, Results: []journalResult{{Err: "late duplicate"}}},
	}
	out := replayEvents(evs, nil) // must not panic on double close
	if len(out.jobs) != 1 || out.jobs[0].status != api.StatusDone {
		t.Fatalf("duplicate terminal replay: %+v", out.jobs)
	}
	if out.jobs[0].results[0].StoreKey != "dd" {
		t.Fatalf("first terminal entry overwritten: %+v", out.jobs[0].results)
	}
}

// TestRestartResume is the service-level crash-recovery contract: a job
// journaled as accepted but never finished (the previous process died)
// must re-enqueue under its original ID on the next New and run to a
// terminal state, with its result rehydrated into /v1/jobs.
func TestRestartResume(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.wal")
	st, err := store.Open(filepath.Join(dir, "store"), store.Options{})
	if err != nil {
		t.Fatalf("store: %v", err)
	}

	// "Crash": journal an accepted job by hand — exactly the bytes a
	// SIGKILLed soteriad leaves behind — with no terminal entry.
	j, _, err := openJournal(path, nil)
	if err != nil {
		t.Fatalf("openJournal: %v", err)
	}
	lost := smokeJob("feedfacefeedface")
	lost.idemKey = "resume-key"
	if err := j.append(acceptedEvent(lost)); err != nil {
		t.Fatalf("append: %v", err)
	}
	j.close()

	s, ts := newTestServer(t, Config{Workers: 2, Store: st, JournalPath: path})
	if got := s.jobsReenqueued.Load(); got != 1 {
		t.Fatalf("jobsReenqueued = %d, want 1", got)
	}

	// The replayed job keeps its ID and reaches a terminal state.
	deadline := time.Now().Add(30 * time.Second)
	var body map[string]any
	for {
		var resp *http.Response
		resp, body = getJSON(t, ts.URL+"/v1/jobs/"+lost.id)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll: %d (%v)", resp.StatusCode, body)
		}
		if st := body["status"]; st == "done" || st == "failed" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replayed job never finished: %v", body)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if body["status"] != "done" {
		t.Fatalf("replayed job status: %v", body)
	}
	if body["result"] == nil {
		t.Fatalf("replayed job has no result: %v", body)
	}

	// A resubmission carrying the crash-era idempotency key is answered
	// by the replayed job — same ID, no second analysis.
	resp, dup := postJSON(t, ts.URL+"/v1/analyze", map[string]any{
		"name": "smoke-alarm", "source": paperapps.SmokeAlarm,
		"idempotency_key": "resume-key",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resubmission: %d (%v)", resp.StatusCode, dup)
	}
	if dup["job_id"] != lost.id {
		t.Fatalf("resubmission ran as new job %v, want %s", dup["job_id"], lost.id)
	}
	if got := s.idemHits.Load(); got != 1 {
		t.Fatalf("idemHits = %d, want 1", got)
	}

	// The journal now holds the completed job; the *next* restart
	// replays it as terminal history and re-enqueues nothing.
	ctx, cancel := drainCtx()
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	s2, err := New(Config{Workers: 1, Store: st, JournalPath: path})
	if err != nil {
		t.Fatalf("second restart: %v", err)
	}
	defer func() {
		ctx, cancel := drainCtx()
		defer cancel()
		s2.Shutdown(ctx)
	}()
	if got := s2.jobsReenqueued.Load(); got != 0 {
		t.Fatalf("second restart re-enqueued %d jobs, want 0", got)
	}
	done, ok := s2.lookupJob(lost.id)
	if !ok {
		t.Fatalf("completed job missing from second restart's table")
	}
	if status, results, _ := done.snapshot(); status != api.StatusDone || len(results) != 1 || results[0].Result == nil {
		t.Fatalf("second restart lost the result: %s %+v", status, results)
	}
}

// TestIdempotentResubmissionLive: two identical submissions with one
// key on a live server run once; the second answers with the first
// job's ID and result.
func TestIdempotentResubmissionLive(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatalf("store: %v", err)
	}
	s, ts := newTestServer(t, Config{Workers: 2, Store: st, JournalPath: journalPath(t)})

	req := map[string]any{"name": "smoke-alarm", "source": paperapps.SmokeAlarm, "idempotency_key": "once"}
	resp1, body1 := postJSON(t, ts.URL+"/v1/analyze", req)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first POST: %d (%v)", resp1.StatusCode, body1)
	}
	faultinject.BeginCount()
	resp2, body2 := postJSON(t, ts.URL+"/v1/analyze", req)
	counts := faultinject.TakeCounts()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second POST: %d (%v)", resp2.StatusCode, body2)
	}
	if body2["job_id"] != body1["job_id"] {
		t.Fatalf("idempotent retry got new job: %v vs %v", body2["job_id"], body1["job_id"])
	}
	if counts[faultinject.SiteAnalyze] != 0 {
		t.Fatalf("idempotent retry dispatched %d analyses", counts[faultinject.SiteAnalyze])
	}
	if got := s.idemHits.Load(); got != 1 {
		t.Fatalf("idemHits = %d, want 1", got)
	}

	// The Idempotency-Key header is an equivalent spelling.
	data, err := json.Marshal(map[string]any{"name": "smoke-alarm", "source": paperapps.SmokeAlarm})
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	hreq, _ := http.NewRequest("POST", ts.URL+"/v1/analyze", bytes.NewReader(data))
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set("Idempotency-Key", "once")
	hresp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatalf("header POST: %v", err)
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("header POST: %d", hresp.StatusCode)
	}
	if got := s.idemHits.Load(); got != 2 {
		t.Fatalf("idemHits after header retry = %d, want 2", got)
	}
}

// TestJournalAppendFailureRejects: when the accepted entry cannot be
// made durable, the submission must fail with a retryable 503 and
// release its idempotency claim — never an acknowledged job that a
// crash would silently lose.
func TestJournalAppendFailureRejects(t *testing.T) {
	path := journalPath(t)
	_, ts := newTestServer(t, Config{
		Workers:     1,
		JournalPath: path,
		FS:          fsio.Faulty{Inner: fsio.OS{}},
	})

	faultinject.ArmError(faultinject.SiteFSSync, filepath.Base(path), fmt.Errorf("disk full"))
	defer faultinject.Disarm(faultinject.SiteFSSync)
	req := map[string]any{
		"name": "smoke-alarm", "source": paperapps.SmokeAlarm,
		"idempotency_key": "durable-or-bust", "async": true,
	}
	resp, body := postJSON(t, ts.URL+"/v1/analyze", req)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("journal-failure POST: %d (%v)", resp.StatusCode, body)
	}

	// With the fault cleared, the same key must be free to run.
	faultinject.Disarm(faultinject.SiteFSSync)
	resp2, body2 := postJSON(t, ts.URL+"/v1/analyze", req)
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("retry after journal failure: %d (%v)", resp2.StatusCode, body2)
	}
}

// TestJournalCompactionBounds: restarting over a journal of finished
// jobs must shrink it to slim history (no sources), not replay it
// verbatim forever.
func TestJournalCompactionBounds(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.wal")
	st, err := store.Open(filepath.Join(dir, "store"), store.Options{})
	if err != nil {
		t.Fatalf("store: %v", err)
	}
	s, ts := newTestServer(t, Config{Workers: 1, Store: st, JournalPath: path})
	resp, _ := postJSON(t, ts.URL+"/v1/analyze", map[string]any{"name": "smoke-alarm", "source": paperapps.SmokeAlarm})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST: %d", resp.StatusCode)
	}
	ctx, cancel := drainCtx()
	defer cancel()
	s.Shutdown(ctx)
	grown, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read journal: %v", err)
	}

	s2, err := New(Config{Workers: 1, Store: st, JournalPath: path})
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer func() {
		ctx, cancel := drainCtx()
		defer cancel()
		s2.Shutdown(ctx)
	}()
	compacted, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read compacted journal: %v", err)
	}
	if len(compacted) >= len(grown) {
		t.Fatalf("compaction did not shrink journal: %d → %d bytes", len(grown), len(compacted))
	}
	events, valid := parseJournal(compacted)
	if valid != len(compacted) {
		t.Fatalf("compacted journal has torn bytes")
	}
	for _, ev := range events {
		if len(ev.Items) != 0 {
			t.Fatalf("compacted history still carries sources: %+v", ev)
		}
	}
}

// journalRoundTrip encodes o into an accepted entry, frames and parses
// it as replay does, and returns the options replay would run with.
func journalRoundTrip(t *testing.T, o core.Options) core.Options {
	t.Helper()
	line, err := encodeEntry(journalEvent{Op: opAccepted, Job: "0123456789abcdef", Opts: optionsToJournal(o)})
	if err != nil {
		t.Fatal(err)
	}
	events, _ := parseJournal(line)
	if len(events) != 1 {
		t.Fatalf("entry did not parse back: %s", line)
	}
	return events[0].Opts.core()
}

// forEachField walks every field of typ, recursing into nested
// structs, and calls visit with the field's dotted name and a setter
// that gives that field a non-zero value in a value of typ. A field of
// a type it has no test value for fails the test, so a new option
// cannot slip past the journal round trip.
func forEachField(t *testing.T, typ reflect.Type, path string, visit func(path string, set func(reflect.Value))) {
	t.Helper()
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		idx := i
		name := path + f.Name
		if f.Type.Kind() == reflect.Struct {
			forEachField(t, f.Type, name+".", func(sub string, set func(reflect.Value)) {
				visit(sub, func(v reflect.Value) { set(v.Field(idx)) })
			})
			continue
		}
		var val reflect.Value
		switch {
		case f.Type == reflect.TypeOf(time.Duration(0)):
			val = reflect.ValueOf(1500 * time.Millisecond) // the journal keeps milliseconds
		case f.Type.Kind() == reflect.Bool:
			val = reflect.ValueOf(true)
		case f.Type.Kind() == reflect.Int:
			val = reflect.ValueOf(7)
		case f.Type == reflect.TypeOf([]string(nil)):
			val = reflect.ValueOf([]string{"P.10", "T.*"})
		default:
			t.Fatalf("field %s: no test value for type %s; extend forEachField", name, f.Type)
		}
		visit(name, func(v reflect.Value) { v.Field(idx).Set(val) })
	}
}

// TestJournalOptionsCarryEveryField: every field of core.Options and
// its guard.Limits, set alone to a non-zero value, must survive the
// journal. A field journalOptions forgets replays at its zero value —
// the failure that once dropped Taint and re-ran recovered jobs with
// the taint family off under a different analysis key.
func TestJournalOptionsCarryEveryField(t *testing.T) {
	all := core.Options{}
	forEachField(t, reflect.TypeOf(core.Options{}), "", func(name string, set func(reflect.Value)) {
		var o core.Options
		set(reflect.ValueOf(&o).Elem())
		set(reflect.ValueOf(&all).Elem())
		if got := journalRoundTrip(t, o); !reflect.DeepEqual(got, o) {
			t.Errorf("only %s set: replay runs with\n got %+v\nwant %+v", name, got, o)
		}
	})
	if got := journalRoundTrip(t, all); !reflect.DeepEqual(got, all) {
		t.Errorf("all fields set:\n got %+v\nwant %+v", got, all)
	}
	if got, want := journalRoundTrip(t, core.DefaultOptions()), core.DefaultOptions(); !reflect.DeepEqual(got, want) {
		t.Errorf("defaults:\n got %+v\nwant %+v", got, want)
	}
	none := core.Options{}
	if got := journalRoundTrip(t, none); !reflect.DeepEqual(got, none) {
		t.Errorf("zero options:\n got %+v\nwant %+v", got, none)
	}
}

// TestReplayParentJournal replays a journal written by the previous
// release's code (testdata/parent-journal.wal): job IDs, idempotency
// keys, traces, items and options must come back as submitted, the
// unfinished jobs must re-enqueue, and an entry written before the
// journal carried "taint" must replay with taint on, as it ran. The
// accepted entries' items must re-encode to the bytes on disk.
func TestReplayParentJournal(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "parent-journal.wal"))
	if err != nil {
		t.Fatal(err)
	}
	path := journalPath(t)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	jr, events, err := openJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer jr.close()
	if jr.replay.TruncatedBytes != 0 || len(events) != 4 {
		t.Fatalf("replayed %d events, truncated %d bytes; want 4 and 0", len(events), jr.replay.TruncatedBytes)
	}
	out := replayEvents(events, nil)

	smoke := []core.BatchItem{{Sources: []core.NamedSource{{Name: "smoke-alarm", Source: paperapps.SmokeAlarm}}}}
	want := []struct {
		id, idem, trace string
		batch           bool
		status          api.Status
		items           []core.BatchItem
		opts            core.Options
	}{
		{"00000000000000a1", "idem-a1", "trace-a1", false, api.StatusQueued, smoke, core.DefaultOptions()},
		{"00000000000000b2", "", "trace-b2", true, api.StatusQueued, []core.BatchItem{
			{Key: "leak", Sources: []core.NamedSource{{Name: "leak", Source: paperapps.WaterLeakDetector}}},
			{Key: "union", Sources: []core.NamedSource{
				{Name: "smoke-alarm", Source: paperapps.SmokeAlarm},
				{Name: "leak", Source: paperapps.WaterLeakDetector},
			}},
		}, core.Options{
			AppSpecific: true, Taint: true, PropertyIDs: []string{"P.10", "T.*"}, Parallel: 3,
			Limits: guard.Limits{Timeout: 1500 * time.Millisecond, MaxStates: 5000, MaxBDDNodes: 7000, MaxSATConflicts: 900, MaxFormulaDepth: 40},
		}},
		{"00000000000000c3", "", "trace-c3", false, api.StatusDone, smoke, core.DefaultOptions()},
	}
	if len(out.jobs) != len(want) {
		t.Fatalf("replayed %d jobs, want %d", len(out.jobs), len(want))
	}
	for i, w := range want {
		j := out.jobs[i]
		if j.id != w.id || j.idemKey != w.idem || j.trace != w.trace || j.batch != w.batch || j.status != w.status {
			t.Errorf("job %d: got id=%s idem=%q trace=%q batch=%v status=%s", i, j.id, j.idemKey, j.trace, j.batch, j.status)
		}
		if !reflect.DeepEqual(j.items, w.items) {
			t.Errorf("job %s: items differ", w.id)
		}
		if !reflect.DeepEqual(j.opts, w.opts) {
			t.Errorf("job %s: options\n got %+v\nwant %+v", w.id, j.opts, w.opts)
		}
	}
	if len(out.requeue) != 2 || out.requeue[0].id != want[0].id || out.requeue[1].id != want[1].id {
		t.Errorf("requeue = %v, want the two unfinished jobs", out.requeue)
	}
	if out.idem["idem-a1"] != out.jobs[0] {
		t.Error("idempotency key idem-a1 not bound to its job")
	}
	done := out.jobs[2]
	if len(done.results) != 1 || done.results[0].StoreKey != "cc" || !done.results[0].Cached || done.elapsed != 7*time.Millisecond {
		t.Errorf("terminal job results: %+v elapsed %v", done.results, done.elapsed)
	}

	lines := bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
	for i, j := range out.jobs {
		var onDisk struct {
			Items json.RawMessage `json:"items"`
		}
		if err := json.Unmarshal(lines[i][9:], &onDisk); err != nil {
			t.Fatal(err)
		}
		again, err := json.Marshal(acceptedEvent(j).Items)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, onDisk.Items) {
			t.Errorf("job %s: items re-encode differently from the parent's bytes", j.id)
		}
	}
}
