package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"github.com/soteria-analysis/soteria/internal/guard"
	"github.com/soteria-analysis/soteria/internal/guard/faultinject"
	"github.com/soteria-analysis/soteria/internal/market"
	"github.com/soteria-analysis/soteria/internal/paperapps"
	"github.com/soteria-analysis/soteria/internal/report"
	"github.com/soteria-analysis/soteria/internal/store"
)

// syncResponse is the part of a sync /v1/analyze response these tests
// read; Result keeps the record's wire bytes.
type syncResponse struct {
	Key    string          `json:"key"`
	Cached bool            `json:"cached"`
	Result json.RawMessage `json:"result"`
}

// analyzeVia sends one sync analysis straight to h and decodes the
// response, failing the test on any status but 200.
func analyzeVia(t *testing.T, h http.Handler, name, source string) syncResponse {
	t.Helper()
	body, err := json.Marshal(map[string]any{"name": name, "source": source})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/analyze", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("analyze %s: %d %s", name, rec.Code, rec.Body.Bytes())
	}
	var resp syncResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp
}

// canonicalRecord decodes record bytes and re-encodes them canonically,
// so a record read from a response and one read from /v1/results
// compare byte for byte.
func canonicalRecord(t *testing.T, data []byte) string {
	t.Helper()
	rec, err := report.Decode(data)
	if err != nil {
		t.Fatalf("decoding record: %v", err)
	}
	out, err := report.Encode(rec)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestMemoryOnlyCache: a server without a Store still caches. A repeat
// is answered from the memory front without dispatching an analysis,
// with the same key and record bytes, and the record is addressable
// under /v1/results.
func TestMemoryOnlyCache(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	h := s.Handler()

	first := analyzeVia(t, h, "smoke-alarm", paperapps.SmokeAlarm)
	if first.Cached || first.Key == "" {
		t.Fatalf("first response: cached=%v key=%q", first.Cached, first.Key)
	}
	faultinject.BeginCount()
	second := analyzeVia(t, h, "smoke-alarm", paperapps.SmokeAlarm)
	if n := faultinject.TakeCounts()[faultinject.SiteAnalyze]; n != 0 {
		t.Fatalf("repeat dispatched %d analyses, want 0", n)
	}
	if !second.Cached || second.Key != first.Key {
		t.Fatalf("repeat: cached=%v key=%q, want cached under %q", second.Cached, second.Key, first.Key)
	}
	if !bytes.Equal(second.Result, first.Result) {
		t.Fatalf("repeat record differs:\n%s\n---\n%s", second.Result, first.Result)
	}

	resp, err := http.Get(ts.URL + "/v1/results/" + first.Key)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/results/%s: %d %s", first.Key, resp.StatusCode, data)
	}
	if canonicalRecord(t, data) != canonicalRecord(t, first.Result) {
		t.Fatalf("/v1/results record differs from the response's")
	}
	if st := s.local.Stats(); st.MemHits < 2 || st.DiskHits != 0 {
		t.Fatalf("store stats = %+v, want the repeat and the GET served from memory", st)
	}
}

// TestPartialHitBatch: a batch whose items are partly stored runs only
// the misses. Stored items answer cached with the stored record's
// bytes, and each item is read from the store exactly once, whether
// the HTTP-side lookup or the worker made the read.
func TestPartialHitBatch(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1})
	h := s.Handler()
	stored := analyzeVia(t, h, "smoke-alarm", paperapps.SmokeAlarm)

	app := func(key, name, src string) map[string]any {
		return map[string]any{"key": key, "apps": []map[string]string{{"name": name, "source": src}}}
	}
	// The HTTP side reads items 0 and 1 (its first miss); the worker
	// reads item 2 only.
	body, err := json.Marshal(map[string]any{"items": []map[string]any{
		app("stored", "smoke-alarm", paperapps.SmokeAlarm),
		app("fresh", "leak", paperapps.WaterLeakDetector),
		app("stored-again", "smoke-alarm", paperapps.SmokeAlarm),
	}})
	if err != nil {
		t.Fatal(err)
	}
	before := s.local.Stats()
	faultinject.BeginCount()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(body)))
	analyses := faultinject.TakeCounts()[faultinject.SiteAnalyze]
	if rec.Code != http.StatusOK {
		t.Fatalf("batch: %d %s", rec.Code, rec.Body.Bytes())
	}
	var resp struct {
		Results []struct {
			syncResponse
			StoreKey string `json:"store_key"`
		} `json:"results"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || len(resp.Results) != 3 {
		t.Fatalf("batch response (err %v): %s", err, rec.Body.Bytes())
	}
	if analyses != 1 {
		t.Fatalf("batch dispatched %d analyses, want 1 (the fresh item)", analyses)
	}
	for _, i := range []int{0, 2} {
		r := resp.Results[i]
		if !r.Cached || r.StoreKey != stored.Key {
			t.Fatalf("item %d: cached=%v store_key=%q, want cached under %q", i, r.Cached, r.StoreKey, stored.Key)
		}
		if canonicalRecord(t, r.Result) != canonicalRecord(t, stored.Result) {
			t.Fatalf("item %d record differs from the stored one", i)
		}
	}
	if fresh := resp.Results[1]; fresh.Cached || fresh.StoreKey == stored.Key || len(fresh.Result) == 0 {
		t.Fatalf("fresh item: cached=%v store_key=%q result=%s", fresh.Cached, fresh.StoreKey, fresh.Result)
	}
	after := s.local.Stats()
	if hits, misses, puts := after.Hits-before.Hits, after.Misses-before.Misses, after.Puts-before.Puts; hits != 2 || misses != 1 || puts != 1 {
		t.Fatalf("store reads for the batch: %d hits, %d misses, %d puts; want 2, 1, 1", hits, misses, puts)
	}
}

// TestBoundedRetention: the daemon's memory does not grow with the
// number of distinct apps it has analyzed. After a warm-up that fills
// every bounded table (the store's memory front, the completed-job
// records), 2,000 further fresh misses must leave the store front at
// its bound and the live heap within a fixed allowance — no analysis,
// model or parsed IR outlives the job that built it.
func TestBoundedRetention(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 2})
	h := s.Handler()
	apps := market.All()
	n := 0
	misses := func(count int) {
		for end := n + count; n < end; n++ {
			a := apps[n%len(apps)]
			if r := analyzeVia(t, h, a.Name, fmt.Sprintf("// variant %d\n%s", n, a.Source)); r.Cached {
				t.Fatalf("variant %d of %s was a hit", n, a.ID)
			}
		}
	}
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	misses(1024 + store.DefaultMemEntries)
	before := heap()
	misses(2000)
	after := heap()
	t.Logf("live heap growth over 2000 misses: %d KB", (int64(after)-int64(before))>>10)

	if mem, _ := s.local.Len(); mem > store.DefaultMemEntries {
		t.Fatalf("store front holds %d records, bound is %d", mem, store.DefaultMemEntries)
	}
	const allowance = 16 << 20
	if after > before && after-before > allowance {
		t.Fatalf("live heap grew %d KB over 2000 misses (%.1f KB per miss), allowance %d KB",
			(after-before)>>10, float64(after-before)/2000/1024, allowance>>10)
	}
}

// TestIncompleteNotStored: a result cut short by a budget reflects
// that run, not the input, so it is never written to the store and a
// repeat is analyzed again.
func TestIncompleteNotStored(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, Limits: guard.Limits{MaxStates: 4}})
	h := s.Handler()
	for i := 0; i < 2; i++ {
		r := analyzeVia(t, h, "smoke-alarm", paperapps.SmokeAlarm)
		if r.Cached {
			t.Fatalf("attempt %d: incomplete result served as cached", i)
		}
		var rec struct {
			Incomplete bool `json:"incomplete"`
		}
		if err := json.Unmarshal(r.Result, &rec); err != nil || !rec.Incomplete {
			t.Fatalf("attempt %d: result not incomplete (err %v): %s", i, err, r.Result)
		}
		resp, err := http.Get(ts.URL + "/v1/results/" + r.Key)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("attempt %d: GET /v1/results: %d, want 404", i, resp.StatusCode)
		}
	}
	if st := s.local.Stats(); st.Puts != 0 {
		t.Fatalf("store puts = %d, want 0", st.Puts)
	}
}

// TestMetricsObserveJobBeforeResponse: a /metrics scrape issued right
// after a sync response already counts that job, for analyzed jobs and
// store-served ones alike.
func TestMetricsObserveJobBeforeResponse(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 2})
	h := s.Handler()
	for n := 1; n <= 20; n++ {
		// Even n send a fresh variant (a miss); odd n resend the
		// original, a store hit after the first.
		src := paperapps.WaterLeakDetector
		if n%2 == 0 {
			src = fmt.Sprintf("// variant %d\n%s", n, src)
		}
		analyzeVia(t, h, "leak", src)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		if got := sampleValue(t, rec.Body.String(), "soteriad_job_seconds_count"); got < float64(n) {
			t.Fatalf("after %d responses soteriad_job_seconds_count = %v", n, got)
		}
	}
}
