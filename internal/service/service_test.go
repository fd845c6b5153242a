package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/soteria-analysis/soteria/internal/api"
	"github.com/soteria-analysis/soteria/internal/client"
	"github.com/soteria-analysis/soteria/internal/core"
	"github.com/soteria-analysis/soteria/internal/guard"
	"github.com/soteria-analysis/soteria/internal/guard/faultinject"
	"github.com/soteria-analysis/soteria/internal/paperapps"
	"github.com/soteria-analysis/soteria/internal/store"
)

// newTestServer starts a server plus an httptest front end and tears
// both down in order (drain, then close).
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
		ts.Close()
	})
	return s, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, map[string]any) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var decoded map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&decoded); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp, decoded
}

func getJSON(t *testing.T, url string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	var decoded map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&decoded); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp, decoded
}

// TestAnalyzeEndToEnd is the acceptance-criteria test: a paper app is
// analyzed over HTTP, the repeated request is served from the
// persistent store (hit counter increments, the pipeline is never
// dispatched — observed via faultinject counters), and the stored
// record is addressable under /v1/results.
func TestAnalyzeEndToEnd(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatalf("store: %v", err)
	}
	_, ts := newTestServer(t, Config{Workers: 2, Store: st})

	req := map[string]any{"name": "smoke-alarm", "source": paperapps.SmokeAlarm}

	faultinject.BeginCount()
	resp, body := postJSON(t, ts.URL+"/v1/analyze", req)
	counts := faultinject.TakeCounts()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first POST: %d (%v)", resp.StatusCode, body)
	}
	if body["cached"] == true {
		t.Fatalf("first POST claims cached: %v", body)
	}
	if counts[faultinject.SiteAnalyze] != 1 {
		t.Fatalf("first POST dispatched %d analyses, want 1", counts[faultinject.SiteAnalyze])
	}
	result, ok := body["result"].(map[string]any)
	if !ok {
		t.Fatalf("no result in response: %v", body)
	}
	if result["schema"] != float64(2) || result["states"] == float64(0) {
		t.Fatalf("unexpected record: %v", result)
	}
	key, _ := body["key"].(string)
	if key == "" {
		t.Fatalf("no content key in response: %v", body)
	}

	// The repeated request must be a pure store read: no analysis
	// dispatch, cached flag set, identical record, hit counter up.
	before := st.Stats().Hits
	faultinject.BeginCount()
	resp2, body2 := postJSON(t, ts.URL+"/v1/analyze", req)
	counts2 := faultinject.TakeCounts()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second POST: %d", resp2.StatusCode)
	}
	if body2["cached"] != true {
		t.Fatalf("second POST not cached: %v", body2)
	}
	if n := counts2[faultinject.SiteAnalyze]; n != 0 {
		t.Fatalf("second POST dispatched %d analyses, want 0", n)
	}
	if st.Stats().Hits <= before {
		t.Fatalf("store hit counter did not increment: %+v", st.Stats())
	}
	if fmt.Sprint(body2["result"]) != fmt.Sprint(result) {
		t.Fatalf("cached record differs:\n%v\n---\n%v", body2["result"], result)
	}

	// The record is addressable by content hash.
	resp3, rec := getJSON(t, ts.URL+"/v1/results/"+key)
	if resp3.StatusCode != http.StatusOK || rec["schema"] != float64(2) {
		t.Fatalf("GET /v1/results/%s: %d %v", key, resp3.StatusCode, rec)
	}
}

func TestBatchEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	req := map[string]any{
		"items": []map[string]any{
			{"key": "smoke", "apps": []map[string]string{{"name": "smoke", "source": paperapps.SmokeAlarm}}},
			{"key": "union", "apps": []map[string]string{
				{"name": "smoke", "source": paperapps.SmokeAlarm},
				{"name": "leak", "source": paperapps.WaterLeakDetector},
			}},
		},
	}
	resp, body := postJSON(t, ts.URL+"/v1/batch", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch POST: %d (%v)", resp.StatusCode, body)
	}
	results, ok := body["results"].([]any)
	if !ok || len(results) != 2 {
		t.Fatalf("batch results: %v", body)
	}
	first := results[0].(map[string]any)
	if first["key"] != "smoke" || first["result"].(map[string]any)["schema"] != float64(2) {
		t.Fatalf("batch item 0: %v", first)
	}
	// A broken app fails its item, not the batch.
	req2 := map[string]any{
		"items": []map[string]any{
			{"key": "bad", "apps": []map[string]string{{"name": "bad", "source": "definition("}}},
			{"key": "good", "apps": []map[string]string{{"name": "smoke", "source": paperapps.SmokeAlarm}}},
		},
	}
	resp2, body2 := postJSON(t, ts.URL+"/v1/batch", req2)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("mixed batch POST: %d", resp2.StatusCode)
	}
	results2 := body2["results"].([]any)
	bad := results2[0].(map[string]any)
	good := results2[1].(map[string]any)
	if bad["error"] == nil || bad["error"] == "" {
		t.Fatalf("broken item has no error: %v", bad)
	}
	if good["result"] == nil {
		t.Fatalf("good item has no result: %v", good)
	}
}

func TestAsyncJobsPoll(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, body := postJSON(t, ts.URL+"/v1/analyze", map[string]any{
		"name": "smoke", "source": paperapps.SmokeAlarm, "async": true,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async POST: %d", resp.StatusCode)
	}
	id, _ := body["job_id"].(string)
	if id == "" {
		t.Fatalf("async response has no job_id: %v", body)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, body = getJSON(t, ts.URL+"/v1/jobs/"+id)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll: %d", resp.StatusCode)
		}
		if body["status"] == "done" {
			if body["result"].(map[string]any)["schema"] != float64(2) {
				t.Fatalf("done job has no record: %v", body)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never completed: %v", id, body)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if resp, _ := getJSON(t, ts.URL+"/v1/jobs/nope"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: %d", resp.StatusCode)
	}
}

func TestRequestValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxBodyBytes: 1 << 20, MaxSourceBytes: 2048})
	cases := []struct {
		name string
		body string
		code int
	}{
		{"malformed", `{"name":`, http.StatusBadRequest},
		{"empty", `{}`, http.StatusBadRequest},
		{"no source", `{"name":"x"}`, http.StatusBadRequest},
		{"unknown field", `{"name":"x","source":"y","nope":1}`, http.StatusBadRequest},
		{"trailing", `{"name":"x","source":"y"}{}`, http.StatusBadRequest},
		{"bad property", `{"name":"x","source":"y","options":{"properties":["P.999"]}}`, http.StatusBadRequest},
		{"negative timeout", `{"name":"x","source":"y","options":{"timeout_ms":-1}}`, http.StatusBadRequest},
		{"nothing to check", `{"name":"x","source":"y","options":{"general":false,"app_specific":false,"taint":false}}`, http.StatusBadRequest},
		{"oversized source", fmt.Sprintf(`{"name":"x","source":%q}`, strings.Repeat("a", 4096)), http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.code)
		}
	}
	// Whole-body cap → 413.
	big := fmt.Sprintf(`{"name":"x","source":%q}`, strings.Repeat("a", 2<<20))
	resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatalf("big body: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("big body: status %d, want 413", resp.StatusCode)
	}
	// An unparseable app is a 422 (failed job), not a 5xx.
	resp2, body2 := postJSON(t, ts.URL+"/v1/analyze", map[string]any{"name": "bad", "source": "definition("})
	if resp2.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("unparseable app: status %d (%v), want 422", resp2.StatusCode, body2)
	}
}

func TestPropertyFilterOverHTTP(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, body := postJSON(t, ts.URL+"/v1/analyze", map[string]any{
		"name": "smoke", "source": paperapps.SmokeAlarm,
		"options": map[string]any{"general": false, "properties": []string{"P.10"}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST: %d (%v)", resp.StatusCode, body)
	}
	checked := body["result"].(map[string]any)["checked"].([]any)
	if len(checked) != 1 || checked[0] != "P.10" {
		t.Fatalf("checked = %v, want [P.10]", checked)
	}
}

func TestHealthAndMetrics(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatalf("store: %v", err)
	}
	_, ts := newTestServer(t, Config{Workers: 1, Store: st})
	resp, body := getJSON(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("healthz: %d %v", resp.StatusCode, body)
	}
	postJSON(t, ts.URL+"/v1/analyze", map[string]any{"name": "smoke", "source": paperapps.SmokeAlarm})

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	defer mresp.Body.Close()
	raw, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatalf("reading metrics: %v", err)
	}
	text := string(raw)
	for _, want := range []string{
		"soteriad_queue_depth 0",
		"soteriad_inflight_jobs 0",
		"soteriad_jobs_done_total 1",
		"soteriad_store_puts_total 1",
		"soteriad_cache_misses_total",
		"soteriad_store_corrupt_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q in:\n%s", want, text)
		}
	}
}

func TestResultsEndpointRejectsBadHashes(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatalf("store: %v", err)
	}
	_, ts := newTestServer(t, Config{Workers: 1, Store: st})
	for _, hash := range []string{"zz", "%2e%2e%2fescape", strings.Repeat("a", 64)} {
		resp, err := http.Get(ts.URL + "/v1/results/" + hash)
		if err != nil {
			t.Fatalf("GET: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET /v1/results/%s: %d, want 404", hash, resp.StatusCode)
		}
	}
}

// TestOptionsClientToServer sends a fully populated api.Options through
// the Go client and decodes the body the daemon receives with its
// strict decoder: every option must arrive and resolve to the expected
// core.Options, server limits included.
func TestOptionsClientToServer(t *testing.T) {
	no, yes := false, true
	opts := api.Options{
		General: &no, AppSpecific: &yes, Taint: &no,
		Properties: []string{"P.10", "T.2"},
		TimeoutMS:  1500, MaxStates: 4000, Parallel: 3,
	}
	v := reflect.ValueOf(opts)
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).IsZero() {
			t.Fatalf("api.Options.%s is not populated; set it here", v.Type().Field(i).Name)
		}
	}
	s, err := New(Config{Workers: 1, Limits: guard.Limits{MaxStates: 9000, MaxBDDNodes: 7000}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Shutdown(context.Background()) })
	var got *job
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		data, _ := io.ReadAll(r.Body)
		j, herr := s.parseAnalyze(data)
		if herr != nil {
			t.Errorf("strict decode rejected the client's body: %v\n%s", herr, data)
			http.Error(w, herr.msg, herr.code)
			return
		}
		got = j
		fmt.Fprint(w, `{"job_id":"0123456789abcdef","status":"done"}`)
	}))
	defer ts.Close()
	c, err := client.New(client.Config{BaseURL: ts.URL, MaxAttempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	req := api.AnalyzeRequest{Apps: []api.App{{Name: "smoke", Source: paperapps.SmokeAlarm}}, Options: opts}
	if _, err := c.Analyze(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	want := core.Options{
		AppSpecific: true, PropertyIDs: []string{"P.10", "T.2"}, Parallel: 3,
		Limits: guard.Limits{Timeout: 1500 * time.Millisecond, MaxStates: 4000, MaxBDDNodes: 7000},
	}
	if got == nil {
		t.Fatal("the server decoded no request")
	}
	if !reflect.DeepEqual(got.opts, want) {
		t.Fatalf("decoded options:\n got %+v\nwant %+v", got.opts, want)
	}
}
