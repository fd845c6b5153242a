package service

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"github.com/soteria-analysis/soteria/internal/cluster"
	"github.com/soteria-analysis/soteria/internal/market"
	"github.com/soteria-analysis/soteria/internal/paperapps"
	"github.com/soteria-analysis/soteria/internal/store"
)

var updateWire = flag.Bool("update-wire", false, "rewrite the wire-bytes golden files")

// The wire goldens pin soteriad's exact response bytes (and the body a
// node forwards to a sub-batch's owner), so a refactor of the wire
// types cannot reorder, rename, or drop a field unnoticed. Two values
// are run-varying and normalized before comparison: job IDs (random)
// and elapsed_ms (wall time).
var (
	wireJobID   = regexp.MustCompile(`"job_id":"([0-9a-f]{16}|t[0-9a-f]{15})"`)
	wireElapsed = regexp.MustCompile(`"elapsed_ms":[0-9]+,?`)
)

func normalizeWire(body []byte) []byte {
	for _, m := range wireJobID.FindAllSubmatch(body, -1) {
		body = bytes.ReplaceAll(body, m[1], []byte("JOBID"))
	}
	return wireElapsed.ReplaceAll(body, nil)
}

// checkWireGolden compares a status code and normalized body against
// testdata/wire/<name>.golden (rewritten under -update-wire).
func checkWireGolden(t *testing.T, name string, code int, body []byte) {
	t.Helper()
	got := fmt.Sprintf("HTTP %d\n%s", code, normalizeWire(body))
	path := filepath.Join("testdata", "wire", name+".golden")
	if *updateWire {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (run with -update-wire to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s: wire bytes differ from %s\n got: %s\nwant: %s", name, path, got, want)
	}
}

func rawRequest(t *testing.T, method, url, body string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

func analyzeBody(name, source string, extra string) string {
	return fmt.Sprintf(`{"name":%q,"source":%q%s}`, name, source, extra)
}

// TestWireGoldenResponses pins the bytes of a sync single analysis, an
// async 202, a job poll, a batch, a failed job, and the cluster status
// of a single-node daemon.
func TestWireGoldenResponses(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Workers: 1, Store: st})

	code, body := rawRequest(t, http.MethodPost, ts.URL+"/v1/analyze",
		analyzeBody("smoke-alarm", paperapps.SmokeAlarm, ""))
	checkWireGolden(t, "analyze_sync", code, body)

	// Hold the only worker on one async job so the next stays queued:
	// its 202 then deterministically reports "queued".
	release := make(chan struct{})
	running := holdWorkers(t, release)
	rawRequest(t, http.MethodPost, ts.URL+"/v1/analyze",
		analyzeBody("leak", paperapps.WaterLeakDetector, `,"async":true`))
	<-running
	code, body = rawRequest(t, http.MethodPost, ts.URL+"/v1/analyze",
		analyzeBody("smoke-async", "// async\n"+paperapps.SmokeAlarm, `,"async":true`))
	checkWireGolden(t, "analyze_async", code, body)
	var accepted struct {
		JobID string `json:"job_id"`
	}
	if err := json.Unmarshal(body, &accepted); err != nil {
		t.Fatal(err)
	}
	close(release)
	waitJobStatus(t, ts.URL, accepted.JobID, "done")
	code, body = rawRequest(t, http.MethodGet, ts.URL+"/v1/jobs/"+accepted.JobID, "")
	checkWireGolden(t, "job_poll", code, body)

	batch := fmt.Sprintf(`{"items":[{"key":"smoke","apps":[{"name":"smoke-alarm","source":%q}]},{"apps":[{"name":"bad","source":"definition("}]}],"options":{"general":false}}`,
		paperapps.SmokeAlarm)
	code, body = rawRequest(t, http.MethodPost, ts.URL+"/v1/batch", batch)
	checkWireGolden(t, "batch", code, body)

	code, body = rawRequest(t, http.MethodPost, ts.URL+"/v1/analyze", analyzeBody("bad", "definition(", ""))
	checkWireGolden(t, "analyze_failed", code, body)

	code, body = rawRequest(t, http.MethodGet, ts.URL+"/v1/cluster/status", "")
	checkWireGolden(t, "cluster_status", code, body)
}

// hostTransport serves requests to fixed fake hosts from in-process
// handlers, so a fleet's ring (which hashes member URLs) is the same
// on every run.
type hostTransport map[string]http.Handler

func (h hostTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	handler, ok := h[r.URL.Host]
	if !ok {
		return nil, fmt.Errorf("no handler for host %q", r.URL.Host)
	}
	rec := httptest.NewRecorder()
	handler.ServeHTTP(rec, r)
	return rec.Result(), nil
}

// TestWireGoldenSubBatchForward pins the body a node forwards to the
// owner of part of a batch, and the federated response it returns.
// The owner is a recorder that answers each forwarded item canned.
func TestWireGoldenSubBatchForward(t *testing.T) {
	const self, owner = "http://node-a.test", "http://node-b.test"
	var (
		mu        sync.Mutex
		forwarded [][]byte
		headers   []http.Header
	)
	recorder := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || r.URL.Path != "/v1/batch" {
			http.Error(w, `{"error":"not found"}`, http.StatusNotFound)
			return
		}
		data, _ := io.ReadAll(r.Body)
		mu.Lock()
		forwarded = append(forwarded, data)
		headers = append(headers, r.Header.Clone())
		mu.Unlock()
		var req struct {
			Items []struct {
				Key string `json:"key"`
			} `json:"items"`
		}
		json.Unmarshal(data, &req)
		var results []string
		for _, it := range req.Items {
			results = append(results, fmt.Sprintf(`{"key":%q,"store_key":"sk-%s","cached":true}`, it.Key, it.Key))
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"job_id":"0123456789abcdef","status":"done","results":[%s]}`, strings.Join(results, ","))
	})
	hosts := hostTransport{"node-b.test": recorder}
	cl, err := cluster.New(cluster.Config{
		Self: self, Peers: []string{self, owner},
		HTTPClient: &http.Client{Transport: hosts},
	})
	if err != nil {
		t.Fatal(err)
	}
	s, _ := newTestServer(t, Config{Workers: 1, Cluster: cl})
	hosts["node-a.test"] = s.Handler()

	var items []string
	for i, a := range market.All()[:6] {
		key := ""
		if i%2 == 0 {
			key = fmt.Sprintf(`"key":%q,`, a.ID)
		}
		items = append(items, fmt.Sprintf(`{%s"apps":[{"name":%q,"source":%q}]}`, key, a.ID, a.Source))
	}
	body := fmt.Sprintf(`{"items":[%s],"options":{"app_specific":true,"properties":["P.1","T.*"],"max_states":100000},"idempotency_key":"golden-batch","timings":true}`,
		strings.Join(items, ","))
	req, _ := http.NewRequest(http.MethodPost, self+"/v1/batch", strings.NewReader(body))
	req.Header.Set("X-Soteria-Trace", "golden-trace-01")
	resp, err := (&http.Client{Transport: hosts}).Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	checkWireGolden(t, "batch_federated", resp.StatusCode, data)

	if len(forwarded) != 1 {
		t.Fatalf("owner received %d forwards, want 1", len(forwarded))
	}
	checkWireGolden(t, "subbatch_forward", http.StatusOK, forwarded[0])
	if got := headers[0].Get("X-Soteria-Trace"); got != "golden-trace-01" {
		t.Errorf("forward trace header = %q, want the origin's", got)
	}
	if headers[0].Get("X-Soteria-Forwarded") == "" {
		t.Error("forward lacks the forwarded-hop marker")
	}
}
