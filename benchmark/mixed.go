package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/soteria-analysis/soteria/internal/fsio"
	"github.com/soteria-analysis/soteria/internal/market"
	"github.com/soteria-analysis/soteria/internal/service"
	"github.com/soteria-analysis/soteria/internal/store"
)

// clients is the closed loop's size: soteriad's callers each wait for
// their reply before sending the next request.
const clients = 2

// daemon is one soteriad process, booted as scripts/cluster-bench.sh
// boots a node: -workers 2, an on-disk store and journal.
type daemon struct {
	cmd    *exec.Cmd
	url    string
	log    *os.File
	exited chan struct{}
}

// healthPoll is how often a booting daemon's /healthz is tried; a boot
// takes a few milliseconds.
const healthPoll = 200 * time.Microsecond

// startDaemon boots soteriad on a fresh store under dir and returns
// once /healthz answers 200, with the time that took.
func startDaemon(bindir, dir string) (*daemon, time.Duration, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	addr := ln.Addr().String()
	ln.Close()
	logf, err := os.Create(filepath.Join(dir, "soteriad.log"))
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(filepath.Join(bindir, "soteriad"), "-addr", addr,
		"-store", filepath.Join(dir, "store"), "-journal", filepath.Join(dir, "soteriad.wal"),
		"-workers", "2", "-queue", "128")
	cmd.Stdout, cmd.Stderr = logf, logf
	// The daemon must not outlive the benchmark, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, err
	}
	d := &daemon{cmd: cmd, url: "http://" + addr, log: logf, exited: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status of a SIGTERM-drained daemon carries nothing
		close(d.exited)
	}()
	tr := &http.Transport{DisableKeepAlives: true}
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr, Timeout: time.Second}
	for {
		resp, err := hc.Get(d.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(t0), nil
			}
		}
		select {
		case <-d.exited:
			logf.Close()
			return nil, 0, fmt.Errorf("soteriad exited during boot; see %s", logf.Name())
		case <-time.After(healthPoll):
		}
		if time.Since(t0) > 30*time.Second {
			d.stop()
			return nil, 0, fmt.Errorf("soteriad not healthy after 30s; see %s", logf.Name())
		}
	}
}

// stop drains the daemon with SIGTERM, kills it if the drain hangs, and
// waits for it to exit.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-d.exited:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
	d.log.Close()
}

// kill stops the daemon with SIGKILL, so that it does no shutdown work,
// and waits for it; its ProcessState then holds the CPU time it used.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // fails only if it already exited
	<-d.exited
	d.log.Close()
}

// A daemon's boot takes a few milliseconds of CPU time, most of it in
// the kernel: starting the process and making the journal durable
// (fsync of a new file, rename, fsync of its directory). On a shared
// machine that work costs up to about twice as much in some phases, of
// seconds to hours, while user-space work runs at its usual speed, so
// host_speed does not cancel it. soteriad-mixed therefore scales its
// set-up by the host's start speed instead: refStartMs over the median
// CPU time of a start probe, a fresh process of this package that does
// the same kind of kernel work and exits, run after each boot.

// refStartMs fixes the scale of the start speed: about the probe's
// median CPU time on the recording host (a 2-vCPU Xeon VM at 2.1 GHz).
const refStartMs = 5.0

// startProbe creates a file in a new directory durably, as a daemon's
// boot does, and returns; the probe process then exits.
func startProbe(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), filepath.Join(dir, "probe"))
	}
	if err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// variantState is what the load loop learned from a variant's miss.
type variantState struct {
	done   chan struct{} // closed when the miss has completed
	ok     bool          // the miss succeeded
	key    string
	digest [32]byte // of the result record's JSON
}

// mixedRun is one closed loop's measurements; drive may be called on
// it more than once, continuing the same request sequence.
type mixedRun struct {
	ops      []opSample // successful requests
	waits    int        // repeats that waited for their variant's miss
	elapsed  time.Duration
	variants []*variantState
}

func (r *mixedRun) latencies() latencies {
	return latenciesOf(r.ops, func(opSample) bool { return true })
}

// analyzeResponse is the part of soteriad's reply the load loop checks.
type analyzeResponse struct {
	Status string          `json:"status"`
	Key    string          `json:"key"`
	Cached bool            `json:"cached"`
	Result json.RawMessage `json:"result"`
	Error  string          `json:"error"`
}

// drive runs the closed loop against base for d, taking requests from
// seq, checking every response against the known answers, and counting
// ops into o. Each request is one op of cal, which may be nil.
// progress, when not nil, is called with the number of requests
// answered so far after each one.
func (run *mixedRun) drive(base string, seq *sequence, d time.Duration, cal *calibrator, o *outcome, progress func(n int)) {
	tr := &http.Transport{MaxIdleConnsPerHost: clients}
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr, Timeout: 60 * time.Second}
	var mu sync.Mutex
	take := func() (request, *variantState, []byte, error) {
		mu.Lock()
		defer mu.Unlock()
		r := seq.next()
		if r.fresh {
			run.variants = append(run.variants, &variantState{done: make(chan struct{})})
		}
		body, err := seq.body(r.variant)
		return r, run.variants[r.variant], body, err
	}
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d {
				r, vs, body, err := take()
				if err != nil {
					mu.Lock()
					o.mismatch("encoding request %d: %v", r.index, err)
					mu.Unlock()
					if r.fresh {
						close(vs.done)
					}
					return
				}
				if !r.fresh {
					select {
					case <-vs.done:
					default:
						mu.Lock()
						run.waits++
						mu.Unlock()
						<-vs.done
					}
				}
				var data []byte
				var op opSample
				code := 0
				cal.op(func() {
					t0 := time.Now()
					var resp *http.Response
					resp, err = hc.Post(base+"/v1/analyze", "application/json", bytes.NewReader(body))
					if err == nil {
						data, err = io.ReadAll(resp.Body)
						resp.Body.Close()
						code = resp.StatusCode
					}
					op = newOpSample(time.Since(t0))
				})
				mu.Lock()
				checkResponse(seq, run, o, r, vs, code, data, err, op)
				if progress != nil {
					progress(o.attempted)
				}
				mu.Unlock()
				if r.fresh {
					close(vs.done)
				}
			}
		}()
	}
	wg.Wait()
	run.elapsed += time.Since(start)
}

// checkResponse records one reply: a transport error or a non-200
// status is a failed op; a wrong verdict, a miss served from cache, or
// a hit whose record differs from its miss's is a mismatch.
func checkResponse(seq *sequence, run *mixedRun, o *outcome, r request, vs *variantState, code int, data []byte, err error, op opSample) {
	o.attempted++
	var jr analyzeResponse
	if err == nil && code == http.StatusOK {
		err = json.Unmarshal(data, &jr)
	}
	if err != nil || code != http.StatusOK || jr.Status != "done" || jr.Error != "" {
		o.failed++
		return
	}
	op.hit = jr.Cached
	run.ops = append(run.ops, op)
	var rec struct {
		Violations []struct {
			ID string `json:"id"`
		} `json:"violations"`
	}
	if err := json.Unmarshal(jr.Result, &rec); err != nil {
		o.mismatch("request %d: result record: %v", r.index, err)
		return
	}
	var ids []string
	seen := map[string]bool{}
	for _, v := range rec.Violations {
		if !seen[v.ID] {
			seen[v.ID] = true
			ids = append(ids, v.ID)
		}
	}
	if err := appInput(seq.app(r.variant)).checkVerdict(ids); err != nil {
		o.mismatch("request %d (variant %d): %v", r.index, r.variant, err)
	}
	digest := sha256.Sum256(jr.Result)
	switch {
	case r.fresh && jr.Cached:
		o.mismatch("request %d: fresh variant %d served from cache", r.index, r.variant)
	case r.fresh:
		vs.ok, vs.key, vs.digest = true, jr.Key, digest
	case vs.ok && !jr.Cached:
		o.mismatch("request %d: repeat of variant %d was not a cache hit", r.index, r.variant)
	case vs.ok && (jr.Key != vs.key || digest != vs.digest):
		o.mismatch("request %d: hit on variant %d returned another record than its miss stored", r.index, r.variant)
	}
}

// classMetrics adds p50 and p99 of one class of requests, or the
// highest percentile with ten samples beyond it when there are fewer
// than 1,000.
func classMetrics(into map[string]metric, prefix string, l latencies) {
	s, err := l.summarize()
	if err != nil {
		return
	}
	into[prefix+"_p50_ms"] = metric{s.p50, "ms"}
	if s.tailQ == 0.99 {
		into[prefix+"_p99_ms"] = metric{s.tail, "ms"}
	} else {
		into[prefix+"_tail_ms"] = metric{s.tail, "ms"}
		into[prefix+"_tail_quantile"] = metric{s.tailQ, "ratio"}
	}
}

// runMixed is the soteriad-mixed workload.
func runMixed(c config) (*outcome, error) {
	runDir, err := os.MkdirTemp(c.workdir, "soteriad-mixed-")
	if err != nil {
		return nil, err
	}
	defer removeRun(runDir)
	if c.trace {
		return traceMixed(c, runDir)
	}
	// Set-up is booting a daemon until /healthz answers. It is measured
	// setupRepeats times, each daemon killed once healthy so that its
	// CPU time is exactly the boot's; one more daemon serves the run.
	// Each boot is followed by a start probe, whose times give the
	// host's start speed.
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var bootCPU, bootWall, probeCPU []float64
	for i := 0; i < setupRepeats; i++ {
		d, wall, err := startDaemon(c.bindir, filepath.Join(runDir, "boot"+strconv.Itoa(i)))
		if err != nil {
			return nil, err
		}
		d.kill()
		bootWall = append(bootWall, wall.Seconds())
		bootCPU = append(bootCPU, (d.cmd.ProcessState.UserTime() + d.cmd.ProcessState.SystemTime()).Seconds())
		probe := exec.Command(exe, "--start-probe", filepath.Join(runDir, "probe"+strconv.Itoa(i)))
		probe.Stderr = os.Stderr
		if err := probe.Run(); err != nil {
			return nil, fmt.Errorf("start probe: %w", err)
		}
		probeCPU = append(probeCPU, (probe.ProcessState.UserTime() + probe.ProcessState.SystemTime()).Seconds())
	}
	d, _, err := startDaemon(c.bindir, filepath.Join(runDir, "serve"))
	if err != nil {
		return nil, err
	}
	defer d.stop()
	setup := medianSetup(bootCPU, bootWall, nil)
	setup.speed = refStartMs / 1e3 / median(probeCPU)
	cal := startCalibrator(c.seed)
	defer cal.finish()

	o := newOutcome()
	pid := d.cmd.Process.Pid
	var rss float64
	rssErr := errNotRead
	ticks0, ticksOK := readCPUTicks()
	runMark := cal.mark()
	_, held0 := cal.usage()
	cpu0, err := pidCPU(pid)
	if err != nil {
		return nil, err
	}
	run := &mixedRun{}
	run.drive(d.url, newSequence(c.seed, market.All()), c.seconds, cal, o, func(n int) {
		if n == rssRequests {
			rss, rssErr = peakRSSMB(strconv.Itoa(pid))
		}
	})
	cpu1, err := pidCPU(pid)
	if err != nil {
		return nil, err
	}
	_, held1 := cal.usage()
	ticks1, ok := readCPUTicks()
	rssAt := rssRequests
	if rssErr == errNotRead {
		rss, rssErr = peakRSSMB(strconv.Itoa(pid))
		rssAt = o.attempted
	}
	if rssErr != nil {
		return nil, rssErr
	}
	o.extra["rss_requests"] = metric{float64(rssAt), "count"}

	if err := o.endToEnd(runStats{
		ops: run.ops, elapsed: run.elapsed - (held1 - held0), cpu: cpu1.sub(cpu0), speed: cal.speed(runMark),
		rssMB: rss, setup: setup, steal: stealShare(ticks0, ticks1, ticksOK && ok),
	}); err != nil {
		return nil, err
	}
	hits := latenciesOf(run.ops, func(op opSample) bool { return op.hit })
	classMetrics(o.extra, "hit", hits)
	classMetrics(o.extra, "miss", latenciesOf(run.ops, func(op opSample) bool { return !op.hit }))
	o.extra["hit_share"] = metric{ratio(float64(len(hits)), float64(len(run.ops))), "ratio"}
	o.extra["repeat_waits"] = metric{float64(run.waits), "count"}
	return o, nil
}

// rssRequests is when soteriad-mixed reads the daemon's peak RSS. The
// daemon keeps every analysis in an in-process cache, so its RSS grows
// with the number of misses; read after a fixed number of requests it
// measures memory per work done, not how fast the host ran.
const rssRequests = 6000

var errNotRead = errors.New("peak RSS not read yet")

// removeRun deletes a run's stores and journals and fsyncs the parent
// directory, so the file system finishes freeing their blocks before
// the next run starts rather than during it.
func removeRun(dir string) {
	_ = os.RemoveAll(dir) // anything left over stays inside the ignored work directory
	if d, err := os.Open(filepath.Dir(dir)); err == nil {
		_ = d.Sync() // best effort: a failure only lets the next run pay for the deletion
		d.Close()
	}
}

// replayMisses is how many of the traced service's misses are replayed
// through the traced pipeline for the analysis layers' numbers.
const replayMisses = 200

// hosted is a service.New instance served over HTTP from this process.
type hosted struct {
	svc    *service.Server
	srv    *http.Server
	served chan error
	base   string
}

// hostService opens a store and journal under dir on fsys and serves a
// service configured as soteriad-mixed's daemon: 2 workers, queue 128.
func hostService(dir string, fsys fsio.FS) (*hosted, error) {
	storeDir := filepath.Join(dir, "store")
	st, err := store.Open(storeDir, store.Options{FS: fsys})
	if err != nil {
		return nil, err
	}
	svc, err := service.New(service.Config{
		Workers: 2, QueueDepth: 128, Store: st,
		JournalPath: filepath.Join(dir, "soteriad.wal"), FS: fsys,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Shutdown(context.Background())
		return nil, err
	}
	h := &hosted{svc: svc, srv: &http.Server{Handler: svc.Handler()}, served: make(chan error, 1), base: "http://" + ln.Addr().String()}
	go func() { h.served <- h.srv.Serve(ln) }()
	return h, nil
}

// shutdown drains the service and stops serving it.
func (h *hosted) shutdown() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := h.svc.Shutdown(ctx)
	if serr := h.srv.Shutdown(ctx); serr != nil && err == nil {
		err = serr
	}
	if serr := <-h.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// traceSegments is how many slices the traced soteriad-mixed run is cut
// into; the slices alternate between the two services.
const traceSegments = 10

// traceMixed is the traced run of soteriad-mixed. It hosts two
// services in this process, configured alike: one on the plain file
// system, one on a timing fsio.FS, and reads the timed one's /metrics
// before and after. The run is cut into slices driven on one service
// or the other in the order plain, timed, timed, plain, …, so both see
// the same drift; each continues its own request sequence from the
// seed. The difference of their p50s is the tracing overhead. The
// analysis layers run inside the service's workers, out of reach of
// this package, so they are measured by replaying the timed service's
// first misses through the traced pipeline after both stop.
func traceMixed(c config, runDir string) (*outcome, error) {
	o := newOutcome()
	plain, err := hostService(filepath.Join(runDir, "plain"), fsio.OS{})
	if err != nil {
		return nil, err
	}
	timedDir := filepath.Join(runDir, "timed")
	tfs := newTimedFS(filepath.Join(timedDir, "store"))
	timed, err := hostService(timedDir, tfs)
	if err != nil {
		plain.shutdown()
		return nil, err
	}
	plainSeq, timedSeq := newSequence(c.seed, market.All()), newSequence(c.seed, market.All())
	plainRun, timedRun := &mixedRun{}, &mixedRun{}

	m0, err := scrapeMetrics(timed.base)
	f0 := tfs.counts()
	var m1 map[string]float64
	var f1 fsCounts
	if err == nil {
		slice := c.seconds / traceSegments
		for i := 0; i < traceSegments; i++ {
			if i%4 == 1 || i%4 == 2 {
				timedRun.drive(timed.base, timedSeq, slice, nil, o, nil)
			} else {
				plainRun.drive(plain.base, plainSeq, slice, nil, o, nil)
			}
		}
		m1, err = scrapeMetrics(timed.base)
		f1 = tfs.counts()
	}
	for _, h := range []*hosted{plain, timed} {
		if serr := h.shutdown(); serr != nil && err == nil {
			err = serr
		}
	}
	if err != nil {
		return nil, err
	}
	if len(plainRun.ops) == 0 || len(timedRun.ops) == 0 {
		return nil, fmt.Errorf("no requests completed")
	}
	// Replay once the services and their in-process caches are gone, so
	// the layers are timed without collecting the caches' heap.
	runtime.GC()
	if err := replayLayers(c, timedSeq, timedRun, o); err != nil {
		return nil, err
	}

	delta := func(name string) float64 { return m1[name] - m0[name] }
	puts := delta("soteriad_store_puts_total")
	hits := delta("soteriad_store_hits_total")
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	o.metrics["store.put_us"] = metric{ratio(us(f1.storeWrite-f0.storeWrite), puts), "us"}
	o.metrics["store.get_us"] = metric{ratio(us(f1.storeRead-f0.storeRead), hits+delta("soteriad_store_misses_total")), "us"}
	o.metrics["store.disk_hit_ratio"] = metric{ratio(delta("soteriad_store_disk_hits_total"), hits), "ratio"}
	o.metrics["fsio.fsyncs_per_miss"] = metric{ratio(float64(f1.fsyncs-f0.fsyncs), puts), "count"}
	o.metrics["fsio.fsync_us_per_miss"] = metric{ratio(us(f1.fsyncTime-f0.fsyncTime), puts), "us"}
	o.metrics["journal.appends_per_sync"] = metric{ratio(delta("soteriad_journal_appends_total"), delta("soteriad_journal_syncs_total")), "ratio"}
	o.metrics["service.queue_wait_us"] = metric{1e6 * ratio(delta("soteriad_queue_wait_seconds_sum"), delta("soteriad_queue_wait_seconds_count")), "us"}
	o.metrics["service.job_us"] = metric{1e6 * ratio(delta("soteriad_job_seconds_sum"), delta("soteriad_job_seconds_count")), "us"}
	o.metrics["service.hit_ratio"] = metric{ratio(hits, delta("soteriad_jobs_done_total")), "ratio"}
	o.metrics["trace.overhead_us"] = metric{(median(timedRun.latencies()) - median(plainRun.latencies())) * 1000, "us"}
	return o, nil
}

// replayLayers runs the first misses of a traced run through the traced
// pipeline and checks each report against the record the service
// returned for it.
func replayLayers(c config, seq *sequence, run *mixedRun, o *outcome) error {
	var ls layerStats
	for v, vs := range run.variants {
		if len(ls.ops) == replayMisses {
			break
		}
		if !vs.ok {
			continue
		}
		src := seq.source(v)
		a, err := measureAllocs(src)
		if err != nil {
			return err
		}
		data, t, err := tracedAnalyze(seq.app(v).ID, src)
		if err != nil {
			return err
		}
		if sha256.Sum256(bytes.TrimSuffix(data, []byte("\n"))) != vs.digest {
			o.mismatch("variant %d: traced pipeline's report differs from the service's record", v)
		}
		ls.add(t, a)
	}
	ls.metrics(o.metrics)
	return writeSpans(c, ls.ops)
}

// scrapeMetrics reads the unlabelled samples of a daemon's /metrics.
func scrapeMetrics(base string) (map[string]float64, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) != 2 || strings.HasPrefix(line, "#") || strings.Contains(f[0], "{") {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out, nil
}
