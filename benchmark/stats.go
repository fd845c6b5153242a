package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of sorted: the value
// at rank ceil(q·n).
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	r := int(math.Ceil(q*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return sorted[r-1]
}

// tailQuantile is the highest whole-percent quantile, at most 0.99,
// whose nearest rank leaves at least minBeyond of n samples above it.
// p99 therefore needs n ≥ 1000. ok is false when no quantile from the
// median up qualifies.
func tailQuantile(n int) (q float64, ok bool) {
	for p := 99; p >= 50; p-- {
		r := int(math.Ceil(float64(p*n)/100 - 1e-9))
		if n-r >= minBeyond {
			return float64(p) / 100, true
		}
	}
	return 0, false
}

// latencies collects op durations in milliseconds.
type latencies []float64

func (l *latencies) add(d time.Duration) { *l = append(*l, float64(d)/float64(time.Millisecond)) }

// summary is a latency distribution reduced to the reported points.
type summary struct {
	n     int
	p50   float64
	tail  float64 // at tailQ
	tailQ float64
}

// summarize sorts l and reduces it; it fails when l has too few
// samples for a tail percentile.
func (l latencies) summarize() (summary, error) {
	q, ok := tailQuantile(len(l))
	if !ok {
		return summary{}, fmt.Errorf("only %d ops measured, too few for a tail percentile", len(l))
	}
	s := append([]float64(nil), l...)
	sort.Float64s(s)
	return summary{n: len(s), p50: percentile(s, 0.5), tail: percentile(s, q), tailQ: q}, nil
}

// median of xs (mean of the middle pair for even n; 0 for none).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// opSample is one completed op's wall-clock latency, kept small
// because corpus and union-g3 store theirs in the process whose peak
// RSS they report.
type opSample struct {
	ms  float32
	hit bool // soteriad-mixed: the response was served from cache
}

func newOpSample(d time.Duration) opSample {
	return opSample{ms: float32(float64(d) / float64(time.Millisecond))}
}

// latenciesOf the ops that keep selects.
func latenciesOf(ops []opSample, keep func(opSample) bool) latencies {
	var l latencies
	for _, op := range ops {
		if keep(op) {
			l = append(l, float64(op.ms))
		}
	}
	return l
}

// runStats are what a run measured, reduced by endToEnd.
type runStats struct {
	ops     []opSample    // successful ops
	elapsed time.Duration // wall time of the measured loop, calibration excluded
	cpu     cpuTime       // CPU time of the analysing process during it, calibration excluded
	speed   float64       // the host's speed during the loop (calibrate.go), which also scales set-up
	rssMB   float64
	setup   setupTimes
	steal   float64 // share of the machine's CPU time stolen during the run
}

// endToEnd fills the metrics shared by every workload; it fails only
// when no op completed. The gated ones are CPU time scaled by the
// host's speed, and memory; wall-clock latency and throughput are
// printed beside them.
func (o *outcome) endToEnd(r runStats) error {
	if o.attempted == 0 || len(r.ops) == 0 {
		return fmt.Errorf("no ops completed")
	}
	perOp := func(d time.Duration) float64 {
		return float64(d) / float64(time.Millisecond) / float64(o.attempted)
	}
	rawUser := perOp(r.cpu.user)
	o.metrics["user_cpu_ms_per_op"] = metric{rawUser * r.speed, "ms"}
	o.metrics["peak_rss_mb"] = metric{r.rssMB, "MB"}
	setupSpeed := r.speed
	if r.setup.speed != 0 {
		setupSpeed = r.setup.speed
		o.extra["start_speed"] = metric{setupSpeed, "ratio"}
	}
	o.metrics["setup_s"] = metric{r.setup.cpu * setupSpeed, "s"}
	o.extra["raw_user_cpu_ms_per_op"] = metric{rawUser, "ms"}
	o.extra["sys_cpu_ms_per_op"] = metric{perOp(r.cpu.total - r.cpu.user), "ms"}
	o.extra["raw_setup_s"] = metric{r.setup.cpu, "s"}
	o.extra["host_speed"] = metric{r.speed, "ratio"}
	o.extra["setup_wall_s"] = metric{r.setup.wall, "s"}
	o.extra["throughput_ops_s"] = metric{float64(len(r.ops)) / r.elapsed.Seconds(), "1/s"}
	lat := latenciesOf(r.ops, func(opSample) bool { return true })
	o.extra["p50_ms"] = metric{median(lat), "ms"}
	if s, err := lat.summarize(); err == nil { // else too few ops for a tail
		o.extra["tail_ms"] = metric{s.tail, "ms"}
		o.extra["tail_quantile"] = metric{s.tailQ, "ratio"}
		if s.tailQ == 0.99 {
			o.extra["p99_ms"] = metric{s.tail, "ms"}
		}
	}
	o.extra["fail_ratio"] = metric{float64(o.failed) / float64(o.attempted), "ratio"}
	o.extra["host_steal_share"] = metric{r.steal, "ratio"}
	return nil
}

// cpuTime is a process's CPU time: all of it, and the part spent in
// user mode. The kernel splits the two by sampling at its timer tick,
// which is exact enough over a run's seconds of CPU time.
type cpuTime struct{ total, user time.Duration }

func (a cpuTime) sub(b cpuTime) cpuTime {
	return cpuTime{total: a.total - b.total, user: a.user - b.user}
}

// selfCPU is this process's CPU time, every thread, exited ones
// included.
func selfCPU() cpuTime {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	u := time.Duration(ru.Utime.Nano())
	return cpuTime{total: u + time.Duration(ru.Stime.Nano()), user: u}
}

// userHZ is the unit of the CPU times in /proc/<pid>/stat: 100 per
// second on Linux, whatever the kernel's own tick rate.
const userHZ = 100

// pidCPU is a live process's CPU time, every thread, from the utime and
// stime fields of /proc/<pid>/stat.
func pidCPU(pid int) (cpuTime, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return cpuTime{}, err
	}
	// The command name in parentheses may hold spaces; fields after it
	// start with the state, so utime and stime are the 12th and 13th.
	var f []string
	if end := strings.LastIndex(string(data), ") "); end >= 0 {
		f = strings.Fields(string(data[end+2:]))
	}
	if len(f) < 13 {
		return cpuTime{}, fmt.Errorf("/proc/%d/stat: %q", pid, data)
	}
	var t [2]time.Duration
	for i, s := range f[11:13] {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return cpuTime{}, err
		}
		t[i] = time.Duration(n) * time.Second / userHZ
	}
	return cpuTime{total: t[0] + t[1], user: t[0]}, nil
}

// peakRSSMB reads VmHWM, the peak resident set, of a process.
func peakRSSMB(pid string) (float64, error) {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// cpuTicks are the machine's aggregate CPU counters from /proc/stat.
type cpuTicks struct{ total, steal float64 }

// readCPUTicks returns ok=false where /proc/stat has no steal column.
func readCPUTicks() (cpuTicks, bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}, false
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}, false
	}
	var t cpuTicks
	for i := 1; i <= 8; i++ { // user … steal; guest time is already in user
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return cpuTicks{}, false
		}
		t.total += v
	}
	t.steal, _ = strconv.ParseFloat(f[8], 64)
	return t, true
}

// stealShare is the share of the machine's CPU time the hypervisor gave
// to other tenants between two readings; 0 without a steal column.
func stealShare(a, b cpuTicks, ok bool) float64 {
	if !ok {
		return 0
	}
	return ratio(b.steal-a.steal, b.total-a.total)
}

// setupRepeats is how many times a run measures its set-up; setup_s
// is their median.
const setupRepeats = 21

// setupTimes are the medians of a run's set-ups: the CPU time the
// set-up process spent and the wall time until it was ready, in
// seconds, and the set-up process's peak RSS. speed, when set, scales
// the CPU time in place of the run's host_speed.
type setupTimes struct{ cpu, wall, rssMB, speed float64 }

func medianSetup(cpu, wall, rss []float64) setupTimes {
	return setupTimes{cpu: median(cpu), wall: median(wall), rssMB: median(rss)}
}

// probeSetup sets the workload up setupRepeats times, each in a fresh
// process that loads the inputs, makes the first cold pass, reports its
// peak RSS and exits. A probe's CPU time is the child's whole user and
// system time.
func probeSetup(workload string) (setupTimes, error) {
	exe, err := os.Executable()
	if err != nil {
		return setupTimes{}, err
	}
	var cpu, wall, rss []float64
	for i := 0; i < setupRepeats && err == nil; i++ {
		func() {
			cmd := exec.Command(exe, "--setup-probe", workload)
			cmd.Stderr = os.Stderr
			var out io.ReadCloser
			if out, err = cmd.StdoutPipe(); err != nil {
				return
			}
			t0 := time.Now()
			if err = cmd.Start(); err != nil {
				return
			}
			line, rerr := bufio.NewReader(out).ReadString('\n')
			d := time.Since(t0)
			werr := cmd.Wait()
			f := strings.Fields(line)
			var mb float64
			if len(f) == 2 && f[0] == "ready" {
				mb, rerr = strconv.ParseFloat(f[1], 64)
			} else if rerr == nil {
				rerr = errors.New("no \"ready <MB>\" line")
			}
			if rerr != nil || werr != nil {
				err = fmt.Errorf("setup probe of %s failed: %q %v %v", workload, line, rerr, werr)
				return
			}
			wall = append(wall, d.Seconds())
			cpu = append(cpu, (cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()).Seconds())
			rss = append(rss, mb)
		}()
	}
	if err != nil {
		return setupTimes{}, err
	}
	return medianSetup(cpu, wall, rss), nil
}
