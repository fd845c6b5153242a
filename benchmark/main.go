// Command soteria-benchmark is the repository's benchmark. It runs one
// workload for a fixed time, checks every verdict against the paper's
// known answers, and prints the run's metrics.
//
// Usage (normally through run.sh, which builds it and soteriad first):
//
//	soteria-benchmark --workload corpus|union-g3|soteriad-mixed \
//	    --seed N --seconds S --trace 0|1 [--workdir DIR]
//
// With --trace 0 it measures the end-to-end metrics; with --trace 1 it
// times the calls into each layer from this package and reports the
// per-layer metrics. Human-readable lines come first; the last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// A verdict mismatch sets "correct" to false and the exit code to 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a workload run produces.
type outcome struct {
	correct   bool
	attempted int
	failed    int
	// metrics go into the result line: the end-to-end set with tracing
	// off, the per-layer set with tracing on.
	metrics map[string]metric
	// extra are printed by name but not part of the result line (they
	// are not defined on every workload, or may be zero).
	extra map[string]metric
	// mismatches describe failed verdict checks, at most a few.
	mismatches []string
}

func newOutcome() *outcome {
	return &outcome{correct: true, metrics: map[string]metric{}, extra: map[string]metric{}}
}

// mismatch records a failed verdict check.
func (o *outcome) mismatch(format string, args ...any) {
	o.correct = false
	if len(o.mismatches) < 5 {
		o.mismatches = append(o.mismatches, fmt.Sprintf(format, args...))
	}
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	// workdir holds run state (stores, journals, span dumps); run.sh
	// points it at .bench_build inside the checkout.
	workdir string
	// bindir holds the soteriad binary built next to this one.
	bindir string
}

var workloads = map[string]func(config) (*outcome, error){
	"corpus":         runCorpus,
	"union-g3":       runUnion,
	"soteriad-mixed": runMixed,
}

func main() {
	var c config
	flag.StringVar(&c.workload, "workload", "", "corpus, union-g3 or soteriad-mixed")
	flag.Uint64Var(&c.seed, "seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	flag.StringVar(&c.workdir, "workdir", ".bench_build", "directory for run state")
	probe := flag.String("setup-probe", "", "set up the named workload, print \"ready\" and the peak RSS in MB, and exit (used to time set-up)")
	startDir := flag.String("start-probe", "", "create a file durably in this new directory and exit (the reference for soteriad-mixed's set-up)")
	flag.Parse()

	if *startDir != "" {
		if err := startProbe(*startDir); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: start probe:", err)
			os.Exit(1)
		}
		return
	}

	if *probe != "" {
		if err := setupProbe(*probe); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: setup probe:", err)
			os.Exit(1)
		}
		rss, err := peakRSSMB("self")
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: setup probe:", err)
			os.Exit(1)
		}
		fmt.Println("ready", rss)
		return
	}
	run, ok := workloads[c.workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: need --workload corpus|union-g3|soteriad-mixed, --seconds ≥ 1 and --trace 0|1")
		os.Exit(2)
	}
	c.seconds = time.Duration(*seconds) * time.Second
	c.trace = *trace == 1
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	c.bindir = filepath.Dir(exe)
	if err := os.MkdirAll(c.workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}

	o, err := run(c)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	printOutcome(c, o)
	if !o.correct {
		os.Exit(1)
	}
}

// printOutcome writes every metric by name, then the result line.
func printOutcome(c config, o *outcome) {
	mode := "end-to-end"
	if c.trace {
		mode = "per-layer (traced)"
	}
	fmt.Printf("workload %s seed %d, %s metrics, %d ops attempted, %d failed\n",
		c.workload, c.seed, mode, o.attempted, o.failed)
	for _, m := range o.mismatches {
		fmt.Println("VERDICT MISMATCH:", m)
	}
	all := map[string]metric{}
	for k, v := range o.extra {
		all[k] = v
	}
	for k, v := range o.metrics {
		all[k] = v
	}
	names := make([]string, 0, len(all))
	for k := range all {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-28s %14.4f %s\n", k, all[k].Value, all[k].Unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{o.correct, o.attempted, o.failed, o.metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
