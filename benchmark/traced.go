package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/soteria-analysis/soteria/internal/core"
	"github.com/soteria-analysis/soteria/internal/ctl"
	"github.com/soteria-analysis/soteria/internal/groovy"
	"github.com/soteria-analysis/soteria/internal/guard"
	"github.com/soteria-analysis/soteria/internal/ir"
	"github.com/soteria-analysis/soteria/internal/kripke"
	"github.com/soteria-analysis/soteria/internal/modelcheck"
	"github.com/soteria-analysis/soteria/internal/properties"
	"github.com/soteria-analysis/soteria/internal/report"
	"github.com/soteria-analysis/soteria/internal/statemodel"
	"github.com/soteria-analysis/soteria/internal/symexec"
	"github.com/soteria-analysis/soteria/internal/taint"
)

// Spans of the traced pipeline, one per layer call. Lexing and
// symbolic execution run inside groovy.Parse and statemodel.Build; they
// are timed by standalone calls outside the op's interval and count as
// children of those spans.
const (
	spanLex = iota
	spanParse
	spanIR
	spanSymexec
	spanStatemodel
	spanKripke
	spanGeneral
	spanSweep
	spanTaint
	spanReport
	numSpans
)

var spanNames = [numSpans]string{
	"groovy.lex", "groovy.parse", "ir.build", "symexec.execute", "statemodel.build",
	"kripke.from_model", "properties.general", "modelcheck.sweep", "taint.from_model", "report.encode",
}

// standaloneParent maps each span timed outside the op to the span
// whose call runs that work internally.
var standaloneParent = map[int]int{spanLex: spanParse, spanSymexec: spanStatemodel}

// opTrace is one traced op: its spans and the sizes that turn them
// into per-unit costs.
type opTrace struct {
	input string
	start [numSpans]time.Duration // offset from the op's start
	dur   [numSpans]time.Duration
	total time.Duration

	tokens, paths, states, transitions, edges, formulas, flows, reportBytes int
	memoLookups, memoHits                                                   uint64
}

// self is a span's duration minus its standalone children's.
func (t *opTrace) self(i int) time.Duration {
	d := t.dur[i]
	for c, p := range standaloneParent {
		if p == i {
			d -= t.dur[c]
		}
	}
	return d
}

// tracedAnalyze runs the pipeline core.AnalyzeSourcesContext runs, one
// public layer call at a time, and returns the report bytes it
// produces with the spans of each call.
func tracedAnalyze(id string, srcs []core.NamedSource) ([]byte, *opTrace, error) {
	t := &opTrace{input: id}
	t0 := time.Now()
	span := func(i int, from time.Time) {
		if t.dur[i] == 0 {
			t.start[i] = from.Sub(t0)
		}
		t.dur[i] += time.Since(from)
	}

	apps := make([]*ir.App, 0, len(srcs))
	for _, s := range srcs {
		ts := time.Now()
		f, err := groovy.Parse(s.Name, s.Source)
		span(spanParse, ts)
		if err != nil {
			return nil, nil, fmt.Errorf("parsing %s: %w", s.Name, err)
		}
		ts = time.Now()
		apps = append(apps, ir.Build(f))
		span(spanIR, ts)
	}

	ts := time.Now()
	m, err := statemodel.Build(apps...)
	span(spanStatemodel, ts)
	if err != nil {
		return nil, nil, fmt.Errorf("state model: %w", err)
	}

	ts = time.Now()
	k := kripke.FromModel(m)
	span(spanKripke, ts)

	ts = time.Now()
	violations := properties.CheckGeneral(m)
	span(spanGeneral, ts)

	ts = time.Now()
	memo := modelcheck.NewMemo()
	b := guard.New(context.Background(), guard.Limits{})
	sweep := properties.CheckAppSpecificOpts(m, func(_ string, f ctl.Formula) properties.PropertyOutcome {
		// core's explicit engine, without its fallbacks and spans.
		t.formulas++
		r := modelcheck.CheckMemoBudget(k, f, b, memo)
		out := properties.PropertyOutcome{Holds: r.Holds, FailingStates: len(r.FailingStates), Engine: string(core.Explicit)}
		if !r.Holds && len(r.Counterexample) > 0 {
			out.Counterexample = k.RenderPath(r.Counterexample)
		}
		return out
	}, properties.SweepOptions{})
	violations = append(violations, sweep.Violations...)
	span(spanSweep, ts)

	ts = time.Now()
	flows := taint.FromModel(m, nil)
	violations = append(violations, taint.Violations(flows)...)
	span(spanTaint, ts)

	ts = time.Now()
	properties.SortViolations(violations)
	an := &core.Analysis{
		Apps: apps, Model: m, Kripke: k, Violations: violations,
		Checked: sweep.Checked, TaintFlows: flows,
	}
	data, err := report.Encode(report.FromAnalysis(an))
	span(spanReport, ts)
	t.total = time.Since(t0)
	if err != nil {
		return nil, nil, err
	}

	// Standalone children, outside the op's interval; they are filed
	// under their parents' start.
	t.start[spanLex], t.start[spanSymexec] = t.start[spanParse], t.start[spanStatemodel]
	for _, s := range srcs {
		ts := time.Now()
		toks := groovy.NewLexer(s.Source).Tokens()
		t.dur[spanLex] += time.Since(ts)
		t.tokens += len(toks)
	}
	for _, app := range apps {
		ts := time.Now()
		rs := symexec.ExecuteAll(app)
		t.dur[spanSymexec] += time.Since(ts)
		for _, r := range rs {
			t.paths += len(r.Paths)
		}
	}

	t.states, t.transitions = len(m.States), len(m.Transitions)
	for _, succ := range k.Succs {
		t.edges += len(succ)
	}
	ms := memo.Stats()
	t.memoLookups, t.memoHits = ms.Lookups, ms.Hits
	t.flows = len(flows)
	t.reportBytes = len(data)
	return data, t, nil
}

// allocs are one input's heap allocations in the layers that dominate
// them; allocation counts repeat run to run, so they are taken once per
// input rather than inside timed spans.
type allocs struct {
	groovy, ir, statemodel, statemodelBytes uint64
}

func measureAllocs(srcs []core.NamedSource) (allocs, error) {
	var a allocs
	var before, after runtime.MemStats
	var apps []*ir.App
	for _, s := range srcs {
		runtime.ReadMemStats(&before)
		f, err := groovy.Parse(s.Name, s.Source)
		runtime.ReadMemStats(&after)
		if err != nil {
			return a, err
		}
		a.groovy += after.Mallocs - before.Mallocs
		runtime.ReadMemStats(&before)
		apps = append(apps, ir.Build(f))
		runtime.ReadMemStats(&after)
		a.ir += after.Mallocs - before.Mallocs
	}
	runtime.ReadMemStats(&before)
	_, err := statemodel.Build(apps...)
	runtime.ReadMemStats(&after)
	a.statemodel = after.Mallocs - before.Mallocs
	a.statemodelBytes = after.TotalAlloc - before.TotalAlloc
	return a, err
}

// layerStats aggregates traced ops into the per-layer metrics.
type layerStats struct {
	ops    []*opTrace
	allocs []allocs // per op, from its input's measurement
}

func (ls *layerStats) add(t *opTrace, a allocs) {
	ls.ops = append(ls.ops, t)
	ls.allocs = append(ls.allocs, a)
}

// metrics are per-op means; each time is the span's self time.
func (ls *layerStats) metrics(into map[string]metric) {
	n := float64(len(ls.ops))
	if n == 0 {
		n = 1 // no ops: every sum below is zero
	}
	var self [numSpans]float64
	var tokens, paths, states, trans, edges, formulas, flows, bytes float64
	var lookups, hits uint64
	for _, t := range ls.ops {
		for i := 0; i < numSpans; i++ {
			self[i] += float64(t.self(i)) / float64(time.Microsecond)
		}
		tokens += float64(t.tokens)
		paths += float64(t.paths)
		states += float64(t.states)
		trans += float64(t.transitions)
		edges += float64(t.edges)
		formulas += float64(t.formulas)
		flows += float64(t.flows)
		bytes += float64(t.reportBytes)
		lookups += t.memoLookups
		hits += t.memoHits
	}
	var ag, ai, as, asb float64
	for _, a := range ls.allocs {
		ag += float64(a.groovy)
		ai += float64(a.ir)
		as += float64(a.statemodel)
		asb += float64(a.statemodelBytes)
	}
	us := func(name string, i int) { into[name] = metric{self[i] / n, "us"} }
	count := func(name string, v float64) { into[name] = metric{v / n, "count"} }
	us("groovy.lex_us", spanLex)
	us("groovy.parse_us", spanParse)
	into["groovy.tokens_per_s"] = metric{ratio(tokens, self[spanLex]/1e6), "1/s"}
	count("groovy.allocs", ag)
	us("ir.build_us", spanIR)
	count("ir.allocs", ai)
	us("symexec.execute_us", spanSymexec)
	count("symexec.paths", paths)
	us("statemodel.build_us", spanStatemodel)
	count("statemodel.states", states)
	count("statemodel.transitions", trans)
	count("statemodel.allocs", as)
	into["statemodel.bytes"] = metric{asb / n, "B"}
	us("kripke.from_model_us", spanKripke)
	count("kripke.edges", edges)
	us("properties.general_us", spanGeneral)
	us("modelcheck.sweep_us", spanSweep)
	count("modelcheck.formulas", formulas)
	into["modelcheck.memo_hit_ratio"] = metric{ratio(float64(hits), float64(lookups)), "ratio"}
	us("taint.from_model_us", spanTaint)
	count("taint.flows", flows)
	us("report.encode_us", spanReport)
	into["report.bytes"] = metric{bytes / n, "B"}
}

// ratio is a/b, or 0 when b is 0 (the layer did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// serviceLayers are the per-layer metrics of the serving tier; only
// soteriad-mixed sets them.
var serviceLayers = []struct{ name, unit string }{
	{"store.put_us", "us"}, {"store.get_us", "us"}, {"store.disk_hit_ratio", "ratio"},
	{"fsio.fsyncs_per_miss", "count"}, {"fsio.fsync_us_per_miss", "us"},
	{"journal.appends_per_sync", "ratio"},
	{"service.queue_wait_us", "us"}, {"service.job_us", "us"}, {"service.hit_ratio", "ratio"},
}

// traceAnalysis is the traced run of corpus and union-g3. Each op
// position runs the input twice, untraced and traced, alternating which
// goes first, so the tracing overhead is measured against the same
// inputs under the same drift.
func traceAnalysis(c config, ins []input, refs [][]byte) (*outcome, error) {
	o := newOutcome()
	inputAllocs := make([]allocs, len(ins))
	for i, in := range ins {
		a, err := measureAllocs(in.sources)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", in.id, err)
		}
		inputAllocs[i] = a
	}
	var ls layerStats
	var plain, traced latencies
	order := newShuffler(c.seed, len(ins))
	start := time.Now()
	for k := 0; time.Since(start) < c.seconds; k++ {
		i := order.next()
		o.attempted += 2
		for pass := 0; pass < 2; pass++ {
			if (pass+k)%2 == 0 {
				t0 := time.Now()
				_, _, err := analyze(ins[i].sources)
				if err != nil {
					o.failed++
					continue
				}
				plain.add(time.Since(t0))
				continue
			}
			data, t, err := tracedAnalyze(ins[i].id, ins[i].sources)
			if err != nil {
				o.failed++
				continue
			}
			traced.add(t.total)
			ls.add(t, inputAllocs[i])
			// Byte-equal reports mean the traced pipeline is the program
			// the untraced run measures.
			if !bytes.Equal(data, refs[i]) {
				o.mismatch("%s: traced pipeline's report differs from core.AnalyzeSourcesContext's", ins[i].id)
			}
		}
	}
	if len(plain) == 0 || len(traced) == 0 {
		return nil, fmt.Errorf("no ops completed")
	}
	ls.metrics(o.metrics)
	zeroServiceLayers(o.metrics)
	o.metrics["trace.overhead_us"] = metric{(median(traced) - median(plain)) * 1000, "us"}
	return o, writeSpans(c, ls.ops)
}

func zeroServiceLayers(into map[string]metric) {
	for _, l := range serviceLayers {
		into[l.name] = metric{0, l.unit}
	}
}

// writeSpans dumps the traced ops' spans, kept in memory during the
// run, as JSON lines under the work directory.
func writeSpans(c config, ops []*opTrace) error {
	dir := filepath.Join(c.workdir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", c.workload, c.seed)))
	if err != nil {
		return err
	}
	type span struct {
		Name       string  `json:"name"`
		Parent     string  `json:"parent"`
		StartUS    float64 `json:"start_us"`
		DurUS      float64 `json:"dur_us"`
		Standalone bool    `json:"standalone,omitempty"`
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for n, t := range ops {
		spans := make([]span, 0, numSpans)
		for i := 0; i < numSpans; i++ {
			parent := "op"
			p, standalone := standaloneParent[i]
			if standalone {
				parent = spanNames[p]
			}
			spans = append(spans, span{
				Name: spanNames[i], Parent: parent,
				StartUS: float64(t.start[i]) / 1e3, DurUS: float64(t.dur[i]) / 1e3,
				Standalone: standalone,
			})
		}
		if err := enc.Encode(struct {
			Op    int     `json:"op"`
			Input string  `json:"input"`
			DurUS float64 `json:"dur_us"`
			Spans []span  `json:"spans"`
		}{n, t.input, float64(t.total) / 1e3, spans}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
