package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"time"

	"github.com/soteria-analysis/soteria/internal/core"
	"github.com/soteria-analysis/soteria/internal/market"
	"github.com/soteria-analysis/soteria/internal/report"
)

// input is one analysis op's sources with its known answer.
type input struct {
	id      string
	sources []core.NamedSource
	// want are property IDs that must be reported; when exact is set,
	// nothing else may be.
	want  []string
	exact bool
}

// checkVerdict applies the rule the repository's market tests use.
func (in input) checkVerdict(violated []string) error {
	got := map[string]bool{}
	for _, id := range violated {
		got[id] = true
	}
	for _, w := range in.want {
		if !got[w] {
			return fmt.Errorf("%s: expected %s, reported %v", in.id, w, violated)
		}
	}
	if in.exact && len(violated) != len(in.want) {
		return fmt.Errorf("%s: expected exactly %v, reported %v", in.id, in.want, violated)
	}
	return nil
}

// appInput is one market app analysed alone: a Table 3 app must report
// its listed IDs, every other app nothing.
func appInput(a market.AppSpec) input {
	want, flagged := market.Table3Expected[a.ID]
	return input{
		id:      a.ID,
		sources: []core.NamedSource{{Name: a.Name, Source: a.Source}},
		want:    want,
		exact:   !flagged,
	}
}

func corpusInputs() []input {
	var ins []input
	for _, a := range market.All() {
		ins = append(ins, appInput(a))
	}
	return ins
}

// unionInputs is Table 4's G.3 as one environment.
func unionInputs() ([]input, error) {
	for _, g := range market.Groups() {
		if g.ID != "G.3" {
			continue
		}
		in := input{id: g.ID, want: g.Expected}
		for _, id := range g.Members {
			a, ok := market.ByID(id)
			if !ok {
				return nil, fmt.Errorf("G.3 member %s not in the corpus", id)
			}
			in.sources = append(in.sources, core.NamedSource{Name: a.Name, Source: a.Source})
		}
		return []input{in}, nil
	}
	return nil, fmt.Errorf("no group G.3")
}

// analyze is one untraced op: source to report bytes, as soteria and
// soteriad run it.
func analyze(srcs []core.NamedSource) ([]byte, *core.Analysis, error) {
	an, err := core.AnalyzeSourcesContext(context.Background(), core.DefaultOptions(), srcs...)
	if err != nil {
		return nil, nil, err
	}
	data, err := report.Encode(report.FromAnalysis(an))
	return data, an, err
}

// coldPass analyses every input once, checks each verdict, and returns
// the report bytes later ops must reproduce.
func coldPass(ins []input) ([][]byte, error) {
	refs := make([][]byte, len(ins))
	for i, in := range ins {
		data, an, err := analyze(in.sources)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", in.id, err)
		}
		if err := in.checkVerdict(an.ViolatedIDs()); err != nil {
			return nil, err
		}
		refs[i] = data
	}
	return refs, nil
}

// setupProbe is the set-up of the corpus and union-g3 workloads:
// loading the inputs and the first cold pass over them.
func setupProbe(workload string) error {
	var ins []input
	switch workload {
	case "corpus":
		ins = corpusInputs()
	case "union-g3":
		var err error
		if ins, err = unionInputs(); err != nil {
			return err
		}
	default:
		return fmt.Errorf("no set-up probe for %q", workload)
	}
	_, err := coldPass(ins)
	return err
}

func runCorpus(c config) (*outcome, error) { return runAnalysis(c, corpusInputs()) }

func runUnion(c config) (*outcome, error) {
	ins, err := unionInputs()
	if err != nil {
		return nil, err
	}
	return runAnalysis(c, ins)
}

// shuffler yields input indexes in seeded passes: each pass visits
// every input once in a fresh random order.
type shuffler struct {
	rng   *rand.Rand
	order []int
	pos   int
}

func newShuffler(seed uint64, n int) *shuffler {
	return &shuffler{rng: rand.New(rand.NewPCG(seed, 0x736f7465)), order: make([]int, n), pos: n}
}

func (s *shuffler) next() int {
	if s.pos == len(s.order) {
		for i := range s.order {
			s.order[i] = i
		}
		s.rng.Shuffle(len(s.order), func(i, j int) { s.order[i], s.order[j] = s.order[j], s.order[i] })
		s.pos = 0
	}
	s.pos++
	return s.order[s.pos-1]
}

// runAnalysis drives the corpus and union-g3 workloads from one
// goroutine: ops in seeded shuffled passes until the time is up.
func runAnalysis(c config, ins []input) (*outcome, error) {
	refs, err := coldPass(ins)
	if err != nil {
		return nil, err
	}
	if c.trace {
		return traceAnalysis(c, ins, refs)
	}
	setup, err := probeSetup(c.workload)
	if err != nil {
		return nil, err
	}
	cal := startCalibrator(c.seed)
	defer cal.finish()
	o := newOutcome()
	order := newShuffler(c.seed, len(ins))
	// Capacity for a fast host's ops up front: pages are touched only as
	// ops are stored, and no growth copies inflate the peak RSS.
	ops := make([]opSample, 0, 1<<17)
	ticks0, ticksOK := readCPUTicks()
	runMark := cal.mark()
	kcpu0, held0 := cal.usage()
	cpu0 := selfCPU()
	start := time.Now()
	for time.Since(start) < c.seconds {
		i := order.next()
		o.attempted++
		var data []byte
		var an *core.Analysis
		var d time.Duration
		cal.op(func() {
			t0 := time.Now()
			data, an, err = analyze(ins[i].sources)
			d = time.Since(t0)
		})
		if err != nil {
			o.failed++
			continue
		}
		ops = append(ops, newOpSample(d))
		if !bytes.Equal(data, refs[i]) {
			o.mismatch("%s: report bytes differ from the first analysis", ins[i].id)
		}
		if err := ins[i].checkVerdict(an.ViolatedIDs()); err != nil {
			o.mismatch("%v", err)
		}
	}
	elapsed := time.Since(start)
	cpu := selfCPU().sub(cpu0)
	kcpu1, held1 := cal.usage()
	ticks1, ok := readCPUTicks()
	runRSS, err := peakRSSMB("self")
	if err != nil {
		return nil, err
	}
	o.extra["run_peak_rss_mb"] = metric{runRSS, "MB"}
	// The reference kernel runs in user mode: its time comes off both.
	kcpu := kcpu1 - kcpu0
	return o, o.endToEnd(runStats{
		ops: ops, elapsed: elapsed - (held1 - held0), cpu: cpu.sub(cpuTime{total: kcpu, user: kcpu}), speed: cal.speed(runMark),
		rssMB: setup.rssMB, setup: setup, steal: stealShare(ticks0, ticks1, ticksOK && ok),
	})
}
