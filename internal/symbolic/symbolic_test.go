package symbolic

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/soteria-analysis/soteria/internal/ctl"
	"github.com/soteria-analysis/soteria/internal/ir"
	"github.com/soteria-analysis/soteria/internal/kripke"
	"github.com/soteria-analysis/soteria/internal/modelcheck"
	"github.com/soteria-analysis/soteria/internal/paperapps"
	"github.com/soteria-analysis/soteria/internal/statemodel"
)

func TestAgainstExplicitOnSmallStructure(t *testing.T) {
	k := kripke.New(4)
	k.AddEdge(0, 1, "")
	k.AddEdge(1, 2, "")
	k.AddEdge(2, 0, "")
	k.AddEdge(2, 3, "")
	k.AddEdge(3, 3, "")
	k.Labels[3]["goal"] = true
	k.Labels[0]["a"] = true
	k.Labels[1]["a"] = true
	k.Labels[2]["a"] = true

	e := New(k)
	for _, src := range []string{
		`EF "goal"`, `AF "goal"`, `AG "a"`, `EG "a"`,
		`E["a" U "goal"]`, `A["a" U "goal"]`, `EX "a"`, `AX "a"`,
		`AG ("a" | "goal")`, `!EF ("a" & "goal")`,
	} {
		requireAgree(t, "4-state structure", e, ctl.MustParse(src))
	}
}

// requireAgree fails t unless the explicit engine and e give f the same
// verdict and the same per-state satisfaction set.
func requireAgree(t *testing.T, what string, e *Engine, f ctl.Formula) {
	t.Helper()
	exp, sym := modelcheck.Check(e.K, f), e.Check(f)
	if exp.Holds != sym.Holds {
		t.Fatalf("%s: %s Holds explicit=%t symbolic=%t", what, f, exp.Holds, sym.Holds)
	}
	for s := range exp.Sat {
		if exp.Sat[s] != sym.Sat[s] {
			t.Fatalf("%s: %s at state %d: explicit=%t symbolic=%t", what, f, s, exp.Sat[s], sym.Sat[s])
		}
	}
}

// TestRandomStructuresAgree cross-checks the two engines on random
// graphs — the strongest correctness evidence for both.
func TestRandomStructuresAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	formulas := []ctl.Formula{
		ctl.MustParse(`AG ("p" -> AF "q")`),
		ctl.MustParse(`EF ("p" & "q")`),
		ctl.MustParse(`AG (EF "q")`),
		ctl.MustParse(`E[!"q" U "p"]`),
		ctl.MustParse(`A[true U "q"]`),
		ctl.MustParse(`AX (EX "p")`),
		ctl.MustParse(`EG !"q"`),
	}
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(14)
		k := kripke.New(n)
		for s := 0; s < n; s++ {
			// 1-3 successors each; ensure totality.
			m := 1 + rng.Intn(3)
			for j := 0; j < m; j++ {
				k.AddEdge(s, rng.Intn(n), "")
			}
			if rng.Intn(2) == 0 {
				k.Labels[s]["p"] = true
			}
			if rng.Intn(3) == 0 {
				k.Labels[s]["q"] = true
			}
		}
		e := New(k)
		for _, f := range formulas {
			requireAgree(t, fmt.Sprintf("trial %d", trial), e, f)
		}
	}
}

func TestSymbolicOnPaperApp(t *testing.T) {
	app, err := ir.BuildSource("smoke-alarm", paperapps.SmokeAlarm)
	if err != nil {
		t.Fatal(err)
	}
	m, err := statemodel.Build(app)
	if err != nil {
		t.Fatal(err)
	}
	k := kripke.FromModel(m)
	e := New(k)
	f := ctl.MustParse(`AG ("ev:smokeDetector.smoke.detected" -> "alarm.alarm=siren")`)
	r := e.Check(f)
	if !r.Holds {
		t.Error("P.10 should hold symbolically for the correct app")
	}
	exp := modelcheck.Check(k, f)
	if exp.Holds != r.Holds {
		t.Error("engines disagree")
	}
}

func TestNodeCountReported(t *testing.T) {
	k := kripke.New(3)
	k.AddEdge(0, 1, "")
	k.AddEdge(1, 2, "")
	k.AddEdge(2, 2, "")
	e := New(k)
	if e.KernelStats().Nodes <= 2 {
		t.Error("node count should exceed terminals")
	}
}

// TestCollapseModelEnginesAgree runs both engines over synthetic
// collapse models of 10³ and 10⁴ states: a backward-reachability
// fixpoint that every state satisfies must get the same verdict and
// the same per-state satisfaction set from each.
func TestCollapseModelEnginesAgree(t *testing.T) {
	f := ctl.EF{X: ctl.And{L: ctl.Prop{Name: "dev0.attr=v0"}, R: ctl.Prop{Name: "dev1.attr=v0"}}}
	for _, d := range []int{32, 100} {
		m, err := statemodel.NewSyntheticCollapse(d)
		if err != nil {
			t.Fatal(err)
		}
		k := kripke.FromModel(m)
		if !modelcheck.Check(k, f).Holds {
			t.Fatalf("d=%d: explicit engine says %s fails, but every state collapses to state 0", d, f)
		}
		requireAgree(t, fmt.Sprintf("d=%d", d), New(k), f)
	}
}
