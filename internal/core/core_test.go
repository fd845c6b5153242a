package core

import (
	"context"
	"strings"
	"testing"
	"time"

	"github.com/soteria-analysis/soteria/internal/obs"
	"github.com/soteria-analysis/soteria/internal/paperapps"
)

func TestAnalyzeSourcesSingle(t *testing.T) {
	root := obs.NewRoot("analysis")
	a, err := AnalyzeSourcesContext(obs.WithSpan(context.Background(), root), DefaultOptions(),
		NamedSource{Name: "smoke-alarm", Source: paperapps.SmokeAlarm})
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Violations) != 0 {
		t.Errorf("violations = %v", a.Violations)
	}
	if len(a.Model.States) != 96 {
		t.Errorf("states = %d", len(a.Model.States))
	}
	if a.Kripke == nil || a.Kripke.N != 96 {
		t.Error("kripke missing or wrong size")
	}
	phase := map[string]time.Duration{}
	for _, sp := range root.Children() {
		phase[sp.Name()] += sp.Duration()
	}
	if phase["statemodel"] <= 0 || phase["check"] <= 0 {
		t.Errorf("span durations = %v", phase)
	}
}

func TestAnalyzeSourcesParseError(t *testing.T) {
	_, err := AnalyzeSources(DefaultOptions(),
		NamedSource{Name: "bad", Source: "def h() { if ( }"})
	if err == nil {
		t.Error("expected error")
	}
}

func TestAnalyzeAppsEmpty(t *testing.T) {
	if _, err := AnalyzeApps(DefaultOptions()); err == nil {
		t.Error("expected error for zero apps")
	}
}

func TestOptionsGeneralOnly(t *testing.T) {
	a, err := AnalyzeSources(Options{General: true},
		NamedSource{Name: "buggy", Source: paperapps.BuggySmokeAlarm})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range a.Violations {
		if strings.HasPrefix(v.ID, "P.") {
			t.Errorf("app-specific violation with General-only options: %v", v)
		}
	}
	ids := a.ViolatedIDs()
	found := false
	for _, id := range ids {
		if id == "S.1" {
			found = true
		}
	}
	if !found {
		t.Errorf("S.1 missing: %v", ids)
	}
}

func TestPropertyIDFilter(t *testing.T) {
	a, err := AnalyzeSources(Options{AppSpecific: true, PropertyIDs: []string{"P.10"}},
		NamedSource{Name: "buggy", Source: paperapps.BuggySmokeAlarm})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range a.Violations {
		if v.ID != "P.10" {
			t.Errorf("unexpected %v", v)
		}
	}
	if len(a.Violations) == 0 {
		t.Error("P.10 should be flagged")
	}
}

func TestCheckFormula(t *testing.T) {
	a, err := AnalyzeSources(DefaultOptions(),
		NamedSource{Name: "water-leak", Source: paperapps.WaterLeakDetector})
	if err != nil {
		t.Fatal(err)
	}
	holds, cex, err := a.CheckFormula(`AG ("ev:waterSensor.water.wet" -> "valve.valve=closed")`)
	if err != nil || !holds || cex != "" {
		t.Errorf("holds=%t cex=%q err=%v", holds, cex, err)
	}
	holds, cex, err = a.CheckFormula(`AG "valve.valve=closed"`)
	if err != nil || holds {
		t.Errorf("trivially-false formula: holds=%t err=%v", holds, err)
	}
	if cex == "" {
		t.Error("expected counterexample")
	}
	if _, _, err := a.CheckFormula("(("); err == nil {
		t.Error("expected parse error")
	}
}

func TestOutputs(t *testing.T) {
	a, err := AnalyzeSources(DefaultOptions(),
		NamedSource{Name: "water-leak", Source: paperapps.WaterLeakDetector})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(a.DOT(), "digraph") {
		t.Error("DOT malformed")
	}
	smvOut := a.SMV()
	if !strings.Contains(smvOut, "MODULE main") || !strings.Contains(smvOut, "SPEC") {
		t.Errorf("SMV output should include SPECs for applicable properties:\n%s", smvOut[:200])
	}
}

func TestMultiAppEnvironment(t *testing.T) {
	a, err := AnalyzeSources(DefaultOptions(),
		NamedSource{Name: "smoke-alarm", Source: paperapps.SmokeAlarm},
		NamedSource{Name: "water-leak", Source: paperapps.WaterLeakDetector})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Apps) != 2 {
		t.Errorf("apps = %d", len(a.Apps))
	}
	if len(a.Model.States) != 192 {
		t.Errorf("states = %d", len(a.Model.States))
	}
}

func TestViolatedIDsDeduplicated(t *testing.T) {
	a, err := AnalyzeSources(DefaultOptions(),
		NamedSource{Name: "buggy", Source: paperapps.BuggySmokeAlarm})
	if err != nil {
		t.Fatal(err)
	}
	ids := a.ViolatedIDs()
	seen := map[string]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Errorf("duplicate %s", id)
		}
		seen[id] = true
	}
}
