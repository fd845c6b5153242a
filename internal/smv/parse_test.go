package smv_test

import (
	"strings"
	"testing"

	"github.com/soteria-analysis/soteria/internal/ctl"
	"github.com/soteria-analysis/soteria/internal/ir"
	"github.com/soteria-analysis/soteria/internal/paperapps"
	"github.com/soteria-analysis/soteria/internal/smv"
	"github.com/soteria-analysis/soteria/internal/statemodel"
)

// smokeAlarmEmission emits the Smoke-Alarm model with one SPEC — a
// real emitter output for round-trip tests.
func smokeAlarmEmission(t *testing.T) string {
	t.Helper()
	app, err := ir.BuildSource("Smoke-Alarm", paperapps.SmokeAlarm)
	if err != nil {
		t.Fatal(err)
	}
	m, err := statemodel.Build(app)
	if err != nil {
		t.Fatal(err)
	}
	return smv.Emit(m, []ctl.Formula{ctl.MustParse(`AG "alarm.alarm=siren"`)})
}

func TestParseEmitRoundTrip(t *testing.T) {
	out := smokeAlarmEmission(t)
	mod, err := smv.Parse(out)
	if err != nil {
		t.Fatalf("emitter output does not parse: %v\n%s", err, out)
	}
	if re := mod.Emit(); re != out {
		t.Fatalf("re-emission not byte-identical:\n--- original ---\n%s\n--- re-emitted ---\n%s", out, re)
	}
	if ev, ok := mod.VarByName("_event"); !ok {
		t.Error("parsed module lacks the _event variable")
	} else if len(ev.Values) == 0 {
		t.Error("no event values")
	}
	if len(mod.Specs) != 1 {
		t.Errorf("parsed module has %d SPEC lines, want 1", len(mod.Specs))
	}
}

func TestParseStutterModule(t *testing.T) {
	src := strings.Join([]string{
		"MODULE main",
		"VAR",
		"  a : {v0};",
		"",
		"INIT",
		"  a = v0",
		"",
		"TRANS",
		"  (next(a) = a)",
		"",
	}, "\n")
	mod, err := smv.Parse(src)
	if err != nil {
		t.Fatalf("stutter module rejected: %v", err)
	}
	if len(mod.Trans) != 1 || !mod.Trans[0][0].Next || mod.Trans[0][0].Value != "a" {
		t.Errorf("stutter transition misparsed: %+v", mod.Trans)
	}
	if re := mod.Emit(); re != src {
		t.Errorf("stutter module re-emission differs:\n%q\nvs\n%q", re, src)
	}
}

func TestParseRejects(t *testing.T) {
	valid := func(trans string) string {
		return strings.Join([]string{
			"MODULE main",
			"VAR",
			"  a : {v0, v1};",
			"",
			"INIT",
			"  a = v0",
			"",
			"TRANS",
			trans,
			"",
		}, "\n")
	}
	cases := map[string]string{
		"empty input":        "",
		"wrong module":       "MODULE other\nVAR\n",
		"no VAR":             "MODULE main\nINIT\n",
		"bad decl":           "MODULE main\nVAR\n  a = {v0};\n",
		"non-enum domain":    "MODULE main\nVAR\n  a : v0;\n",
		"dup var":            "MODULE main\nVAR\n  a : {v0};\n  a : {v1};\n\nINIT\n  a = v0\n\nTRANS\n  (next(a) = a)\n",
		"init out of domain": strings.Replace(valid("  (a = v0 & next(a) = v1)"), "a = v0\n", "a = v9\n", 1),
		"undeclared var":     valid("  (b = v0)"),
		"bare disjunct":      valid("  a = v0 & next(a) = v1"),
		"missing pipe":       valid("  (a = v0) (a = v1)"),
		"unbalanced parens":  valid("  (a = v0"),
		"empty trans":        valid("  "),
		"trailing garbage":   valid("  (a = v0 & next(a) = v1)") + "\nFOO\n",
		"non-equality":       valid("  (a < v0)"),
	}
	for name, src := range cases {
		if _, err := smv.Parse(src); err == nil {
			t.Errorf("%s: accepted:\n%s", name, src)
		}
	}
}
