// Table-driven tests for the symbolic-execution edges the taint family
// depends on: sink guards must carry branch atoms with the right
// polarity (negated on else-edges), sinks on contradictory paths must
// be pruned, and taint marks must survive handler-boundary crossings —
// helper-method inlining, return values, closures, and the
// subscription-value constraint seeding the entry guard.
package symexec

import (
	"strings"
	"testing"

	"github.com/soteria-analysis/soteria/internal/groovy"
	"github.com/soteria-analysis/soteria/internal/ir"
	"github.com/soteria-analysis/soteria/internal/pathcond"
)

// sinkApp wraps a handler body and optional extra method declarations
// into a presence-sensor app. sub selects the subscription attribute
// ("presence" or a value form like "presence.not present").
func sinkApp(sub, body, extra string) string {
	return `
definition(name: "t", namespace: "t", author: "t")
preferences {
    section("Devices") {
        input "kids", "capability.presenceSensor"
        input "meter", "capability.powerMeter"
        input "secret", "text", title: "Secret"
    }
}
def installed() { subscribe(kids, "` + sub + `", h) }
def h(evt) {
` + body + `
}
` + extra
}

// sinksNamed filters a result's sinks by call name.
func sinksNamed(r *Result, name string) []SinkCall {
	var out []SinkCall
	for _, s := range r.Sinks {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// hasAtom reports whether the guard contains the atom Var Op Str.
func hasAtom(g pathcond.Cond, v string, op pathcond.Op, s string) bool {
	for _, a := range g.Atoms {
		if a.Var == v && a.Op == op && a.Str == s {
			return true
		}
	}
	return false
}

// taintVars flattens a sink argument's taint marks to source names.
func taintVars(a SinkArg) []string {
	var out []string
	for _, l := range a.Taint {
		out = append(out, l.Var)
	}
	return out
}

// TestSinkGuardBranchNegation pins the polarity of branch atoms on
// sink guards: a sink in the then-branch records the tested atom, a
// sink in the else-branch records its negation, and an unconditional
// sink after the branch carries neither.
func TestSinkGuardBranchNegation(t *testing.T) {
	cases := []struct {
		name string
		body string
		// wantOp/wantStr describe the expected evt.value atom on the
		// sendSms guard; wantNone asserts an atom-free (true) guard.
		wantOp   pathcond.Op
		wantStr  string
		wantNone bool
	}{
		{
			name: "then-branch sink keeps the tested atom",
			body: `    if (evt.value == "not present") {
        sendSms("555-0100", "gone ${evt.displayName}")
    }`,
			wantOp: pathcond.EQ, wantStr: "not present",
		},
		{
			name: "else-branch sink negates the tested atom",
			body: `    if (evt.value == "present") {
        log.debug "home"
    } else {
        sendSms("555-0100", "gone ${evt.displayName}")
    }`,
			wantOp: pathcond.NE, wantStr: "present",
		},
		{
			name: "post-branch sink is unconditional",
			body: `    if (evt.value == "present") {
        log.debug "home"
    }
    sendSms("555-0100", "seen ${evt.displayName}")`,
			wantNone: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := execEntry(t, sinkApp("presence", tc.body, ""), "h")
			sinks := sinksNamed(r, "sendSms")
			if len(sinks) != 1 {
				t.Fatalf("sendSms sinks = %d: %+v", len(sinks), r.Sinks)
			}
			g := sinks[0].Guard
			if tc.wantNone {
				if !g.IsTrue() {
					t.Errorf("guard = %s, want true", g)
				}
				return
			}
			if !hasAtom(g, "evt.value", tc.wantOp, tc.wantStr) {
				t.Errorf("guard = %s, want evt.value %s %q", g, tc.wantOp, tc.wantStr)
			}
			if !pathcond.Feasible(g) {
				t.Errorf("guard %s should be satisfiable", g)
			}
		})
	}
}

// TestSinkContradictionPruning covers infeasible-path pruning of sink
// records: a transmission only reachable through contradictory
// branches must not appear in the result at all — the property the
// taint family relies on to avoid impossible witnesses.
func TestSinkContradictionPruning(t *testing.T) {
	cases := []struct {
		name      string
		sub       string
		body      string
		wantSinks int
	}{
		{
			name: "nested contradictory string branches",
			sub:  "presence",
			body: `    if (evt.value == "present") {
        if (evt.value == "not present") {
            sendSms("555-0100", "impossible ${evt.displayName}")
        }
    }`,
			wantSinks: 0,
		},
		{
			name: "subscription value contradicts the branch",
			sub:  "presence.present",
			body: `    if (evt.value == "not present") {
        sendSms("555-0100", "impossible ${evt.displayName}")
    }`,
			wantSinks: 0,
		},
		{
			name: "subscription value agrees with the branch",
			sub:  "presence.not present",
			body: `    if (evt.value == "not present") {
        sendSms("555-0100", "gone ${evt.displayName}")
    }`,
			wantSinks: 1,
		},
		{
			name: "contradictory numeric window",
			sub:  "presence",
			body: `    def p = meter.currentValue("power")
    if (p > 50) {
        if (p < 5) {
            sendSms("555-0100", "impossible ${evt.displayName}")
        }
    }`,
			wantSinks: 0,
		},
		{
			name: "complementary branches keep distinct call sites",
			sub:  "presence",
			body: `    if (evt.value == "present") {
        sendSms("555-0100", "a ${evt.displayName}")
    } else {
        sendSms("555-0100", "a ${evt.displayName}")
    }`,
			// Two distinct call sites: each records its own sink under
			// its branch's (feasible) guard.
			wantSinks: 2,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := execEntry(t, sinkApp(tc.sub, tc.body, ""), "h")
			sinks := sinksNamed(r, "sendSms")
			if len(sinks) != tc.wantSinks {
				t.Fatalf("sendSms sinks = %d, want %d: %+v", len(sinks), tc.wantSinks, sinks)
			}
			for _, s := range sinks {
				if !pathcond.Feasible(s.Guard) {
					t.Errorf("recorded sink carries infeasible guard %s", s.Guard)
				}
			}
		})
	}
}

// TestHandlerBoundaryPropagation covers taint crossing call
// boundaries: into inlined helper methods via parameters, back out via
// return values, through nested helpers, and into trailing-closure
// sinks — with sanitizer calls as the mark-clearing boundary.
func TestHandlerBoundaryPropagation(t *testing.T) {
	cases := []struct {
		name  string
		body  string
		extra string
		sink  string
		// want is the expected taint source set of the sink's payload
		// argument (argument 1 for sendSms, 0 otherwise); empty means
		// the payload must be clean.
		want []string
	}{
		{
			name: "parameter passes taint into a helper",
			body: `    exfil("x ${evt.displayName}")`,
			extra: `
def exfil(msg) {
    sendSms("555-0100", msg)
}
`,
			sink: "sendSms",
			want: []string{"evt.displayName"},
		},
		{
			name: "helper return value carries taint back",
			body: `    sendSms("555-0100", fmt())`,
			extra: `
def fmt() {
    return "seen ${evt.displayName}"
}
`,
			sink: "sendSms",
			want: []string{"evt.displayName"},
		},
		{
			name: "taint survives two helper hops",
			body: `    hop1("x ${secret}")`,
			extra: `
def hop1(a) { hop2(a) }
def hop2(b) { sendSms("555-0100", b) }
`,
			sink: "sendSms",
			want: []string{"secret"},
		},
		{
			name: "trailing-closure network sink records its argument",
			body: `    httpGet("http://x.example/?v=${evt.value}") { resp -> log.debug "$resp" }`,
			sink: "httpGet",
			want: []string{"evt.value"},
		},
		{
			name: "sanitizer at the boundary clears the mark",
			body: `    exfil(redact("x ${evt.displayName}"))`,
			extra: `
def exfil(msg) {
    sendSms("555-0100", msg)
}
`,
			sink: "sendSms",
			want: nil,
		},
		{
			name: "helper named like a sanitizer still propagates",
			body: `    sendSms("555-0100", redact("x ${evt.displayName}"))`,
			extra: `
def redact(s) {
    return s
}
`,
			// An app method shadows the platform sanitizer: it is
			// inlined, and this one returns its input unscrubbed.
			sink: "sendSms",
			want: []string{"evt.displayName"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := execEntry(t, sinkApp("presence", tc.body, tc.extra), "h")
			sinks := sinksNamed(r, tc.sink)
			if len(sinks) != 1 {
				t.Fatalf("%s sinks = %d: %+v", tc.sink, len(sinks), r.Sinks)
			}
			payload := 0
			if tc.sink == "sendSms" {
				payload = 1
			}
			if payload >= len(sinks[0].Args) {
				t.Fatalf("sink args = %+v, want a payload at %d", sinks[0].Args, payload)
			}
			got := taintVars(sinks[0].Args[payload])
			if strings.Join(got, ",") != strings.Join(tc.want, ",") {
				t.Errorf("payload taint = %v, want %v", got, tc.want)
			}
		})
	}
}

// TestEntryGuardSeedsSinkCondition pins the handler-entry boundary:
// subscribing to a specific attribute value constrains evt.value on
// every path, and that constraint reaches the sink guard — the
// condition taint witnesses render.
func TestEntryGuardSeedsSinkCondition(t *testing.T) {
	r := execEntry(t, sinkApp("presence.not present",
		`    sendSms("555-0100", "gone ${evt.displayName}")`, ""), "h")
	sinks := sinksNamed(r, "sendSms")
	if len(sinks) != 1 {
		t.Fatalf("sinks = %+v", r.Sinks)
	}
	g := sinks[0].Guard
	if !hasAtom(g, "evt.value", pathcond.EQ, "not present") {
		t.Errorf("entry constraint missing from sink guard %s", g)
	}
	if got := g.Canonical(); !strings.Contains(got, `evt.value == "not present"`) {
		t.Errorf("canonical guard = %q", got)
	}
}

// TestUnionLabelsDeterministic pins unionLabels' dedup and ordering —
// flow reports sort by these marks, so the union must be canonical.
func TestUnionLabelsDeterministic(t *testing.T) {
	a := Label{Kind: pathcond.DeviceState, Var: "evt.value"}
	b := Label{Kind: pathcond.UserDefined, Var: "secret"}
	c := Label{Kind: pathcond.DeviceState, Var: "evt.displayName"}
	got := unionLabels([]Label{b, a}, []Label{a, c}, nil, []Label{c})
	want := []Label{
		{Kind: pathcond.UserDefined, Var: "secret"},
		{Kind: pathcond.DeviceState, Var: "evt.displayName"},
		{Kind: pathcond.DeviceState, Var: "evt.value"},
	}
	if len(got) != len(want) {
		t.Fatalf("union = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("union[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
	if unionLabels(nil, nil) != nil {
		t.Error("empty union should be nil")
	}
}

// TestSinkBeforeForkRecordedOnce ensures a sink recorded before a
// branch fork does not duplicate across descendant paths.
func TestSinkBeforeForkRecordedOnce(t *testing.T) {
	r := execEntry(t, sinkApp("presence", `    sendSms("555-0100", "seen ${evt.displayName}")
    if (evt.value == "present") {
        log.debug "home"
    } else {
        log.debug "away"
    }`, ""), "h")
	sinks := sinksNamed(r, "sendSms")
	if len(sinks) != 1 {
		t.Fatalf("pre-fork sink recorded %d times: %+v", len(sinks), sinks)
	}
	if !sinks[0].Guard.IsTrue() {
		t.Errorf("pre-fork sink guard = %s, want true", sinks[0].Guard)
	}
}

// TestStateWritesRecordMarks pins Result.StateWrites, which the taint
// resolver reads for state fields transmitted by another handler: each
// field written on a feasible path maps to the union of the written
// values' marks, through locals and inlined helpers; atomicState
// writes land on the same field; writes on pruned paths are absent.
func TestStateWritesRecordMarks(t *testing.T) {
	r := execEntry(t, sinkApp("presence", `    def n = evt.displayName
    state.who = n
    keep(evt.value)
    atomicState.note = "k: ${secret}"
    state.plain = "hello"
    if (evt.value == "present") {
        if (evt.value == "away") {
            state.never = evt.value
        }
    }`, `def keep(v) {
    state.who = v
}
`), "h")
	want := map[string][]string{
		"who":   {"evt.displayName", "evt.value"},
		"note":  {"secret"},
		"plain": nil,
	}
	if len(r.StateWrites) != len(want) {
		t.Fatalf("state writes = %+v, want fields %v", r.StateWrites, want)
	}
	for f, vars := range want {
		ls, ok := r.StateWrites[f]
		if !ok {
			t.Errorf("field %s not recorded", f)
			continue
		}
		got := taintVars(SinkArg{Taint: ls})
		if strings.Join(got, ",") != strings.Join(vars, ",") {
			t.Errorf("writes to %s carry %v, want %v", f, got, vars)
		}
	}
	// Paths are unaffected: the writes are not actions.
	for _, p := range r.Paths {
		if len(p.Actions) != 0 {
			t.Errorf("state writes leaked into path actions: %+v", p.Actions)
		}
	}
}

// branchCase is one Groovy branch condition and the path-condition
// atoms condOf must turn it into: want is the canonical condition, or
// opaque is the number of opaque atoms for shapes the fragment cannot
// express exactly. condOf is the one place the repository converts
// Groovy conditions into pathcond.
type branchCase struct {
	src     string
	negated bool
	want    string
	opaque  int
}

func checkBranchConditions(t *testing.T, cases ...branchCase) {
	t.Helper()
	app, err := ir.BuildSource("t", `def installed() { }`)
	if err != nil {
		t.Fatal(err)
	}
	x := &executor{app: app}
	for _, tc := range cases {
		e, err := groovy.ParseExpr(tc.src)
		if err != nil {
			t.Fatalf("ParseExpr(%q): %v", tc.src, err)
		}
		p := newPState()
		p.pushFrame()
		c := x.condOf(e, tc.negated, p)
		if len(c.Opaque) != tc.opaque {
			t.Errorf("%s (negated %t): opaque = %v, want %d", tc.src, tc.negated, c.Opaque, tc.opaque)
			continue
		}
		if tc.opaque == 0 && c.Canonical() != tc.want {
			t.Errorf("%s (negated %t) = %q, want %q", tc.src, tc.negated, c.Canonical(), tc.want)
		}
		if tc.opaque == 0 && !pathcond.Feasible(c) {
			t.Errorf("%s (negated %t) = %q is infeasible", tc.src, tc.negated, c.Canonical())
		}
	}
}

func TestBranchConditionComparisons(t *testing.T) {
	checkBranchConditions(t,
		branchCase{src: `power_val > 50`, want: `power_val > 50`},
		branchCase{src: `evt.value == "detected"`, want: `evt.value == "detected"`},
	)
}

func TestBranchConditionSwappedLiteral(t *testing.T) {
	checkBranchConditions(t, branchCase{src: `50 < power_val`, want: `power_val > 50`})
}

func TestBranchConditionNegation(t *testing.T) {
	checkBranchConditions(t,
		branchCase{src: `x > 5`, negated: true, want: `x <= 5`},
		branchCase{src: `!(x > 5)`, want: `x <= 5`},
	)
}

func TestBranchConditionConjunction(t *testing.T) {
	checkBranchConditions(t, branchCase{src: `x > 5 && y == "on"`, want: `x > 5 && y == "on"`})
}

// TestBranchConditionDeMorgan: ¬(a ∨ b) = ¬a ∧ ¬b.
func TestBranchConditionDeMorgan(t *testing.T) {
	checkBranchConditions(t, branchCase{src: `x > 5 || x < 1`, negated: true, want: `x <= 5 && x >= 1`})
}

func TestBranchConditionOpaqueFallback(t *testing.T) {
	checkBranchConditions(t,
		branchCase{src: `location.contactBookEnabled`, opaque: 1},
		// A negated conjunction is a disjunction, which the fragment
		// cannot hold: it must become opaque, not silently wrong.
		branchCase{src: `x > 1 && y > 2`, negated: true, opaque: 1},
	)
}
