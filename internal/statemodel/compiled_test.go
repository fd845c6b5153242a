package statemodel

import (
	"fmt"
	"sort"
	"testing"
	"unsafe"

	"github.com/soteria-analysis/soteria/internal/pathcond"
)

// TestNondetReportOrder pins the order nondeterminism reports come out
// in: (state, event) groups sorted by their string keys "<state>|<event>",
// so state 10 precedes state 2. With more than 64 nondeterministic
// groups the report cap makes that order observable.
func TestNondetReportOrder(t *testing.T) {
	const n = 120 // state IDs cross one, two and three digits
	vals := make([]string, n)
	for i := range vals {
		vals[i] = fmt.Sprintf("v%d", i)
	}
	m, err := NewSynthetic([]*Var{{Key: "dev.attr", Cap: "dev", Attr: "attr", Values: vals}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := m.AddState([]int{i}); err != nil {
			t.Fatal(err)
		}
	}
	// Every state has two events, each with two unguarded successors.
	// Events are added in reverse name order so insertion order and
	// name order disagree.
	for s := 0; s < n; s++ {
		for _, ev := range []Event{DeviceEvent("dev.attr", "z"), DeviceEvent("dev.attr", "a")} {
			for _, to := range []int{(s + 1) % n, (s + 2) % n} {
				if err := m.AddTransition(s, to, ev, pathcond.True()); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	m.detectNondeterminism()

	var keys []string
	for s := 0; s < n; s++ {
		for _, ev := range []string{"dev.attr.z", "dev.attr.a"} {
			keys = append(keys, fmt.Sprintf("%d|%s", s, ev))
		}
	}
	sort.Strings(keys)
	keys = keys[:64]
	if len(m.Nondet) != len(keys) {
		t.Fatalf("got %d reports, want %d", len(m.Nondet), len(keys))
	}
	for i, r := range m.Nondet {
		if got := fmt.Sprintf("%d|%s", r.State, r.Event); got != keys[i] {
			t.Fatalf("report %d is %s, want %s", i, got, keys[i])
		}
		if r.ToA != (r.State+1)%n || r.ToB != (r.State+2)%n {
			t.Fatalf("report %d pairs %d and %d", i, r.ToA, r.ToB)
		}
	}
}

// TestTransitionSize bounds the per-edge footprint: every cached model
// holds one Transition per edge, so growth shows in soteriad's RSS.
func TestTransitionSize(t *testing.T) {
	if sz := unsafe.Sizeof(Transition{}); sz > 144 {
		t.Fatalf("sizeof(Transition) = %d B, want at most 144", sz)
	}
}

// TestSyntheticStateInterning checks that re-adding a synthetic state
// returns its original ID, for short and long index vectors.
func TestSyntheticStateInterning(t *testing.T) {
	for _, nvars := range []int{2, 70} {
		vars := make([]*Var, nvars)
		for i := range vars {
			vars[i] = &Var{Key: fmt.Sprintf("d%d.a", i), Values: []string{"x", "y"}}
		}
		m, err := NewSynthetic(vars)
		if err != nil {
			t.Fatal(err)
		}
		a, b := make([]int, nvars), make([]int, nvars)
		b[nvars-1] = 1
		ida, _ := m.AddState(a)
		idb, _ := m.AddState(b)
		again, _ := m.AddState(append([]int(nil), a...))
		if ida != 0 || idb != 1 || again != 0 || len(m.States) != 2 {
			t.Fatalf("%d vars: ids %d %d %d, %d states", nvars, ida, idb, again, len(m.States))
		}
	}
}

// TestTransitionLiteralNames checks that a Transition built outside
// the package's constructors still renders its label and event name.
func TestTransitionLiteralNames(t *testing.T) {
	g := pathcond.True().WithOpaque("input", false)
	for _, tc := range []struct {
		tr        Transition
		label, ev string
	}{
		{Transition{Event: DeviceEvent("dev.attr", "on"), Guard: pathcond.True()}, "dev.attr.on", "dev.attr.on"},
		{Transition{Event: DeviceEvent("dev.attr", "on"), Guard: g}, "dev.attr.on [" + g.String() + "]", "dev.attr.on"},
	} {
		if got := tc.tr.Label(); got != tc.label {
			t.Errorf("Label() = %q, want %q", got, tc.label)
		}
		if got := tc.tr.EventName(); got != tc.ev {
			t.Errorf("EventName() = %q, want %q", got, tc.ev)
		}
	}
}
