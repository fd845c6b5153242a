// Package statemodel extracts Soteria's finite state model (Q, Σ, δ)
// from the symbolic-execution paths of one or more IoT apps
// (paper §4.2).
//
// States are the Cartesian product of device attribute values; numeric
// attributes are collapsed by property abstraction (§4.2.1): the atoms
// appearing in transition guards and in written setpoint values become
// abstraction predicates, and the attribute's abstract domain is the
// set of feasible truth assignments to them (the paper's thermostat
// goes from 45 values to {==68, ≠68}). Transitions are labeled with
// the triggering event and the residual (unresolvable) predicate
// (§4.2.2). Nondeterministic models are reported as safety violations.
//
// Devices are identified across apps by capability — a model variable
// is "capability.attribute" — which is how the multi-app union
// (Algorithm 2) removes the attributes of duplicate devices.
package statemodel

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"strings"

	"github.com/soteria-analysis/soteria/internal/guard"
	"github.com/soteria-analysis/soteria/internal/ir"
	"github.com/soteria-analysis/soteria/internal/pathcond"
	"github.com/soteria-analysis/soteria/internal/symexec"
)

// Var is one state variable of the model: a device (or abstract)
// attribute with a finite value domain.
type Var struct {
	Key     string // canonical "capability.attribute"
	Cap     string
	Attr    string
	Values  []string // domain, in deterministic order
	Numeric bool     // domain produced by property abstraction
	// ValueConds, for numeric vars, gives the defining condition of
	// each abstract value (parallel to Values). The condition's
	// variable is the canonical Key.
	ValueConds []pathcond.Cond
	// Handles lists the app device handles mapped onto this variable.
	Handles []string
}

// ValueIndex returns the index of value v in the domain.
func (v *Var) ValueIndex(val string) (int, bool) {
	for i, x := range v.Values {
		if x == val {
			return i, true
		}
	}
	return -1, false
}

// State is one assignment of every model variable, stored as domain
// indices in model variable order.
type State struct {
	Idx []int
}

// Event labels a transition with its trigger.
type Event struct {
	VarKey string // triggering attribute key ("waterSensor.water", "location.mode", "app.touch", "timer.time")
	Value  string // event value
	Kind   ir.EventKind
}

func (e Event) String() string {
	switch e.Kind {
	case ir.AppTouchEvent:
		if e.Value != "" && e.Value != "touched" {
			return "app touch:" + e.Value
		}
		return "app touch"
	case ir.TimerEvent:
		if e.Value != "" && e.Value != "fired" {
			return "timer." + e.Value
		}
		return "timer"
	}
	return e.VarKey + "." + e.Value
}

// Transition is one labeled edge of the model. Transitions are made by
// the package's constructors (Build, Union, AddTransition), which cache
// the label and event name; Event and Guard must not be changed after
// construction. A Transition built elsewhere renders both on demand.
type Transition struct {
	From, To int
	Event    Event
	// Guard is the residual path condition: the part of the path's
	// predicate that could not be resolved against the state (user
	// inputs, persistent state variables, opaque terms). True when the
	// transition is unconditional.
	Guard pathcond.Cond
	// App is the index (into Model.Apps) of the app contributing the
	// transition — Algorithm 2's edge labeling.
	App int
	// label and event cache Label() and Event.String(). Every
	// constructor sets them from the model's interned names, so a
	// model holds one copy of each distinct string.
	label, event string
}

// Label renders the paper-style transition label: event plus residual
// predicate.
func (t Transition) Label() string {
	if t.label == "" {
		return transitionLabel(t.Event.String(), t.Guard)
	}
	return t.label
}

// EventName is Event.String(), interned per model.
func (t Transition) EventName() string {
	if t.event == "" {
		return t.Event.String()
	}
	return t.event
}

// transitionLabel renders the label of an edge on the named event
// with residual guard g.
func transitionLabel(event string, g pathcond.Cond) string {
	if g.IsTrue() {
		return event
	}
	return event + " [" + g.String() + "]"
}

// NondetReport describes a nondeterminism violation: one state and
// event with two feasible transitions to different successors.
type NondetReport struct {
	State  int
	Event  Event
	ToA    int
	ToB    int
	GuardA pathcond.Cond
	GuardB pathcond.Cond
	AppA   int
	AppB   int
}

// AppModel retains an app's analysis artifacts inside a model.
type AppModel struct {
	App     *ir.App
	Results []*symexec.Result
	// HandleCap maps device handles to capability names.
	HandleCap map[string]string
}

// Model is the extracted state model.
type Model struct {
	Apps   []*AppModel
	Vars   []*Var
	varIdx map[string]int
	States []State
	// stride[i] is variable i's place value in a state's packed
	// mixed-radix ID (the last variable varies fastest). Build and
	// Union enumerate the full product in that order, so there a
	// state's ID is its packed value and successor IDs are pure
	// arithmetic. Synthetic models leave it nil.
	stride []int
	// stateKey interns the states of synthetic models by their
	// varint-encoded index vector.
	stateKey    map[string]int
	Transitions []Transition
	// events is the sorted set of Transitions' event names, maintained
	// eagerly by every constructor: property workers share the model
	// without locks, so it is never filled in lazily.
	events   []string
	names    interner
	Nondet   []NondetReport
	Warnings []string
	opt      Options
	budget   *guard.Budget
	// StatesBeforeReduction is the would-be state count without
	// property abstraction, using the standard discretisation (100
	// levels per numeric attribute) — the Fig. 11 baseline.
	StatesBeforeReduction int
}

// Events returns the sorted distinct event names (Event.String()) of
// the model's transitions. The slice is shared; callers must not
// modify it.
func (m *Model) Events() []string { return m.events }

// noteEvent adds an event name to the sorted event set.
func (m *Model) noteEvent(name string) {
	if i, found := slices.BinarySearch(m.events, name); !found {
		m.events = slices.Insert(m.events, i, name)
	}
}

// interner gives each distinct event name and transition label of a
// model one string, and each label an ID, so edges dedupe on integer
// tuples and consumers read names without re-rendering them.
type interner struct {
	events     map[Event]string
	labels     map[string]int32
	labelNames []string // by label ID
}

func (in *interner) event(ev Event) string {
	if name, ok := in.events[ev]; ok {
		return name
	}
	if in.events == nil {
		in.events = map[Event]string{}
	}
	name := ev.String()
	in.events[ev] = name
	return name
}

// label returns the interned copy of label l and its ID.
func (in *interner) label(l string) (string, int32) {
	if id, ok := in.labels[l]; ok {
		return in.labelNames[id], id
	}
	if in.labels == nil {
		in.labels = map[string]int32{}
	}
	id := int32(len(in.labelNames))
	in.labels[l] = id
	in.labelNames = append(in.labelNames, l)
	return l, id
}

// VarByKey returns the model variable with the given key.
func (m *Model) VarByKey(key string) (*Var, int, bool) {
	i, ok := m.varIdx[key]
	if !ok {
		return nil, -1, false
	}
	return m.Vars[i], i, true
}

// stateValue returns the value of variable key in state s.
func (m *Model) stateValue(s int, key string) (string, bool) {
	v, i, ok := m.VarByKey(key)
	if !ok {
		return "", false
	}
	return v.Values[m.States[s].Idx[i]], true
}

// StateLabel renders a state as "[cap.attr=value, ...]".
func (m *Model) StateLabel(s int) string {
	parts := make([]string, len(m.Vars))
	for i, v := range m.Vars {
		parts[i] = v.Key + "=" + v.Values[m.States[s].Idx[i]]
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

// FindStates returns the states satisfying all the given key=value
// requirements.
func (m *Model) FindStates(req map[string]string) []int {
	var out []int
	for s := range m.States {
		okAll := true
		for k, want := range req {
			got, ok := m.stateValue(s, k)
			if !ok || got != want {
				okAll = false
				break
			}
		}
		if okAll {
			out = append(out, s)
		}
	}
	return out
}

// strides returns each variable's place value in the mixed-radix
// packing of a state. Callers bound the domain product first.
func strides(vars []*Var) []int {
	st := make([]int, len(vars))
	p := 1
	for i := len(vars) - 1; i >= 0; i-- {
		st[i] = p
		if n := len(vars[i].Values); n > 0 {
			p *= n
		}
	}
	return st
}

// internState returns the ID of the synthetic state with the given
// domain indices, creating it if new.
func (m *Model) internState(idx []int) int {
	var buf []byte
	for _, d := range idx {
		buf = binary.AppendUvarint(buf, uint64(d))
	}
	if id, ok := m.stateKey[string(buf)]; ok {
		return id
	}
	id := len(m.States)
	m.States = append(m.States, State{Idx: slices.Clone(idx)})
	m.stateKey[string(buf)] = id
	return id
}

// maxStates bounds state enumeration; the paper's apps stay under 200
// states after reduction.
const maxStates = 1 << 17

// numericLevels is the discretisation used for the before-reduction
// count (batteries and power meters report ~100 levels, the paper's
// §4.2.1 example).
const numericLevels = 100

// varKeyFor maps an app device handle and attribute to the canonical
// model variable key.
func varKeyFor(capName, attr string) string { return capName + "." + attr }

// canonicalAtomVar rewrites a guard atom variable of the form
// "handle.attr" into "capability.attr" for the given app; returns
// ok=false for non-device variables (evt.*, state.*, user inputs,
// opaque symbols).
func canonicalAtomVar(app *ir.App, v string) (string, bool) {
	i := strings.Index(v, ".")
	if i < 0 {
		return "", false
	}
	handle, attr := v[:i], v[i+1:]
	if handle == "location" {
		return varKeyFor("location", attr), true
	}
	p, ok := app.PermissionByHandle(handle)
	if !ok || p.Kind != ir.Device || p.Cap == nil {
		return "", false
	}
	if _, has := p.Cap.Attribute(attr); !has {
		return "", false
	}
	return varKeyFor(p.Cap.Name, attr), true
}

// sortedKeys returns map keys sorted.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// abstractDomain builds the abstract value domain of a numeric
// variable from its abstraction predicates (guard atoms over the
// variable plus equality atoms for written values). It returns the
// value labels and their defining conditions.
func abstractDomain(key string, atoms []pathcond.Atom) ([]string, []pathcond.Cond) {
	// Normalise polarity (x >= c and x < c are the same abstraction
	// predicate) and deduplicate.
	seen := map[string]bool{}
	var uniq []pathcond.Atom
	for _, a := range atoms {
		switch a.Op {
		case pathcond.GE, pathcond.GT, pathcond.NE:
			a = a.Negated()
		}
		if !seen[a.String()] {
			seen[a.String()] = true
			uniq = append(uniq, a)
		}
	}
	sort.Slice(uniq, func(i, j int) bool { return uniq[i].String() < uniq[j].String() })
	if len(uniq) == 0 {
		return []string{"any"}, []pathcond.Cond{pathcond.True()}
	}
	// Cap the predicate count to keep 2^n tractable.
	if len(uniq) > 8 {
		uniq = uniq[:8]
	}
	var values []string
	var conds []pathcond.Cond
	n := len(uniq)
	for mask := 0; mask < 1<<n; mask++ {
		c := pathcond.True()
		var label []string
		for i := 0; i < n; i++ {
			a := uniq[i]
			if mask&(1<<i) == 0 {
				a = a.Negated()
			}
			c = c.WithAtom(a)
			label = append(label, shortAtom(a))
		}
		if !pathcond.Feasible(c) {
			continue
		}
		values = append(values, strings.Join(label, "&"))
		conds = append(conds, c)
	}
	return values, conds
}

// shortAtom renders an atom without the variable prefix for compact
// state labels ("<5", "==68", ">=thrshld").
func shortAtom(a pathcond.Atom) string {
	var rhs string
	switch {
	case a.IsSym():
		rhs = a.RHSVar
	case a.IsNum:
		rhs = fmt.Sprintf("%g", a.Num)
	default:
		rhs = a.Str
	}
	return a.Op.String() + rhs
}
