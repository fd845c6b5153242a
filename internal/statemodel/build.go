package statemodel

import (
	"bytes"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"github.com/soteria-analysis/soteria/internal/capability"
	"github.com/soteria-analysis/soteria/internal/guard"
	"github.com/soteria-analysis/soteria/internal/ir"
	"github.com/soteria-analysis/soteria/internal/pathcond"
	"github.com/soteria-analysis/soteria/internal/symexec"
)

// Options tune model extraction; the zero value is the paper's full
// algorithm.
type Options struct {
	// EventOnlyLabels reproduces the paper's earlier, imprecise
	// design (§4.2): transition labels carry only events, dropping the
	// predicates that guard state changes. Used by the ablation
	// benchmark to measure the spurious nondeterminism and false
	// positives predicate labels eliminate.
	EventOnlyLabels bool
}

// Build extracts the state model of one or more apps. For a single
// app this is §4.2's per-app extraction; for several it produces the
// union model of the multi-app environment directly over the merged
// variable set (equivalent to Algorithm 2's union of the individual
// models; see Union for the structural algorithm itself).
func Build(apps ...*ir.App) (*Model, error) {
	return BuildOpt(Options{}, apps...)
}

// BuildOpt is Build with explicit options.
func BuildOpt(opt Options, apps ...*ir.App) (*Model, error) {
	return BuildBudget(nil, opt, apps...)
}

// BuildBudget is BuildOpt under a resource budget: state enumeration
// is charged against MaxStates and the extraction loops cooperatively
// check the wall-clock deadline. Exhaustion panics with a
// *guard.BudgetError for the enclosing recovery boundary; a nil
// budget disables all checks.
func BuildBudget(b *guard.Budget, opt Options, apps ...*ir.App) (*Model, error) {
	m := &Model{
		varIdx: map[string]int{},
		opt:    opt,
		budget: b,
	}
	for _, app := range apps {
		am := &AppModel{App: app, HandleCap: map[string]string{}}
		for _, p := range app.Devices() {
			if p.Cap != nil {
				am.HandleCap[p.Handle] = p.Cap.Name
			}
		}
		am.Results = symexec.ExecuteAll(app)
		m.Apps = append(m.Apps, am)
	}

	m.collectVars()
	if err := m.enumerateStates(); err != nil {
		return m, err
	}
	m.deriveTransitions()
	m.detectNondeterminism()
	return m, nil
}

// ---------------------------------------------------------------------------
// Variable collection and property abstraction

// varSpec accumulates information about a prospective model variable.
type varSpec struct {
	cap        *capability.Capability
	attr       *capability.Attribute
	handles    map[string]bool
	extraVals  map[string]bool          // enum values written beyond the capability domain
	predAtoms  []pathcond.Atom          // abstraction predicates (canonical var names)
	writtenEqs map[string]pathcond.Atom // equality atoms for written numeric values
}

func (m *Model) collectVars() {
	specs := map[string]*varSpec{}
	spec := func(capName, attrName string) *varSpec {
		key := varKeyFor(capName, attrName)
		if s, ok := specs[key]; ok {
			return s
		}
		c, ok := capability.Lookup(capName)
		if !ok {
			return nil
		}
		a, ok := c.Attribute(attrName)
		if !ok {
			return nil
		}
		s := &varSpec{
			cap: c, attr: a,
			handles:    map[string]bool{},
			extraVals:  map[string]bool{},
			writtenEqs: map[string]pathcond.Atom{},
		}
		specs[key] = s
		return s
	}

	for _, am := range m.Apps {
		app := am.App
		// Every attribute of every granted device is part of the state
		// (the paper's state space is the product of the devices'
		// attributes).
		for _, p := range app.Devices() {
			if p.Cap == nil {
				continue
			}
			for _, a := range p.Cap.Attributes {
				if a.Kind == capability.Text {
					continue
				}
				if s := spec(p.Cap.Name, a.Name); s != nil {
					s.handles[p.Handle] = true
				}
			}
		}
		// The abstract location mode becomes a variable when the app
		// subscribes to mode events or changes the mode.
		usesMode := app.SubscribesToMode()
		for _, r := range am.Results {
			for _, path := range r.Paths {
				for _, act := range path.Actions {
					if act.Cap == "location" {
						usesMode = true
					}
				}
			}
		}
		if usesMode {
			spec("location", "mode")
		}

		// Collect abstraction predicates and written values.
		for _, r := range am.Results {
			trigKey := m.triggerKey(app, r.Entry.Sub)
			for _, path := range r.Paths {
				for _, atom := range path.Guard.Atoms {
					key, ok := canonicalAtomVar(app, atom.Var)
					if !ok {
						// evt.value atoms constrain the triggering
						// attribute.
						if atom.Var == "evt.value" && trigKey != "" {
							key = trigKey
						} else {
							continue
						}
					}
					s := specs[key]
					if s == nil || s.attr.Kind != capability.Numeric {
						continue
					}
					na := atom
					na.Var = key
					s.predAtoms = append(s.predAtoms, na)
				}
				for _, act := range path.Actions {
					key := varKeyFor(act.Cap, act.Attr)
					s := specs[key]
					if s == nil {
						s = spec(act.Cap, act.Attr)
						if s == nil {
							continue
						}
					}
					if act.Handle != "location" {
						s.handles[act.Handle] = true
					}
					if s.attr.Kind == capability.Numeric {
						eq := pathcond.Atom{Var: key, Op: pathcond.EQ}
						if n, err := strconv.ParseFloat(act.Value, 64); err == nil {
							eq.IsNum = true
							eq.Num = n
						} else {
							eq.RHSVar = act.Value
						}
						s.writtenEqs[eq.String()] = eq
					} else if !s.attr.HasValue(act.Value) && !act.Symbolic {
						s.extraVals[act.Value] = true
					}
				}
			}
			// Subscription values ("mode.away") extend enum domains.
			if sub := r.Entry.Sub; sub.Value != "" && trigKey != "" {
				if s := specs[trigKey]; s != nil && s.attr.Kind == capability.Enum && !s.attr.HasValue(sub.Value) {
					s.extraVals[sub.Value] = true
				}
			}
		}
	}

	// Materialise variables in deterministic order.
	before := 1
	for _, key := range sortedKeys(specs) {
		s := specs[key]
		v := &Var{
			Key: key, Cap: s.cap.Name, Attr: s.attr.Name,
			Handles: sortedKeys(s.handles),
		}
		switch s.attr.Kind {
		case capability.Enum:
			v.Values = append(v.Values, s.attr.Values...)
			for _, ev := range sortedKeys(s.extraVals) {
				v.Values = append(v.Values, ev)
			}
			before *= len(v.Values)
		case capability.Numeric:
			v.Numeric = true
			atoms := append([]pathcond.Atom{}, s.predAtoms...)
			for _, k := range sortedKeys(s.writtenEqs) {
				atoms = append(atoms, s.writtenEqs[k])
			}
			v.Values, v.ValueConds = abstractDomain(key, atoms)
			if before < maxStates {
				before *= numericLevels
			}
		}
		m.varIdx[v.Key] = len(m.Vars)
		m.Vars = append(m.Vars, v)
	}
	m.StatesBeforeReduction = before
}

// triggerKey returns the model variable key of a subscription's
// triggering attribute ("" for label-only events).
func (m *Model) triggerKey(app *ir.App, sub ir.Subscription) string {
	switch sub.Kind {
	case ir.ModeEvent:
		return "location.mode"
	case ir.AppTouchEvent, ir.TimerEvent:
		return ""
	}
	p, ok := app.PermissionByHandle(sub.Handle)
	if !ok || p.Cap == nil {
		return ""
	}
	attr := sub.Attr
	if attr == "" || func() bool { _, has := p.Cap.Attribute(attr); return !has }() {
		if pa := p.Cap.PrimaryAttribute(); pa != nil {
			attr = pa.Name
		}
	}
	return varKeyFor(p.Cap.Name, attr)
}

// ---------------------------------------------------------------------------
// State enumeration

// enumerateStates materialises the full product of the variable
// domains in mixed-radix order, so state s is the packed value of its
// index vector.
func (m *Model) enumerateStates() error {
	total := 1
	for _, v := range m.Vars {
		total *= len(v.Values)
		if total > maxStates {
			return fmt.Errorf("state space exceeds %d states", maxStates)
		}
	}
	// Charge the whole product against the budget before materialising
	// it, so a too-large model aborts in O(vars) rather than O(states).
	m.budget.States(total, "statemodel.enumerate")
	m.stride = strides(m.Vars)
	n := len(m.Vars)
	digits := make([]int, total*n)
	m.States = make([]State, total)
	for s := range m.States {
		m.budget.Tick("statemodel.enumerate")
		idx := digits[s*n : (s+1)*n : (s+1)*n]
		for i, st := range m.stride {
			idx[i] = s / st % len(m.Vars[i].Values)
		}
		m.States[s] = State{Idx: idx}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Transition derivation
//
// Everything a (path, event) pair contributes that does not depend on
// the source state is compiled once: each guard atom's outcome per
// value of the variable it reads, and the packed-ID offsets of the
// action targets. The per-state loop then reads digits of the state
// and adds integers.

// edgeKey identifies a transition for deduplication.
type edgeKey struct {
	from, to, app, label int32
}

// edgeSet collects a model's deduplicated transitions.
type edgeSet struct {
	seen map[edgeKey]struct{}
	ts   []Transition
}

// add appends t unless an edge with the same endpoints, app and label
// ID was added before, and reports whether it did.
func (e *edgeSet) add(t Transition, label int32) bool {
	k := edgeKey{from: int32(t.From), to: int32(t.To), app: int32(t.App), label: label}
	if _, dup := e.seen[k]; dup {
		return false
	}
	if e.seen == nil {
		e.seen = map[edgeKey]struct{}{}
	}
	e.seen[k] = struct{}{}
	e.ts = append(e.ts, t)
	return true
}

// outcome is a guard atom's resolution against one state.
type outcome uint8

const (
	holds outcome = iota
	fails
	undecided // the atom joins the residual guard
)

// guardAtom is one guard atom of a compiled path, in guard order.
type guardAtom struct {
	vi   int           // variable the outcome depends on; -1 when fixed
	out  []outcome     // outcome per value of vi; one entry when fixed
	atom pathcond.Atom // residual atom when undecided
}

// variant is one residual guard of a program with its interned label.
type variant struct {
	guard   pathcond.Cond
	label   string
	labelID int32
}

// program is one symexec path compiled for one event.
type program struct {
	ev     Event
	evName string
	// trig is the trigger variable, set to trigVal by the event; -1 for
	// app touch and timer events.
	trig, trigVal int
	guard         []guardAtom
	opaque        []string
	// written lists the variables the actions overwrite; targets holds,
	// per target in action order, the packed value of their final
	// digits.
	written  []int
	targets  []int
	variants map[string]variant // by undecided-atom bitset
	noted    bool               // evName is in m.events
}

func (m *Model) deriveTransitions() {
	var edges edgeSet
	for ai, am := range m.Apps {
		for _, r := range am.Results {
			trigKey := m.triggerKey(am.App, r.Entry.Sub)
			for _, path := range r.Paths {
				m.derivePathTransitions(ai, am, r.Entry, trigKey, path, &edges)
			}
		}
	}
	m.Transitions = edges.ts
}

func (m *Model) derivePathTransitions(ai int, am *AppModel, ep *ir.EntryPoint, trigKey string, path symexec.Path, edges *edgeSet) {
	sub := ep.Sub
	// Determine the event values this path can fire on.
	var events []Event
	switch sub.Kind {
	case ir.AppTouchEvent:
		// Touch events are per-app: tapping one app's icon does not
		// trigger another app.
		events = []Event{{VarKey: "app.touch", Value: am.App.Name, Kind: sub.Kind}}
	case ir.TimerEvent:
		// Timer events are per-schedule (the subscription's Value is
		// the scheduled handler).
		v := sub.Value
		if v == "" {
			v = "fired"
		}
		events = []Event{{VarKey: "timer.time", Value: v, Kind: sub.Kind}}
	default:
		v, _, ok := m.VarByKey(trigKey)
		if !ok {
			return
		}
		for i, val := range v.Values {
			if sub.Value != "" && val != sub.Value {
				continue
			}
			if !m.eventConsistent(v, i, path.Guard) {
				continue
			}
			events = append(events, Event{VarKey: trigKey, Value: val, Kind: sub.Kind})
		}
	}

	var bits []byte
	for _, ev := range events {
		p, ok := m.compile(am.App, path, ev)
		for s := range m.States {
			m.budget.Tick("statemodel.transitions")
			if !ok {
				continue
			}
			bits = m.applyProgram(ai, p, s, edges, bits)
		}
	}
}

// compile resolves everything about path on event ev that does not
// depend on the source state; ok=false when the path cannot fire on ev
// from any state.
func (m *Model) compile(app *ir.App, path symexec.Path, ev Event) (*program, bool) {
	p := &program{ev: ev, evName: m.names.event(ev), trig: -1, variants: map[string]variant{}}
	// Post-event state: the trigger variable takes the event value.
	if ev.VarKey != "app.touch" && ev.VarKey != "timer.time" {
		v, vi, ok := m.VarByKey(ev.VarKey)
		if !ok {
			return nil, false
		}
		evi, ok := v.ValueIndex(ev.Value)
		if !ok {
			return nil, false
		}
		p.trig, p.trigVal = vi, evi
	}
	if !m.opt.EventOnlyLabels {
		p.opaque = path.Guard.Opaque
		for _, atom := range path.Guard.Atoms {
			g := m.compileAtom(app, atom, ev)
			if g.vi >= 0 && g.vi == p.trig {
				// The trigger variable's value is fixed by the event.
				g.vi, g.out = -1, g.out[p.trigVal:p.trigVal+1]
			}
			if g.vi < 0 {
				switch g.out[0] {
				case holds:
					continue
				case fails:
					return nil, false
				}
			}
			p.guard = append(p.guard, g)
		}
	}
	m.compileActions(p, path.Actions)
	return p, true
}

// compileAtom resolves one guard atom: against the event for evt.value
// atoms, per domain value for device attributes, and as a fixed
// residual otherwise.
func (m *Model) compileAtom(app *ir.App, atom pathcond.Atom, ev Event) guardAtom {
	fixed := func(o outcome) guardAtom { return guardAtom{vi: -1, out: []outcome{o}, atom: atom} }
	key, ok := canonicalAtomVar(app, atom.Var)
	if !ok {
		if atom.Var == "evt.value" {
			// Resolve against the event value.
			if ok, decided := m.decideEvtAtom(atom, ev); decided {
				if ok {
					return fixed(holds)
				}
				return fixed(fails)
			}
		}
		return fixed(undecided)
	}
	v, vi, found := m.VarByKey(key)
	if !found {
		return fixed(undecided)
	}
	if !v.Numeric && (atom.IsNum || atom.IsSym() || atom.Op != pathcond.EQ && atom.Op != pathcond.NE) {
		return fixed(undecided)
	}
	g := guardAtom{vi: vi, out: make([]outcome, len(v.Values)), atom: atom}
	if v.Numeric {
		g.atom.Var = key
		for i, vc := range v.ValueConds {
			switch {
			case pathcond.Implies(vc, g.atom):
				g.out[i] = holds
			case pathcond.Implies(vc, g.atom.Negated()):
				g.out[i] = fails
			default:
				g.out[i] = undecided
			}
		}
		return g
	}
	for i, val := range v.Values {
		if (val == atom.Str) != (atom.Op == pathcond.EQ) {
			g.out[i] = fails
		}
	}
	return g
}

// compileActions resolves the path's device actions to variable
// writes and enumerates the target assignments in the order the
// actions fork them (the first action's choice most significant;
// later writes to a variable overwrite earlier ones).
func (m *Model) compileActions(p *program, acts []symexec.Action) {
	combos := [][]int{nil} // per target, final digit per written variable
	for _, act := range acts {
		vi, vals := m.actionTargets(act)
		if len(vals) == 0 {
			continue
		}
		w := slices.Index(p.written, vi)
		if w < 0 {
			w = len(p.written)
			p.written = append(p.written, vi)
		}
		next := make([][]int, 0, len(combos)*len(vals))
		for _, c := range combos {
			for _, tv := range vals {
				nc := make([]int, len(p.written))
				copy(nc, c)
				nc[w] = tv
				next = append(next, nc)
			}
		}
		combos = next
	}
	p.targets = make([]int, len(combos))
	for i, c := range combos {
		for w, d := range c {
			p.targets[i] += d * m.stride[p.written[w]]
		}
	}
}

// actionTargets returns the variable an action writes and the domain
// values it can leave there; no values when the action does not touch
// the model.
func (m *Model) actionTargets(act symexec.Action) (int, []int) {
	key := varKeyFor(act.Cap, act.Attr)
	v, vi, ok := m.VarByKey(key)
	if !ok {
		return -1, nil
	}
	var targets []int
	if v.Numeric {
		eq := pathcond.Atom{Var: key, Op: pathcond.EQ}
		if n, err := strconv.ParseFloat(act.Value, 64); err == nil {
			eq.IsNum = true
			eq.Num = n
		} else {
			eq.RHSVar = act.Value
		}
		for i, vc := range v.ValueConds {
			if pathcond.Feasible(vc.WithAtom(eq)) {
				targets = append(targets, i)
			}
		}
	} else if i, found := v.ValueIndex(act.Value); found {
		targets = []int{i}
	} else if act.Symbolic {
		// Unknown written value: fork to every domain value.
		for i := range v.Values {
			targets = append(targets, i)
		}
	}
	return vi, targets
}

// applyProgram derives the transitions of a compiled program from
// state s. bits is scratch space for the undecided-atom bitset and is
// returned for reuse.
func (m *Model) applyProgram(ai int, p *program, s int, edges *edgeSet, bits []byte) []byte {
	digits := m.States[s].Idx
	digit := func(vi int) int {
		if vi == p.trig {
			return p.trigVal
		}
		return digits[vi]
	}
	bits = bits[:0]
	for i := range p.guard {
		g := &p.guard[i]
		o := g.out[0]
		if g.vi >= 0 {
			o = g.out[digits[g.vi]]
		}
		if i%8 == 0 {
			bits = append(bits, 0)
		}
		switch o {
		case fails:
			return bits
		case undecided:
			bits[i/8] |= 1 << (i % 8)
		}
	}
	v, ok := p.variants[string(bits)]
	if !ok {
		v = m.newVariant(p, bits)
	}
	// Successors: the post-event state with the written variables
	// replaced by each target's digits.
	base := s
	if p.trig >= 0 {
		base += (p.trigVal - digits[p.trig]) * m.stride[p.trig]
	}
	for _, vi := range p.written {
		base -= digit(vi) * m.stride[vi]
	}
	for _, off := range p.targets {
		t := Transition{
			From: s, To: base + off, Event: p.ev, Guard: v.guard, App: ai,
			label: v.label, event: p.evName,
		}
		if edges.add(t, v.labelID) && !p.noted {
			p.noted = true
			m.noteEvent(p.evName)
		}
	}
	return bits
}

// newVariant builds and records the residual guard of program p for an
// undecided-atom bitset.
func (m *Model) newVariant(p *program, bits []byte) variant {
	g := pathcond.Cond{Opaque: p.opaque}
	for i, ga := range p.guard {
		if bits[i/8]&(1<<(i%8)) != 0 {
			g.Atoms = append(g.Atoms, ga.atom)
		}
	}
	// Full slice expression: transitions share the guard, so an
	// append by a consumer must copy.
	g.Atoms = g.Atoms[:len(g.Atoms):len(g.Atoms)]
	var v variant
	v.guard = g
	v.label, v.labelID = m.names.label(transitionLabel(p.evName, g))
	p.variants[string(bits)] = v
	return v
}

// eventConsistent checks the path's evt.value atoms against a
// candidate event value of the trigger variable.
func (m *Model) eventConsistent(v *Var, valIdx int, guard pathcond.Cond) bool {
	for _, atom := range guard.Atoms {
		if atom.Var != "evt.value" {
			continue
		}
		if v.Numeric {
			na := atom
			na.Var = v.Key
			vc := v.ValueConds[valIdx]
			if pathcond.Implies(vc, na.Negated()) {
				return false
			}
			continue
		}
		val := v.Values[valIdx]
		switch atom.Op {
		case pathcond.EQ:
			if !atom.IsNum && !atom.IsSym() && atom.Str != val {
				return false
			}
		case pathcond.NE:
			if !atom.IsNum && !atom.IsSym() && atom.Str == val {
				return false
			}
		}
	}
	return true
}

// decideEvtAtom decides an evt.value atom against a concrete event.
func (m *Model) decideEvtAtom(atom pathcond.Atom, ev Event) (holds, decided bool) {
	if atom.IsNum || atom.IsSym() {
		// Numeric event values are resolved through the trigger
		// variable's abstract value in eventConsistent.
		v, _, ok := m.VarByKey(ev.VarKey)
		if ok && v.Numeric {
			if i, found := v.ValueIndex(ev.Value); found {
				na := atom
				na.Var = v.Key
				vc := v.ValueConds[i]
				if pathcond.Implies(vc, na) {
					return true, true
				}
				if pathcond.Implies(vc, na.Negated()) {
					return false, true
				}
			}
		}
		return false, false
	}
	switch atom.Op {
	case pathcond.EQ:
		return ev.Value == atom.Str, true
	case pathcond.NE:
		return ev.Value != atom.Str, true
	}
	return false, false
}

// ---------------------------------------------------------------------------
// Nondeterminism

// detectNondeterminism flags states with two feasible same-event
// transitions to different successors (§4.2: "SOTERIA reports
// nondeterministic state models as a safety violation").
//
// Transitions are grouped by (source state, event name). Groups are
// visited in the order of the string keys "<from>|<event>": source
// states by their decimal rendering (state 10 before state 2), then
// event names bytewise. The 64-report cap makes that order observable.
func (m *Model) detectNondeterminism() {
	n := len(m.States)
	start := make([]int, n+1)
	for _, t := range m.Transitions {
		start[t.From+1]++
	}
	for s := 0; s < n; s++ {
		start[s+1] += start[s]
	}
	byFrom := make([]int, len(m.Transitions))
	fill := slices.Clone(start[:n])
	for i, t := range m.Transitions {
		byFrom[fill[t.From]] = i
		fill[t.From]++
	}
	var froms []int
	for s := 0; s < n; s++ {
		if start[s+1] > start[s] {
			froms = append(froms, s)
		}
	}
	slices.SortFunc(froms, cmpDecimal)
	byEvent := func(a, b int) int {
		return strings.Compare(m.Transitions[a].event, m.Transitions[b].event)
	}

	const maxReports = 64
	for _, s := range froms {
		ts := byFrom[start[s]:start[s+1]]
		slices.SortStableFunc(ts, byEvent)
		for len(ts) > 0 {
			g := 1
			for g < len(ts) && m.Transitions[ts[g]].event == m.Transitions[ts[0]].event {
				g++
			}
			for i := 0; i < g && len(m.Nondet) < maxReports; i++ {
				m.budget.Tick("statemodel.nondet")
				for j := i + 1; j < g; j++ {
					a, b := &m.Transitions[ts[i]], &m.Transitions[ts[j]]
					if a.To == b.To {
						continue
					}
					if pathcond.Feasible(a.Guard.And(b.Guard)) {
						m.Nondet = append(m.Nondet, NondetReport{
							State: a.From, Event: a.Event,
							ToA: a.To, ToB: b.To,
							GuardA: a.Guard, GuardB: b.Guard,
							AppA: a.App, AppB: b.App,
						})
						break
					}
				}
			}
			if len(m.Nondet) >= maxReports {
				return
			}
			ts = ts[g:]
		}
	}
}

// cmpDecimal orders state IDs as the strings "<id>|" compare.
func cmpDecimal(a, b int) int {
	var ba, bb [24]byte
	return bytes.Compare(
		append(strconv.AppendInt(ba[:0], int64(a), 10), '|'),
		append(strconv.AppendInt(bb[:0], int64(b), 10), '|'))
}

// ---------------------------------------------------------------------------
// Graphviz output

// Dot renders the model in Graphviz format, in the paper's Fig. 9
// style: states labeled with their attribute values, edges with
// event and residual predicate.
func (m *Model) Dot() string {
	var sb strings.Builder
	name := "model"
	if len(m.Apps) == 1 {
		name = m.Apps[0].App.Name
	}
	fmt.Fprintf(&sb, "digraph %q {\n  rankdir=LR;\n  node [shape=box];\n", name)
	// Only states that participate in transitions are drawn, keeping
	// the output readable for large products.
	used := map[int]bool{}
	for _, t := range m.Transitions {
		used[t.From] = true
		used[t.To] = true
	}
	for s := range m.States {
		if !used[s] && len(m.Transitions) > 0 {
			continue
		}
		fmt.Fprintf(&sb, "  s%d [label=%q];\n", s, m.StateLabel(s))
	}
	for _, t := range m.Transitions {
		fmt.Fprintf(&sb, "  s%d -> s%d [label=%q];\n", t.From, t.To, t.Label())
	}
	sb.WriteString("}\n")
	return sb.String()
}
