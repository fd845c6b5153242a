// Package symexec implements Soteria's forward path-sensitive symbolic
// execution of event handlers (paper §4.2.2).
//
// Starting at an entry point's handler (the dummy main), the executor
// explores every path, accumulating a path condition built from the
// custom path-condition fragment (internal/pathcond) and collecting
// the device actions performed along the path. Method calls are
// inlined (with a recursion guard); calls by reflection fork one path
// per possible target method, the paper's safe over-approximation.
// Infeasible paths are discarded as soon as their condition becomes
// unsatisfiable, and paths with identical end states are merged in the
// style of the ESP algorithm.
//
// The resulting per-entry-point paths are what the state-model builder
// (internal/statemodel) turns into predicate-labeled transitions, and
// what the general properties S.1/S.2 inspect directly.
package symexec

import (
	"fmt"
	"sort"
	"strings"

	"github.com/soteria-analysis/soteria/internal/groovy"
	"github.com/soteria-analysis/soteria/internal/ir"
	"github.com/soteria-analysis/soteria/internal/pathcond"
)

// ValKind is the kind of a symbolic value.
type ValKind int

// Value kinds.
const (
	KNull ValKind = iota
	KNum
	KStr
	KBool
	KSym // symbolic: identified by a canonical name
)

// Value is a value in the symbolic environment.
type Value struct {
	Kind    ValKind
	Num     float64
	Str     string
	Bool    bool
	Sym     string // canonical name, e.g. "evt.value", "the_battery.battery", "thrshld"
	SymKind pathcond.SourceKind
	// Taint carries explicit taint marks accumulated by propagation
	// through expressions (string interpolation, concatenation, opaque
	// calls). When empty, marks are derived from the value's own
	// provenance — see Labels.
	Taint []Label
}

// Label is one taint mark on a value: the provenance kind and the
// canonical source variable the data came from.
type Label struct {
	Kind pathcond.SourceKind
	Var  string
}

// Labels returns the value's taint marks. Explicit marks win;
// otherwise a mark is derived from the value's provenance: event
// fields ("evt", "evt.value"), device attribute reads
// ("the_battery.battery", "location.mode"), install-time user inputs,
// and persistent state fields are sensitive sources. Bare
// pseudo-globals ("location", "state", "settings", ...) and opaque
// symbols are not.
func (v Value) Labels() []Label {
	if len(v.Taint) > 0 {
		return v.Taint
	}
	if v.Kind != KSym {
		return nil
	}
	switch v.SymKind {
	case pathcond.UserDefined, pathcond.StateVariable:
		return []Label{{Kind: v.SymKind, Var: v.Sym}}
	case pathcond.DeviceState:
		// "evt" is the event object itself; dotted symbols are attribute
		// reads. Bare device handles and pseudo-globals stay unmarked —
		// reading an attribute off them mints a fresh symbol anyway.
		if v.Sym == "evt" || strings.Contains(v.Sym, ".") {
			return []Label{{Kind: pathcond.DeviceState, Var: v.Sym}}
		}
	}
	return nil
}

// unionLabels merges label sets into one deduplicated, sorted set so
// downstream renderings are deterministic.
func unionLabels(sets ...[]Label) []Label {
	var all []Label
	for _, s := range sets {
		all = append(all, s...)
	}
	if len(all) == 0 {
		return nil
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Kind != all[j].Kind {
			return all[i].Kind < all[j].Kind
		}
		return all[i].Var < all[j].Var
	})
	out := all[:1]
	for _, l := range all[1:] {
		if l != out[len(out)-1] {
			out = append(out, l)
		}
	}
	return out
}

// NumVal constructs a concrete numeric value.
func NumVal(v float64) Value { return Value{Kind: KNum, Num: v} }

// StrVal constructs a concrete string value.
func StrVal(s string) Value { return Value{Kind: KStr, Str: s} }

// BoolVal constructs a concrete boolean value.
func BoolVal(b bool) Value { return Value{Kind: KBool, Bool: b} }

// SymVal constructs a symbolic value with a provenance label.
func SymVal(name string, kind pathcond.SourceKind) Value {
	return Value{Kind: KSym, Sym: name, SymKind: kind}
}

// Label renders the value for action labels.
func (v Value) Label() string {
	switch v.Kind {
	case KNum:
		return fmt.Sprintf("%g", v.Num)
	case KStr:
		return v.Str
	case KBool:
		return fmt.Sprintf("%t", v.Bool)
	case KSym:
		return v.Sym
	}
	return "null"
}

// Action is one device actuation recorded on a path.
type Action struct {
	Handle string // device handle; "location" for setLocationMode
	Cap    string // capability name
	Attr   string // attribute changed
	Value  string // new value: enum value, constant, or source label
	// Symbolic is set when Value is a source label (user input, device
	// read) rather than a constant/enum value.
	Symbolic bool
	// ValueKind is the provenance of a symbolic Value.
	ValueKind pathcond.SourceKind
	Method    string
	Pos       groovy.Pos
}

func (a Action) String() string {
	return fmt.Sprintf("%s.%s:=%s", a.Handle, a.Attr, a.Value)
}

// Path is one merged execution path of an entry point.
type Path struct {
	Guard   pathcond.Cond
	Actions []Action
}

// ActionsSignature is a canonical rendering of the path's action
// sequence, used for ESP merging and S.1/S.2 checks.
func (p Path) ActionsSignature() string {
	parts := make([]string, len(p.Actions))
	for i, a := range p.Actions {
		parts[i] = a.String()
	}
	return strings.Join(parts, ";")
}

// SinkCall is one call to a transmission primitive (messaging or
// network) observed on some path, with the path condition that reaches
// the call site and the taint marks of every evaluated argument. Sinks
// are recorded outside Path on purpose: they must not perturb ESP
// merging, the action signatures, or the state model.
type SinkCall struct {
	Name string // platform call name ("sendSms", "httpPost", ...)
	Pos  groovy.Pos
	Args []SinkArg
	// Guard is the path condition at the call site (not the path's
	// final guard): the condition under which the transmission happens.
	Guard pathcond.Cond
}

// SinkArg is one evaluated sink argument.
type SinkArg struct {
	Text  string // rendered argument value
	Taint []Label
}

// identity keys a sink call for deduplication across the path states
// that observed it: call site, rendered arguments, and their taint.
func (s SinkCall) identity() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s@%d:%d", s.Name, s.Pos.Line, s.Pos.Col)
	for _, a := range s.Args {
		sb.WriteString("|")
		sb.WriteString(a.Text)
		for _, l := range a.Taint {
			fmt.Fprintf(&sb, "^%d:%s", l.Kind, l.Var)
		}
	}
	return sb.String()
}

// Result is the symbolic execution outcome for one entry point.
type Result struct {
	Entry    *ir.EntryPoint
	Paths    []Path
	Explored int // paths explored before ESP merging
	Merged   int // paths merged away by ESP merging
	// Sinks are the transmission calls observed across all paths,
	// deduplicated, with ESP-style guard merging, in source order.
	Sinks []SinkCall
	// StateWrites maps each persistent state field assigned on some
	// feasible path ("lastSeen" for state.lastSeen or
	// atomicState.lastSeen) to the union of the assigned values' taint
	// marks. Like Sinks it is kept off the path state, so ESP merging,
	// action signatures and the state model do not see it.
	StateWrites map[string][]Label
	Warnings    []string
}

const (
	maxPaths       = 1024
	maxInlineDepth = 8
)

// Execute symbolically executes one entry point of the app.
func Execute(app *ir.App, ep *ir.EntryPoint) *Result {
	x := &executor{app: app}
	seed := newPState()
	seed.pushFrame()
	// Bind the handler's event parameter to the symbolic event.
	if len(ep.Handler.Params) > 0 {
		seed.setLocal(ep.Handler.Params[0], SymVal("evt", pathcond.DeviceState))
	}
	// A subscription to a specific value ("water.wet") constrains
	// evt.value on every path.
	if ep.Sub.Value != "" {
		seed.guard = seed.guard.WithAtom(pathcond.Atom{
			Var: "evt.value", Op: pathcond.EQ, Str: ep.Sub.Value,
			VarKind: pathcond.DeviceState,
		})
	}
	final := x.execBlock(ep.Handler.Body, []*pstate{seed})
	res := &Result{Entry: ep, Explored: len(final), StateWrites: x.stateWrites, Warnings: x.warnings}
	res.Paths, res.Merged = mergePaths(final)
	res.Sinks = collectSinks(final)
	return res
}

// collectSinks deduplicates the sink calls recorded across final path
// states. A sink recorded before a fork appears in every descendant
// state with the same call-site guard — those collapse to one entry —
// while identical transmissions reached on complementary branches have
// their guards merged the same way path guards are.
func collectSinks(finals []*pstate) []SinkCall {
	type group struct {
		sink   SinkCall
		guards []pathcond.Cond
	}
	groups := map[string]*group{}
	var order []string
	for _, p := range finals {
		for _, s := range p.sinks {
			k := s.identity()
			g, ok := groups[k]
			if !ok {
				g = &group{sink: s}
				groups[k] = g
				order = append(order, k)
			}
			g.guards = append(g.guards, s.Guard)
		}
	}
	var out []SinkCall
	for _, k := range order {
		g := groups[k]
		guards, _ := mergeGuards(g.guards)
		for _, gu := range guards {
			s := g.sink
			s.Guard = gu
			out = append(out, s)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Pos.Line != out[j].Pos.Line {
			return out[i].Pos.Line < out[j].Pos.Line
		}
		if out[i].Pos.Col != out[j].Pos.Col {
			return out[i].Pos.Col < out[j].Pos.Col
		}
		if ki, kj := out[i].identity(), out[j].identity(); ki != kj {
			return ki < kj
		}
		return out[i].Guard.Canonical() < out[j].Guard.Canonical()
	})
	return out
}

// ExecuteAll runs Execute for every entry point.
func ExecuteAll(app *ir.App) []*Result {
	out := make([]*Result, 0, len(app.EntryPoints))
	for _, ep := range app.EntryPoints {
		out = append(out, Execute(app, ep))
	}
	return out
}

// pstate is the executor's per-path state.
type pstate struct {
	guard   pathcond.Cond
	frames  []map[string]Value // innermost frame last
	actions []Action
	sinks   []SinkCall // transmission calls observed on this path
	ret     *Value     // non-nil once a return executed in the current method
	depth   int
	stack   []string // inlined call stack (recursion guard)
}

func newPState() *pstate {
	return &pstate{guard: pathcond.True()}
}

func (p *pstate) clone() *pstate {
	q := &pstate{
		guard:   p.guard,
		frames:  make([]map[string]Value, len(p.frames)),
		actions: append([]Action{}, p.actions...),
		sinks:   append([]SinkCall{}, p.sinks...),
		depth:   p.depth,
		stack:   append([]string{}, p.stack...),
	}
	for i, f := range p.frames {
		nf := make(map[string]Value, len(f))
		for k, v := range f {
			nf[k] = v
		}
		q.frames[i] = nf
	}
	if p.ret != nil {
		r := *p.ret
		q.ret = &r
	}
	return q
}

func (p *pstate) pushFrame() { p.frames = append(p.frames, map[string]Value{}) }
func (p *pstate) popFrame()  { p.frames = p.frames[:len(p.frames)-1] }

func (p *pstate) lookup(name string) (Value, bool) {
	for i := len(p.frames) - 1; i >= 0; i-- {
		if v, ok := p.frames[i][name]; ok {
			return v, true
		}
	}
	return Value{}, false
}

// setLocal declares name in the innermost frame.
func (p *pstate) setLocal(name string, v Value) {
	p.frames[len(p.frames)-1][name] = v
}

// assign updates name in the frame that declares it, or declares it in
// the innermost frame (Groovy's script-style implicit declaration).
func (p *pstate) assign(name string, v Value) {
	for i := len(p.frames) - 1; i >= 0; i-- {
		if _, ok := p.frames[i][name]; ok {
			p.frames[i][name] = v
			return
		}
	}
	p.setLocal(name, v)
}

type executor struct {
	app         *ir.App
	warnings    []string
	stateWrites map[string][]Label
}

func (x *executor) warnf(format string, args ...any) {
	if len(x.warnings) < 100 {
		x.warnings = append(x.warnings, fmt.Sprintf(format, args...))
	}
}

// ---------------------------------------------------------------------------
// Statement execution

// execBlock executes stmts over every live path.
func (x *executor) execBlock(b *groovy.Block, paths []*pstate) []*pstate {
	if b == nil {
		return paths
	}
	for _, s := range b.Stmts {
		var next []*pstate
		for _, p := range paths {
			if p.ret != nil {
				next = append(next, p) // returned: skip remaining stmts
				continue
			}
			next = append(next, x.execStmt(s, p)...)
		}
		paths = next
		if len(paths) > maxPaths {
			x.warnf("path explosion: truncating to %d paths", maxPaths)
			paths = paths[:maxPaths]
		}
	}
	return paths
}

func (x *executor) execStmt(s groovy.Stmt, p *pstate) []*pstate {
	switch st := s.(type) {
	case *groovy.ExprStmt:
		return dropVals(x.eval(st.X, p))

	case *groovy.DeclStmt:
		if st.Init == nil {
			p.setLocal(st.Name, Value{Kind: KNull})
			return []*pstate{p}
		}
		outs := x.eval(st.Init, p)
		for _, o := range outs {
			o.p.setLocal(st.Name, o.v)
		}
		return dropVals(outs)

	case *groovy.AssignStmt:
		outs := x.eval(st.RHS, p)
		var res []*pstate
		for _, o := range outs {
			x.assignTo(st.LHS, o.v, st.Op, o.p)
			res = append(res, o.p)
		}
		return res

	case *groovy.IncDecStmt:
		// x++ on locals: adjust concrete numbers, symbolise otherwise.
		if id, ok := st.X.(*groovy.Ident); ok {
			if v, found := p.lookup(id.Name); found && v.Kind == KNum {
				d := 1.0
				if st.Decr {
					d = -1
				}
				p.assign(id.Name, NumVal(v.Num+d))
				return []*pstate{p}
			}
			p.assign(id.Name, SymVal(id.Name+"'", pathcond.UnknownSource))
		}
		return []*pstate{p}

	case *groovy.IfStmt:
		return x.execIf(st, p)

	case *groovy.WhileStmt:
		// Bounded: execute the body at most once (IoT handlers use
		// loops only for retries/iteration over event lists).
		skip := p.clone()
		taken, _ := x.branch(st.Cond, p)
		var out []*pstate
		if taken != nil {
			out = append(out, x.execBlock(st.Body, []*pstate{taken})...)
		}
		out = append(out, skip)
		return out

	case *groovy.ForInStmt:
		skip := p.clone()
		body := p
		body.pushFrame()
		body.setLocal(st.Var, SymVal(st.Var, pathcond.UnknownSource))
		outs := x.execBlock(st.Body, []*pstate{body})
		for _, o := range outs {
			o.popFrame()
		}
		return append(outs, skip)

	case *groovy.ReturnStmt:
		if st.X == nil {
			v := Value{Kind: KNull}
			p.ret = &v
			return []*pstate{p}
		}
		outs := x.eval(st.X, p)
		for _, o := range outs {
			v := o.v
			o.p.ret = &v
		}
		return dropVals(outs)

	case *groovy.BreakStmt, *groovy.ContinueStmt:
		// Loop bodies run at most once, so break/continue simply end
		// the (single) iteration.
		return []*pstate{p}

	case *groovy.SwitchStmt:
		return x.execSwitch(st, p)

	case *groovy.Block:
		p.pushFrame()
		outs := x.execBlock(st, []*pstate{p})
		for _, o := range outs {
			o.popFrame()
		}
		return outs
	}
	return []*pstate{p}
}

// assignTo performs an assignment to an lvalue.
func (x *executor) assignTo(lhs groovy.Expr, v Value, op groovy.TokKind, p *pstate) {
	if op != groovy.ASSIGN {
		// += / -= : fold when concrete, symbolise otherwise.
		if id, ok := lhs.(*groovy.Ident); ok {
			if cur, found := p.lookup(id.Name); found && cur.Kind == KNum && v.Kind == KNum {
				if op == groovy.PLUSASSIGN {
					p.assign(id.Name, NumVal(cur.Num+v.Num))
				} else {
					p.assign(id.Name, NumVal(cur.Num-v.Num))
				}
				return
			}
			p.assign(id.Name, SymVal(id.Name+"'", pathcond.UnknownSource))
		}
		return
	}
	switch l := lhs.(type) {
	case *groovy.Ident:
		p.assign(l.Name, v)
	case *groovy.PropExpr:
		if f, ok := ir.StateFieldRef(l); ok {
			// Persistent state writes keep the symbolic binding so
			// later reads in the same handler observe it, and their
			// marks are recorded for reads in other handlers.
			p.assign("state."+f, v)
			if x.stateWrites == nil {
				x.stateWrites = map[string][]Label{}
			}
			x.stateWrites[f] = unionLabels(x.stateWrites[f], v.Labels())
			return
		}
	case *groovy.IndexExpr:
		// Collection writes are not tracked.
	}
}

func (x *executor) execIf(st *groovy.IfStmt, p *pstate) []*pstate {
	taken, notTaken := x.branch(st.Cond, p)
	var out []*pstate
	if taken != nil {
		out = append(out, x.execBlock(st.Then, []*pstate{taken})...)
	}
	if notTaken != nil {
		if st.Else != nil {
			out = append(out, x.execStmt(st.Else, notTaken)...)
		} else {
			out = append(out, notTaken)
		}
	}
	return out
}

func (x *executor) execSwitch(st *groovy.SwitchStmt, p *pstate) []*pstate {
	var out []*pstate
	fall := p // path on which no previous case matched
	matchedAll := false
	var defaultBody []groovy.Stmt
	for _, c := range st.Cases {
		if c.Value == nil {
			defaultBody = c.Body
			continue
		}
		eq := &groovy.BinaryExpr{Op: groovy.EQ, L: st.Tag, R: c.Value, Pos: c.Pos}
		taken, notTaken := x.branch(eq, fall)
		if taken != nil {
			blk := &groovy.Block{Stmts: c.Body, Pos: c.Pos}
			out = append(out, x.execBlock(blk, []*pstate{taken})...)
		}
		if notTaken == nil {
			matchedAll = true
			break
		}
		fall = notTaken
	}
	if !matchedAll {
		if defaultBody != nil {
			blk := &groovy.Block{Stmts: defaultBody}
			out = append(out, x.execBlock(blk, []*pstate{fall})...)
		} else {
			out = append(out, fall)
		}
	}
	return out
}

// branch evaluates a condition on p, returning the taken/not-taken
// path states (nil when that polarity is infeasible or decided away).
func (x *executor) branch(cond groovy.Expr, p *pstate) (taken, notTaken *pstate) {
	v := x.evalPure(cond, p)
	if v.Kind == KBool {
		if v.Bool {
			return p, nil
		}
		return nil, p
	}
	ct := x.condOf(cond, false, p)
	cf := x.condOf(cond, true, p)
	tp := p.clone()
	tp.guard = tp.guard.And(ct)
	fp := p
	fp.guard = fp.guard.And(cf)
	if !pathcond.Feasible(tp.guard) {
		tp = nil
	}
	if !pathcond.Feasible(fp.guard) {
		fp = nil
	}
	return tp, fp
}
