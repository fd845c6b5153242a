// Package pathcond implements Soteria's custom path-condition checker
// (paper §4.2.1). The paper observes that predicates in IoT apps are
// overwhelmingly simple comparisons between variables and constants
// (x = c, x > c, string equality), so instead of a general SMT solver
// Soteria uses a purpose-built checker: numeric atoms are intersected
// as intervals, string/enum atoms as equality/disequality sets, and a
// path is infeasible exactly when some variable's constraint set
// becomes empty.
package pathcond

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Op is a comparison operator in an atom.
type Op int

// Comparison operators.
const (
	EQ Op = iota
	NE
	LT
	LE
	GT
	GE
)

func (o Op) String() string {
	switch o {
	case EQ:
		return "=="
	case NE:
		return "!="
	case LT:
		return "<"
	case LE:
		return "<="
	case GT:
		return ">"
	case GE:
		return ">="
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// Negate returns the complementary operator (¬(x<c) ≡ x>=c, ...).
func (o Op) Negate() Op {
	switch o {
	case EQ:
		return NE
	case NE:
		return EQ
	case LT:
		return GE
	case LE:
		return GT
	case GT:
		return LE
	case GE:
		return LT
	}
	return o
}

// SourceKind labels where the constant side of a predicate came from
// (paper §4.2.2: predicates are labeled device-state, developer-
// defined, user-defined, or state-variable so that properties can be
// stated precisely).
type SourceKind int

// Source kinds for predicate components.
const (
	DeveloperDefined SourceKind = iota
	UserDefined
	DeviceState
	StateVariable
	UnknownSource
)

func (k SourceKind) String() string {
	switch k {
	case DeveloperDefined:
		return "developer-defined"
	case UserDefined:
		return "user-defined"
	case DeviceState:
		return "device-state"
	case StateVariable:
		return "state-variable"
	}
	return "unknown"
}

// Atom is a single comparison `Var Op rhs`. The right-hand side is a
// numeric constant (IsNum), a string constant, or — for comparisons
// against install-time user inputs and state variables, which have no
// compile-time value — a symbolic name (RHSVar, e.g. "thrshld").
// Var is a canonical string for the compared expression (e.g.
// "power_meter.power", "evt.value", "state.counter").
type Atom struct {
	Var     string
	Op      Op
	Num     float64
	Str     string
	IsNum   bool
	RHSVar  string     // non-empty for symbolic right-hand sides
	VarKind SourceKind // provenance of the variable side
	CmpKind SourceKind // provenance of the constant side
}

// IsSym reports whether the atom compares against a symbolic
// right-hand side.
func (a Atom) IsSym() bool { return a.RHSVar != "" }

func (a Atom) String() string {
	if a.IsSym() {
		return fmt.Sprintf("%s %s %s", a.Var, a.Op, a.RHSVar)
	}
	if a.IsNum {
		return fmt.Sprintf("%s %s %g", a.Var, a.Op, a.Num)
	}
	return fmt.Sprintf("%s %s %q", a.Var, a.Op, a.Str)
}

// Negated returns the logically negated atom.
func (a Atom) Negated() Atom {
	a.Op = a.Op.Negate()
	return a
}

// Cond is a conjunction of atoms plus opaque (unmodeled) terms. True
// is the empty conjunction.
type Cond struct {
	Atoms []Atom
	// Opaque holds formatted predicate terms the checker cannot
	// interpret (calls, boolean flags, compound arithmetic). They are
	// carried for labeling but assumed satisfiable.
	Opaque []string
}

// True returns the trivially-true condition.
func True() Cond { return Cond{} }

// And returns the conjunction of c and d.
func (c Cond) And(d Cond) Cond {
	out := Cond{
		Atoms:  append(append([]Atom{}, c.Atoms...), d.Atoms...),
		Opaque: append(append([]string{}, c.Opaque...), d.Opaque...),
	}
	return out
}

// WithAtom returns c ∧ a.
func (c Cond) WithAtom(a Atom) Cond {
	return Cond{Atoms: append(append([]Atom{}, c.Atoms...), a), Opaque: c.Opaque}
}

// WithOpaque returns c ∧ ⟨opaque term⟩.
func (c Cond) WithOpaque(term string, negated bool) Cond {
	if negated {
		term = "!(" + term + ")"
	}
	return Cond{Atoms: c.Atoms, Opaque: append(append([]string{}, c.Opaque...), term)}
}

// IsTrue reports whether the condition is the empty (trivially true)
// conjunction.
func (c Cond) IsTrue() bool { return len(c.Atoms) == 0 && len(c.Opaque) == 0 }

func (c Cond) String() string {
	if c.IsTrue() {
		return "true"
	}
	parts := make([]string, 0, len(c.Atoms)+len(c.Opaque))
	for _, a := range c.Atoms {
		parts = append(parts, a.String())
	}
	parts = append(parts, c.Opaque...)
	return strings.Join(parts, " && ")
}

// interval is a numeric constraint: an open/closed range plus a
// disequality set.
type interval struct {
	lo, hi         float64
	loOpen, hiOpen bool
	ne             map[float64]bool
}

func newInterval() *interval {
	return &interval{lo: math.Inf(-1), hi: math.Inf(1), ne: map[float64]bool{}}
}

func (iv *interval) apply(op Op, c float64) {
	switch op {
	case EQ:
		if c > iv.lo || (c == iv.lo && !iv.loOpen) {
			iv.lo, iv.loOpen = c, false
		}
		if c < iv.hi || (c == iv.hi && !iv.hiOpen) {
			iv.hi, iv.hiOpen = c, false
		}
		if c < iv.lo || c > iv.hi {
			iv.lo, iv.hi = 1, 0 // force empty
		}
	case NE:
		iv.ne[c] = true
	case LT:
		if c < iv.hi || (c == iv.hi && !iv.hiOpen) {
			iv.hi, iv.hiOpen = c, true
		}
	case LE:
		if c < iv.hi {
			iv.hi, iv.hiOpen = c, false
		}
	case GT:
		if c > iv.lo || (c == iv.lo && !iv.loOpen) {
			iv.lo, iv.loOpen = c, true
		}
	case GE:
		if c > iv.lo {
			iv.lo, iv.loOpen = c, false
		}
	}
}

func (iv *interval) empty() bool {
	if iv.lo > iv.hi {
		return true
	}
	if iv.lo == iv.hi {
		if iv.loOpen || iv.hiOpen {
			return true
		}
		// Point interval excluded by a disequality.
		if iv.ne[iv.lo] {
			return true
		}
	}
	return false
}

// stringSet is a string constraint: a required value and a forbidden
// set.
type stringSet struct {
	eq    string
	hasEq bool
	ne    map[string]bool
}

func (s *stringSet) apply(op Op, v string) bool {
	switch op {
	case EQ:
		if s.hasEq && s.eq != v {
			return false
		}
		if s.ne[v] {
			return false
		}
		s.eq, s.hasEq = v, true
	case NE:
		if s.hasEq && s.eq == v {
			return false
		}
		if s.ne == nil {
			s.ne = map[string]bool{}
		}
		s.ne[v] = true
	default:
		// Ordered string comparison: uninterpreted, assume satisfiable.
	}
	return true
}

// Feasible reports whether the conjunction of atoms can be satisfied.
// Opaque terms are ignored (assumed satisfiable) — exactly the paper's
// over-approximation. This is the "simple custom checker for path
// conditions" of §4.2.1.
func Feasible(c Cond) bool {
	nums := map[string]*interval{}
	strs := map[string]*stringSet{}
	// Symbolic atoms: constrain the difference Var-RHSVar against 0,
	// bucketed per (Var, RHSVar) pair — so x < t ∧ x >= t is caught
	// even though t's value is unknown.
	syms := map[string]*interval{}
	for _, a := range c.Atoms {
		if a.IsSym() {
			k := a.Var + "|" + a.RHSVar
			iv := syms[k]
			if iv == nil {
				iv = newInterval()
				syms[k] = iv
			}
			iv.apply(a.Op, 0)
			if iv.empty() {
				return false
			}
			continue
		}
		if a.IsNum {
			iv := nums[a.Var]
			if iv == nil {
				iv = newInterval()
				nums[a.Var] = iv
			}
			iv.apply(a.Op, a.Num)
			if iv.empty() {
				return false
			}
		} else {
			ss := strs[a.Var]
			if ss == nil {
				ss = &stringSet{}
				strs[a.Var] = ss
			}
			if !ss.apply(a.Op, a.Str) {
				return false
			}
		}
	}
	return true
}

// Implies reports whether c logically implies atom a under the
// checker's fragment: it holds when c ∧ ¬a is infeasible.
func Implies(c Cond, a Atom) bool { return !Feasible(c.WithAtom(a.Negated())) }

// Canonical returns a deterministic rendering with atoms sorted and
// duplicates removed; used to deduplicate path conditions (and to
// guarantee termination of backward walks around loops, whose repeated
// branch atoms collapse to one).
func (c Cond) Canonical() string {
	parts := make([]string, 0, len(c.Atoms)+len(c.Opaque))
	for _, a := range c.Atoms {
		parts = append(parts, a.String())
	}
	parts = append(parts, c.Opaque...)
	sort.Strings(parts)
	uniq := parts[:0]
	for i, p := range parts {
		if i == 0 || parts[i-1] != p {
			uniq = append(uniq, p)
		}
	}
	return strings.Join(uniq, " && ")
}
