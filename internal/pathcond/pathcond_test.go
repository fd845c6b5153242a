package pathcond

import (
	"testing"
	"testing/quick"
)

func num(v string, op Op, c float64) Atom {
	return Atom{Var: v, Op: op, Num: c, IsNum: true}
}

func str(v string, op Op, s string) Atom {
	return Atom{Var: v, Op: op, Str: s}
}

func TestFeasibleTrivial(t *testing.T) {
	if !Feasible(True()) {
		t.Error("empty condition must be feasible")
	}
}

func TestPaperExampleInfeasible(t *testing.T) {
	// §4.2.1: "if a path goes through two conditional branches and the
	// first branch evaluates x > 1 to true and the second evaluates
	// x < 0 to true, then it is an infeasible path."
	c := True().WithAtom(num("x", GT, 1)).WithAtom(num("x", LT, 0))
	if Feasible(c) {
		t.Error("x>1 && x<0 must be infeasible")
	}
}

func TestNumericIntervals(t *testing.T) {
	cases := []struct {
		atoms []Atom
		want  bool
	}{
		{[]Atom{num("x", GT, 5), num("x", LT, 10)}, true},
		{[]Atom{num("x", GT, 5), num("x", LT, 5)}, false},
		{[]Atom{num("x", GE, 5), num("x", LE, 5)}, true},
		{[]Atom{num("x", GE, 5), num("x", LT, 5)}, false},
		{[]Atom{num("x", EQ, 7), num("x", GT, 5)}, true},
		{[]Atom{num("x", EQ, 7), num("x", GT, 7)}, false},
		{[]Atom{num("x", EQ, 7), num("x", EQ, 8)}, false},
		{[]Atom{num("x", EQ, 7), num("x", NE, 7)}, false},
		{[]Atom{num("x", NE, 7)}, true},
		{[]Atom{num("x", GE, 5), num("x", LE, 5), num("x", NE, 5)}, false},
		{[]Atom{num("x", GT, 50), num("x", LT, 5)}, false}, // thermostat example
		{[]Atom{num("x", GT, 1), num("y", LT, 0)}, true},   // different vars
	}
	for _, c := range cases {
		cond := Cond{Atoms: c.atoms}
		if got := Feasible(cond); got != c.want {
			t.Errorf("Feasible(%s) = %t, want %t", cond, got, c.want)
		}
	}
}

func TestStringConstraints(t *testing.T) {
	cases := []struct {
		atoms []Atom
		want  bool
	}{
		{[]Atom{str("evt.value", EQ, "detected")}, true},
		{[]Atom{str("evt.value", EQ, "detected"), str("evt.value", EQ, "clear")}, false},
		{[]Atom{str("evt.value", EQ, "detected"), str("evt.value", NE, "clear")}, true},
		{[]Atom{str("evt.value", EQ, "detected"), str("evt.value", NE, "detected")}, false},
		{[]Atom{str("evt.value", NE, "detected"), str("evt.value", NE, "clear")}, true},
		{[]Atom{str("evt.value", NE, "detected"), str("evt.value", EQ, "detected")}, false},
	}
	for _, c := range cases {
		cond := Cond{Atoms: c.atoms}
		if got := Feasible(cond); got != c.want {
			t.Errorf("Feasible(%s) = %t, want %t", cond, got, c.want)
		}
	}
}

func TestOpaqueTermsAssumedSatisfiable(t *testing.T) {
	c := True().WithOpaque("location.contactBookEnabled", false)
	if !Feasible(c) {
		t.Error("opaque terms must not make a condition infeasible")
	}
	d := c.WithAtom(num("x", GT, 1)).WithAtom(num("x", LT, 0))
	if Feasible(d) {
		t.Error("atoms still decide feasibility alongside opaque terms")
	}
}

func TestNegate(t *testing.T) {
	pairs := map[Op]Op{EQ: NE, NE: EQ, LT: GE, GE: LT, GT: LE, LE: GT}
	for o, w := range pairs {
		if o.Negate() != w {
			t.Errorf("%s.Negate() = %s, want %s", o, o.Negate(), w)
		}
	}
}

func TestAtomNegatedInvolution(t *testing.T) {
	f := func(opByte uint8, c float64) bool {
		a := num("x", Op(opByte%6), c)
		return a.Negated().Negated() == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: an atom and its negation are never jointly feasible, and
// at least one of them is individually feasible.
func TestAtomAndNegationExclusive(t *testing.T) {
	f := func(opByte uint8, c float64, isNum bool) bool {
		var a Atom
		if isNum {
			a = num("v", Op(opByte%6), c)
		} else {
			a = str("v", Op(opByte%2), "s") // EQ/NE for strings
		}
		both := Cond{Atoms: []Atom{a, a.Negated()}}
		return !Feasible(both) &&
			(Feasible(Cond{Atoms: []Atom{a}}) || Feasible(Cond{Atoms: []Atom{a.Negated()}}))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: feasibility is monotone — adding atoms never turns an
// infeasible condition feasible.
func TestFeasibilityMonotone(t *testing.T) {
	f := func(a, b, c float64) bool {
		base := True().WithAtom(num("x", GT, a)).WithAtom(num("x", LT, b))
		ext := base.WithAtom(num("x", EQ, c))
		if !Feasible(base) && Feasible(ext) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestImplies(t *testing.T) {
	c := True().WithAtom(num("x", GT, 50))
	if !Implies(c, num("x", GT, 10)) {
		t.Error("x>50 should imply x>10")
	}
	if Implies(c, num("x", GT, 60)) {
		t.Error("x>50 should not imply x>60")
	}
	s := True().WithAtom(str("evt.value", EQ, "wet"))
	if !Implies(s, str("evt.value", NE, "dry")) {
		t.Error("evt.value==wet should imply evt.value!=dry")
	}
}

func TestContradicts(t *testing.T) {
	a := True().WithAtom(str("mode", EQ, "home"))
	b := True().WithAtom(str("mode", EQ, "away"))
	if Feasible(a.And(b)) {
		t.Error("mode==home contradicts mode==away")
	}
	if !Feasible(a.And(a)) {
		t.Error("a condition does not contradict itself")
	}
}

func TestCanonicalDeterministic(t *testing.T) {
	c1 := Cond{Atoms: []Atom{num("x", GT, 1), str("m", EQ, "home")}}
	c2 := Cond{Atoms: []Atom{str("m", EQ, "home"), num("x", GT, 1)}}
	if c1.Canonical() != c2.Canonical() {
		t.Errorf("canonical forms differ: %q vs %q", c1.Canonical(), c2.Canonical())
	}
}

func TestCondStringRendering(t *testing.T) {
	c := True().WithAtom(num("power_meter.power", GT, 50))
	if got := c.String(); got != "power_meter.power > 50" {
		t.Errorf("String() = %q", got)
	}
	if True().String() != "true" {
		t.Errorf("true rendering = %q", True().String())
	}
}

func sym(v string, op Op, rhs string) Atom {
	return Atom{Var: v, Op: op, RHSVar: rhs}
}

func TestSymbolicAtoms(t *testing.T) {
	cases := []struct {
		atoms []Atom
		want  bool
	}{
		{[]Atom{sym("battery", LT, "thrshld")}, true},
		{[]Atom{sym("battery", LT, "thrshld"), sym("battery", GE, "thrshld")}, false},
		{[]Atom{sym("battery", LT, "thrshld"), sym("battery", LE, "thrshld")}, true},
		{[]Atom{sym("battery", EQ, "thrshld"), sym("battery", NE, "thrshld")}, false},
		{[]Atom{sym("battery", LT, "thrshld"), sym("battery", GT, "other")}, true},
		{[]Atom{sym("x", GT, "t"), sym("y", LT, "t")}, true},
	}
	for _, c := range cases {
		cond := Cond{Atoms: c.atoms}
		if got := Feasible(cond); got != c.want {
			t.Errorf("Feasible(%s) = %t, want %t", cond, got, c.want)
		}
	}
}

func TestSymbolicAtomNegation(t *testing.T) {
	a := sym("battery", LT, "thrshld")
	if Feasible(Cond{Atoms: []Atom{a, a.Negated()}}) {
		t.Error("symbolic atom and its negation must contradict")
	}
	if !Implies(Cond{Atoms: []Atom{a}}, sym("battery", LE, "thrshld")) {
		t.Error("battery<t should imply battery<=t")
	}
}
