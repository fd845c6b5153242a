package bdd

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// ---------------------------------------------------------------------------
// Rename monotonicity (regression: the old kernel silently produced a
// non-canonical BDD on crossing shift maps).

func TestRenameCrossingMappedLevelsPanics(t *testing.T) {
	m := New(4)
	f := m.And(m.Var(0), m.Var(2))
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("crossing rename {0:3, 2:1} did not panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "not monotone") {
			t.Fatalf("unexpected panic value %v", r)
		}
	}()
	// 0→3 and 2→1 swap the order of the two mapped levels: the result
	// could not be reduced and ordered. InternShift must reject it.
	m.Rename(f, map[int]int{0: 3, 2: 1})
}

func TestRenameCrossingUnmappedLevelPanics(t *testing.T) {
	m := New(4)
	f := m.And(m.Var(0), m.Var(1))
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("crossing rename {0:2} over x0∧x1 did not panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "not monotone") {
			t.Fatalf("unexpected panic value %v", r)
		}
	}()
	// The map {0:2} is monotone in isolation (one entry), but over a
	// BDD that also uses the unmapped level 1 it pushes level 0 past
	// level 1 — the per-node check in renameRec must catch it.
	m.Rename(f, map[int]int{0: 2})
}

func TestRenameOutOfRangePanics(t *testing.T) {
	m := New(2)
	defer func() {
		if recover() == nil {
			t.Fatal("rename image outside [0, nvars) did not panic")
		}
	}()
	m.Rename(m.Var(0), map[int]int{0: 5})
}

func TestRenameMonotoneStillWorks(t *testing.T) {
	m := New(6)
	f := m.Or(m.And(m.Var(0), m.Var(2)), m.NVar(4))
	g := m.Rename(f, map[int]int{0: 1, 2: 3, 4: 5})
	want := m.Or(m.And(m.Var(1), m.Var(3)), m.NVar(5))
	if g != want {
		t.Error("monotone rename produced a non-canonical result")
	}
}

// ---------------------------------------------------------------------------
// SatCount saturation (regression: the naive 2^n loop at high variable
// counts; pow2 must saturate to +Inf, not hang or overflow garbage).

func TestSatCountSaturatesAtHighVarCounts(t *testing.T) {
	const nvars = 1100
	m := New(nvars)
	if n := m.SatCount(True); !math.IsInf(n, 1) {
		t.Errorf("SatCount(true) over %d vars = %g, want +Inf", nvars, n)
	}
	if n := m.SatCount(m.Var(0)); !math.IsInf(n, 1) {
		t.Errorf("SatCount(x0) over %d vars = %g, want +Inf", nvars, n)
	}
	if n := m.SatCount(False); n != 0 {
		t.Errorf("SatCount(false) = %g, want 0", n)
	}
	// Constraining enough variables brings the count back into float64
	// range: 2^(1100-100) = 2^1000 is finite.
	f := True
	for v := 0; v < 100; v++ {
		f = m.And(f, m.Var(v))
	}
	if n := m.SatCount(f); n != math.Ldexp(1, 1000) {
		t.Errorf("SatCount(100-var conjunction) = %g, want 2^1000", n)
	}
}

// ---------------------------------------------------------------------------
// Unique-table rehash under adversarial load.

func TestRehashKeepsRefsCanonical(t *testing.T) {
	const bits = 14
	m := New(bits)
	minterm := func(i int) Ref {
		r := True
		for b := 0; b < bits; b++ {
			if i&(1<<b) != 0 {
				r = m.And(r, m.Var(b))
			} else {
				r = m.And(r, m.NVar(b))
			}
		}
		return r
	}
	// Intern a few functions before any serious growth...
	early := []Ref{minterm(0), minterm(1), m.Xor(m.Var(0), m.Var(13))}
	// ...then force thousands of fresh nodes through mk so the unique
	// table rehashes several times over.
	refs := make([]Ref, 0, 2048)
	for i := 0; i < 2048; i++ {
		refs = append(refs, minterm(i))
	}
	st := m.Stats()
	if st.Rehashes < 3 {
		t.Fatalf("expected several rehashes under %d nodes, got %d", st.Nodes, st.Rehashes)
	}
	if st.UniqueLoad > 0.75 {
		t.Errorf("unique table above the 3/4 growth threshold: load %.2f", st.UniqueLoad)
	}
	if st.UniqueCapacity&(st.UniqueCapacity-1) != 0 {
		t.Errorf("unique capacity %d is not a power of two", st.UniqueCapacity)
	}
	// Canonicity must survive every rehash: rebuilding a function
	// interned before the growth returns the identical Ref.
	if minterm(0) != early[0] || minterm(1) != early[1] {
		t.Error("pre-rehash minterm refs no longer canonical")
	}
	if m.Xor(m.Var(0), m.Var(13)) != early[2] {
		t.Error("pre-rehash xor ref no longer canonical")
	}
	for i, r := range refs {
		if minterm(i) != r {
			t.Fatalf("minterm %d re-interned to a different ref after rehash", i)
		}
	}
	// And the functions still mean what they meant.
	assign := make([]bool, bits)
	for b := 0; b < bits; b++ {
		assign[b] = 5&(1<<b) != 0
	}
	if !m.Eval(minterm(5), assign) || m.Eval(minterm(6), assign) {
		t.Error("minterm semantics wrong after rehash")
	}
}

// TestComputedTableEviction drives the lossy direct-mapped tables
// through heavy collision traffic: results must stay correct when
// entries are overwritten, and re-running the same workload must
// reproduce identical canonical refs.
func TestComputedTableEviction(t *testing.T) {
	const bits = 10
	m := New(bits)
	var pool []Ref
	var ops [][3]int // pool indices of each Ite's operands
	build := func() []Ref {
		rng := rand.New(rand.NewSource(42))
		out := make([]Ref, 0, 512)
		pool = []Ref{True, False}
		for v := 0; v < bits; v++ {
			pool = append(pool, m.Var(v))
		}
		ops = ops[:0]
		for i := 0; i < 512; i++ {
			op := [3]int{rng.Intn(len(pool)), rng.Intn(len(pool)), rng.Intn(len(pool))}
			r := m.Ite(pool[op[0]], pool[op[1]], pool[op[2]])
			pool = append(pool, r)
			ops = append(ops, op)
			out = append(out, r)
		}
		return out
	}
	first := build()
	st := m.Stats()
	if st.ITELookups == 0 {
		t.Fatal("no ITE computed-table traffic")
	}
	if st.ITEHits >= st.ITELookups {
		t.Fatalf("hit count %d not below lookup count %d", st.ITEHits, st.ITELookups)
	}
	second := build()
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("op %d: lossy computed table broke canonicity (%d vs %d)", i, first[i], second[i])
		}
	}
	// Semantics: under every assignment a, each built ref must equal
	// Ite's definition f(a) ? g(a) : h(a) over its recorded operands.
	// The operands are earlier refs checked the same way, down to the
	// constants and variables, so this pins every result the lossy
	// cache handed out.
	assign := make([]bool, bits)
	for a := 0; a < 1<<bits; a++ {
		for v := range assign {
			assign[v] = a>>v&1 == 1
		}
		for v := 0; v < bits; v++ {
			if m.Eval(pool[2+v], assign) != assign[v] {
				t.Fatalf("Var(%d) under assignment %0*b = %t", v, bits, a, !assign[v])
			}
		}
		for i, op := range ops {
			want := m.Eval(pool[op[2]], assign)
			if m.Eval(pool[op[0]], assign) {
				want = m.Eval(pool[op[1]], assign)
			}
			if got := m.Eval(first[i], assign); got != want {
				t.Fatalf("op %d: Ite(pool[%d], pool[%d], pool[%d]) under assignment %0*b = %t, want %t",
					i, op[0], op[1], op[2], bits, a, got, want)
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Differential: every operation against truth tables computed directly
// from its definition, on a random workload over 8 variables.

const ttBits = 8

// truthTable holds a function's value under every assignment a, where
// bit v of a is the value of variable v.
type truthTable [1 << ttBits]bool

func ttFrom(fn func(a int) bool) (t truthTable) {
	for a := range t {
		t[a] = fn(a)
	}
	return t
}

// ttExists quantifies the variables in vars one at a time: the result
// holds at a when t holds with v false or with v true.
func ttExists(t truthTable, vars map[int]bool) truthTable {
	for v := range vars {
		u := t
		t = ttFrom(func(a int) bool { return u[a|1<<v] || u[a&^(1<<v)] })
	}
	return t
}

// ttRename substitutes variables: the result at a is t at the
// assignment that gives each mapped variable o the value of a's
// variable shift[o] and leaves unmapped variables as they are.
func ttRename(t truthTable, shift map[int]int) truthTable {
	return ttFrom(func(a int) bool {
		b := a
		for o, n := range shift {
			b = b&^(1<<o) | (a>>n&1)<<o
		}
		return t[b]
	})
}

func TestTruthTableDifferential(t *testing.T) {
	m := New(ttBits)
	rng := rand.New(rand.NewSource(7))

	// check pins r to the function want: equal under every assignment
	// and in SatCount, and — by canonicity — the one Ref for it.
	canon := map[truthTable]Ref{}
	check := func(what string, r Ref, want truthTable) {
		t.Helper()
		assign, count := make([]bool, ttBits), 0.0
		for a, v := range want {
			for b := range assign {
				assign[b] = a&(1<<b) != 0
			}
			if m.Eval(r, assign) != v {
				t.Fatalf("%s: Eval under assignment %0*b = %v, truth table says %v", what, ttBits, a, !v, v)
			}
			if v {
				count++
			}
		}
		if got := m.SatCount(r); got != count {
			t.Fatalf("%s: SatCount = %g, truth table has %g", what, got, count)
		}
		if prev, ok := canon[want]; ok && prev != r {
			t.Fatalf("%s: function already interned as ref %d, got ref %d", what, prev, r)
		}
		canon[want] = r
	}

	type entry struct {
		r  Ref
		tt truthTable
	}
	pool := []entry{{False, truthTable{}}, {True, ttFrom(func(int) bool { return true })}}
	for v := 0; v < ttBits; v++ {
		pool = append(pool, entry{m.Var(v), ttFrom(func(a int) bool { return a&(1<<v) != 0 })})
	}
	ops := []struct {
		name string
		bdd  func(x, y, z Ref) Ref
		tt   func(x, y, z bool) bool
	}{
		{"And", func(x, y, _ Ref) Ref { return m.And(x, y) }, func(x, y, _ bool) bool { return x && y }},
		{"Or", func(x, y, _ Ref) Ref { return m.Or(x, y) }, func(x, y, _ bool) bool { return x || y }},
		{"Xor", func(x, y, _ Ref) Ref { return m.Xor(x, y) }, func(x, y, _ bool) bool { return x != y }},
		{"Not", func(x, _, _ Ref) Ref { return m.Not(x) }, func(x, _, _ bool) bool { return !x }},
		{"Implies", func(x, y, _ Ref) Ref { return m.Implies(x, y) }, func(x, y, _ bool) bool { return !x || y }},
		{"Ite", m.Ite, func(x, y, z bool) bool { return x && y || !x && z }},
	}
	pick := func() entry { return pool[rng.Intn(len(pool))] }
	for i := 0; i < 400; i++ {
		op, x, y, z := ops[rng.Intn(len(ops))], pick(), pick(), pick()
		e := entry{op.bdd(x.r, y.r, z.r), ttFrom(func(a int) bool { return op.tt(x.tt[a], y.tt[a], z.tt[a]) })}
		check(fmt.Sprintf("op %d (%s)", i, op.name), e.r, e.tt)
		pool = append(pool, e)
	}

	// Quantification and (monotone) renaming images of every pool BDD.
	// Two variable sets over the same operand catch a computed table
	// that confuses sets.
	evens, odds, shift := map[int]bool{}, map[int]bool{}, map[int]int{}
	for v := 0; v < ttBits; v += 2 {
		evens[v], odds[v+1], shift[v] = true, true, v+1
	}
	for i, p := range pool {
		q := pick()
		and := ttFrom(func(a int) bool { return p.tt[a] && q.tt[a] })
		check(fmt.Sprintf("Exists(pool[%d], evens)", i), m.Exists(p.r, evens), ttExists(p.tt, evens))
		check(fmt.Sprintf("AndExists(pool[%d], q, evens)", i), m.AndExists(p.r, q.r, evens), ttExists(and, evens))
		// Renaming evens up by one is monotone only over BDDs without
		// odd levels, so rename the odds-projected image.
		po := m.Exists(p.r, odds)
		check(fmt.Sprintf("Exists(pool[%d], odds)", i), po, ttExists(p.tt, odds))
		check(fmt.Sprintf("Rename(pool[%d])", i), m.Rename(po, shift), ttRename(ttExists(p.tt, odds), shift))
	}
}

// ---------------------------------------------------------------------------
// Interning and stats.

func TestInternHandlesAreContentBased(t *testing.T) {
	m := New(6)
	a := m.InternVarSet(map[int]bool{1: true, 3: true})
	b := m.InternVarSet(map[int]bool{3: true, 1: true, 5: false})
	if a != b {
		t.Error("equal variable sets interned to different handles")
	}
	c := m.InternVarSet(map[int]bool{1: true})
	if a == c {
		t.Error("distinct variable sets share a handle")
	}
	s1 := m.InternShift(map[int]int{0: 1, 2: 3})
	s2 := m.InternShift(map[int]int{2: 3, 0: 1})
	if s1 != s2 {
		t.Error("equal shift maps interned to different handles")
	}
}

func TestStatsCountersMoveAndOpCacheHits(t *testing.T) {
	m := New(8)
	f := m.Xor(m.Var(0), m.Var(2))
	vs := m.InternVarSet(map[int]bool{0: true})
	r1 := m.ExistsSet(f, vs)
	before := m.Stats()
	r2 := m.ExistsSet(f, vs)
	after := m.Stats()
	if r1 != r2 {
		t.Fatal("ExistsSet not deterministic")
	}
	if after.OpHits <= before.OpHits {
		t.Error("repeated ExistsSet on an interned cube did not hit the op cache")
	}
	if after.ITEHitRate < 0 || after.ITEHitRate > 1 || after.OpHitRate < 0 || after.OpHitRate > 1 {
		t.Error("hit rates out of [0,1]")
	}
	if after.Nodes != m.Size() {
		t.Error("Stats.Nodes disagrees with Size()")
	}
}
