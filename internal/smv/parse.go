package smv

import (
	"fmt"
	"strings"
)

// VarDecl is one enumerated variable of a parsed module.
type VarDecl struct {
	Name   string
	Values []string
}

// Assign is one equality conjunct of an INIT or TRANS section:
// "name = value" or "next(name) = value".
type Assign struct {
	Var   string
	Next  bool
	Value string
}

// Module is a parsed SMV module in the subset Emit produces: an
// enumerated VAR section, an INIT conjunction, a TRANS disjunction of
// assignment conjunctions, and SPEC lines (kept as raw formula text).
type Module struct {
	Vars  []VarDecl
	Init  []Assign
	Trans [][]Assign
	Specs []string
}

// VarByName returns the declaration of the named variable.
func (m *Module) VarByName(name string) (VarDecl, bool) {
	for _, v := range m.Vars {
		if v.Name == name {
			return v, true
		}
	}
	return VarDecl{}, false
}

// Parse reads a module in the exact subset Emit produces. It is the
// re-parse half of the emitter round-trip used by the conformance
// oracle: Parse(Emit(model, specs)) must succeed and re-emit
// byte-identically. Errors (never panics) on anything outside the
// subset.
func Parse(src string) (*Module, error) {
	p := &mparser{lines: strings.Split(src, "\n")}
	return p.parse()
}

type mparser struct {
	lines []string
	pos   int
}

func (p *mparser) next() (string, bool) {
	if p.pos >= len(p.lines) {
		return "", false
	}
	l := p.lines[p.pos]
	p.pos++
	return l, true
}

func (p *mparser) peek() (string, bool) {
	if p.pos >= len(p.lines) {
		return "", false
	}
	return p.lines[p.pos], true
}

func (p *mparser) parse() (*Module, error) {
	m := &Module{}
	l, ok := p.next()
	if !ok || strings.TrimSpace(l) != "MODULE main" {
		return nil, fmt.Errorf("smv: expected 'MODULE main', got %q", l)
	}
	if l, ok = p.next(); !ok || strings.TrimSpace(l) != "VAR" {
		return nil, fmt.Errorf("smv: expected 'VAR', got %q", l)
	}
	// Variable declarations until a blank line.
	for {
		l, ok = p.peek()
		if !ok {
			return nil, fmt.Errorf("smv: unexpected end of input in VAR section")
		}
		if strings.TrimSpace(l) == "" {
			p.pos++
			break
		}
		p.pos++
		v, err := parseVarDecl(l)
		if err != nil {
			return nil, err
		}
		if _, dup := m.VarByName(v.Name); dup {
			return nil, fmt.Errorf("smv: duplicate variable %s", v.Name)
		}
		m.Vars = append(m.Vars, v)
	}
	if l, ok = p.next(); !ok || strings.TrimSpace(l) != "INIT" {
		return nil, fmt.Errorf("smv: expected 'INIT', got %q", l)
	}
	if l, ok = p.next(); !ok {
		return nil, fmt.Errorf("smv: unexpected end of input in INIT section")
	}
	init, err := parseConjuncts(l)
	if err != nil {
		return nil, fmt.Errorf("smv: INIT: %w", err)
	}
	m.Init = init
	if l, ok = p.next(); !ok || strings.TrimSpace(l) != "" {
		return nil, fmt.Errorf("smv: expected blank line after INIT, got %q", l)
	}
	if l, ok = p.next(); !ok || strings.TrimSpace(l) != "TRANS" {
		return nil, fmt.Errorf("smv: expected 'TRANS', got %q", l)
	}
	// The TRANS section spans lines until a blank line or EOF; each
	// disjunct is parenthesized.
	var transText strings.Builder
	for {
		l, ok = p.peek()
		if !ok || strings.TrimSpace(l) == "" {
			break
		}
		p.pos++
		transText.WriteString(l)
		transText.WriteString("\n")
	}
	trans, err := parseDisjunction(transText.String())
	if err != nil {
		return nil, err
	}
	m.Trans = trans
	// Optional SPEC lines after a blank separator.
	for {
		l, ok = p.next()
		if !ok {
			break
		}
		t := strings.TrimSpace(l)
		if t == "" {
			continue
		}
		if !strings.HasPrefix(t, "SPEC ") {
			return nil, fmt.Errorf("smv: unexpected line %q", l)
		}
		m.Specs = append(m.Specs, strings.TrimPrefix(t, "SPEC "))
	}
	// Semantic checks: every non-stutter assignment names a declared
	// variable and a value in its domain.
	if err := m.validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// validate cross-checks assignments against the declared domains. A
// stutter assignment "next(x) = x" (emitted for empty models) is the
// one form whose right-hand side is a variable rather than a value.
func (m *Module) validate() error {
	check := func(a Assign) error {
		v, ok := m.VarByName(a.Var)
		if !ok {
			return fmt.Errorf("smv: assignment to undeclared variable %s", a.Var)
		}
		if a.Next && a.Value == a.Var {
			return nil // stutter
		}
		for _, val := range v.Values {
			if val == a.Value {
				return nil
			}
		}
		return fmt.Errorf("smv: value %s outside the domain of %s", a.Value, a.Var)
	}
	for _, a := range m.Init {
		if err := check(a); err != nil {
			return err
		}
	}
	for _, conj := range m.Trans {
		for _, a := range conj {
			if err := check(a); err != nil {
				return err
			}
		}
	}
	return nil
}

func parseVarDecl(l string) (VarDecl, error) {
	t := strings.TrimSpace(l)
	if !strings.HasSuffix(t, ";") {
		return VarDecl{}, fmt.Errorf("smv: variable declaration %q missing ';'", l)
	}
	t = strings.TrimSuffix(t, ";")
	name, domain, ok := strings.Cut(t, ":")
	if !ok {
		return VarDecl{}, fmt.Errorf("smv: variable declaration %q missing ':'", l)
	}
	name = strings.TrimSpace(name)
	domain = strings.TrimSpace(domain)
	if name == "" || !isSymbol(name) {
		return VarDecl{}, fmt.Errorf("smv: bad variable name in %q", l)
	}
	if !strings.HasPrefix(domain, "{") || !strings.HasSuffix(domain, "}") {
		return VarDecl{}, fmt.Errorf("smv: domain of %s is not an enumeration", name)
	}
	inner := strings.TrimSuffix(strings.TrimPrefix(domain, "{"), "}")
	var vals []string
	for _, v := range strings.Split(inner, ",") {
		v = strings.TrimSpace(v)
		if v == "" || !isSymbol(v) {
			return VarDecl{}, fmt.Errorf("smv: bad domain value %q for %s", v, name)
		}
		vals = append(vals, v)
	}
	if len(vals) == 0 {
		return VarDecl{}, fmt.Errorf("smv: empty domain for %s", name)
	}
	return VarDecl{Name: name, Values: vals}, nil
}

// parseDisjunction splits a TRANS body into parenthesized conjunct
// groups separated by '|'. The scan counts parenthesis depth so the
// parentheses of next(...) do not end a group.
func parseDisjunction(text string) ([][]Assign, error) {
	var out [][]Assign
	i, n := 0, len(text)
	skipWS := func() {
		for i < n && (text[i] == ' ' || text[i] == '\t' || text[i] == '\n') {
			i++
		}
	}
	for {
		skipWS()
		if i >= n {
			break
		}
		if text[i] != '(' {
			return nil, fmt.Errorf("smv: TRANS disjunct must be parenthesized at %q", text[i:])
		}
		depth, start := 0, i
		for ; i < n; i++ {
			switch text[i] {
			case '(':
				depth++
			case ')':
				depth--
			}
			if depth == 0 {
				break
			}
		}
		if depth != 0 {
			return nil, fmt.Errorf("smv: unbalanced parentheses in TRANS")
		}
		group := text[start+1 : i]
		i++ // closing ')'
		conj, err := parseConjuncts(group)
		if err != nil {
			return nil, fmt.Errorf("smv: TRANS: %w", err)
		}
		out = append(out, conj)
		skipWS()
		if i >= n {
			break
		}
		if text[i] != '|' {
			return nil, fmt.Errorf("smv: expected '|' between TRANS disjuncts at %q", text[i:])
		}
		i++
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("smv: empty TRANS section")
	}
	return out, nil
}

// parseConjuncts parses "a = b & next(c) = d & ...".
func parseConjuncts(text string) ([]Assign, error) {
	var out []Assign
	for _, part := range strings.Split(text, "&") {
		part = strings.TrimSpace(part)
		if part == "" {
			return nil, fmt.Errorf("empty conjunct in %q", text)
		}
		lhs, rhs, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("conjunct %q is not an equality", part)
		}
		lhs, rhs = strings.TrimSpace(lhs), strings.TrimSpace(rhs)
		a := Assign{Var: lhs, Value: rhs}
		if strings.HasPrefix(lhs, "next(") && strings.HasSuffix(lhs, ")") {
			a.Next = true
			a.Var = strings.TrimSuffix(strings.TrimPrefix(lhs, "next("), ")")
		}
		if a.Var == "" || !isSymbol(a.Var) || a.Value == "" || !isSymbol(a.Value) {
			return nil, fmt.Errorf("bad assignment %q", part)
		}
		out = append(out, a)
	}
	return out, nil
}

// isSymbol reports whether s is a sanitized SMV identifier (the
// alphabet symbol() emits).
func isSymbol(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_' {
			continue
		}
		return false
	}
	return s != ""
}

// Emit renders the parsed module back to text. For any module
// produced by Parse on emitter output, the result is byte-identical
// to the original — the idempotence half of the round-trip oracle.
func (m *Module) Emit() string {
	var sb strings.Builder
	sb.WriteString("MODULE main\n")
	sb.WriteString("VAR\n")
	for _, v := range m.Vars {
		fmt.Fprintf(&sb, "  %s : {%s};\n", v.Name, strings.Join(v.Values, ", "))
	}
	sb.WriteString("\nINIT\n  ")
	sb.WriteString(renderConjuncts(m.Init))
	sb.WriteString("\n")
	sb.WriteString("\nTRANS\n")
	var disj []string
	for _, conj := range m.Trans {
		disj = append(disj, "  ("+renderConjuncts(conj)+")")
	}
	sb.WriteString(strings.Join(disj, " |\n"))
	sb.WriteString("\n")
	if len(m.Specs) > 0 {
		sb.WriteString("\n")
		for _, s := range m.Specs {
			fmt.Fprintf(&sb, "SPEC %s\n", s)
		}
	}
	return sb.String()
}

func renderConjuncts(as []Assign) string {
	parts := make([]string, len(as))
	for i, a := range as {
		lhs := a.Var
		if a.Next {
			lhs = "next(" + a.Var + ")"
		}
		parts[i] = lhs + " = " + a.Value
	}
	return strings.Join(parts, " & ")
}
