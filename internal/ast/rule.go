package ast

import (
	"fmt"
	"strings"
)

// Rule is a Horn rule head :- body. A rule with an empty body is a
// "true" rule (the convention of Example 6.2 in the paper): its head
// holds for every instantiation of its variables over the active domain.
//
// Pos is the source position of the rule (its head atom) when the rule
// was parsed; it is zero for programmatically built rules and ignored
// by all structural operations.
type Rule struct {
	Head Atom
	Body []Atom
	Pos  Pos
}

// NewRule constructs a rule.
func NewRule(head Atom, body ...Atom) Rule {
	return Rule{Head: head, Body: body}
}

// Clone returns a deep copy of the rule.
func (r Rule) Clone() Rule {
	body := make([]Atom, len(r.Body))
	for i, a := range r.Body {
		body[i] = a.Clone()
	}
	return Rule{Head: r.Head.Clone(), Body: body, Pos: r.Pos}
}

// Apply returns the rule with substitution s applied throughout.
// Source positions are preserved.
func (r Rule) Apply(s Substitution) Rule {
	body := make([]Atom, len(r.Body))
	for i, a := range r.Body {
		body[i] = a.Apply(s)
	}
	return Rule{Head: r.Head.Apply(s), Body: body, Pos: r.Pos}
}

// Vars returns the variable names occurring anywhere in the rule, in
// order of first occurrence (head first).
func (r Rule) Vars() []string {
	out := r.Head.Vars(nil)
	for _, a := range r.Body {
		out = a.Vars(out)
	}
	return out
}

// BodyVars returns the variable names occurring in the body.
func (r Rule) BodyVars() []string {
	var out []string
	for _, a := range r.Body {
		out = a.Vars(out)
	}
	return out
}

// IsFact reports whether the rule has an empty body and a ground head.
func (r Rule) IsFact() bool { return len(r.Body) == 0 && r.Head.IsGround() }

// IsSafe reports whether every head variable occurs in the body. Rules
// with empty bodies and variables in the head are unsafe in the classical
// sense; the evaluator supports them via active-domain semantics, but
// several decision procedures require safety.
func (r Rule) IsSafe() bool {
	bv := r.BodyVars()
	for _, v := range r.Head.Vars(nil) {
		if !containsStr(bv, v) {
			return false
		}
	}
	return true
}

// String renders the rule in concrete syntax, e.g. "p(X, Y) :- e(X, Y)."
// or "q(a)." for a bodiless rule.
func (r Rule) String() string {
	var b strings.Builder
	r.Head.write(&b)
	if len(r.Body) > 0 {
		b.WriteString(" :- ")
		for i, a := range r.Body {
			if i > 0 {
				b.WriteString(", ")
			}
			a.write(&b)
		}
	}
	b.WriteByte('.')
	return b.String()
}

// Key returns a canonical string key for the rule.
func (r Rule) Key() string {
	var b strings.Builder
	b.WriteString(r.Head.Key())
	for _, a := range r.Body {
		b.WriteString("\x01")
		b.WriteString(a.Key())
	}
	return b.String()
}

// RenameApart returns a copy of the rule whose variables are renamed to
// fresh names produced by fresh. Distinct variables stay distinct.
func (r Rule) RenameApart(fresh func(orig string) string) Rule {
	sub := Substitution{}
	for _, v := range r.Vars() {
		sub[v] = V(fresh(v))
	}
	return r.Apply(sub)
}

// IDBAtoms returns the body atoms whose predicate is intensional
// according to isIDB, preserving order, together with their indexes in
// the body.
func (r Rule) IDBAtoms(isIDB func(PredSym) bool) (atoms []Atom, idx []int) {
	for i, a := range r.Body {
		if isIDB(a.Sym()) {
			atoms = append(atoms, a)
			idx = append(idx, i)
		}
	}
	return atoms, idx
}

// EDBAtoms returns the body atoms whose predicate is extensional
// according to isIDB.
func (r Rule) EDBAtoms(isIDB func(PredSym) bool) []Atom {
	var out []Atom
	for _, a := range r.Body {
		if !isIDB(a.Sym()) {
			out = append(out, a)
		}
	}
	return out
}

// FreshVarGen produces fresh variable names V1, V2, ... that avoid a
// given set of reserved names.
type FreshVarGen struct {
	next     int
	reserved map[string]bool
	prefix   string
}

// NewFreshVarGen returns a generator whose names start with prefix and
// never collide with the reserved names.
func NewFreshVarGen(prefix string, reserved ...string) *FreshVarGen {
	g := &FreshVarGen{reserved: make(map[string]bool), prefix: prefix}
	for _, r := range reserved {
		g.reserved[r] = true
	}
	return g
}

// Fresh returns a new variable name not returned before and not reserved.
func (g *FreshVarGen) Fresh() string {
	for {
		g.next++
		name := fmt.Sprintf("%s%d", g.prefix, g.next)
		if !g.reserved[name] {
			g.reserved[name] = true
			return name
		}
	}
}
