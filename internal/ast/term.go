// Package ast defines the abstract syntax of Datalog programs: terms,
// atoms, Horn rules, and programs, together with the structural analyses
// the rest of the system is built on (dependence graphs, recursion and
// linearity classification, substitutions, and safety checks).
//
// The definitions follow Section 2.1 of Chaudhuri & Vardi, "On the
// Equivalence of Recursive and Nonrecursive Datalog Programs" (JCSS 1997).
// A program is a set of Horn rules; predicates occurring in rule heads are
// intensional (IDB), all others are extensional (EDB); a program is
// nonrecursive when its dependence graph is acyclic.
package ast

import (
	"fmt"
	"sort"
	"strings"
)

// TermKind discriminates the two kinds of Datalog terms.
type TermKind uint8

const (
	// Var is a variable term.
	Var TermKind = iota
	// Const is a constant term.
	Const
)

// Term is a Datalog term: either a variable or a constant. Terms are
// small value types and are compared with ==.
type Term struct {
	Kind TermKind
	Name string
}

// V returns a variable term with the given name.
func V(name string) Term { return Term{Kind: Var, Name: name} }

// C returns a constant term with the given name.
func C(name string) Term { return Term{Kind: Const, Name: name} }

// String renders the term in concrete syntax. Constants whose spelling
// could be mistaken for a variable (leading upper-case letter) are quoted.
func (t Term) String() string {
	if t.Kind == Var {
		return t.Name
	}
	if needsQuote(t.Name) {
		return string(AppendConst(nil, t.Name))
	}
	return t.Name
}

// AppendConst appends the constant name to dst as Term.String renders
// it: bare when it lexes back as the same constant, otherwise quoted
// with backslashes and quotes escaped.
func AppendConst(dst []byte, name string) []byte {
	if !needsQuote(name) {
		return append(dst, name...)
	}
	dst = append(dst, '\'')
	for i := 0; i < len(name); i++ {
		if c := name[i]; c == '\\' || c == '\'' {
			dst = append(dst, '\\', c)
		} else {
			dst = append(dst, c)
		}
	}
	return append(dst, '\'')
}

func needsQuote(s string) bool {
	if s == "" {
		return true
	}
	c := s[0]
	switch {
	case c >= '0' && c <= '9':
		// Digit-initial constants lex as numbers; they must be all
		// digits to survive unquoted.
		for i := 1; i < len(s); i++ {
			if s[i] < '0' || s[i] > '9' {
				return true
			}
		}
		return false
	case c >= 'a' && c <= 'z':
		for i := 1; i < len(s); i++ {
			c := s[i]
			if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_') {
				return true
			}
		}
		return false
	default:
		return true
	}
}

// Substitution maps variable names to terms. Applying a substitution
// leaves variables outside its domain untouched.
type Substitution map[string]Term

// Apply returns the image of t under s.
func (s Substitution) Apply(t Term) Term {
	if t.Kind == Var {
		if img, ok := s[t.Name]; ok {
			return img
		}
	}
	return t
}

// Compose returns the substitution equivalent to applying s first and
// then t. The receiver is not modified.
func (s Substitution) Compose(t Substitution) Substitution {
	out := make(Substitution, len(s)+len(t))
	for v, img := range s {
		out[v] = t.Apply(img)
	}
	for v, img := range t {
		if _, ok := out[v]; !ok {
			out[v] = img
		}
	}
	return out
}

// Clone returns a copy of s.
func (s Substitution) Clone() Substitution {
	out := make(Substitution, len(s))
	for v, img := range s {
		out[v] = img
	}
	return out
}

// String renders the substitution deterministically, e.g. {X->a, Y->Z}.
func (s Substitution) String() string {
	keys := make([]string, 0, len(s))
	for v := range s {
		keys = append(keys, v)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, v := range keys {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s->%s", v, s[v])
	}
	b.WriteByte('}')
	return b.String()
}
