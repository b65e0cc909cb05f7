// Package cq implements conjunctive queries and their classical theory
// (paper §2.2): containment mappings (Theorem 2.2, extended to constants
// per Remark 5.14), canonical databases, evaluation, and minimization.
//
// A conjunctive query is represented by a head atom holding the
// distinguished terms and a body of atoms. The head predicate name is
// the query's name; two queries are comparable when their heads have the
// same predicate and arity.
package cq

import (
	"fmt"
	"strings"

	"datalogeq/internal/ast"
	"datalogeq/internal/database"
	"datalogeq/internal/eval"
)

// CQ is a conjunctive query: Head(x̄) :- Body. Distinguished terms are
// the arguments of Head; all other variables are existential.
type CQ struct {
	Head ast.Atom
	Body []ast.Atom
}

// New constructs a conjunctive query.
func New(head ast.Atom, body ...ast.Atom) CQ {
	return CQ{Head: head, Body: body}
}

// Clone returns a deep copy.
func (q CQ) Clone() CQ {
	body := make([]ast.Atom, len(q.Body))
	for i, a := range q.Body {
		body[i] = a.Clone()
	}
	return CQ{Head: q.Head.Clone(), Body: body}
}

// String renders the query as a rule, e.g. "q(X, Y) :- e(X, Z), e(Z, Y).".
func (q CQ) String() string {
	return ast.Rule{Head: q.Head, Body: q.Body}.String()
}

// Vars returns all variable names of the query in order of first
// occurrence (head first).
func (q CQ) Vars() []string {
	out := q.Head.Vars(nil)
	for _, a := range q.Body {
		out = a.Vars(out)
	}
	return out
}

// IsSafe reports whether every head variable occurs in the body.
func (q CQ) IsSafe() bool {
	return ast.Rule{Head: q.Head, Body: q.Body}.IsSafe()
}

// Size returns the number of body atoms.
func (q CQ) Size() int { return len(q.Body) }

// AtomCount returns the total number of argument positions in the body,
// a finer size measure used in blowup experiments.
func (q CQ) AtomCount() int {
	n := 0
	for _, a := range q.Body {
		n += 1 + len(a.Args)
	}
	return n
}

// Apply evaluates the query over db and returns the relation of answer
// tuples. Head variables not occurring in the body range over the active
// domain (consistent with eval's semantics for unsafe rules). The body
// is joined by eval's cost-based planner — the join order follows the
// database's cardinalities, not the textual atom order.
func (q CQ) Apply(db *database.DB) (*database.Relation, error) {
	return q.ApplyOpt(db, eval.Options{})
}

// ApplyOpt is Apply under explicit evaluation options (worker count,
// budget, NoPlanner), for callers threading governance or differential
// configurations through CQ evaluation.
func (q CQ) ApplyOpt(db *database.DB, opts eval.Options) (*database.Relation, error) {
	prog := ast.NewProgram(ast.Rule{Head: q.Head, Body: q.Body})
	rel, _, err := eval.Goal(prog, db, q.Head.Pred, opts)
	return rel, err
}

// Holds reports whether tuple is an answer of q over db.
func (q CQ) Holds(db *database.DB, tuple database.Tuple) (bool, error) {
	rel, err := q.Apply(db)
	if err != nil {
		return false, err
	}
	return rel.Contains(tuple), nil
}

// Rename returns the query with substitution s applied throughout.
func (q CQ) Rename(s ast.Substitution) CQ {
	body := make([]ast.Atom, len(q.Body))
	for i, a := range q.Body {
		body[i] = a.Apply(s)
	}
	return CQ{Head: q.Head.Apply(s), Body: body}
}

// RenameApart renames every variable of q to a fresh name from g.
func (q CQ) RenameApart(g *ast.FreshVarGen) CQ {
	sub := ast.Substitution{}
	for _, v := range q.Vars() {
		sub[v] = ast.V(g.Fresh())
	}
	return q.Rename(sub)
}

// Key returns an exact structural key (sensitive to variable names and
// atom order).
func (q CQ) Key() string {
	var b strings.Builder
	b.WriteString(q.Head.Key())
	for _, a := range q.Body {
		b.WriteString("\x01")
		b.WriteString(a.Key())
	}
	return b.String()
}

// NormalizeKey returns a key that is invariant under consistent variable
// renaming and body-atom reordering for most queries: atoms are sorted by
// a name-insensitive shape, variables renamed by first occurrence, and
// the body sorted again. It is a heuristic deduplication key — distinct
// keys may still denote equivalent queries (use Equivalent for ground
// truth) — but identical queries up to renaming and reordering almost
// always collide, which is what UCQ deduplication needs.
func (q CQ) NormalizeKey() string {
	body := make([]ast.Atom, len(q.Body))
	copy(body, q.Body)
	// First pass: sort by shape ignoring variable names.
	shape := func(a ast.Atom) string {
		var b strings.Builder
		b.WriteString(a.Pred)
		for _, t := range a.Args {
			if t.Kind == ast.Var {
				b.WriteString("\x00v")
			} else {
				b.WriteString("\x00c" + t.Name)
			}
		}
		return b.String()
	}
	sortAtomsBy(body, shape)
	// Rename variables in order of first occurrence (head first).
	sub := ast.Substitution{}
	n := 0
	rename := func(t ast.Term) {
		if t.Kind == ast.Var {
			if _, ok := sub[t.Name]; !ok {
				n++
				sub[t.Name] = ast.V(fmt.Sprintf("_n%d", n))
			}
		}
	}
	for _, t := range q.Head.Args {
		rename(t)
	}
	for _, a := range body {
		for _, t := range a.Args {
			rename(t)
		}
	}
	renamed := CQ{Head: q.Head, Body: body}.Rename(sub)
	ast.SortAtoms(renamed.Body)
	return renamed.Key()
}

func sortAtomsBy(atoms []ast.Atom, key func(ast.Atom) string) {
	keys := make([]string, len(atoms))
	for i, a := range atoms {
		keys[i] = key(a)
	}
	// Insertion sort keyed by keys; n is small and stability is nice.
	for i := 1; i < len(atoms); i++ {
		a, k := atoms[i], keys[i]
		j := i - 1
		for j >= 0 && keys[j] > k {
			atoms[j+1], keys[j+1] = atoms[j], keys[j]
			j--
		}
		atoms[j+1], keys[j+1] = a, k
	}
}
