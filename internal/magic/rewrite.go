package magic

import (
	"strings"

	"datalogeq/internal/ast"
	"datalogeq/internal/database"
	"datalogeq/internal/eval"
)

// Rewrite returns the magic-sets rewrite of prog for the all-free query
// on goal, or nil when prog should be evaluated as sent. Evaluating the
// rewrite over live and reading its GoalPred relation gives exactly the
// goal relation that evaluating prog over live gives; a partial
// evaluation of the rewrite gives a subset of it.
//
// The rewrite fires only when it makes evaluation goal-directed: the
// rewrite evaluates some recursive predicate, and every recursive
// predicate it evaluates has a bound argument. Otherwise it would redo
// the full fixpoint of that predicate and add the magic facts on top.
// It is also skipped, because it would change the answer or the error
// of the program as sent, when
//   - prog is invalid, or goal is not a predicate prog defines;
//   - a predicate prog defines names a relation of live: evaluation
//     unions the program's derivations with the live facts;
//   - an atom of prog disagrees in arity with live, which evaluation of
//     the program as sent reports;
//   - a name the rewrite introduces (p_bf, m_p_bf, r_f) names a relation
//     of live or a predicate of prog, or two introduced names coincide;
//   - a rewritten rule has a head variable its body leaves unbound: the
//     active domain that variable ranges over could lose constants the
//     rewrite dropped.
//
// A program with no body constant, or with no body atom over a
// predicate it defines, is turned away without allocating.
func Rewrite(prog *ast.Program, goal string, live *database.DB) *Result {
	if !mayBind(prog) || !clearOf(prog, live) || eval.ValidateArities(prog, live) != nil {
		return nil
	}
	sym := ast.PredSym{Name: goal, Arity: prog.GoalArity(goal)}
	if prog.Validate() != nil || !prog.IsIDB(sym) {
		return nil
	}
	res, jobs := transform(prog, sym)
	if !goalDirected(prog, jobs) || !freshNames(prog, jobs, live) {
		return nil
	}
	for _, r := range res.Program.Rules {
		if !r.IsSafe() {
			return nil
		}
	}
	return res
}

// mayBind reports whether prog has a constant in some rule body and a
// body atom over a predicate it defines. Without the first no argument
// of an all-free query is ever bound; without the second prog has no
// recursion.
func mayBind(prog *ast.Program) bool {
	hasConst, hasIDB := false, false
	for _, r := range prog.Rules {
		for _, a := range r.Body {
			for _, t := range a.Args {
				if t.Kind == ast.Const {
					hasConst = true
				}
			}
			if !hasIDB && prog.IsIDB(a.Sym()) {
				hasIDB = true
			}
		}
	}
	return hasConst && hasIDB
}

// clearOf reports whether no predicate prog defines is a relation of
// live.
func clearOf(prog *ast.Program, live *database.DB) bool {
	for _, r := range prog.Rules {
		if live.Lookup(r.Head.Pred) != nil {
			return false
		}
	}
	return true
}

// goalDirected reports whether jobs adorn some recursive predicate of
// prog and give every one they adorn a bound argument.
func goalDirected(prog *ast.Program, jobs []job) bool {
	rec := prog.RecursivePreds()
	directed := false
	for _, j := range jobs {
		if !rec[j.sym] {
			continue
		}
		if !strings.ContainsRune(string(j.ad), 'b') {
			return false
		}
		directed = true
	}
	return directed
}

// freshNames reports whether the adorned and magic names of jobs are
// pairwise distinct, name no relation of live, and name no predicate of
// prog except the one they stand for (a 0-ary predicate keeps its
// name).
func freshNames(prog *ast.Program, jobs []job, live *database.DB) bool {
	used := make(map[string]bool)
	for _, r := range prog.Rules {
		used[r.Head.Pred] = true
		for _, a := range r.Body {
			used[a.Pred] = true
		}
	}
	seen := make(map[string]bool, 2*len(jobs))
	for _, j := range jobs {
		for _, n := range [2]string{adornedName(j.sym.Name, j.ad), magicName(j.sym.Name, j.ad)} {
			if seen[n] || live.Lookup(n) != nil || (n != j.sym.Name && used[n]) {
				return false
			}
			seen[n] = true
		}
	}
	return true
}
