// Package magic implements the generalized magic-sets transformation:
// goal-directed rewriting of a Datalog program for its goal predicate,
// so that bottom-up evaluation only derives facts relevant to the goal.
// This is the classical optimization setting the paper's containment
// problems come from (cf. [BR86, RSUV93]): the rewritten program is
// *equivalent to the original with respect to the query*, and deciding
// such equivalences is what the rest of this library is about.
//
// The transformation uses left-to-right sideways information passing:
// rules are adorned by propagating bound arguments through the body,
// magic predicates collect the bindings each IDB subgoal is called
// with, and every adorned rule is guarded by its magic filter. The goal
// itself is adorned all-free; a query constant is written as a goal
// rule (r(X) :- sg(c, X).), whose body binds the recursive predicate.
// Rewrite is the only entry point: it returns the rewrite only when
// evaluating it gives exactly the goal relation of the program as sent.
package magic

import (
	"strings"

	"datalogeq/internal/ast"
)

// adornment is a binding pattern: one 'b' (bound) or 'f' (free) per
// argument position.
type adornment string

// bound reports whether position i is bound.
func (a adornment) bound(i int) bool { return a[i] == 'b' }

func adornedName(pred string, a adornment) string {
	if len(a) == 0 {
		return pred
	}
	return pred + "_" + string(a)
}

func magicName(pred string, a adornment) string {
	return "m_" + adornedName(pred, a)
}

// Result is the output of the transformation.
type Result struct {
	// Program is the rewritten program: adorned rules with magic
	// guards, magic rules, and the seed fact.
	Program *ast.Program
	// GoalPred is the adorned goal predicate to query in Program.
	GoalPred string
}

// job is one (predicate, adornment) pair the rewrite adorns.
type job struct {
	sym ast.PredSym
	ad  adornment
}

// transform rewrites prog for the all-free query on goal, which must be
// a predicate prog defines, and returns every adorned pair in the order
// the rewrite reached them. It checks nothing else: Rewrite decides
// whether the output may stand in for prog.
func transform(prog *ast.Program, goal ast.PredSym) (*Result, []job) {
	isIDB := prog.IDBPreds()
	goalAd := adornment(strings.Repeat("f", goal.Arity))

	out := &ast.Program{}
	seen := map[string]bool{}
	var queue []job
	push := func(s ast.PredSym, ad adornment) {
		k := s.String() + "/" + string(ad)
		if !seen[k] {
			seen[k] = true
			queue = append(queue, job{s, ad})
		}
	}
	push(goal, goalAd)

	for qi := 0; qi < len(queue); qi++ {
		j := queue[qi]
		for _, r := range prog.RulesFor(j.sym) {
			out.Rules = append(out.Rules, adornRule(r, j.ad, isIDB, push)...)
		}
	}

	// Seed: the 0-ary magic fact of the all-free goal.
	out.Rules = append(out.Rules, ast.Rule{Head: ast.Atom{Pred: magicName(goal.Name, goalAd)}})
	return &Result{Program: out, GoalPred: adornedName(goal.Name, goalAd)}, queue
}

// adornRule adorns one rule for the head adornment and emits the
// guarded adorned rule plus one magic rule per IDB subgoal. push
// registers newly needed (predicate, adornment) pairs.
func adornRule(r ast.Rule, headAd adornment, isIDB map[ast.PredSym]bool, push func(ast.PredSym, adornment)) []ast.Rule {
	// Bound variables: head variables at bound positions.
	bound := map[string]bool{}
	for i, t := range r.Head.Args {
		if headAd.bound(i) && t.Kind == ast.Var {
			bound[t.Name] = true
		}
	}
	// The magic guard for this rule.
	var guardArgs []ast.Term
	for i, t := range r.Head.Args {
		if headAd.bound(i) {
			guardArgs = append(guardArgs, t)
		}
	}
	guard := ast.Atom{Pred: magicName(r.Head.Pred, headAd), Args: guardArgs}

	var rules []ast.Rule
	newBody := []ast.Atom{guard}
	for _, a := range r.Body {
		if !isIDB[a.Sym()] {
			newBody = append(newBody, a)
			for _, v := range a.Vars(nil) {
				bound[v] = true
			}
			continue
		}
		// Adorn the IDB subgoal from the currently bound variables.
		ad := make([]byte, len(a.Args))
		var magicArgs []ast.Term
		for i, t := range a.Args {
			if t.Kind == ast.Const || (t.Kind == ast.Var && bound[t.Name]) {
				ad[i] = 'b'
				magicArgs = append(magicArgs, t)
			} else {
				ad[i] = 'f'
			}
		}
		subAd := adornment(ad)
		push(a.Sym(), subAd)
		// Magic rule: the subgoal is called with these bindings
		// whenever the guard and the preceding body hold.
		magicHead := ast.Atom{Pred: magicName(a.Pred, subAd), Args: magicArgs}
		magicBody := make([]ast.Atom, len(newBody))
		copy(magicBody, newBody)
		rules = append(rules, ast.Rule{Head: magicHead, Body: magicBody})
		// Rewrite the subgoal to its adorned predicate and continue;
		// after the call every variable of the subgoal is bound.
		newBody = append(newBody, ast.Atom{Pred: adornedName(a.Pred, subAd), Args: a.Args})
		for _, v := range a.Vars(nil) {
			bound[v] = true
		}
	}
	adornedHead := ast.Atom{Pred: adornedName(r.Head.Pred, headAd), Args: r.Head.Args}
	rules = append(rules, ast.Rule{Head: adornedHead, Body: newBody})
	return rules
}
