// Package magic implements the generalized magic-sets transformation:
// goal-directed rewriting of a Datalog program for a query with a given
// binding pattern, so that bottom-up evaluation only derives facts
// relevant to the query. This is the classical optimization setting the
// paper's containment problems come from (cf. [BR86, RSUV93]): the
// rewritten program is *equivalent to the original with respect to the
// query*, and deciding such equivalences is what the rest of this
// library is about.
//
// The transformation uses left-to-right sideways information passing:
// rules are adorned by propagating bound arguments through the body,
// magic predicates collect the bindings each IDB subgoal is called
// with, and every adorned rule is guarded by its magic filter.
package magic

import (
	"fmt"
	"strings"

	"datalogeq/internal/ast"
	"datalogeq/internal/database"
	"datalogeq/internal/eval"
)

// Adornment is a binding pattern: one 'b' (bound) or 'f' (free) per
// argument position.
type Adornment string

// Bound reports whether position i is bound.
func (a Adornment) Bound(i int) bool { return a[i] == 'b' }

// AdornmentFor computes the adornment of a query atom: argument
// positions holding constants are bound.
func AdornmentFor(q ast.Atom) Adornment {
	b := make([]byte, len(q.Args))
	for i, t := range q.Args {
		if t.Kind == ast.Const {
			b[i] = 'b'
		} else {
			b[i] = 'f'
		}
	}
	return Adornment(b)
}

func adornedName(pred string, a Adornment) string {
	if len(a) == 0 {
		return pred
	}
	return pred + "_" + string(a)
}

func magicName(pred string, a Adornment) string {
	return "m_" + adornedName(pred, a)
}

// Result is the output of the transformation.
type Result struct {
	// Program is the rewritten program: adorned rules with magic
	// guards, magic rules, and the seed fact.
	Program *ast.Program
	// GoalPred is the adorned goal predicate to query in Program.
	GoalPred string
	// Seed is the magic seed atom derived from the query constants.
	Seed ast.Atom
}

// Transform rewrites prog for the query atom (whose constant positions
// are the bound arguments). The query's predicate must be intensional.
func Transform(prog *ast.Program, query ast.Atom) (*Result, error) {
	res, _, err := transform(prog, query)
	return res, err
}

// job is one (predicate, adornment) pair the rewrite adorns.
type job struct {
	sym ast.PredSym
	ad  Adornment
}

// transform is Transform that also returns every adorned pair, in the
// order the rewrite reached them.
func transform(prog *ast.Program, query ast.Atom) (*Result, []job, error) {
	if err := prog.Validate(); err != nil {
		return nil, nil, err
	}
	sym := query.Sym()
	if !prog.IsIDB(sym) {
		return nil, nil, fmt.Errorf("magic: query predicate %s is not intensional", sym)
	}
	isIDB := prog.IDBPreds()
	goalAd := AdornmentFor(query)

	out := &ast.Program{}
	seen := map[string]bool{}
	var queue []job
	push := func(s ast.PredSym, ad Adornment) {
		k := s.String() + "/" + string(ad)
		if !seen[k] {
			seen[k] = true
			queue = append(queue, job{s, ad})
		}
	}
	push(sym, goalAd)

	for qi := 0; qi < len(queue); qi++ {
		j := queue[qi]
		for _, r := range prog.RulesFor(j.sym) {
			adorned, err := adornRule(r, j.ad, isIDB, push)
			if err != nil {
				return nil, nil, err
			}
			out.Rules = append(out.Rules, adorned...)
		}
	}

	// Seed: the magic fact for the query's bound constants.
	var seedArgs []ast.Term
	for i, t := range query.Args {
		if goalAd.Bound(i) {
			seedArgs = append(seedArgs, t)
		}
	}
	seed := ast.Atom{Pred: magicName(query.Pred, goalAd), Args: seedArgs}
	out.Rules = append(out.Rules, ast.Rule{Head: seed})

	return &Result{
		Program:  out,
		GoalPred: adornedName(query.Pred, goalAd),
		Seed:     seed,
	}, queue, nil
}

// adornRule adorns one rule for the head adornment and emits the
// guarded adorned rule plus one magic rule per IDB subgoal. push
// registers newly needed (predicate, adornment) pairs.
func adornRule(r ast.Rule, headAd Adornment, isIDB map[ast.PredSym]bool, push func(ast.PredSym, Adornment)) ([]ast.Rule, error) {
	// Bound variables: head variables at bound positions.
	bound := map[string]bool{}
	for i, t := range r.Head.Args {
		if headAd.Bound(i) && t.Kind == ast.Var {
			bound[t.Name] = true
		}
	}
	// The magic guard for this rule.
	var guardArgs []ast.Term
	for i, t := range r.Head.Args {
		if headAd.Bound(i) {
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
		subAd := Adornment(ad)
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
	return rules, nil
}

// Answer evaluates the query through the magic-sets rewriting and
// returns the matching tuples of the original query atom. It is
// AnswerOpt with default options.
func Answer(prog *ast.Program, query ast.Atom, db *database.DB) (*database.Relation, eval.Stats, error) {
	return AnswerOpt(prog, query, db, eval.Options{})
}

// AnswerOpt is Answer under explicit evaluation options. The rewritten
// program runs through eval's cost-based planner like any other — magic
// guards are just small relations the cost model naturally orders
// first — so goal-directed filtering and cardinality-driven join
// ordering compose.
func AnswerOpt(prog *ast.Program, query ast.Atom, db *database.DB, opts eval.Options) (*database.Relation, eval.Stats, error) {
	res, err := Transform(prog, query)
	if err != nil {
		return nil, eval.Stats{}, err
	}
	rel, stats, err := eval.Goal(res.Program, db, res.GoalPred, opts)
	if err != nil {
		return nil, stats, err
	}
	// Filter to tuples matching the query constants (bound positions
	// are enforced by magic, but a rule head may bind them otherwise;
	// filter defensively) and consistent with repeated variables. The
	// filter runs on interned rows: query constants are interned once
	// and rows stream out of the relation's slab through a scratch row.
	out := database.NewRelation(len(query.Args))
	qrow := compileQueryRow(query)
	var row database.Row
	for i := 0; i < rel.Len(); i++ {
		row = rel.AppendRowAt(row[:0], i)
		if matchesRow(qrow, row) {
			out.AddRow(row)
		}
	}
	return out, stats, nil
}

// queryArg is one compiled query position: a constant ID to equal, or
// the position of the first occurrence of its variable.
type queryArg struct {
	isConst  bool
	id       uint32
	firstPos int
}

func compileQueryRow(q ast.Atom) []queryArg {
	out := make([]queryArg, len(q.Args))
	first := map[string]int{}
	for i, arg := range q.Args {
		if arg.Kind == ast.Const {
			out[i] = queryArg{isConst: true, id: database.Intern(arg.Name)}
			continue
		}
		p, ok := first[arg.Name]
		if !ok {
			p = i
			first[arg.Name] = i
		}
		out[i] = queryArg{firstPos: p}
	}
	return out
}

func matchesRow(q []queryArg, row database.Row) bool {
	for i, a := range q {
		if a.isConst {
			if row[i] != a.id {
				return false
			}
		} else if row[i] != row[a.firstPos] {
			return false
		}
	}
	return true
}

// Describe renders the transformation compactly for debugging.
func (r *Result) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%% goal: %s, seed: %s\n", r.GoalPred, r.Seed)
	b.WriteString(r.Program.String())
	return b.String()
}
