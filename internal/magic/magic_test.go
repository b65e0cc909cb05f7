package magic

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"datalogeq/internal/ast"
	"datalogeq/internal/database"
	"datalogeq/internal/eval"
	"datalogeq/internal/gen"
	"datalogeq/internal/parser"
)

// withGoal returns prog plus the goal rules in src.
func withGoal(prog *ast.Program, src string) *ast.Program {
	out := prog.Clone()
	out.Rules = append(out.Rules, parser.MustProgram(src).Rules...)
	return out
}

// rewriteAgrees asks Rewrite for prog's goal r over db, requires it to
// fire, and checks that the rewrite answers exactly what prog as sent
// answers. It returns both evaluations' stats.
func rewriteAgrees(t *testing.T, prog *ast.Program, db *database.DB) (rewritten, sent eval.Stats) {
	t.Helper()
	mr := Rewrite(prog, "r", db)
	if mr == nil {
		t.Fatalf("Rewrite turned away\n%s", prog)
	}
	got, rewritten, err := eval.Goal(mr.Program, db, mr.GoalPred, eval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, sent, err := eval.Goal(prog, db, "r", eval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Errorf("rewrite %v vs as sent %v", got.Tuples(), want.Tuples())
	}
	if want.Len() == 0 {
		t.Fatal("test vacuous")
	}
	return rewritten, sent
}

// TestRewriteAdornsBoundSubgoal pins the rewrite's shape: the goal is
// adorned all-free with a 0-ary seed, and the goal rule's constant
// binds the recursive subgoal.
func TestRewriteAdornsBoundSubgoal(t *testing.T) {
	prog := withGoal(gen.TransitiveClosure(), "r(X) :- p(a, X).")
	mr := Rewrite(prog, "r", database.New())
	if mr == nil {
		t.Fatal("Rewrite turned away")
	}
	want := parser.MustProgram(`
		m_p_bf(a) :- m_r_f.
		r_f(X) :- m_r_f, p_bf(a, X).
		m_p_bf(Z) :- m_p_bf(X), e(X, Z).
		p_bf(X, Y) :- m_p_bf(X), e(X, Z), p_bf(Z, Y).
		p_bf(X, Y) :- m_p_bf(X), b(X, Y).
		m_r_f.
	`)
	if mr.GoalPred != "r_f" || mr.Program.String() != want.String() {
		t.Errorf("goal %s, rewrite:\n%s\nwant:\n%s", mr.GoalPred, mr.Program, want)
	}
}

func TestMagicTransitiveClosure(t *testing.T) {
	prog := withGoal(gen.TransitiveClosure(), "r(X) :- p(a, X).")
	db := database.MustParse(`
		e(a, b). e(b, c). b(c, d).
		e(x, y). b(y, z).
	`)
	rewriteAgrees(t, prog, db)
}

// Magic evaluation does less work: the z component is never touched
// when querying from a0.
func TestMagicPrunesIrrelevantFacts(t *testing.T) {
	prog := withGoal(gen.TransitiveClosure(), "r(X) :- p(a0, X).")
	db := database.New()
	// A long chain reachable from the query constant, plus a much
	// larger irrelevant component.
	for i := 0; i < 5; i++ {
		db.Add("e", database.Tuple{fmt.Sprintf("a%d", i), fmt.Sprintf("a%d", i+1)})
	}
	db.Add("b", database.Tuple{"a5", "a6"})
	for i := 0; i < 200; i++ {
		db.Add("e", database.Tuple{fmt.Sprintf("z%d", i), fmt.Sprintf("z%d", i+1)})
		db.Add("b", database.Tuple{fmt.Sprintf("z%d", i), fmt.Sprintf("z%d", i+1)})
	}
	rewritten, sent := rewriteAgrees(t, prog, db)
	if rewritten.Derived >= sent.Derived {
		t.Errorf("rewrite derived %d facts, as sent %d; magic should prune",
			rewritten.Derived, sent.Derived)
	}
}

func TestMagicSameGeneration(t *testing.T) {
	prog := parser.MustProgram(`
		sg(X, Y) :- flat(X, Y).
		sg(X, Y) :- up(X, U), sg(U, V), down(V, Y).
		r(X) :- sg(a, X).
	`)
	db := database.MustParse(`
		up(a, e). up(b, f). flat(e, f). flat(g, g).
		down(f, b). down(e, a).
	`)
	rewriteAgrees(t, prog, db)
}

// TestMagicAllFreeQuery: an all-free query would redo the full
// fixpoint plus the magic facts, so it is evaluated as sent.
func TestMagicAllFreeQuery(t *testing.T) {
	turnedAway(t, gen.TransitiveClosure(), "p")
	turnedAway(t, withGoal(gen.TransitiveClosure(), "r(X, Y) :- p(X, Y)."), "r")
}

// TestMagicRepeatedQueryVariable: a repeated goal variable binds
// nothing before evaluation, so the query is evaluated as sent.
func TestMagicRepeatedQueryVariable(t *testing.T) {
	turnedAway(t, withGoal(gen.TransitiveClosure(), "r(X) :- p(X, X)."), "r")
}

// TestTransformRejectsEDBQuery: only a predicate the program defines
// can be rewritten.
func TestTransformRejectsEDBQuery(t *testing.T) {
	prog := withGoal(gen.TransitiveClosure(), "r(X) :- p(a, X).")
	turnedAway(t, prog, "e")
	turnedAway(t, prog, "nope")
}

func turnedAway(t *testing.T, prog *ast.Program, goal string) {
	t.Helper()
	db := database.MustParse("e(a, b). b(b, a). b(c, c).")
	if mr := Rewrite(prog, goal, db); mr != nil {
		t.Errorf("goal %s rewritten:\n%s", goal, mr.Program)
	}
}

// TestServedRewriteShadowingMatters shows why Rewrite's shadowing
// guards, which the served query path relies on, are needed: on these
// live DBs transform's output, evaluated anyway, answers differently
// from the program as sent, and Rewrite turns the program away.
func TestServedRewriteShadowingMatters(t *testing.T) {
	const sg = `sg(X, Y) :- e(P, X), e(P, Y).
sg(X, Y) :- e(P, X), sg(P, Q), e(Q, Y).
`
	const tree = "e(n0, n1). e(n0, n2). e(n1, n3). e(n1, n4). e(n2, n5). b(n1, n2). b(n2, n3). "
	cases := []struct {
		name, live, src string
		// onlyRewritten is answered by the rewrite and not as sent;
		// onlySent the other way round.
		onlyRewritten, onlySent string
	}{
		// A live relation named like an adorned predicate is unioned
		// into the rewrite's derivations.
		{"live sg_bf", "sg_bf(n1, zz).", sg + "r(X) :- sg(n1, X).", "zz", ""},
		// A live relation the program defines is unioned into the
		// program's derivations as sent, but not into its adorned copy.
		{"redefines the served tc", "tc(n1, zz).", "tc(X, Y) :- b(X, Y).\ntc(X, Y) :- b(X, Z), tc(Z, Y).\nr(Y) :- tc(n1, Y).", "", "zz"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			live := database.MustParse(tree + tc.live)
			prog := parser.MustProgram(tc.src)
			if mr := Rewrite(prog, "r", live); mr != nil {
				t.Fatalf("Rewrite accepted a shadowed program:\n%s", mr.Program)
			}
			if Rewrite(prog, "r", database.MustParse(tree)) == nil {
				t.Fatal("Rewrite turns the program away without the shadowing relation; the case does not isolate the guard")
			}
			mr, _ := transform(prog, ast.PredSym{Name: "r", Arity: 1})
			rewritten, _, err := eval.Goal(mr.Program, live, mr.GoalPred, eval.Options{})
			if err != nil {
				t.Fatal(err)
			}
			sent, _, err := eval.Goal(prog, live, "r", eval.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct {
				name     string
				has, not *database.Relation
				fact     string
			}{{"rewrite", rewritten, sent, tc.onlyRewritten}, {"as sent", sent, rewritten, tc.onlySent}} {
				if c.fact == "" {
					continue
				}
				row := database.Tuple{c.fact}
				if !c.has.Contains(row) || c.not.Contains(row) {
					t.Errorf("want r(%s) answered only %s; rewrite %v, as sent %v",
						c.fact, c.name, rewritten.Tuples(), sent.Tuples())
				}
			}
		})
	}
}

// Property: whenever Rewrite fires on a random program with a goal rule
// binding a constant, the rewrite answers exactly what the program as
// sent answers, and it fires on enough of the cases to mean something.
func TestQuickMagicAgreesWithDirect(t *testing.T) {
	preds := map[string]int{"e1": 2, "e2": 2}
	cases, rewrites := 0, 0
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		prog := randProgram(rng)
		db := gen.RandomDB(rng, preds, 4, 6)
		// Goal rule: p or q (whichever the program defines) with a
		// bound first argument.
		pred := []string{"p", "q"}[rng.Intn(2)]
		if !prog.IsIDB(ast.PredSym{Name: pred, Arity: 2}) {
			return true // goal predicate undefined; nothing to check
		}
		prog.Rules = append(prog.Rules, ast.NewRule(ast.NewAtom("r", ast.V("X")),
			ast.NewAtom(pred, ast.C(fmt.Sprintf("c%d", rng.Intn(4))), ast.V("X"))))
		cases++
		mr := Rewrite(prog, "r", db)
		if mr == nil {
			return true
		}
		rewrites++
		got, _, err := eval.Goal(mr.Program, db, mr.GoalPred, eval.Options{})
		if err != nil {
			return false
		}
		want, _, err := eval.Goal(prog, db, "r", eval.Options{})
		if err != nil {
			return false
		}
		return got.Equal(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
	t.Logf("Rewrite fired on %d of %d cases", rewrites, cases)
	if rewrites < cases/4 {
		t.Errorf("Rewrite fired on %d of %d cases; the property is nearly vacuous", rewrites, cases)
	}
}

// randProgram builds a small random safe program with IDB preds p, q
// over EDB e1, e2 (mirrors the eval tests' generator).
func randProgram(rng *rand.Rand) *ast.Program {
	v := func(i int) ast.Term { return ast.V(fmt.Sprintf("V%d", i)) }
	preds := []string{"e1", "e2", "p", "q"}
	prog := &ast.Program{}
	nRules := 2 + rng.Intn(3)
	for r := 0; r < nRules; r++ {
		headPred := []string{"p", "q"}[rng.Intn(2)]
		nBody := 1 + rng.Intn(3)
		var body []ast.Atom
		for i := 0; i < nBody; i++ {
			pred := preds[rng.Intn(len(preds))]
			body = append(body, ast.NewAtom(pred, v(rng.Intn(4)), v(rng.Intn(4))))
		}
		bv := ast.VarsOfAtoms(body)
		head := ast.NewAtom(headPred,
			ast.V(bv[rng.Intn(len(bv))]), ast.V(bv[rng.Intn(len(bv))]))
		prog.Rules = append(prog.Rules, ast.Rule{Head: head, Body: body})
	}
	return prog
}
