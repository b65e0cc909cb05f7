package core

import (
	"testing"

	"datalogeq/internal/ast"
	"datalogeq/internal/cq"
	"datalogeq/internal/eval"
	"datalogeq/internal/expansion"
	"datalogeq/internal/gen"
	"datalogeq/internal/guard"
	"datalogeq/internal/parser"
	"datalogeq/internal/ucq"
)

func mkCQ(t *testing.T, src string) cq.CQ {
	t.Helper()
	prog, err := parser.Program(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	r := prog.Rules[0]
	return cq.CQ{Head: r.Head, Body: r.Body}
}

// verifyWitness checks that a non-containment witness really separates
// the program from the union: the program derives the witness head on
// the witness's canonical database, and no disjunct contains the witness
// query.
func verifyWitness(t *testing.T, prog *ast.Program, goal string, q ucq.UCQ, w *Witness) {
	t.Helper()
	if w == nil {
		t.Fatal("missing witness")
	}
	if err := w.Tree.IsProofTree(); err != nil {
		t.Errorf("witness is not a proof tree: %v\n%s", err, w.Tree)
	}
	db, head := w.Query.CanonicalDB()
	rel, _, err := eval.Goal(prog, db, goal, eval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rel.Contains(head) {
		t.Errorf("program does not derive witness head on canonical DB\nwitness: %s", w.Query)
	}
	if ucq.CQContainedInUCQ(w.Query, q) {
		t.Errorf("witness query is contained in the union after all: %s", w.Query)
	}
}

func TestContainsUCQTransitiveClosure(t *testing.T) {
	prog := gen.TransitiveClosure()
	// TC is not contained in paths of length <= 3.
	q3 := gen.TCPathsUCQ(3)
	res, err := ContainsUCQ(prog, "p", q3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Contained {
		t.Fatal("TC should not be contained in paths<=3")
	}
	verifyWitness(t, prog, "p", q3, res.Witness)
	// The witness must be a path of length >= 4.
	if res.Witness.Tree.Depth() < 4 {
		t.Errorf("witness depth = %d, want >= 4\n%s", res.Witness.Tree.Depth(), res.Witness.Tree)
	}
	if res.Stats.Letters == 0 || res.Stats.PtreeStates == 0 || res.Stats.ThetaStates == 0 {
		t.Errorf("stats not populated: %+v", res.Stats)
	}
}

func TestContainsUCQExample11(t *testing.T) {
	// Π₁ (trendy) is contained in its 2-disjunct unfolding.
	trendy := gen.Example11Trendy()
	nr := ucq.New(
		mkCQ(t, "buys(X, Y) :- likes(X, Y)."),
		mkCQ(t, "buys(X, Y) :- trendy(X), likes(Z, Y)."),
	)
	res, err := ContainsUCQ(trendy, "buys", nr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Contained {
		t.Errorf("Π₁ should be contained; witness:\n%s", res.Witness.Tree)
	}

	// Π₂ (knows) is not.
	knows := gen.Example11Knows()
	nrK := ucq.New(
		mkCQ(t, "buys(X, Y) :- likes(X, Y)."),
		mkCQ(t, "buys(X, Y) :- knows(X, Z), likes(Z, Y)."),
	)
	res, err = ContainsUCQ(knows, "buys", nrK, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Contained {
		t.Fatal("Π₂ should not be contained")
	}
	verifyWitness(t, knows, "buys", nrK, res.Witness)
}

func TestEquivalentToNonrecursiveExample11(t *testing.T) {
	res, err := EquivalentToNonrecursive(gen.Example11Trendy(), "buys", gen.Example11TrendyNR(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equivalent {
		t.Errorf("Π₁ ≡ NR₁ expected; failure %v", res.Failure)
	}

	res, err = EquivalentToNonrecursive(gen.Example11Knows(), "buys", gen.Example11KnowsNR(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Equivalent {
		t.Fatal("Π₂ ≢ NR₂ expected")
	}
	if res.Failure != RecursiveNotContained {
		t.Errorf("failure direction = %v", res.Failure)
	}
	// The separating database must actually separate the programs.
	tuple, separated, err := CheckOnDB(gen.Example11Knows(), gen.Example11KnowsNR(), "buys", res.SeparatingDB)
	if err != nil {
		t.Fatal(err)
	}
	if !separated {
		t.Error("separating DB does not separate")
	}
	if !tuple.Equal(res.SeparatingTuple) {
		// Any separating tuple is fine, but the reported one must be
		// among them.
		r1, _, _ := eval.Goal(gen.Example11Knows(), res.SeparatingDB, "buys", eval.Options{})
		r2, _, _ := eval.Goal(gen.Example11KnowsNR(), res.SeparatingDB, "buys", eval.Options{})
		if !r1.Contains(res.SeparatingTuple) || r2.Contains(res.SeparatingTuple) {
			t.Errorf("reported separating tuple %v is wrong", res.SeparatingTuple)
		}
	}
}

func TestNonrecursiveNotContainedDirection(t *testing.T) {
	// The nonrecursive side has a disjunct the recursive side misses.
	prog := parser.MustProgram(`
		p(X, Y) :- e(X, Y).
	`)
	nr := parser.MustProgram(`
		p(X, Y) :- e(X, Y).
		p(X, Y) :- f(X, Y).
	`)
	res, err := EquivalentToNonrecursive(prog, "p", nr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Equivalent || res.Failure != NonrecursiveNotContained {
		t.Fatalf("want NonrecursiveNotContained, got %v", res.Failure)
	}
	if res.FailingCQ == nil {
		t.Fatal("missing failing CQ")
	}
	if _, separated, _ := CheckOnDB(nr, prog, "p", res.SeparatingDB); !separated {
		t.Error("separating DB does not separate")
	}
}

func TestCQContainedInProgram(t *testing.T) {
	prog := gen.TransitiveClosure()
	// Every TC expansion is contained in TC.
	for k := 1; k <= 4; k++ {
		ok, err := CQContainedInProgram(gen.TCPathCQ(k), prog, "p")
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Errorf("path-%d should be contained in TC", k)
		}
	}
	// A pure-e path (no b terminator) is not.
	ok, err := CQContainedInProgram(gen.PathCQ("p", 2), prog, "p")
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("e-only path should not be contained in TC")
	}
	// Wrong goal predicate.
	ok, err = CQContainedInProgram(mkCQ(t, "q(X, Y) :- b(X, Y)."), prog, "p")
	if err != nil || ok {
		t.Errorf("wrong-goal query contained: %v %v", ok, err)
	}
}

func TestLinearWordProcedureAgreesOnTC(t *testing.T) {
	prog := gen.TransitiveClosure()
	for k := 1; k <= 3; k++ {
		q := gen.TCPathsUCQ(k)
		tree, err := ContainsUCQ(prog, "p", q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		word, err := ContainsUCQLinear(prog, "p", q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if tree.Contained != word.Contained {
			t.Errorf("k=%d: tree=%v word=%v", k, tree.Contained, word.Contained)
		}
		if !word.Contained {
			verifyWitness(t, prog, "p", q, word.Witness)
		}
	}
}

func TestLinearRequiresPathLinear(t *testing.T) {
	nonlinear := parser.MustProgram(`
		p(X, Y) :- p(X, Z), p(Z, Y).
		p(X, Y) :- e(X, Y).
	`)
	if _, err := ContainsUCQLinear(nonlinear, "p", gen.TCPathsUCQ(1), Options{}); err == nil {
		t.Error("non-path-linear program accepted")
	}
}

func TestContainsUCQNonlinearProgram(t *testing.T) {
	// Nonlinear TC (divide and conquer) is still TC; same containment
	// answers as the linear version.
	nonlinear := parser.MustProgram(`
		p(X, Y) :- p(X, Z), p(Z, Y).
		p(X, Y) :- b(X, Y).
	`)
	// p is contained in "some b-edge exists from X" style query?
	// Use: every p-pair starts with a b-edge out of X.
	q := ucq.New(mkCQ(t, "p(X, Y) :- b(X, Z)."))
	res, err := ContainsUCQ(nonlinear, "p", q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Contained {
		t.Errorf("every proof starts with a b-edge from X; witness:\n%s", res.Witness.Tree)
	}
	// But not in paths<=2 of b.
	q2 := ucq.New(
		mkCQ(t, "p(X, Y) :- b(X, Y)."),
		mkCQ(t, "p(X, Y) :- b(X, Z), b(Z, Y)."),
	)
	res, err = ContainsUCQ(nonlinear, "p", q2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Contained {
		t.Fatal("nonlinear TC not contained in b-paths<=2")
	}
	verifyWitness(t, nonlinear, "p", q2, res.Witness)
}

func TestContainsUCQWithConstants(t *testing.T) {
	prog := parser.MustProgram(`
		p(X) :- e(X, a), p(X).
		p(X) :- b(X).
	`)
	// Every expansion contains b(X); containment in "p(X) :- b(X)"
	// holds.
	res, err := ContainsUCQ(prog, "p", ucq.New(mkCQ(t, "p(X) :- b(X).")), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Contained {
		t.Errorf("containment with constants failed; witness:\n%s", res.Witness.Tree)
	}
	// Containment in "p(X) :- e(X, a)" fails (depth-1 proofs have no e
	// atom).
	res, err = ContainsUCQ(prog, "p", ucq.New(mkCQ(t, "p(X) :- e(X, a).")), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Contained {
		t.Fatal("base-rule expansion has no e-atom")
	}
	verifyWitness(t, prog, "p", ucq.New(mkCQ(t, "p(X) :- e(X, a).")), res.Witness)
}

func TestEmptyUCQ(t *testing.T) {
	prog := gen.TransitiveClosure()
	res, err := ContainsUCQ(prog, "p", ucq.New(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Contained {
		t.Fatal("nonempty program contained in empty union")
	}
	verifyWitness(t, prog, "p", ucq.New(), res.Witness)
}

func TestMaxStatesAborts(t *testing.T) {
	prog := gen.TransitiveClosure()
	res, err := ContainsUCQ(prog, "p", gen.TCPathsUCQ(2), Options{Budget: guard.Budget{MaxStates: 3}})
	if err != nil {
		t.Fatalf("budget trips must degrade, not error: %v", err)
	}
	if res.Verdict != Unknown || res.Limit == nil {
		t.Errorf("verdict = %v, limit = %v; want Unknown with a trip", res.Verdict, res.Limit)
	}
	if res.Limit != nil && res.Limit.Resource != guard.States {
		t.Errorf("tripped resource = %v, want states", res.Limit.Resource)
	}
}

// Cross-validate the automata procedures against the brute-force
// proof-tree oracle on Example 1.1-style programs, where bounded depth
// is decisive for refutation.
func TestAgainstBruteForceOracle(t *testing.T) {
	cases := []struct {
		name string
		prog *ast.Program
		goal string
		q    ucq.UCQ
	}{
		{
			name: "trendy-contained",
			prog: gen.Example11Trendy(),
			goal: "buys",
			q: ucq.New(
				mkCQ(t, "buys(X, Y) :- likes(X, Y)."),
				mkCQ(t, "buys(X, Y) :- trendy(X), likes(Z, Y)."),
			),
		},
		{
			name: "knows-not-contained",
			prog: gen.Example11Knows(),
			goal: "buys",
			q: ucq.New(
				mkCQ(t, "buys(X, Y) :- likes(X, Y)."),
				mkCQ(t, "buys(X, Y) :- knows(X, Z), likes(Z, Y)."),
			),
		},
		{
			name: "trendy-missing-disjunct",
			prog: gen.Example11Trendy(),
			goal: "buys",
			q:    ucq.New(mkCQ(t, "buys(X, Y) :- likes(X, Y).")),
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res, err := ContainsUCQ(c.prog, c.goal, c.q, Options{})
			if err != nil {
				t.Fatal(err)
			}
			_, oracleOK := expansion.ContainedInUCQByTrees(c.prog, c.goal, c.q.Disjuncts, 3)
			if !res.Contained && oracleOK {
				// The oracle only refutes up to depth 3; a deeper
				// witness is consistent. Verify the witness instead.
				verifyWitness(t, c.prog, c.goal, c.q, res.Witness)
				return
			}
			if res.Contained != oracleOK {
				t.Errorf("automata=%v oracle=%v", res.Contained, oracleOK)
			}
			if !res.Contained {
				verifyWitness(t, c.prog, c.goal, c.q, res.Witness)
			}
		})
	}
}

func TestUniverseBasics(t *testing.T) {
	u, err := NewUniverse(gen.TransitiveClosure(), "p")
	if err != nil {
		t.Fatal(err)
	}
	if len(u.Terms) != 6 {
		t.Errorf("Terms = %v, want X1..X6", u.Terms)
	}
	roots := u.RootAtoms()
	if len(roots) != 36 {
		t.Errorf("RootAtoms = %d, want 36", len(roots))
	}
	if _, err := NewUniverse(gen.TransitiveClosure(), "nosuch"); err == nil {
		t.Error("missing goal accepted")
	}
}

func TestUniverseWithConstants(t *testing.T) {
	prog := parser.MustProgram(`
		p(X) :- e(X, a), p(X).
		p(X) :- b(X).
	`)
	u, err := NewUniverse(prog, "p")
	if err != nil {
		t.Fatal(err)
	}
	// var(Π) = X1..X6 (3 vars max... recursive rule has X only: 1 var;
	// wait: rule 1 has vars {X}: 1; varnum = 2) plus constant a.
	hasConst := false
	for _, tm := range u.Terms {
		if tm.Kind == ast.Const && tm.Name == "a" {
			hasConst = true
		}
	}
	if !hasConst {
		t.Errorf("Terms should include constant a: %v", u.Terms)
	}
}
