package eval

import (
	"fmt"
	"testing"

	"datalogeq/internal/database"
	"datalogeq/internal/guard"
	"datalogeq/internal/parser"
)

func TestTransitiveClosure(t *testing.T) {
	prog := parser.MustProgram(`
		p(X, Y) :- e(X, Z), p(Z, Y).
		p(X, Y) :- e(X, Y).
	`)
	db := database.MustParse("e(a, b). e(b, c). e(c, d).")
	for _, naive := range []bool{false, true} {
		rel, stats, err := Goal(prog, db, "p", Options{Naive: naive})
		if err != nil {
			t.Fatalf("naive=%v: %v", naive, err)
		}
		want := [][2]string{{"a", "b"}, {"a", "c"}, {"a", "d"}, {"b", "c"}, {"b", "d"}, {"c", "d"}}
		if rel.Len() != len(want) {
			t.Fatalf("naive=%v: got %d tuples, want %d", naive, rel.Len(), len(want))
		}
		for _, w := range want {
			if !rel.Contains(database.Tuple{w[0], w[1]}) {
				t.Errorf("naive=%v: missing %v", naive, w)
			}
		}
		if stats.Iterations < 2 {
			t.Errorf("naive=%v: iterations = %d", naive, stats.Iterations)
		}
	}
}

func TestNaiveSemiNaiveAgreeOnCycle(t *testing.T) {
	prog := parser.MustProgram(`
		p(X, Y) :- e(X, Z), p(Z, Y).
		p(X, Y) :- e(X, Y).
	`)
	db := database.MustParse("e(a, b). e(b, a). e(b, c).")
	a, _, err := Eval(prog, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Eval(prog, db, Options{Naive: true})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Errorf("semi-naive and naive disagree:\n%s\nvs\n%s", a, b)
	}
	// On a cycle {a,b} everything reaches everything in that component.
	for _, pair := range [][2]string{{"a", "a"}, {"b", "b"}, {"a", "c"}} {
		if !a.Contains("p", database.Tuple{pair[0], pair[1]}) {
			t.Errorf("missing p%v", pair)
		}
	}
}

func TestMutualRecursion(t *testing.T) {
	prog := parser.MustProgram(`
		even(X) :- zero(X).
		even(X) :- succ(Y, X), odd(Y).
		odd(X) :- succ(Y, X), even(Y).
	`)
	db := database.MustParse("zero(n0). succ(n0, n1). succ(n1, n2). succ(n2, n3).")
	out, _, err := Eval(prog, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		pred, n string
		want    bool
	}{
		{"even", "n0", true}, {"odd", "n1", true}, {"even", "n2", true},
		{"odd", "n3", true}, {"odd", "n0", false}, {"even", "n1", false},
	} {
		got := out.Contains(c.pred, database.Tuple{c.n})
		if got != c.want {
			t.Errorf("%s(%s) = %v, want %v", c.pred, c.n, got, c.want)
		}
	}
}

func TestEmptyBodyActiveDomain(t *testing.T) {
	// Example 6.2 convention: dist0(x, x) with an empty body holds for
	// every x in the active domain.
	prog := parser.MustProgram(`
		d(X, X).
		d(X, Y) :- e(X, Y).
	`)
	db := database.MustParse("e(a, b).")
	rel, _, err := Goal(prog, db, "d", Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range [][2]string{{"a", "a"}, {"b", "b"}, {"a", "b"}} {
		if !rel.Contains(database.Tuple{w[0], w[1]}) {
			t.Errorf("missing d%v", w)
		}
	}
	if rel.Len() != 3 {
		t.Errorf("Len = %d, want 3", rel.Len())
	}
}

func TestConstantsInRules(t *testing.T) {
	prog := parser.MustProgram(`
		special(X) :- e(a, X).
		hasconst(b).
	`)
	db := database.MustParse("e(a, b). e(c, d).")
	out, _, err := Eval(prog, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Contains("special", database.Tuple{"b"}) {
		t.Error("missing special(b)")
	}
	if out.Contains("special", database.Tuple{"d"}) {
		t.Error("spurious special(d)")
	}
	if !out.Contains("hasconst", database.Tuple{"b"}) {
		t.Error("missing fact rule output")
	}
}

func TestRepeatedVariableInBodyAtom(t *testing.T) {
	prog := parser.MustProgram("loop(X) :- e(X, X).")
	db := database.MustParse("e(a, a). e(a, b).")
	rel, _, err := Goal(prog, db, "loop", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rel.Contains(database.Tuple{"a"}) || rel.Len() != 1 {
		t.Errorf("loop = %v", rel.Tuples())
	}
}

func TestGoalMissingPredicate(t *testing.T) {
	prog := parser.MustProgram("p(X) :- e(X).")
	db := database.New()
	if _, _, err := Goal(prog, db, "zzz", Options{}); err == nil {
		t.Error("missing goal predicate should error")
	}
	rel, _, err := Goal(prog, db, "p", Options{})
	if err != nil || rel.Len() != 0 {
		t.Errorf("empty result expected, got %v, %v", rel, err)
	}
}

func TestMaxFacts(t *testing.T) {
	prog := parser.MustProgram(`
		p(X, Y) :- e(X, Z), p(Z, Y).
		p(X, Y) :- e(X, Y).
	`)
	db := database.New()
	for i := 0; i < 30; i++ {
		db.Add("e", database.Tuple{fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", i+1)})
	}
	_, _, err := Eval(prog, db, Options{Budget: guard.Budget{MaxFacts: 10}})
	if err == nil {
		t.Error("Budget.MaxFacts should abort")
	}
}

func TestSemiNaiveDoesLessWork(t *testing.T) {
	prog := parser.MustProgram(`
		p(X, Y) :- e(X, Z), p(Z, Y).
		p(X, Y) :- e(X, Y).
	`)
	db := database.New()
	for i := 0; i < 40; i++ {
		db.Add("e", database.Tuple{fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", i+1)})
	}
	_, sn, err := Eval(prog, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, nv, err := Eval(prog, db, Options{Naive: true})
	if err != nil {
		t.Fatal(err)
	}
	if sn.Derived != nv.Derived {
		t.Errorf("derived mismatch: %d vs %d", sn.Derived, nv.Derived)
	}
	if sn.Firings >= nv.Firings {
		t.Errorf("semi-naive firings (%d) should be < naive (%d)", sn.Firings, nv.Firings)
	}
}

func TestEDBPreservedInOutput(t *testing.T) {
	prog := parser.MustProgram("p(X) :- e(X).")
	db := database.MustParse("e(a).")
	out, _, err := Eval(prog, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Contains("e", database.Tuple{"a"}) {
		t.Error("EDB fact lost")
	}
	// Input DB untouched.
	if db.Contains("p", database.Tuple{"a"}) {
		t.Error("input database was mutated")
	}
}

func TestUnsafeHeadVariableOverDomain(t *testing.T) {
	// Head variable W not bound by the body ranges over the active
	// domain.
	prog := parser.MustProgram("pair(X, W) :- e(X).")
	db := database.MustParse("e(a). f(b).")
	rel, _, err := Goal(prog, db, "pair", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 2 {
		t.Errorf("Len = %d, want 2 (a×{a,b})", rel.Len())
	}
	if !rel.Contains(database.Tuple{"a", "b"}) {
		t.Error("missing pair(a, b)")
	}
}

func TestSameGeneration(t *testing.T) {
	prog := parser.MustProgram(`
		sg(X, Y) :- flat(X, Y).
		sg(X, Y) :- up(X, U), sg(U, V), down(V, Y).
	`)
	db := database.MustParse(`
		up(a, e). up(b, f).
		flat(e, f).
		down(f, b). down(e, a).
	`)
	rel, _, err := Goal(prog, db, "sg", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rel.Contains(database.Tuple{"e", "f"}) {
		t.Error("missing sg(e, f)")
	}
	if !rel.Contains(database.Tuple{"a", "b"}) {
		t.Error("missing sg(a, b) via up/sg/down")
	}
}
