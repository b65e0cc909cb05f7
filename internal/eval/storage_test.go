package eval

import (
	"fmt"
	"testing"

	"datalogeq/internal/ast"
	"datalogeq/internal/database"
	"datalogeq/internal/guard"
	"datalogeq/internal/parser"
)

// TestUnsafeHeadRepeatedVariables covers emitHead with a head variable
// repeated across several unbound positions: every assignment picks one
// domain constant per distinct variable, so the repeated positions must
// stay equal.
func TestUnsafeHeadRepeatedVariables(t *testing.T) {
	prog := parser.MustProgram("p(X, X, Y).")
	db := database.MustParse("e(a). e(b).")
	rel, _, err := Goal(prog, db, "p", Options{})
	if err != nil {
		t.Fatal(err)
	}
	// X and Y range over {a, b} independently; X's two positions agree.
	want := [][3]string{
		{"a", "a", "a"}, {"a", "a", "b"}, {"b", "b", "a"}, {"b", "b", "b"},
	}
	if rel.Len() != len(want) {
		t.Fatalf("Len = %d, want %d: %v", rel.Len(), len(want), rel.Tuples())
	}
	for _, w := range want {
		if !rel.Contains(database.Tuple{w[0], w[1], w[2]}) {
			t.Errorf("missing p(%s, %s, %s)", w[0], w[1], w[2])
		}
	}
	if rel.Contains(database.Tuple{"a", "b", "a"}) {
		t.Error("repeated head variable bound to two different constants")
	}
}

// TestWideAtomLinearFallback drives an atom of arity 65 — too wide for
// the 64-bit index mask — through the scanLinear fallback, exercising
// constants, pre-bound variables, and repeated fresh variables on that
// path.
func TestWideAtomLinearFallback(t *testing.T) {
	const arity = 65
	mkArgs := func() []ast.Term {
		args := make([]ast.Term, arity)
		for i := range args {
			args[i] = ast.V(fmt.Sprintf("V%d", i))
		}
		return args
	}
	// Rule 1: w's first two columns carry the same fresh variable and
	// column 2 must be the constant k.
	args1 := mkArgs()
	args1[1] = ast.V("V0")
	args1[2] = ast.C("k")
	// Rule 2: V0 is pre-bound by s(V0) before the wide atom is matched.
	args2 := mkArgs()
	args2[2] = ast.C("k")
	prog := &ast.Program{Rules: []ast.Rule{
		{Head: ast.NewAtom("p", ast.V("V0"), ast.V(fmt.Sprintf("V%d", arity-1))),
			Body: []ast.Atom{{Pred: "w", Args: args1}}},
		{Head: ast.NewAtom("q", ast.V("V0")),
			Body: []ast.Atom{ast.NewAtom("s", ast.V("V0")), {Pred: "w", Args: args2}}},
	}}

	wide := func(first, second, third, last string) database.Tuple {
		tu := make(database.Tuple, arity)
		for i := range tu {
			tu[i] = "f"
		}
		tu[0], tu[1], tu[2], tu[arity-1] = first, second, third, last
		return tu
	}
	db := database.New()
	db.Add("w", wide("a", "a", "k", "z")) // matches rule 1
	db.Add("w", wide("a", "b", "k", "z")) // repeat check fails
	db.Add("w", wide("c", "c", "x", "z")) // constant check fails
	db.Add("s", database.Tuple{"a"})

	out, _, err := Eval(prog, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := out.Lookup("p")
	if p == nil || p.Len() != 1 || !p.Contains(database.Tuple{"a", "z"}) {
		t.Errorf("p = %v, want exactly p(a, z)", p.Tuples())
	}
	// s(a) pre-binds V0; both w rows with first column a and third
	// column k match rule 2, deriving q(a) (deduplicated).
	q := out.Lookup("q")
	if q == nil || q.Len() != 1 || !q.Contains(database.Tuple{"a"}) {
		t.Errorf("q = %v, want exactly q(a)", q.Tuples())
	}
}

// TestMaxFactsAbortsMidRound pins the prompt-abort behavior: a single
// round that would derive 900 facts stops as soon as the bound is
// crossed instead of finishing the round.
func TestMaxFactsAbortsMidRound(t *testing.T) {
	prog := parser.MustProgram("p(X, Y) :- e(X), f(Y).")
	db := database.New()
	for i := 0; i < 30; i++ {
		db.Add("e", database.Tuple{fmt.Sprintf("a%d", i)})
		db.Add("f", database.Tuple{fmt.Sprintf("b%d", i)})
	}
	_, stats, err := Eval(prog, db, Options{Budget: guard.Budget{MaxFacts: 10}})
	if err == nil {
		t.Fatal("Budget.MaxFacts should abort")
	}
	if stats.Derived > 11 {
		t.Errorf("round overshot the bound: derived %d facts, limit 10", stats.Derived)
	}
}

// TestIndexMaintenanceIsIncremental verifies the persistent-index
// contract: the number of full-scan index builds depends only on the
// program's (predicate, column-mask) pairs — not on data size or round
// count — and per-round maintenance is O(new facts).
func TestIndexMaintenanceIsIncremental(t *testing.T) {
	prog := parser.MustProgram(`
		p(X, Y) :- e(X, Z), p(Z, Y).
		p(X, Y) :- e(X, Y).
	`)
	chain := func(n int) *database.DB {
		db := database.New()
		for i := 0; i < n; i++ {
			db.Add("e", database.Tuple{fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", i+1)})
		}
		return db
	}
	_, small, err := Eval(prog, chain(20), Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, large, err := Eval(prog, chain(60), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if small.IndexBuilds != large.IndexBuilds {
		t.Errorf("index builds scale with data: %d (n=20) vs %d (n=60)",
			small.IndexBuilds, large.IndexBuilds)
	}
	if large.IndexBuilds == 0 || large.IndexHits == 0 {
		t.Fatalf("expected indexed evaluation, stats = %+v", large)
	}
	if large.Iterations < 10 {
		t.Fatalf("chain(60) should need many rounds, got %d", large.Iterations)
	}
	// Incremental maintenance: at most one posting-list append per
	// derived fact per live index — O(N), never a per-round rebuild.
	maxAppends := uint64(large.Derived) * large.IndexBuilds
	if large.IndexAppends > maxAppends {
		t.Errorf("index appends %d exceed O(N) bound %d", large.IndexAppends, maxAppends)
	}
	if large.SlabBytes == 0 || large.InternedConstants == 0 {
		t.Errorf("storage breakdown missing: %+v", large)
	}
}

// TestStatsIndexBuildsBoundedByMasks checks builds stay bounded by the
// distinct (predicate, mask) pairs even when many rounds run.
func TestStatsIndexBuildsBoundedByMasks(t *testing.T) {
	prog := parser.MustProgram(`
		sg(X, Y) :- flat(X, Y).
		sg(X, Y) :- up(X, U), sg(U, V), down(V, Y).
	`)
	db := database.New()
	for i := 0; i < 12; i++ {
		db.Add("up", database.Tuple{fmt.Sprintf("a%d", i), fmt.Sprintf("a%d", i+1)})
		db.Add("down", database.Tuple{fmt.Sprintf("b%d", i+1), fmt.Sprintf("b%d", i)})
	}
	db.Add("flat", database.Tuple{"a12", "b12"})
	_, stats, err := Eval(prog, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The program mentions at most one mask per (pred, body position):
	// a handful of indexes, regardless of the dozens of rounds.
	if stats.IndexBuilds > 6 {
		t.Errorf("IndexBuilds = %d, want a small program-bounded constant", stats.IndexBuilds)
	}
}

// forestTC builds the EDB of a served transitive closure over chains
// chains of 20 edges: e(cKnI, cKn(I+1)) plus every tc(cKnI, cKnJ), I < J,
// so each chain contributes 20 e rows and 210 tc rows.
func forestTC(chains int) *database.DB {
	db := database.New()
	for k := 0; k < chains; k++ {
		for i := 0; i < 20; i++ {
			db.Add("e", database.Tuple{fmt.Sprintf("c%dn%d", k, i), fmt.Sprintf("c%dn%d", k, i+1)})
			for j := i + 1; j <= 20; j++ {
				db.Add("tc", database.Tuple{fmt.Sprintf("c%dn%d", k, i), fmt.Sprintf("c%dn%d", k, j)})
			}
		}
	}
	return db
}

// TestLookupAllocsIndependentOfDB pins the per-query set-up cost of a
// point lookup: evaluating q(Y) :- tc(c0n0, Y). clones the EDB and
// builds the clone's tc index, and neither may allocate per key or per
// constant. A 1k-row and a 100k-row tc must cost about the same number
// of allocations; a domain scan or a slice per posting list would add
// thousands.
//
// The 1k-row lookup is also pinned absolutely, at 87 allocations. Each
// evaluation's plan cache is one map keyed by compiled rule: rendering
// a fingerprint string per rule, a second map of seen shapes, or a
// caller-side plan memo each costs more, and a map-based dependence
// graph about 17.
func TestLookupAllocsIndependentOfDB(t *testing.T) {
	prog := parser.MustProgram("q(Y) :- tc(c0n0, Y).")
	allocs := func(chains int) float64 {
		db := forestTC(chains)
		if n := db.Lookup("tc").Len(); n != 210*chains {
			t.Fatalf("tc rows = %d, want %d", n, 210*chains)
		}
		return testing.AllocsPerRun(3, func() {
			rel, _, err := Goal(prog, db, "q", Options{Workers: 1})
			if err != nil || rel.Len() != 20 {
				t.Fatalf("q: %v, %d answers, want 20", err, rel.Len())
			}
		})
	}
	small, large := allocs(5), allocs(476) // 1,050 and 99,960 tc rows
	t.Logf("allocs per lookup: %.0f at 1k tc rows, %.0f at 100k", small, large)
	if d := large - small; d >= 100 || d <= -100 {
		t.Errorf("allocs per lookup: %.0f at 1k tc rows, %.0f at 100k; want within 100", small, large)
	}
	if small > 87 {
		t.Errorf("allocs per lookup at 1k tc rows: %.0f, want at most 87", small)
	}
}
