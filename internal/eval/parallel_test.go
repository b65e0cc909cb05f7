package eval_test

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"datalogeq/internal/ast"
	"datalogeq/internal/database"
	"datalogeq/internal/eval"
	"datalogeq/internal/gen"
	"datalogeq/internal/guard"
	"datalogeq/internal/parser"
)

// statsComparable strips the Stats fields that are not functions of
// this evaluation alone: the shared interner only grows, so
// InternedConstants reflects every string any earlier test interned,
// and the budget's wall-clock component is real time.
func statsComparable(s eval.Stats) eval.Stats {
	s.InternedConstants = 0
	s.Budget.Wall = 0
	return s
}

// assertWorkersAgree runs the same evaluation with 1, 2 and 8 workers
// and asserts the outputs are bit-identical: same database rendering
// (which includes insertion order of every relation), same Stats, same
// error. This is the determinism contract of the parallel engine.
func assertWorkersAgree(t *testing.T, prog *ast.Program, db *database.DB, opts eval.Options) {
	t.Helper()
	opts.Workers = 1
	base, baseStats, baseErr := eval.Eval(prog, db, opts)
	for _, w := range []int{2, 8} {
		opts.Workers = w
		out, stats, err := eval.Eval(prog, db, opts)
		if (err == nil) != (baseErr == nil) || (err != nil && err.Error() != baseErr.Error()) {
			t.Fatalf("workers=%d: err = %v, want %v", w, err, baseErr)
		}
		if statsComparable(stats) != statsComparable(baseStats) {
			t.Errorf("workers=%d: stats = %+v, want %+v", w, statsComparable(stats), statsComparable(baseStats))
		}
		if out.String() != base.String() {
			t.Errorf("workers=%d: output differs from sequential:\n%s\nvs\n%s", w, out, base)
		}
	}
}

// edbFor builds a deterministic random database for a program's EDB
// predicates.
func edbFor(prog *ast.Program, seed int64, domain, facts int) *database.DB {
	preds := make(map[string]int)
	var syms []ast.PredSym
	for sym := range prog.EDBPreds() {
		syms = append(syms, sym)
	}
	sort.Slice(syms, func(i, j int) bool {
		if syms[i].Name != syms[j].Name {
			return syms[i].Name < syms[j].Name
		}
		return syms[i].Arity < syms[j].Arity
	})
	for _, sym := range syms {
		if _, ok := preds[sym.Name]; !ok {
			preds[sym.Name] = sym.Arity
		}
	}
	return gen.RandomDB(rand.New(rand.NewSource(seed)), preds, domain, facts)
}

// TestParallelMatchesSequentialTestdata runs every testdata program
// over random databases and checks worker-count independence.
func TestParallelMatchesSequentialTestdata(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.dl"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata programs: %v", err)
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := parser.ProgramUnvalidated(string(src))
		if err != nil || len(prog.Rules) == 0 || prog.Validate() != nil {
			continue // fact files and non-program data
		}
		for seed := int64(0); seed < 3; seed++ {
			assertWorkersAgree(t, prog, edbFor(prog, seed, 5, 12), eval.Options{})
			assertWorkersAgree(t, prog, edbFor(prog, seed, 5, 12), eval.Options{Naive: true})
		}
	}
}

// TestParallelMatchesSequentialUnboundHeads covers the active-domain
// enumeration path (Example 6.2: head variables unbound by the body),
// where firing counts are domain-dependent.
func TestParallelMatchesSequentialUnboundHeads(t *testing.T) {
	prog := parser.MustProgram(`
		dist0(X, X) :- .
		dist(X, Y) :- dist0(X, Y).
		dist(X, Y) :- e(X, Z), dist(Z, Y).
	`)
	db := gen.ChainGraph(6)
	assertWorkersAgree(t, prog, db, eval.Options{})
}

// TestParallelMaxFactsAbort asserts the Budget.MaxFacts abort is enforced at
// the same round and fact count for every worker count: identical
// error, Derived, Iterations, and Firings.
func TestParallelMaxFactsAbort(t *testing.T) {
	prog := parser.MustProgram(`
		p(X, Y) :- e(X, Z), p(Z, Y).
		p(X, Y) :- e(X, Y).
	`)
	db := gen.ChainGraph(30)
	for _, limit := range []int64{1, 7, 50, 200} {
		assertWorkersAgree(t, prog, db, eval.Options{Budget: guard.Budget{MaxFacts: limit}})
	}
}

// TestEvalCancellation exercises Options.Ctx: a cancelled context stops
// evaluation with the context's error.
func TestEvalCancellation(t *testing.T) {
	prog := parser.MustProgram(`
		p(X, Y) :- e(X, Z), p(Z, Y).
		p(X, Y) :- e(X, Y).
	`)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, w := range []int{1, 4} {
		_, _, err := eval.Eval(prog, gen.ChainGraph(10), eval.Options{Ctx: ctx, Workers: w})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v, want context.Canceled", w, err)
		}
	}
	// A deadline either completes the run or aborts it with the
	// deadline error — never anything else.
	tctx, tcancel := context.WithTimeout(context.Background(), 1)
	defer tcancel()
	out, _, err := eval.Eval(prog, gen.ChainGraph(300), eval.Options{Ctx: tctx, Workers: 2})
	if err != nil && !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("timeout eval: err = %v", err)
	}
	if out == nil {
		t.Error("cancelled eval must still return the partial database")
	}
}

// FuzzParallelEval fuzzes the determinism contract: for any program the
// parser accepts and any random database over its EDB predicates,
// evaluation with 4 workers is bit-identical to 1 worker — same
// database, same stats, same (possibly budget-trip) error.
func FuzzParallelEval(f *testing.F) {
	files, _ := filepath.Glob(filepath.Join("..", "..", "testdata", "*.dl"))
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src), int64(1))
	}
	f.Add("p(X, Y) :- e(X, Z), p(Z, Y).\np(X, Y) :- e(X, Y).", int64(7))
	f.Add("d(X, X) :- .\nd(X, Y) :- e(X, Y), d(Y, Z).", int64(3))
	f.Fuzz(func(t *testing.T, src string, seed int64) {
		prog, err := parser.ProgramUnvalidated(src)
		if err != nil || prog.Validate() != nil || len(prog.Rules) == 0 {
			return
		}
		db := edbFor(prog, seed, 4, 8)
		// A fact budget bounds adversarial blowups and simultaneously fuzzes
		// the deterministic-abort path.
		opts := eval.Options{Budget: guard.Budget{MaxFacts: 2000}, Workers: 1}
		base, baseStats, baseErr := eval.Eval(prog, db, opts)
		opts.Workers = 4
		out, stats, err := eval.Eval(prog, db, opts)
		if (err == nil) != (baseErr == nil) || (err != nil && err.Error() != baseErr.Error()) {
			t.Fatalf("err = %v, want %v", err, baseErr)
		}
		if statsComparable(stats) != statsComparable(baseStats) {
			t.Fatalf("stats = %+v, want %+v", statsComparable(stats), statsComparable(baseStats))
		}
		if out.String() != base.String() {
			t.Fatalf("parallel output differs:\n%s\nvs\n%s", out, base)
		}
	})
}
