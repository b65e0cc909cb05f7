package opt_test

import (
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"datalogeq/internal/ast"
	"datalogeq/internal/database"
	"datalogeq/internal/eval"
	"datalogeq/internal/gen"
	"datalogeq/internal/opt"
	"datalogeq/internal/parser"
)

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

// firstGoal picks the deterministic goal for a program: the head
// predicate of its first rule (which every testdata program defines).
func firstGoal(prog *ast.Program) string {
	if len(prog.Rules) == 0 {
		return ""
	}
	return prog.Rules[0].Head.Pred
}

// relEqual compares two possibly-nil relations as sets; nil is empty.
func relEqual(a, b *database.Relation) bool {
	if a == nil || b == nil {
		return (a == nil || a.Len() == 0) && (b == nil || b.Len() == 0)
	}
	return a.Equal(b)
}

// assertOptimizedAgrees evaluates prog and its optimized rewrite (at
// workers 1, 2, and 8) and asserts they compute the same result: the
// same goal relation when a goal is set — goal-directed rewrites may
// prune everything else — and the identical full fixpoint when not.
func assertOptimizedAgrees(t *testing.T, prog *ast.Program, db *database.DB, goal string) {
	t.Helper()
	base, _, err := eval.Eval(prog, db, eval.Options{})
	if err != nil {
		t.Fatalf("unoptimized eval: %v", err)
	}
	optimized, _, err := opt.Optimize(prog, opt.Options{Goal: goal})
	if err != nil {
		t.Fatalf("optimize (goal %q): %v", goal, err)
	}
	for _, w := range []int{1, 2, 8} {
		out, _, err := eval.Eval(optimized, db, eval.Options{Workers: w})
		if err != nil {
			t.Fatalf("optimized eval (goal %q, workers %d): %v", goal, w, err)
		}
		if goal != "" {
			if !relEqual(base.Lookup(goal), out.Lookup(goal)) {
				t.Errorf("goal %q relation differs at workers=%d:\n%s\nvs\n%s", goal, w, base, out)
			}
			continue
		}
		if !base.Equal(out) {
			t.Errorf("fixpoint differs at workers=%d (no goal):\n%s\nvs\n%s", w, base, out)
		}
	}
}

// TestOptimizedDifferentialTestdata is the optimizer's end-to-end
// correctness suite: every testdata program over random databases,
// optimized versus unoptimized, goal-directed and not, at worker
// counts 1, 2, and 8 (run under -race in CI).
func TestOptimizedDifferentialTestdata(t *testing.T) {
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
			assertOptimizedAgrees(t, prog, edbFor(prog, seed, 5, 12), "")
			assertOptimizedAgrees(t, prog, edbFor(prog, seed, 5, 12), firstGoal(prog))
		}
	}
}

// TestOptimizedWorkersBitIdentical pins the determinism contract for
// optimized programs: the database rendering (insertion order
// included) and Stats of the rewrite are identical at every worker
// count.
func TestOptimizedWorkersBitIdentical(t *testing.T) {
	prog := parser.MustProgram(`
		top(X, Y) :- j(X, Y).
		j(X, Y) :- tc(X, Z), tc(Z, Y).
		tc(X, Y) :- e(X, Y).
		tc(X, Y) :- e(X, Z), tc(Z, Y).
	`)
	prog, _, err := opt.Optimize(prog, opt.Options{Goal: "top"})
	if err != nil {
		t.Fatal(err)
	}
	db := gen.ChainGraph(12)
	opts := eval.Options{Workers: 1}
	base, baseStats, err := eval.Eval(prog, db, opts)
	if err != nil {
		t.Fatal(err)
	}
	baseStats.Budget.Wall = 0
	baseStats.InternedConstants = 0
	for _, w := range []int{2, 8} {
		opts.Workers = w
		out, stats, err := eval.Eval(prog, db, opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		stats.Budget.Wall = 0
		stats.InternedConstants = 0
		if out.String() != base.String() {
			t.Errorf("workers=%d: output differs from sequential", w)
		}
		if stats != baseStats {
			t.Errorf("workers=%d: stats = %+v, want %+v", w, stats, baseStats)
		}
	}
}
