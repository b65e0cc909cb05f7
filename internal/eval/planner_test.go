package eval_test

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"datalogeq/internal/ast"
	"datalogeq/internal/database"
	"datalogeq/internal/eval"
	"datalogeq/internal/gen"
	"datalogeq/internal/guard"
	"datalogeq/internal/parser"
)

// modeComparable strips the Stats fields that legitimately differ
// between planner-on and planner-off runs: index usage and plan-cache
// counters depend on the chosen join orders. Everything else —
// fixpoint size, round count, firings, budget fact/step accounting —
// must not, because the set of complete matches of a rule body is
// independent of the order its atoms are joined in.
func modeComparable(s eval.Stats) eval.Stats {
	s = statsComparable(s)
	s.IndexHits, s.IndexBuilds, s.IndexAppends = 0, 0, 0
	s.PlanCacheHits, s.PlanCacheMisses, s.PlanReplans = 0, 0, 0
	s.Budget.Plans = 0
	return s
}

// tripComparable renders an error for cross-mode comparison: a
// *guard.LimitError snapshot legitimately differs in the Plans
// dimension (plan constructions depend on the chosen join orders and
// the index builds they trigger), so it is zeroed before rendering.
func tripComparable(err error) string {
	if err == nil {
		return ""
	}
	var le *guard.LimitError
	if errors.As(err, &le) {
		cp := *le
		cp.Usage.Plans = 0
		return cp.Error()
	}
	return err.Error()
}

// assertModesAgree runs the same evaluation with the cost-based
// planner on and off and asserts the observable outcome is identical:
// same database and same mode-comparable Stats on a clean run, same
// normalized trip error and same fact count on a budget trip. (A
// mid-merge Facts trip cuts one task's buffer at an enumeration-order-
// dependent point, so the tripping task's partial contents — but
// nothing else — may differ between join orders.)
func assertModesAgree(t *testing.T, prog *ast.Program, db *database.DB, opts eval.Options) {
	t.Helper()
	opts.NoPlanner = false
	base, baseStats, baseErr := eval.Eval(prog, db, opts)
	opts.NoPlanner = true
	out, stats, err := eval.Eval(prog, db, opts)
	if tripComparable(err) != tripComparable(baseErr) {
		t.Fatalf("planner-off err = %v, planner-on err = %v", err, baseErr)
	}
	if modeComparable(stats) != modeComparable(baseStats) {
		t.Errorf("planner-off stats = %+v, planner-on stats = %+v",
			modeComparable(stats), modeComparable(baseStats))
	}
	if out.FactCount() != base.FactCount() {
		t.Errorf("planner-off facts = %d, planner-on facts = %d", out.FactCount(), base.FactCount())
	}
	if err == nil && out.String() != base.String() {
		t.Errorf("planner-off output differs from planner-on:\n%s\nvs\n%s", out, base)
	}
}

// TestPlannerOffDifferentialTestdata runs every testdata program over
// random databases with the planner on and off, in both semi-naive and
// naive strategies, and additionally pins the planner-off engine's own
// worker-count independence.
func TestPlannerOffDifferentialTestdata(t *testing.T) {
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
			assertModesAgree(t, prog, edbFor(prog, seed, 5, 12), eval.Options{})
			assertModesAgree(t, prog, edbFor(prog, seed, 5, 12), eval.Options{Naive: true})
			assertWorkersAgree(t, prog, edbFor(prog, seed, 5, 12), eval.Options{NoPlanner: true})
		}
	}
}

// TestPlannerOffDifferentialBudgetTrips asserts budget trips land at
// the same point in both modes: same round, same normalized error,
// same fact/step accounting — for fact limits and step limits, and for
// every worker count within the planner-off mode.
func TestPlannerOffDifferentialBudgetTrips(t *testing.T) {
	prog := parser.MustProgram(`
		p(X, Y) :- e(X, Z), p(Z, Y).
		p(X, Y) :- e(X, Y).
	`)
	db := gen.ChainGraph(30)
	for _, limit := range []int64{1, 7, 50, 200} {
		assertModesAgree(t, prog, db, eval.Options{Budget: guard.Budget{MaxFacts: limit}})
		assertWorkersAgree(t, prog, db, eval.Options{Budget: guard.Budget{MaxFacts: limit}, NoPlanner: true})
	}
	for _, limit := range []int64{1, 100, 5000} {
		assertModesAgree(t, prog, db, eval.Options{Budget: guard.Budget{MaxSteps: limit}})
	}
}

// TestPlanCacheStableRounds pins the plan cache's behavior over a long
// fixpoint: transitive closure of a chain runs one delta task per round
// against a store whose shape stabilizes quickly, so almost every round
// hits the cache, replans happen only when the stats epoch moves
// (power-of-two growth crossings of p), and every miss — and only a
// miss — is charged to the budget's Plans dimension.
func TestPlanCacheStableRounds(t *testing.T) {
	prog := parser.MustProgram(`
		p(X, Y) :- e(X, Z), p(Z, Y).
		p(X, Y) :- e(X, Y).
	`)
	_, stats, err := eval.Eval(prog, gen.ChainGraph(120), eval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Round 1 runs two full-store tasks; every later round exactly one
	// delta task.
	total := stats.PlanCacheHits + stats.PlanCacheMisses
	if want := uint64(stats.Iterations) + 1; total != want {
		t.Errorf("hits+misses = %d, want %d (one task per round plus round 1's extra)", total, want)
	}
	// Three plan slots exist (two full-round, one delta), so every miss
	// beyond the first three is a replan at a new epoch.
	if stats.PlanCacheMisses != stats.PlanReplans+3 {
		t.Errorf("misses = %d, replans = %d; want misses == replans + 3 slots",
			stats.PlanCacheMisses, stats.PlanReplans)
	}
	// Stable rounds must reuse cached plans: the store's shape changes
	// O(log derived) times, not once per round.
	if stats.PlanCacheHits < 4*stats.PlanCacheMisses {
		t.Errorf("hit rate too low: %d hits, %d misses over %d rounds",
			stats.PlanCacheHits, stats.PlanCacheMisses, stats.Iterations)
	}
	if got := uint64(stats.Budget.Plans); got != stats.PlanCacheMisses {
		t.Errorf("budget charged %d plans, want one per cache miss (%d)", got, stats.PlanCacheMisses)
	}
}

// TestStarJoinPlannedBeatsFixedOrder is the planner's reason to exist,
// measured structurally rather than by wall clock: on a star join with
// the selective atom textually last, the planned order must touch at
// most half the intermediate rows the fixed left-to-right order does
// (the generator's keys/selKeys ratio makes the true gap ~30x), while
// deriving exactly the same facts.
func TestStarJoinPlannedBeatsFixedOrder(t *testing.T) {
	prog, db := gen.StarJoin(3, 120, 2, 4)
	_, on, exOn, err := eval.EvalExplain(prog, db, eval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, off, exOff, err := eval.EvalExplain(prog, db, eval.Options{NoPlanner: true})
	if err != nil {
		t.Fatal(err)
	}
	if on.Derived != off.Derived || on.Firings != off.Firings {
		t.Fatalf("modes disagree on the fixpoint: derived %d/%d, firings %d/%d",
			on.Derived, off.Derived, on.Firings, off.Firings)
	}
	onRows, offRows := totalActual(exOn), totalActual(exOff)
	if onRows == 0 || offRows < 2*onRows {
		t.Errorf("planned order saves no work: %d rows planned vs %d fixed", onRows, offRows)
	}
	// The chosen join tree must open at the selective atom even though
	// it is textually last.
	txt := exOn.Rules[0].Plans[0].Text
	if i, j := strings.Index(txt, "sel("), strings.Index(txt, "d1("); i < 0 || j < 0 || i > j {
		t.Errorf("planned join tree does not start at the selective atom:\n%s", txt)
	}
}

// totalActual sums the per-step actual row counts over every plan in
// the report — the evaluation's total intermediate-result volume.
func totalActual(ex *eval.Explain) uint64 {
	var n uint64
	for _, re := range ex.Rules {
		for _, pe := range re.Plans {
			for _, v := range pe.Actual {
				n += v
			}
		}
	}
	return n
}

// FuzzPlannedEval fuzzes the planner differential: for any program the
// parser accepts and any random database, planner-off evaluation at 1
// and 4 workers is observably identical to planner-on — same fixpoint,
// same mode-comparable stats, same normalized (possibly budget-trip)
// error.
func FuzzPlannedEval(f *testing.F) {
	files, _ := filepath.Glob(filepath.Join("..", "..", "testdata", "*.dl"))
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src), int64(1))
	}
	f.Add("p(X, Y) :- e(X, Z), p(Z, Y).\np(X, Y) :- e(X, Y).", int64(7))
	f.Add("q(X) :- a(X, Y1), b(X, Y2), s(X).", int64(3))
	f.Fuzz(func(t *testing.T, src string, seed int64) {
		prog, err := parser.ProgramUnvalidated(src)
		if err != nil || prog.Validate() != nil || len(prog.Rules) == 0 {
			return
		}
		db := edbFor(prog, seed, 4, 8)
		base, baseStats, baseErr := eval.Eval(prog, db, eval.Options{Budget: guard.Budget{MaxFacts: 2000}, Workers: 1})
		for _, w := range []int{1, 4} {
			out, stats, err := eval.Eval(prog, db, eval.Options{Budget: guard.Budget{MaxFacts: 2000}, Workers: w, NoPlanner: true})
			if tripComparable(err) != tripComparable(baseErr) {
				t.Fatalf("workers=%d planner-off err = %v, planner-on err = %v", w, err, baseErr)
			}
			if modeComparable(stats) != modeComparable(baseStats) {
				t.Fatalf("workers=%d stats = %+v, want %+v", w, modeComparable(stats), modeComparable(baseStats))
			}
			if out.FactCount() != base.FactCount() {
				t.Fatalf("workers=%d facts = %d, want %d", w, out.FactCount(), base.FactCount())
			}
			if err == nil && out.String() != base.String() {
				t.Fatalf("workers=%d planner-off output differs:\n%s\nvs\n%s", w, out, base)
			}
		}
	})
}
