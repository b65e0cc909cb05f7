package eval_test

import (
	"strings"
	"testing"

	"datalogeq/internal/database"
	"datalogeq/internal/eval"
	"datalogeq/internal/gen"
	"datalogeq/internal/parser"
)

// TestEvalExplainMatchesEval: the instrumented entry point must return
// exactly what Eval returns — the per-step counters ride inside the
// workers' existing buffers and change nothing observable.
func TestEvalExplainMatchesEval(t *testing.T) {
	prog := parser.MustProgram(`
		p(X, Y) :- e(X, Z), p(Z, Y).
		p(X, Y) :- e(X, Y).
	`)
	db := gen.ChainGraph(12)
	base, baseStats, err := eval.Eval(prog, db, eval.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	out, stats, ex, err := eval.EvalExplain(prog, db, eval.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != base.String() {
		t.Error("EvalExplain database differs from Eval's")
	}
	if statsComparable(stats) != statsComparable(baseStats) {
		t.Errorf("EvalExplain stats = %+v, want %+v", statsComparable(stats), statsComparable(baseStats))
	}
	if ex == nil || len(ex.Rules) != 2 {
		t.Fatalf("explain reports %d rules, want 2", len(ex.Rules))
	}
}

// TestEvalExplainRendering: the report names the delta position, the
// access paths, and the plan-cache totals, using source variable names.
func TestEvalExplainRendering(t *testing.T) {
	prog := parser.MustProgram(`
		p(X, Y) :- e(X, Z), p(Z, Y).
		p(X, Y) :- e(X, Y).
	`)
	_, _, ex, err := eval.EvalExplain(prog, gen.ChainGraph(12), eval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := ex.String()
	for _, want := range []string{
		"p(X, Y) :- e(X, Z), p(Z, Y).", // rule source text
		"delta at body atom 2",         // semi-naive window position
		"Δp(",                          // delta atom marked in the tree
		"probe",                        // index access path
		"est ",                         // cost-model estimate
		"act ",                         // actual rows
		"plan cache:",                  // cache totals footer
	} {
		if !strings.Contains(out, want) {
			t.Errorf("explain rendering lacks %q:\n%s", want, out)
		}
	}
}

// TestEvalExplainFixedMode: planner-off plans are flagged in the
// report, so a differential reader can tell the modes apart.
func TestEvalExplainFixedMode(t *testing.T) {
	prog := parser.MustProgram(`p(X, Y) :- e(X, Y).`)
	_, _, ex, err := eval.EvalExplain(prog, gen.ChainGraph(5), eval.Options{NoPlanner: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ex.String(), "fixed order") {
		t.Errorf("fixed-order plan not flagged:\n%s", ex.String())
	}
}

// TestEvalExplainSameShapeRules: two rules with the same body shape get
// plans of their own, so each keeps its own report entry and task
// count, and rules in different strata share no replan count.
func TestEvalExplainSameShapeRules(t *testing.T) {
	facts := database.MustParse("e(a, b). e(b, c).")
	prog := parser.MustProgram(`
		p(X) :- e(X, Y).
		p(X) :- q(X).
		q(X) :- e(X, Y).
		q(X) :- p(X).
	`)
	_, _, ex, err := eval.EvalExplain(prog, facts, eval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tasks := make(map[string]int)
	for _, re := range ex.Rules {
		for _, pe := range re.Plans {
			tasks[re.Rule] += pe.Tasks
		}
	}
	for _, r := range []string{"p(X) :- e(X, Y).", "q(X) :- e(X, Y)."} {
		if tasks[r] != 1 {
			t.Errorf("%s ran %d task(s) in the report, want 1:\n%s", r, tasks[r], ex)
		}
	}
	if len(ex.Rules) != 4 {
		t.Errorf("report has %d rules, want 4:\n%s", len(ex.Rules), ex)
	}

	prog = parser.MustProgram(`
		p(X) :- e(X, Y).
		q(X) :- e(X, Y).
	`)
	_, _, ex, err = eval.EvalExplain(prog, facts, eval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ex.PlanCacheMisses != 2 || ex.PlanReplans != 0 {
		t.Errorf("plan cache: %d misses, %d replans; want 2 misses, 0 replans", ex.PlanCacheMisses, ex.PlanReplans)
	}
}
