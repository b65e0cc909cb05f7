package eval_test

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"datalogeq/internal/eval"
	"datalogeq/internal/gen"
	"datalogeq/internal/guard"
	"datalogeq/internal/parser"
)

// transitive is a small recursive program whose fixpoint derives a few
// hundred facts over a chain graph — enough rounds for mid-run faults.
const transitive = `
	p(X, Y) :- e(X, Z), p(Z, Y).
	p(X, Y) :- e(X, Y).
`

// TestEvalBudgetTripDifferential pins the determinism contract of the
// guard layer: a budget trip (real or injected) aborts at the same
// fact, with the same error string, stats, and partial database, for
// every worker count.
func TestEvalBudgetTripDifferential(t *testing.T) {
	prog := parser.MustProgram(transitive)
	db := gen.ChainGraph(25)
	budgets := []guard.Budget{
		{MaxFacts: 17},
		{MaxSteps: 40},
		guard.InjectFault(guard.Budget{}, guard.Facts, 23),
		guard.InjectFault(guard.Budget{}, guard.Steps, 31),
	}
	for _, b := range budgets {
		base, baseStats, baseErr := eval.Eval(prog, db, eval.Options{Budget: b, Workers: 1})
		var le *guard.LimitError
		if !errors.As(baseErr, &le) {
			t.Fatalf("budget %+v: err = %v, want *guard.LimitError", b, baseErr)
		}
		if base == nil {
			t.Fatal("tripped eval must return the partial database")
		}
		for _, w := range []int{2, 8} {
			out, stats, err := eval.Eval(prog, db, eval.Options{Budget: b, Workers: w})
			if err == nil || err.Error() != baseErr.Error() {
				t.Errorf("workers=%d: err = %v, want %v", w, err, baseErr)
			}
			if statsComparable(stats) != statsComparable(baseStats) {
				t.Errorf("workers=%d: stats = %+v, want %+v", w, statsComparable(stats), statsComparable(baseStats))
			}
			if out.String() != base.String() {
				t.Errorf("workers=%d: partial database differs from sequential", w)
			}
		}
	}
}

// TestEvalStatsReportBudgetUsage checks Stats.Budget mirrors the
// evaluation's own counters through the shared accounting path.
func TestEvalStatsReportBudgetUsage(t *testing.T) {
	prog := parser.MustProgram(transitive)
	_, stats, err := eval.Eval(prog, gen.ChainGraph(10), eval.Options{Budget: guard.Budget{MaxFacts: 1 << 20}})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Budget.Facts != int64(stats.Derived) {
		t.Errorf("Budget.Facts = %d, Derived = %d", stats.Budget.Facts, stats.Derived)
	}
	if stats.Budget.Steps != int64(stats.Firings) {
		t.Errorf("Budget.Steps = %d, Firings = %d", stats.Budget.Steps, stats.Firings)
	}
}

// TestEvalWallBudget: an already-expired wall budget aborts the run at
// the first round boundary with a wall LimitError.
func TestEvalWallBudget(t *testing.T) {
	prog := parser.MustProgram(transitive)
	b := guard.Budget{MaxWall: time.Nanosecond}.Started()
	time.Sleep(time.Millisecond)
	_, _, err := eval.Eval(prog, gen.ChainGraph(10), eval.Options{Budget: b})
	var le *guard.LimitError
	if !errors.As(err, &le) || le.Resource != guard.Wall {
		t.Fatalf("err = %v, want wall LimitError", err)
	}
}

// TestEvalInjectedPanicRecovered: a panic fired deep in the merge path
// surfaces as a *guard.PanicError from Eval — never a crash — for every
// worker count.
func TestEvalInjectedPanicRecovered(t *testing.T) {
	prog := parser.MustProgram(transitive)
	db := gen.ChainGraph(15)
	for _, w := range []int{1, 2, 8} {
		b := guard.InjectPanic(guard.Budget{}, guard.Facts, 9)
		_, _, err := eval.Eval(prog, db, eval.Options{Budget: b, Workers: w})
		var pe *guard.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v, want *guard.PanicError", w, err)
		}
		if _, ok := pe.Value.(*guard.InjectedPanic); !ok {
			t.Errorf("workers=%d: panic value = %v", w, pe.Value)
		}
	}
}

// settleGoroutines polls until the goroutine count returns to at most
// the baseline (plus slack for runtime helpers), failing the test if it
// never settles: a worker leak.
func settleGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not settle: %d now vs %d before", runtime.NumGoroutine(), baseline)
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestEvalInjectCancelMidRound exercises cancellation hygiene at an
// exact mid-evaluation point: the run returns ctx.Err() promptly, the
// partial database is still usable, and no goroutines leak.
func TestEvalInjectCancelMidRound(t *testing.T) {
	prog := parser.MustProgram(transitive)
	db := gen.ChainGraph(40)
	for _, w := range []int{1, 2, 8} {
		baseline := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		b := guard.InjectCancel(guard.Budget{}, guard.Facts, 50, cancel)
		out, _, err := eval.Eval(prog, db, eval.Options{Budget: b, Workers: w, Ctx: ctx})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v, want context.Canceled", w, err)
		}
		if out == nil {
			t.Errorf("workers=%d: cancelled eval must return the partial database", w)
		}
		cancel()
		settleGoroutines(t, baseline)
	}
}
