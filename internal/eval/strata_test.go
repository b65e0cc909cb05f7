package eval_test

import (
	"testing"

	"datalogeq/internal/eval"
	"datalogeq/internal/gen"
	"datalogeq/internal/parser"
)

// TestNonrecursiveStrataFireOncePerMatch pins the point of stratified
// evaluation on the LayeredTC program: the recursive tc stratum is
// fixpointed first, and then each nonrecursive stratum fires exactly
// once per match of its body over the completed relations — j once per
// match of tc(X,Z), tc(Z,Y), and top once per j fact. So the full
// program's firings are tc's alone plus those two counts. The matches
// of j's body are counted as the facts of m(X,Z,Y) :- tc(X,Z), tc(Z,Y).
func TestNonrecursiveStrataFireOncePerMatch(t *testing.T) {
	db := gen.ChainGraph(16)
	full, stats, err := eval.Eval(gen.LayeredTC(), db, eval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, tcStats, err := eval.Eval(parser.MustProgram(`
		tc(X, Y) :- e(X, Z), tc(Z, Y).
		tc(X, Y) :- e(X, Y).
	`), db, eval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := eval.Goal(parser.MustProgram(`
		m(X, Z, Y) :- tc(X, Z), tc(Z, Y).
	`), full, "m", eval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	j := full.Lookup("j").Len()
	if want := tcStats.Firings + m.Len() + j; stats.Firings != want {
		t.Errorf("firings = %d, want %d = %d (tc) + %d (matches of j's body) + %d (|j|)",
			stats.Firings, want, tcStats.Firings, m.Len(), j)
	}
	if top := full.Lookup("top").Len(); top != j {
		t.Errorf("|top| = %d, want |j| = %d", top, j)
	}
}
