// Optimizer benchmark families. Run with
//
//	go test -run=NONE -bench=OptimizedEval .
//
// Every family evaluates the three-stratum LayeredTC program — a
// recursive transitive closure, a join layer over it, and a top copy —
// over one graph shape, as written (plain) and after the static
// optimizer's rewrite (optimized; the rewrite is part of the timed
// work). Both run under the engine's stratified driver, which fixpoints
// tc first and fires each nonrecursive layer once per match. Pipe the
// output through cmd/benchjson to produce a trajectory file.
package datalogeq_test

import (
	"math/rand"
	"testing"

	"datalogeq/internal/database"
	"datalogeq/internal/eval"
	"datalogeq/internal/gen"
	"datalogeq/internal/opt"
)

func BenchmarkOptimizedEval(b *testing.B) {
	prog := gen.LayeredTC()
	rng := rand.New(rand.NewSource(7))
	workloads := []struct {
		name string
		db   *database.DB
	}{
		{"chain100", gen.ChainGraph(100)},
		{"grid8x8", gen.GridGraph(8, 8)},
		{"star48", gen.StarGraph(48)},
		{"random60x240", gen.RandomGraph(rng, 60, 240)},
	}
	modes := []struct {
		name     string
		optimize bool
	}{
		{"plain", false},
		{"optimized", true},
	}
	for _, w := range workloads {
		for _, m := range modes {
			b.Run(w.name+"/"+m.name, func(b *testing.B) {
				var stats eval.Stats
				for i := 0; i < b.N; i++ {
					p := prog
					if m.optimize {
						var err error
						if p, _, err = opt.Optimize(prog, opt.Options{Goal: "top"}); err != nil {
							b.Fatal(err)
						}
					}
					_, s, err := eval.Eval(p, w.db, eval.Options{})
					if err != nil {
						b.Fatal(err)
					}
					stats = s
				}
				b.ReportMetric(float64(stats.Derived), "derived")
				b.ReportMetric(float64(stats.Iterations), "rounds")
				b.ReportMetric(float64(stats.Firings), "firings")
			})
		}
	}
}
