// Incremental-maintenance benchmark families (PR 8). Run with
//
//	go test -run=NONE -bench=Incremental .
//
// Every family maintains a program over one graph shape and replays a
// deterministic gen.UpdateStream of 1-, 10- and 100-fact deltas:
// "retract" times removing a batch of existing edges (the reinsertion
// that restores the state runs off the clock), "insert" times putting
// it back, and "scratch" is the from-scratch re-fixpoint an engine
// without maintenance would pay per update — the baseline the delta
// paths are measured against. The forest families retract one edge of
// a forest of chains, the shape the served workloads maintain, at two
// sizes: a retract's cost must follow the rows it removes, not the
// size of the forest. Pipe the output through cmd/benchjson to produce
// the BENCH_PR8.json trajectory file.
package datalogeq_test

import (
	"fmt"
	"math/rand"
	"testing"

	"datalogeq/internal/ast"
	"datalogeq/internal/database"
	"datalogeq/internal/eval"
	"datalogeq/internal/gen"
	"datalogeq/internal/parser"

	_ "datalogeq/internal/ivm" // registers the maintainer behind eval.Maintain
)

func BenchmarkIncremental(b *testing.B) {
	tc := parser.MustProgram(`
		tc(X, Y) :- e(X, Y).
		tc(X, Y) :- e(X, Z), tc(Z, Y).
	`)
	rng := rand.New(rand.NewSource(11))
	families := []struct {
		name string
		prog *ast.Program
		db   *database.DB
	}{
		{"chain60", tc, gen.ChainGraph(60)},
		{"random40x120", tc, gen.RandomGraph(rng, 40, 120)},
		{"layered-chain40", gen.LayeredTC(), gen.ChainGraph(40)},
	}
	for _, f := range families {
		for _, delta := range []int{1, 10, 100} {
			stream := gen.UpdateStream(rand.New(rand.NewSource(int64(delta))), f.db, "e", 64, delta)
			prefix := fmt.Sprintf("%s/delta%d/", f.name, delta)

			b.Run(prefix+"retract", func(b *testing.B) {
				h, _, err := eval.Maintain(f.prog, f.db, eval.Options{})
				if err != nil {
					b.Fatal(err)
				}
				var last eval.UpdateStats
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					batch := stream[i%len(stream)]
					us, err := h.Retract(batch)
					if err != nil {
						b.Fatal(err)
					}
					last = us
					b.StopTimer()
					if _, err := h.Insert(batch); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				b.ReportMetric(float64(last.RowsDeleted), "rows-out")
				b.ReportMetric(float64(last.Rederived), "rederived")
				b.ReportMetric(float64(last.CountUpdates), "count-updates")
			})

			b.Run(prefix+"insert", func(b *testing.B) {
				h, _, err := eval.Maintain(f.prog, f.db, eval.Options{})
				if err != nil {
					b.Fatal(err)
				}
				var last eval.UpdateStats
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					batch := stream[i%len(stream)]
					b.StopTimer()
					if _, err := h.Retract(batch); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					us, err := h.Insert(batch)
					if err != nil {
						b.Fatal(err)
					}
					last = us
				}
				b.ReportMetric(float64(last.RowsInserted), "rows-in")
				b.ReportMetric(float64(last.CountUpdates), "count-updates")
			})

			b.Run(prefix+"scratch", func(b *testing.B) {
				var stats eval.Stats
				for i := 0; i < b.N; i++ {
					_, s, err := eval.Eval(f.prog, f.db, eval.Options{})
					if err != nil {
						b.Fatal(err)
					}
					stats = s
				}
				b.ReportMetric(float64(stats.Derived), "derived")
				b.ReportMetric(float64(stats.Firings), "firings")
			})
		}
	}

	// Tip families: a single fact appended at (and retracted from) the
	// graph boundary. Unlike the random streams above — where one
	// mid-graph edge can carry a large fraction of the closure — a tip
	// edge is the steady-state maintenance workload: the affected row
	// set is one path's worth, and the delta paths must beat the
	// re-fixpoint by ≥10×.
	tips := []struct {
		name string
		prog *ast.Program
		db   *database.DB
		tip  []ast.Atom
	}{
		{"chain60", tc, gen.ChainGraph(60), parser.MustAtomList("e(n60, n61)")},
		{"layered-chain40", gen.LayeredTC(), gen.ChainGraph(40), parser.MustAtomList("e(n40, n41)")},
	}
	for _, f := range tips {
		prefix := f.name + "/tip1/"

		b.Run(prefix+"insert", func(b *testing.B) {
			h, _, err := eval.Maintain(f.prog, f.db, eval.Options{})
			if err != nil {
				b.Fatal(err)
			}
			var last eval.UpdateStats
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				us, err := h.Insert(f.tip)
				if err != nil {
					b.Fatal(err)
				}
				last = us
				b.StopTimer()
				if _, err := h.Retract(f.tip); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(last.RowsInserted), "rows-in")
			b.ReportMetric(float64(last.CountUpdates), "count-updates")
		})

		b.Run(prefix+"retract", func(b *testing.B) {
			h, _, err := eval.Maintain(f.prog, f.db, eval.Options{})
			if err != nil {
				b.Fatal(err)
			}
			var last eval.UpdateStats
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if _, err := h.Insert(f.tip); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				us, err := h.Retract(f.tip)
				if err != nil {
					b.Fatal(err)
				}
				last = us
			}
			b.ReportMetric(float64(last.RowsDeleted), "rows-out")
			b.ReportMetric(float64(last.Rederived), "rederived")
			b.ReportMetric(float64(last.CountUpdates), "count-updates")
		})

		b.Run(prefix+"scratch", func(b *testing.B) {
			// The post-insert state: what an engine without maintenance
			// re-derives after the tip fact lands.
			dbTip := f.db.Clone()
			for _, a := range f.tip {
				if err := dbTip.AddAtom(a); err != nil {
					b.Fatal(err)
				}
			}
			var stats eval.Stats
			for i := 0; i < b.N; i++ {
				_, s, err := eval.Eval(f.prog, dbTip, eval.Options{})
				if err != nil {
					b.Fatal(err)
				}
				stats = s
			}
			b.ReportMetric(float64(stats.Derived), "derived")
			b.ReportMetric(float64(stats.Firings), "firings")
		})
	}

	// Forest families: chains of 20 edges, at 50 and 2000 chains (10.5k
	// and 420k tc rows). "tip" retracts a chain's last edge (21 rows out:
	// the edge and 20 tc rows), "cut" its middle edge (111 rows out); the
	// edge goes back off the clock. Successive iterations walk the chains, so each retract
	// meets its chain's rows where the initial fixpoint laid them out.
	for _, chains := range []int{50, 2000} {
		db := gen.ForestGraph(chains, 20)
		for _, op := range []struct {
			name string
			from int
		}{{"tip", 19}, {"cut", 9}} {
			facts := make([][]ast.Atom, chains)
			for c := range facts {
				facts[c] = parser.MustAtomList(fmt.Sprintf("e(c%dn%d, c%dn%d)", c, op.from, c, op.from+1))
			}
			b.Run(fmt.Sprintf("forest%dx20/%s/retract", chains, op.name), func(b *testing.B) {
				h, _, err := eval.Maintain(tc, db, eval.Options{})
				if err != nil {
					b.Fatal(err)
				}
				var last eval.UpdateStats
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					f := facts[i%chains]
					us, err := h.Retract(f)
					if err != nil {
						b.Fatal(err)
					}
					last = us
					b.StopTimer()
					if _, err := h.Insert(f); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				b.ReportMetric(float64(last.RowsDeleted), "rows-out")
			})
		}
	}
}
