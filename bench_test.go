// Benchmark harness: one benchmark (family) per experiment in
// EXPERIMENTS.md. Run with
//
//	go test -bench=. -benchmem
//
// Custom metrics report the quantities the paper's analysis is about:
// automata sizes (letters, states), unfolding sizes (disjuncts, atoms),
// and encoding sizes, alongside wall-clock time.
package datalogeq_test

import (
	"fmt"
	"math/rand"
	"testing"

	"datalogeq/internal/core"
	"datalogeq/internal/database"
	"datalogeq/internal/eval"
	"datalogeq/internal/expansion"
	"datalogeq/internal/gen"
	"datalogeq/internal/magic"
	"datalogeq/internal/nonrec"
	"datalogeq/internal/parser"
	"datalogeq/internal/tm"
	"datalogeq/internal/treeauto"
	"datalogeq/internal/ucq"
)

// --- E1: Example 1.1 — equivalence of the paper's motivating programs.

func BenchmarkE1_Example11(b *testing.B) {
	b.Run("trendy-equivalent", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := core.EquivalentToNonrecursive(
				gen.Example11Trendy(), "buys", gen.Example11TrendyNR(), core.Options{})
			if err != nil || !res.Equivalent {
				b.Fatalf("want equivalent, got %v %v", res.Equivalent, err)
			}
		}
	})
	b.Run("knows-inequivalent", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := core.EquivalentToNonrecursive(
				gen.Example11Knows(), "buys", gen.Example11KnowsNR(), core.Options{})
			if err != nil || res.Equivalent {
				b.Fatalf("want inequivalent, got %v %v", res.Equivalent, err)
			}
		}
	})
}

// --- E2: Figures 1 and 2 — expansion, unfolding, and proof trees.

func BenchmarkE2_Trees(b *testing.B) {
	prog := gen.TransitiveClosure()
	b.Run("unfoldings-h6", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			trees := expansion.Unfoldings(prog, "p", 6, 0)
			if len(trees) != 6 {
				b.Fatalf("got %d trees", len(trees))
			}
		}
	})
	b.Run("prooftrees-h2", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			trees := expansion.ProofTrees(prog, "p", 2, 0)
			if len(trees) != 36*7 {
				b.Fatalf("got %d trees", len(trees))
			}
		}
	})
	b.Run("connectedness", func(b *testing.B) {
		trees := expansion.ProofTrees(prog, "p", 3, 100)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, tr := range trees {
				expansion.Connect(tr)
			}
		}
	})
}

// --- E3: Theorem 5.12 — containment in a UCQ, scaling sweeps.

func BenchmarkE3_ContainUCQ_TCPaths(b *testing.B) {
	prog := gen.TransitiveClosure()
	for k := 1; k <= 6; k++ {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			q := gen.TCPathsUCQ(k)
			var stats core.Stats
			for i := 0; i < b.N; i++ {
				res, err := core.ContainsUCQ(prog, "p", q, core.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if res.Contained {
					b.Fatal("TC is not contained in bounded paths")
				}
				stats = res.Stats
			}
			b.ReportMetric(float64(stats.Letters), "letters")
			b.ReportMetric(float64(stats.PtreeStates), "ptree-states")
			b.ReportMetric(float64(stats.ThetaStates), "theta-states")
		})
	}
}

func BenchmarkE3_ContainUCQ_Contained(b *testing.B) {
	// The trendy program against its faithful unfolding: a positive
	// instance, which must saturate the full fixpoint.
	prog := gen.Example11Trendy()
	q, err := nonrec.Unfold(gen.Example11TrendyNR(), "buys")
	if err != nil {
		b.Fatal(err)
	}
	var stats core.Stats
	for i := 0; i < b.N; i++ {
		res, err := core.ContainsUCQ(prog, "buys", q, core.Options{})
		if err != nil || !res.Contained {
			b.Fatalf("want contained: %v %v", res.Contained, err)
		}
		stats = res.Stats
	}
	b.ReportMetric(float64(stats.Letters), "letters")
	b.ReportMetric(float64(stats.ThetaStates), "theta-states")
}

func BenchmarkE3_ContainUCQ_ChainProgram(b *testing.B) {
	// varnum grows with the chain length k: the alphabet is
	// exponential in the rule width (the paper's size analysis).
	for k := 1; k <= 2; k++ {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			prog := gen.ChainProgram(k)
			q := ucq.New(gen.TCPathCQ(1))
			var stats core.Stats
			for i := 0; i < b.N; i++ {
				res, err := core.ContainsUCQ(prog, "p", q, core.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if res.Contained {
					b.Fatal("chain program not contained in single path")
				}
				stats = res.Stats
			}
			b.ReportMetric(float64(stats.Letters), "letters")
			b.ReportMetric(float64(stats.PtreeStates), "ptree-states")
		})
	}
}

// --- E4: linear programs — word-automaton vs tree-automaton procedure.

func BenchmarkE4_LinearVsTree(b *testing.B) {
	prog := gen.TransitiveClosure()
	q := gen.TCPathsUCQ(3)
	b.Run("tree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.ContainsUCQ(prog, "p", q, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("word", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.ContainsUCQLinear(prog, "p", q, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- E5: Examples 6.1–6.3 — unfolding blowup of nonrecursive programs.

func BenchmarkE5_UnfoldBlowup(b *testing.B) {
	for n := 2; n <= 6; n += 2 {
		b.Run(fmt.Sprintf("dist/n=%d", n), func(b *testing.B) {
			prog := gen.DistProgram(n)
			var stats nonrec.Stats
			for i := 0; i < b.N; i++ {
				s, err := nonrec.UnfoldStats(prog, gen.DistGoal(n))
				if err != nil {
					b.Fatal(err)
				}
				stats = s
			}
			b.ReportMetric(float64(stats.MaxAtoms), "max-atoms")
		})
	}
	for n := 1; n <= 3; n++ {
		b.Run(fmt.Sprintf("distle/n=%d", n), func(b *testing.B) {
			prog := gen.DistLeProgram(n)
			var stats nonrec.Stats
			for i := 0; i < b.N; i++ {
				s, err := nonrec.UnfoldStats(prog, fmt.Sprintf("distle%d", n))
				if err != nil {
					b.Fatal(err)
				}
				stats = s
			}
			b.ReportMetric(float64(stats.Disjuncts), "disjuncts")
		})
	}
	for n := 1; n <= 3; n++ {
		b.Run(fmt.Sprintf("equal/n=%d", n), func(b *testing.B) {
			prog := gen.EqualProgram(n)
			var stats nonrec.Stats
			for i := 0; i < b.N; i++ {
				s, err := nonrec.UnfoldStats(prog, fmt.Sprintf("equal%d", n))
				if err != nil {
					b.Fatal(err)
				}
				stats = s
			}
			b.ReportMetric(float64(stats.Disjuncts), "disjuncts")
		})
	}
}

// --- E6: Example 6.6 / Theorem 6.7 — linear nonrecursive programs:
// exponentially many disjuncts, each of linear size.

func BenchmarkE6_LinearNonrec(b *testing.B) {
	for n := 2; n <= 8; n += 2 {
		b.Run(fmt.Sprintf("word/n=%d", n), func(b *testing.B) {
			prog := gen.WordProgram(n)
			var stats nonrec.Stats
			for i := 0; i < b.N; i++ {
				s, err := nonrec.UnfoldStats(prog, fmt.Sprintf("word%d", n))
				if err != nil {
					b.Fatal(err)
				}
				stats = s
			}
			b.ReportMetric(float64(stats.Disjuncts), "disjuncts")
			b.ReportMetric(float64(stats.MaxAtoms), "max-atoms")
		})
	}
}

// --- E7: §5.3 and §6 lower-bound encodings — generation and
// database-level verification.

func lbMachine() *tm.Machine {
	return &tm.Machine{
		States:      []string{"s0", "s1", "qa"},
		TapeSymbols: []string{"_", "1"},
		Blank:       "_",
		Start:       "s0",
		Accept:      []string{"qa"},
		Transitions: []tm.Transition{
			{State: "s0", Read: "_", Write: "1", Move: tm.Right, NewState: "s1"},
			{State: "s1", Read: "_", Write: "_", Move: tm.Stay, NewState: "qa"},
		},
	}
}

func BenchmarkE7_LowerBound53(b *testing.B) {
	m := lbMachine()
	for n := 1; n <= 4; n++ {
		b.Run(fmt.Sprintf("generate/n=%d", n), func(b *testing.B) {
			var stats tm.Stats
			for i := 0; i < b.N; i++ {
				e, err := tm.Encode53(m, n)
				if err != nil {
					b.Fatal(err)
				}
				stats = e.Stats()
			}
			b.ReportMetric(float64(stats.Rules), "rules")
			b.ReportMetric(float64(stats.ErrorQueries), "error-queries")
		})
	}
	b.Run("verify-separation/n=1", func(b *testing.B) {
		e, err := tm.Encode53(m, 1)
		if err != nil {
			b.Fatal(err)
		}
		run, _ := m.AcceptingRun(2)
		db, err := e.ComputationDB(run)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rel, _, err := eval.Goal(e.Program, db, tm.Goal, eval.Options{})
			if err != nil || rel.Len() == 0 {
				b.Fatal("program must derive C")
			}
			caught, err := e.Errors.Holds(db, nil)
			if err != nil || caught {
				b.Fatal("errors must not fire on a valid computation")
			}
		}
	})
}

func BenchmarkE7_LowerBound6(b *testing.B) {
	m := lbMachine()
	for n := 1; n <= 4; n++ {
		b.Run(fmt.Sprintf("generate/n=%d", n), func(b *testing.B) {
			var stats tm.Stats
			for i := 0; i < b.N; i++ {
				e, err := tm.Encode6(m, n)
				if err != nil {
					b.Fatal(err)
				}
				stats = e.Stats()
			}
			b.ReportMetric(float64(stats.Rules), "pi-rules")
			b.ReportMetric(float64(stats.ErrorQueries), "filter-rules")
		})
	}
}

// --- E8: the CK86 direction — CQ ⊆ program via canonical databases.

func BenchmarkE8_CQInProgram(b *testing.B) {
	prog := gen.TransitiveClosure()
	for k := 2; k <= 16; k *= 2 {
		b.Run(fmt.Sprintf("path/k=%d", k), func(b *testing.B) {
			q := gen.TCPathCQ(k)
			for i := 0; i < b.N; i++ {
				ok, err := core.CQContainedInProgram(q, prog, "p")
				if err != nil || !ok {
					b.Fatalf("path-%d must be contained: %v %v", k, ok, err)
				}
			}
		})
	}
}

// --- E9: evaluation substrate — naive vs semi-naive.

func BenchmarkE9_Eval(b *testing.B) {
	prog := gen.TransitiveClosure()
	rng := rand.New(rand.NewSource(1))
	dbs := map[string]interface{ FactCount() int }{}
	chain := gen.ChainGraph(60)
	random := gen.RandomGraph(rng, 40, 120)
	_ = dbs
	for _, cfg := range []struct {
		name  string
		naive bool
	}{{"seminaive", false}, {"naive", true}} {
		b.Run("chain60/"+cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := eval.Eval(prog, chain, eval.Options{Naive: cfg.naive}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("random40x120/"+cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := eval.Eval(prog, random, eval.Options{Naive: cfg.naive}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Storage engine: the interned-constant substrate on the canonical
// transitive-closure workload. The seed's string-keyed store ran
// chain60 semi-naive at ~1.46 ms/op with ~12,000 allocs/op; the slab
// engine with persistent incremental indexes runs the same workload in
// a fraction of that with two orders of magnitude fewer allocations
// (current numbers are reported by -benchmem; custom metrics surface
// the index-maintenance counters that prove rounds never rebuild).

func BenchmarkEvalTransitiveClosure(b *testing.B) {
	prog := gen.TransitiveClosure()
	rng := rand.New(rand.NewSource(1))
	workloads := []struct {
		name string
		db   *database.DB
	}{
		{"chain60", gen.ChainGraph(60)},
		{"random40x120", gen.RandomGraph(rng, 40, 120)},
	}
	for _, w := range workloads {
		b.Run(w.name, func(b *testing.B) {
			var stats eval.Stats
			for i := 0; i < b.N; i++ {
				_, s, err := eval.Eval(prog, w.db, eval.Options{})
				if err != nil {
					b.Fatal(err)
				}
				stats = s
			}
			b.ReportMetric(float64(stats.Derived), "derived")
			b.ReportMetric(float64(stats.IndexHits), "index-hits")
			b.ReportMetric(float64(stats.IndexBuilds), "index-builds")
			b.ReportMetric(float64(stats.IndexAppends), "index-appends")
			b.ReportMetric(float64(stats.SlabBytes), "slab-bytes")
		})
	}
}

// --- E10: Theorem 6.5 end-to-end — equivalence with automata-size
// accounting.

func BenchmarkE10_Equivalence(b *testing.B) {
	var res core.EquivResult
	for i := 0; i < b.N; i++ {
		r, err := core.EquivalentToNonrecursive(
			gen.Example11Trendy(), "buys", gen.Example11TrendyNR(), core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	b.ReportMetric(float64(res.Stats.Letters), "letters")
	b.ReportMetric(float64(res.Stats.PtreeStates), "ptree-states")
	b.ReportMetric(float64(res.Stats.ThetaStates), "theta-states")
	b.ReportMetric(float64(res.UnfoldedDisjuncts), "disjuncts")
}

// --- Ablation: witness depth as the UCQ frontier grows — the
// counterexample is always one step beyond the covered paths.

func BenchmarkAblation_WitnessDepth(b *testing.B) {
	prog := gen.TransitiveClosure()
	for k := 1; k <= 3; k++ {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			q := gen.TCPathsUCQ(k)
			depth := 0
			for i := 0; i < b.N; i++ {
				res, err := core.ContainsUCQ(prog, "p", q, core.Options{})
				if err != nil || res.Contained {
					b.Fatal("expected non-containment")
				}
				depth = res.Witness.Tree.Depth()
			}
			b.ReportMetric(float64(depth), "witness-depth")
		})
	}
}

// --- Ablation: antichain containment vs the classical complement-based
// reduction on the tree-automata substrate (Proposition 4.6). The
// classical route determinizes the right automaton over its full ranked
// alphabet; the antichain route explores only reachable minimal
// subsets.

func BenchmarkAblation_TreeContainment(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	// A fixed pool of random automata pairs.
	type pair struct{ x, y *treeauto.TA }
	var pairs []pair
	for len(pairs) < 16 {
		x := randomTreeAutomaton(rng, 3)
		y := randomTreeAutomaton(rng, 3)
		pairs = append(pairs, pair{x, y})
	}
	b.Run("antichain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			treeauto.Contains(p.x, p.y)
		}
	})
	b.Run("classical", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			treeauto.ContainsClassical(p.x, p.y)
		}
	})
}

func randomTreeAutomaton(rng *rand.Rand, n int) *treeauto.TA {
	t := treeauto.New(n, 3)
	t.AddStart(rng.Intn(n))
	for s := 0; s < n; s++ {
		if rng.Intn(2) == 0 {
			t.AddTransition(s, rng.Intn(2), nil)
		}
		for k := rng.Intn(3); k > 0; k-- {
			t.AddTransition(s, 2, []int{rng.Intn(n), rng.Intn(n)})
		}
	}
	return t
}

// --- Substrate: magic-sets rewriting vs direct evaluation on a bound
// query (goal-directed evaluation prunes the irrelevant component).

func BenchmarkSubstrate_MagicSets(b *testing.B) {
	prog := gen.TransitiveClosure()
	db := database.New()
	for i := 0; i < 10; i++ {
		db.Add("e", database.Tuple{fmt.Sprintf("a%d", i), fmt.Sprintf("a%d", i+1)})
	}
	db.Add("b", database.Tuple{"a10", "a11"})
	for i := 0; i < 150; i++ {
		db.Add("e", database.Tuple{fmt.Sprintf("z%d", i), fmt.Sprintf("z%d", i+1)})
		db.Add("b", database.Tuple{fmt.Sprintf("z%d", i), fmt.Sprintf("z%d", i+1)})
	}
	bound := prog.Clone()
	bound.Rules = append(bound.Rules, parser.MustProgram("r(X) :- p(a0, X).").Rules...)
	b.Run("magic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mr := magic.Rewrite(bound, "r", db)
			if mr == nil {
				b.Fatal("magic.Rewrite turned the bound query away")
			}
			if _, _, err := eval.Goal(mr.Program, db, mr.GoalPred, eval.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := eval.Goal(prog, db, "p", eval.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Substrate: Yannakakis evaluation vs generic join on an acyclic
// chain query.

func BenchmarkSubstrate_Yannakakis(b *testing.B) {
	// A layered complete-bipartite graph: w^(L-1) partial paths but only
	// w^2 distinct (start, end) answers — the workload where
	// output-sensitive evaluation pays off.
	q := gen.PathCQ("q", 4)
	db := database.New()
	const w = 10
	for layer := 0; layer < 4; layer++ {
		for i := 0; i < w; i++ {
			for j := 0; j < w; j++ {
				db.Add("e", database.Tuple{
					fmt.Sprintf("n%d_%d", layer, i),
					fmt.Sprintf("n%d_%d", layer+1, j),
				})
			}
		}
	}
	b.Run("yannakakis", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := q.EvalYannakakis(db); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("generic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := q.Apply(db); err != nil {
				b.Fatal(err)
			}
		}
	})
}
