package server

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"datalogeq/internal/ast"
	"datalogeq/internal/database"
	"datalogeq/internal/gen"
	"datalogeq/internal/magic"
	"datalogeq/internal/parser"
)

// edgesOf returns db's e facts as atoms.
func edgesOf(db *database.DB) []ast.Atom {
	var out []ast.Atom
	for _, a := range graphFacts(db) {
		if a.Pred == "e" {
			out = append(out, a)
		}
	}
	return out
}

// BenchmarkServedQuery measures in-process Query of the two ad-hoc
// shapes a tc server answers: a same-generation query bound to one
// constant over random200x300, which the served path rewrites with
// magic sets, and a lookup of the maintained tc over forest100x20,
// which it evaluates as sent. Each iteration binds the next constant,
// cycling through every node of the graph or every chain of the forest.
func BenchmarkServedQuery(b *testing.B) {
	b.Run("sg-bound/random200x300", func(b *testing.B) {
		s := servedOver(b, edgesOf(gen.RandomGraph(rand.New(rand.NewSource(1)), 200, 300)), 0)
		srcs := make([]string, 200)
		for i := range srcs {
			srcs[i] = fmt.Sprintf("%sr(X) :- sg(n%d, X).", sgSrc, i)
		}
		if magic.Rewrite(parser.MustProgram(srcs[0]), "r", s.h.DB()) == nil {
			b.Fatal("the bound sg query is not rewritten")
		}
		benchQueries(b, s, "r", srcs)
	})
	b.Run("tc-lookup/forest100x20", func(b *testing.B) {
		s := servedOver(b, edgesOf(gen.ForestGraph(100, 20)), 0)
		srcs := make([]string, 100)
		for i := range srcs {
			srcs[i] = fmt.Sprintf("q(Y) :- tc(c%dn0, Y).", i)
		}
		if magic.Rewrite(parser.MustProgram(srcs[0]), "q", s.h.DB()) != nil {
			b.Fatal("the tc lookup is rewritten")
		}
		benchQueries(b, s, "q", srcs)
	})
}

func benchQueries(b *testing.B, s *Server, goal string, srcs []string) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := s.Query(context.Background(), "", goal, srcs[i%len(srcs)], 0)
		if err != nil || res.Verdict != "complete" {
			b.Fatalf("%v %+v", err, res)
		}
	}
}

// TestRewriteGateAllocsLookup pins the cost of the rewrite's gate on a
// lookup of the maintained relation: it turns the program away without
// allocating.
func TestRewriteGateAllocsLookup(t *testing.T) {
	s := servedOver(t, edgesOf(gen.ForestGraph(4, 5)), 1)
	prog := parser.MustProgram("q(Y) :- tc(c0n0, Y).")
	live := s.h.DB()
	var mr *magic.Result
	if n := testing.AllocsPerRun(100, func() { mr = magic.Rewrite(prog, "q", live) }); n != 0 {
		t.Fatalf("the gate allocates %v times on the lookup shape; want 0", n)
	}
	if mr != nil {
		t.Fatal("the lookup is rewritten")
	}
}
