package server

// Differential tests of the goal-directed rewrite on the served query
// path: Query, which evaluates the magic-sets rewrite of an ad-hoc
// program when magic.Rewrite accepts it, must return exactly the tuples
// that eval.Eval gives for the program as sent over the same live DB.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"datalogeq/internal/ast"
	"datalogeq/internal/database"
	"datalogeq/internal/eval"
	"datalogeq/internal/gen"
	"datalogeq/internal/guard"
	"datalogeq/internal/magic"
	"datalogeq/internal/parser"
)

// sgSrc is the same-generation program of the analytic served queries.
const sgSrc = `sg(X, Y) :- e(P, X), e(P, Y).
sg(X, Y) :- e(P, X), sg(P, Q), e(Q, Y).
`

// diffBudget bounds each side of a differential check, so that a random
// program cannot run away.
var diffBudget = guard.Budget{MaxFacts: 20000, MaxSteps: 1 << 18}

// servedOver returns an in-memory server maintaining tc over facts,
// loaded as one batch.
func servedOver(t testing.TB, facts []ast.Atom, workers int) *Server {
	t.Helper()
	s, err := New(Config{
		Program:       parser.MustProgram(tcSrc),
		Workers:       workers,
		DefaultBudget: diffBudget,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	if len(facts) > 0 {
		res, err := s.Apply(context.Background(), "", database.OpInsert, facts, "", 0, time.Minute)
		if err != nil || res.Verdict != "applied" {
			t.Fatalf("loading facts: %v %+v", err, res)
		}
	}
	return s
}

// graphFacts lists db's facts as atoms, in its deterministic order.
func graphFacts(db *database.DB) []ast.Atom {
	var out []ast.Atom
	for _, p := range db.Preds() {
		for _, tu := range db.Lookup(p).Tuples() {
			args := make([]ast.Term, len(tu))
			for i, c := range tu {
				args[i] = ast.C(c)
			}
			out = append(out, ast.Atom{Pred: p, Args: args})
		}
	}
	return out
}

// checkServed asserts that Query of src for goal on s returns what
// eval.Eval of src as sent returns, and reports whether the served path
// rewrote the program. A query that trips its budget may return a
// subset of the complete answer; a program eval rejects must be
// rejected by Query too.
func checkServed(t *testing.T, s *Server, src, goal string) (rewritten bool) {
	t.Helper()
	prog, err := parser.Program(src)
	if err != nil || prog.GoalArity(goal) < 0 {
		return false
	}
	live := s.h.DB()
	rewritten = magic.Rewrite(prog, goal, live) != nil
	want, _, werr := eval.Eval(prog, live, eval.Options{Budget: diffBudget})
	got, gerr := s.Query(context.Background(), "", goal, src, 0)
	var limit *guard.LimitError
	switch {
	case errors.As(werr, &limit):
		return rewritten // the oracle is partial: nothing to compare
	case werr != nil:
		if gerr == nil {
			t.Fatalf("eval rejects the program (%v) but Query answered %+v\nprogram:\n%s", werr, got, src)
		}
		return rewritten
	case gerr != nil:
		t.Fatalf("Query: %v\nprogram:\n%s", gerr, src)
	}
	wantLines := factLines(want.Lookup(goal), goal)
	if got.Verdict == "unknown" {
		for _, l := range got.Tuples {
			if _, ok := slices.BinarySearch(wantLines, l); !ok {
				t.Fatalf("partial answer has %s, outside the complete answer %q (rewritten=%v)\nprogram:\n%s", l, wantLines, rewritten, src)
			}
		}
		return rewritten
	}
	if !slices.Equal(got.Tuples, wantLines) {
		t.Fatalf("goal %s (rewritten=%v):\nserved %q\nas sent %q\nprogram:\n%s", goal, rewritten, got.Tuples, wantLines, src)
	}
	return rewritten
}

// treeFacts is a small tree over e, with a self-loop and two b edges,
// on which every case of the table has a non-empty answer.
const treeFacts = `e(n0, n1). e(n0, n2). e(n1, n3). e(n1, n4). e(n2, n5).
e(n3, n6). e(n5, n7). e(n4, n4). b(n1, n2). b(n2, n3).`

func TestServedRewriteDifferential(t *testing.T) {
	graph, err := parser.FactList(treeFacts)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name     string
		live     string // extra live facts
		src      string
		goal     string
		rewrites bool
	}{
		{name: "samegen bound", src: sgSrc + "r(X) :- sg(n1, X).", goal: "r", rewrites: true},
		{name: "binding through a view", src: sgSrc + "v(X, Y) :- sg(X, Y).\nr(Y) :- v(n2, Y).", goal: "r", rewrites: true},
		{name: "sideways binding", src: sgSrc + "r(Y) :- e(n3, Z), sg(Z, Y).", goal: "r", rewrites: true},
		{name: "binding from a bare column", src: sgSrc + "r(Y) :- e(Z, W), sg(Z, Y), b(n2, W).", goal: "r", rewrites: true},
		{name: "bound goal is recursive", src: sgSrc + "r(X) :- sg(n1, X).", goal: "sg", rewrites: false},
		{name: "lookup of the served tc", src: "q(Y) :- tc(n1, Y).", goal: "q", rewrites: false},
		{name: "all-free recursion", src: sgSrc + "r(X, Y) :- sg(X, Y).", goal: "r", rewrites: false},
		{name: "constant only in a nonrecursive rule", src: "p(X, Y) :- e(X, Y).\nr(Y) :- p(n1, Y).", goal: "r", rewrites: false},
		{name: "0-ary goal", src: sgSrc + "r :- sg(n1, X).", goal: "r", rewrites: true},
		{name: "repeated variables", src: sgSrc + "d(X, X) :- sg(X, X).\nr(X) :- sg(n1, X), d(X, X).", goal: "r", rewrites: true},
		{name: "repeated variable in a bound call", src: sgSrc + "r(X) :- sg(n1, X), sg(X, X).", goal: "r", rewrites: true},
		{
			name:     "unsafe recursive rule",
			src:      "u(X, Y) :- e(X, Z).\nu(X, Y) :- e(X, Z), u(Z, Y).\nr(Y) :- u(n1, Y).\nother(zz) :- e(zz, zz).",
			goal:     "r",
			rewrites: false,
		},
		{
			name:     "redefines the served tc",
			src:      "tc(X, Y) :- b(X, Y).\ntc(X, Y) :- b(X, Z), tc(Z, Y).\nr(Y) :- tc(n1, Y).",
			goal:     "r",
			rewrites: false,
		},
		{name: "live relation named like a generated predicate", live: "sg_bf(n1, zz). r_f(zz).", src: sgSrc + "r(X) :- sg(n1, X).", goal: "r", rewrites: false},
		{name: "live relation named like a magic predicate", live: "m_sg_bf(n5).", src: sgSrc + "r(X) :- sg(n1, X).", goal: "r", rewrites: false},
		{name: "program uses a generated name", src: sgSrc + "r(X) :- sg(n1, X).\nr(X) :- sg_bf(X, X).", goal: "r", rewrites: false},
		{name: "arity clash outside the goal's rules", src: sgSrc + "r(X) :- sg(n1, X).\nz(X) :- b(X).", goal: "r", rewrites: false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			facts := graph
			if tc.live != "" {
				extra, err := parser.FactList(tc.live)
				if err != nil {
					t.Fatal(err)
				}
				facts = append(slices.Clip(graph), extra...)
			}
			s := servedOver(t, facts, 0)
			if got := checkServed(t, s, tc.src, tc.goal); got != tc.rewrites {
				t.Fatalf("rewritten = %v, want %v", got, tc.rewrites)
			}
			if res, err := s.Query(context.Background(), "", tc.goal, tc.src, 0); err == nil && len(res.Tuples) == 0 {
				t.Fatalf("empty answer; the case is vacuous")
			}
		})
	}
}

// withConstants replaces up to n random body arguments of prog with
// constants c0..c<domain-1>.
func withConstants(rng *rand.Rand, prog *ast.Program, n, domain int) *ast.Program {
	out := prog.Clone()
	for k := 0; k < n; k++ {
		r := &out.Rules[rng.Intn(len(out.Rules))]
		if len(r.Body) == 0 {
			continue
		}
		a := &r.Body[rng.Intn(len(r.Body))]
		if len(a.Args) == 0 {
			continue
		}
		a.Args[rng.Intn(len(a.Args))] = ast.C(fmt.Sprintf("c%d", rng.Intn(domain)))
	}
	return out
}

// edbFacts draws random facts over prog's extensional predicates,
// leaving out those the served program defines or whose arity clashes
// with the served e.
func edbFacts(rng *rand.Rand, prog *ast.Program, domain, perPred int) []ast.Atom {
	var syms []ast.PredSym
	for sym := range prog.EDBPreds() {
		if sym.Name == "tc" || (sym.Name == "e" && sym.Arity != 2) {
			continue
		}
		syms = append(syms, sym)
	}
	sort.Slice(syms, func(i, j int) bool { return syms[i].String() < syms[j].String() })
	var out []ast.Atom
	for _, sym := range syms {
		for i := 0; i < perPred; i++ {
			args := make([]ast.Term, sym.Arity)
			for j := range args {
				args[j] = ast.C(fmt.Sprintf("c%d", rng.Intn(domain)))
			}
			out = append(out, ast.Atom{Pred: sym.Name, Args: args})
		}
	}
	return out
}

// randomServedCase draws one differential case: a random linear program
// or a testdata program with constants at random body positions, a
// goal over it, and random live facts over its extensional predicates.
func randomServedCase(rng *rand.Rand, testdata []*ast.Program) (facts []ast.Atom, src, goal string) {
	var prog *ast.Program
	if rng.Intn(3) > 0 || len(testdata) == 0 {
		prog = gen.RandomLinearProgram(rng, 3, 2)
	} else {
		prog = testdata[rng.Intn(len(testdata))]
	}
	prog = withConstants(rng, prog, 1+rng.Intn(2), 5)
	idb := prog.Rules[rng.Intn(len(prog.Rules))].Head
	goal = idb.Pred
	if rng.Intn(2) == 0 && len(idb.Args) > 0 {
		// A safe nonrecursive goal rule with a constant in a random
		// position, like the analytic r(X) :- sg(c, X).
		args := make([]ast.Term, len(idb.Args))
		bound := rng.Intn(len(args))
		var head []ast.Term
		for i := range args {
			args[i] = ast.V(fmt.Sprintf("Q%d", i))
			if i != bound {
				head = append(head, args[i])
			}
		}
		args[bound] = ast.C(fmt.Sprintf("c%d", rng.Intn(5)))
		prog.Rules = append(prog.Rules, ast.NewRule(ast.Atom{Pred: "goal", Args: head}, ast.Atom{Pred: idb.Pred, Args: args}))
		goal = "goal"
	}
	return edbFacts(rng, prog, 5, 8), prog.String(), goal
}

// testdataPrograms parses the repository's example programs.
func testdataPrograms(t testing.TB) []*ast.Program {
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.dl"))
	if err != nil {
		t.Fatal(err)
	}
	var out []*ast.Program
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if prog, err := parser.Program(string(src)); err == nil && len(prog.Rules) > 0 {
			out = append(out, prog)
		}
	}
	return out
}

func TestServedRewriteRandom(t *testing.T) {
	progs := testdataPrograms(t)
	rewritten := 0
	const cases = 120
	for seed := int64(1); seed <= cases; seed++ {
		rng := rand.New(rand.NewSource(seed))
		facts, src, goal := randomServedCase(rng, progs)
		s := servedOver(t, facts, 0)
		if checkServed(t, s, src, goal) {
			rewritten++
		}
	}
	t.Logf("%d of %d random cases were rewritten", rewritten, cases)
	if rewritten < cases/10 {
		t.Fatalf("only %d of %d random cases were rewritten; the differential is nearly vacuous", rewritten, cases)
	}
}

// TestServedRewriteWorkers pins worker-count bit-determinism on the
// rewritten path: the same tuples and the same work counts.
func TestServedRewriteWorkers(t *testing.T) {
	graph := graphFacts(gen.RandomGraph(rand.New(rand.NewSource(7)), 40, 70))
	src := sgSrc + "r(X) :- sg(n3, X)."
	var first QueryResult
	for i, w := range []int{1, 2, 8} {
		s := servedOver(t, graph, w)
		if magic.Rewrite(parser.MustProgram(src), "r", s.h.DB()) == nil {
			t.Fatal("the bound sg query is not rewritten")
		}
		res, err := s.Query(context.Background(), "", "r", src, 0)
		if err != nil || res.Verdict != "complete" {
			t.Fatalf("workers=%d: %v %+v", w, err, res)
		}
		if i == 0 {
			first = res
			if len(res.Tuples) == 0 {
				t.Fatal("empty answer; the check is vacuous")
			}
			continue
		}
		if !slices.Equal(res.Tuples, first.Tuples) || res.Derived != first.Derived || res.Firings != first.Firings {
			t.Fatalf("workers=%d: %d tuples, derived %d, firings %d; workers=1: %d, %d, %d",
				w, len(res.Tuples), res.Derived, res.Firings, len(first.Tuples), first.Derived, first.Firings)
		}
	}
}

// FuzzServedRewrite feeds programs, goals, extra live facts and a seed
// (for random live facts and constants at random body positions) to
// the served query path and checks it against eval.Eval of the program
// as sent.
func FuzzServedRewrite(f *testing.F) {
	for _, prog := range testdataPrograms(f) {
		f.Add(prog.String(), prog.Rules[0].Head.Pred, "", int64(1))
	}
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(gen.RandomLinearProgram(rand.New(rand.NewSource(seed)), 3, 2).String(), "p", "", seed)
	}
	f.Add(sgSrc+"r(X) :- sg(c1, X).", "r", "", int64(2))
	f.Add(sgSrc+"r :- sg(c1, X).", "r", "", int64(3))
	f.Add(sgSrc+"r(X) :- sg(c1, X), sg(X, X).", "r", "", int64(4))
	f.Add("u(X, Y) :- e(X, Z).\nu(X, Y) :- e(X, Z), u(Z, Y).\nr(Y) :- u(c1, Y).\nother(zz) :- e(zz, zz).", "r", "", int64(5))
	f.Add("tc(X, Y) :- b(X, Y).\ntc(X, Y) :- b(X, Z), tc(Z, Y).\nr(Y) :- tc(c1, Y).", "r", "", int64(6))
	f.Add(sgSrc+"r(X) :- sg(c1, X).", "r", "sg_bf(c1, zz).", int64(7))
	f.Fuzz(func(t *testing.T, src, goal, live string, seed int64) {
		prog, err := parser.Program(src)
		if err != nil || len(prog.Rules) == 0 || len(prog.Rules) > 8 || prog.GoalArity(goal) < 0 {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		prog = withConstants(rng, prog, rng.Intn(3), 4)
		facts := edbFacts(rng, prog, 4, 6)
		if live != "" {
			extra, err := parser.FactList(live)
			if err != nil || len(extra) > 8 {
				return
			}
			for _, a := range extra {
				if a.Pred == "tc" {
					return // tc is derived by the served program
				}
			}
			facts = append(facts, extra...)
		}
		for _, a := range facts {
			if a.Pred == "e" && len(a.Args) != 2 {
				return
			}
		}
		s, err := New(Config{Program: parser.MustProgram(tcSrc), DefaultBudget: diffBudget})
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			s.Shutdown(ctx)
		}()
		if len(facts) > 0 {
			if res, err := s.Apply(context.Background(), "", database.OpInsert, facts, "", 0, time.Minute); err != nil || res.Verdict != "applied" {
				return // live facts the served store refuses, such as an arity clash
			}
		}
		checkServed(t, s, strings.TrimSpace(prog.String()), goal)
	})
}
