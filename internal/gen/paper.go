// Package gen provides generators for the programs, queries, and
// databases used throughout the paper's examples and lower-bound
// constructions, plus random workloads for property-based testing and
// benchmarks.
package gen

import (
	"fmt"
	"strings"

	"datalogeq/internal/ast"
	"datalogeq/internal/cq"
	"datalogeq/internal/parser"
	"datalogeq/internal/ucq"
)

// TransitiveClosure is the program of Example 2.5:
//
//	p(X, Y) :- e(X, Z), p(Z, Y).
//	p(X, Y) :- b(X, Y).
//
// (the paper's e' base relation is spelled b).
func TransitiveClosure() *ast.Program {
	return parser.MustProgram(`
		p(X, Y) :- e(X, Z), p(Z, Y).
		p(X, Y) :- b(X, Y).
	`)
}

// Example11Trendy is the recursive program Π₁ of Example 1.1, which is
// equivalent to a nonrecursive program.
func Example11Trendy() *ast.Program {
	return parser.MustProgram(`
		buys(X, Y) :- likes(X, Y).
		buys(X, Y) :- trendy(X), buys(Z, Y).
	`)
}

// Example11TrendyNR is the nonrecursive program equivalent to Π₁.
func Example11TrendyNR() *ast.Program {
	return parser.MustProgram(`
		buys(X, Y) :- likes(X, Y).
		buys(X, Y) :- trendy(X), likes(Z, Y).
	`)
}

// LayeredTC is a three-stratum program for exercising the
// SCC-stratified evaluation schedule: a recursive transitive-closure
// component, a nonrecursive join layer over it, and a top copy.
//
//	top(X, Y) :- j(X, Y).
//	j(X, Y)   :- tc(X, Z), tc(Z, Y).
//	tc(X, Y)  :- e(X, Z), tc(Z, Y).
//	tc(X, Y)  :- e(X, Y).
//
// The stratified driver fires the j and top rules once per body match,
// after tc has converged; a single global round loop would re-fire them
// against every tc delta of every round.
func LayeredTC() *ast.Program {
	return parser.MustProgram(`
		top(X, Y) :- j(X, Y).
		j(X, Y) :- tc(X, Z), tc(Z, Y).
		tc(X, Y) :- e(X, Z), tc(Z, Y).
		tc(X, Y) :- e(X, Y).
	`)
}

// Example11Knows is the inherently recursive program Π₂ of Example 1.1.
func Example11Knows() *ast.Program {
	return parser.MustProgram(`
		buys(X, Y) :- likes(X, Y).
		buys(X, Y) :- knows(X, Z), buys(Z, Y).
	`)
}

// Example11KnowsNR is the (inequivalent) nonrecursive candidate for Π₂.
func Example11KnowsNR() *ast.Program {
	return parser.MustProgram(`
		buys(X, Y) :- likes(X, Y).
		buys(X, Y) :- knows(X, Z), likes(Z, Y).
	`)
}

// DistProgram is the nonrecursive program of Example 6.1: distᵢ(x, y)
// holds exactly when there is a path of length 2ⁱ from x to y. Its
// smallest equivalent union of conjunctive queries has a single disjunct
// of exponential size.
func DistProgram(n int) *ast.Program {
	var b strings.Builder
	b.WriteString("dist0(X, Y) :- e(X, Y).\n")
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&b, "dist%d(X, Y) :- dist%d(X, Z), dist%d(Z, Y).\n", i, i-1, i-1)
	}
	return parser.MustProgram(b.String())
}

// DistGoal returns the goal predicate of DistProgram(n).
func DistGoal(n int) string { return fmt.Sprintf("dist%d", n) }

// DistLeProgram is the variant of Example 6.2: distleᵢ(x, y) holds when
// there is a path of length ≤ 2ⁱ, and distltᵢ(x, y) when there is a
// path of length ≤ 2ⁱ - 1. Note the empty-body rules.
func DistLeProgram(n int) *ast.Program {
	var b strings.Builder
	b.WriteString("distle0(X, Y) :- e(X, Y).\n")
	b.WriteString("distle0(X, X).\n")
	b.WriteString("distlt0(X, X).\n")
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&b, "distle%d(X, Y) :- distle%d(X, Z), distle%d(Z, Y).\n", i, i-1, i-1)
		fmt.Fprintf(&b, "distlt%d(X, Y) :- distlt%d(X, Z), distle%d(Z, Y).\n", i, i-1, i-1)
	}
	return parser.MustProgram(b.String())
}

// EqualProgram is the program of Example 6.3: equalᵢ(x, y, u, v) holds
// when there are paths of length 2ⁱ from x to y and from u to v carrying
// the same Zero/One labels (except possibly at the endpoints).
func EqualProgram(n int) *ast.Program {
	var b strings.Builder
	b.WriteString("equal0(X, Y, U, V) :- e(X, Y), e(U, V), zero(X), zero(U).\n")
	b.WriteString("equal0(X, Y, U, V) :- e(X, Y), e(U, V), one(X), one(U).\n")
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&b, "equal%d(X, Y, U, V) :- equal%d(X, X2, U, U2), equal%d(X2, Y, U2, V).\n", i, i-1, i-1)
	}
	return parser.MustProgram(b.String())
}

// WordProgram is the linear nonrecursive program of Example 6.6:
// wordₙ(x, y) describes a labeled path of length n; it unfolds to
// exponentially many disjuncts, each of size O(n) (Theorem 6.7).
func WordProgram(n int) *ast.Program {
	var b strings.Builder
	b.WriteString("word1(X, Y) :- e(X, Y), zero(X).\n")
	b.WriteString("word1(X, Y) :- e(X, Y), one(X).\n")
	for i := 2; i <= n; i++ {
		fmt.Fprintf(&b, "word%d(X, Y) :- word%d(X, X2), e(X2, Y), zero(Y).\n", i, i-1)
		fmt.Fprintf(&b, "word%d(X, Y) :- word%d(X, X2), e(X2, Y), one(Y).\n", i, i-1)
	}
	return parser.MustProgram(b.String())
}

// PathCQ returns the conjunctive query "there is an e-path of length k
// from X to Y", with head predicate head.
func PathCQ(head string, k int) cq.CQ {
	headAtom := ast.NewAtom(head, ast.V("P0"), ast.V(fmt.Sprintf("P%d", k)))
	body := make([]ast.Atom, k)
	for i := 0; i < k; i++ {
		body[i] = ast.NewAtom("e", ast.V(fmt.Sprintf("P%d", i)), ast.V(fmt.Sprintf("P%d", i+1)))
	}
	return cq.CQ{Head: headAtom, Body: body}
}

// TCPathCQ returns the expansion of the transitive-closure program of
// height k: e-edges of length k-1 followed by a b-edge.
func TCPathCQ(k int) cq.CQ {
	headAtom := ast.NewAtom("p", ast.V("P0"), ast.V(fmt.Sprintf("P%d", k)))
	body := make([]ast.Atom, k)
	for i := 0; i < k-1; i++ {
		body[i] = ast.NewAtom("e", ast.V(fmt.Sprintf("P%d", i)), ast.V(fmt.Sprintf("P%d", i+1)))
	}
	body[k-1] = ast.NewAtom("b", ast.V(fmt.Sprintf("P%d", k-1)), ast.V(fmt.Sprintf("P%d", k)))
	return cq.CQ{Head: headAtom, Body: body}
}

// TCPathsUCQ returns the union of TCPathCQ(1..k): the expansions of the
// transitive-closure program of height at most k.
func TCPathsUCQ(k int) ucq.UCQ {
	ds := make([]cq.CQ, k)
	for i := 1; i <= k; i++ {
		ds[i-1] = TCPathCQ(i)
	}
	return ucq.New(ds...)
}

// ChainProgram returns a linear recursive program whose recursive rule
// consumes a chain of k EDB atoms per unfolding:
//
//	p(X0, Y) :- e1(X0, X1), ..., ek(X(k-1), Xk), p(Xk, Y).
//	p(X, Y)  :- b(X, Y).
//
// Used in scaling benchmarks: varnum grows with k.
func ChainProgram(k int) *ast.Program {
	head := ast.NewAtom("p", ast.V("X0"), ast.V("Y"))
	var body []ast.Atom
	for i := 0; i < k; i++ {
		body = append(body, ast.NewAtom(fmt.Sprintf("e%d", i+1),
			ast.V(fmt.Sprintf("X%d", i)), ast.V(fmt.Sprintf("X%d", i+1))))
	}
	body = append(body, ast.NewAtom("p", ast.V(fmt.Sprintf("X%d", k)), ast.V("Y")))
	return ast.NewProgram(
		ast.NewRule(head, body...),
		ast.NewRule(ast.NewAtom("p", ast.V("X"), ast.V("Y")), ast.NewAtom("b", ast.V("X"), ast.V("Y"))),
	)
}
