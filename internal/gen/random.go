package gen

import (
	"fmt"
	"math/rand"

	"datalogeq/internal/ast"
	"datalogeq/internal/cq"
	"datalogeq/internal/database"
)

// RandomGraph returns a database with an e/2 relation: a random directed
// graph with n nodes and m edges (duplicates collapse), plus a b/2 copy
// of a random subset of the edges, using the given source.
func RandomGraph(rng *rand.Rand, n, m int) *database.DB {
	db := database.New()
	node := func(i int) string { return fmt.Sprintf("n%d", i) }
	for i := 0; i < m; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		db.Add("e", database.Tuple{node(u), node(v)})
		if rng.Intn(2) == 0 {
			db.Add("b", database.Tuple{node(u), node(v)})
		}
	}
	return db
}

// ChainGraph returns a database whose e relation is a simple chain
// n0 -> n1 -> ... -> n_k, with b duplicating the last edge.
func ChainGraph(k int) *database.DB {
	db := database.New()
	for i := 0; i < k; i++ {
		db.Add("e", database.Tuple{fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", i+1)})
	}
	if k > 0 {
		db.Add("b", database.Tuple{fmt.Sprintf("n%d", k-1), fmt.Sprintf("n%d", k)})
	}
	return db
}

// ForestGraph returns a database whose e relation is a forest of
// disjoint chains of length edges each: chain c runs c<c>n0 -> c<c>n1
// -> ... -> c<c>n<length>. Its transitive closure holds
// chains·length·(length+1)/2 rows, and retracting a chain's last (tip)
// edge removes length of them, wherever the chain sits in the slab.
func ForestGraph(chains, length int) *database.DB {
	db := database.New()
	for c := 0; c < chains; c++ {
		for j := 0; j < length; j++ {
			db.Add("e", database.Tuple{fmt.Sprintf("c%dn%d", c, j), fmt.Sprintf("c%dn%d", c, j+1)})
		}
	}
	return db
}

// GridGraph returns a database whose e relation is a directed (w+1)×(h+1)
// grid: node (x, y) has an edge right to (x+1, y) and down to (x, y+1).
// b duplicates the whole of e, so transitive closure derives the full
// quadratic set of reachable pairs, each with many distinct derivations
// — a denser, wider-delta workload than a chain.
func GridGraph(w, h int) *database.DB {
	db := database.New()
	node := func(x, y int) string { return fmt.Sprintf("g%d_%d", x, y) }
	add := func(a, b string) {
		db.Add("e", database.Tuple{a, b})
		db.Add("b", database.Tuple{a, b})
	}
	for y := 0; y <= h; y++ {
		for x := 0; x <= w; x++ {
			if x < w {
				add(node(x, y), node(x+1, y))
			}
			if y < h {
				add(node(x, y), node(x, y+1))
			}
		}
	}
	return db
}

// StarGraph returns a database whose e relation is a double star: k
// source leaves each with an edge into a hub, and the hub with an edge
// out to each of k sink leaves. Transitive closure adds the k² cross
// pairs in one round — maximal fan-out with minimal depth, the
// opposite extreme from ChainGraph.
func StarGraph(k int) *database.DB {
	db := database.New()
	for i := 0; i < k; i++ {
		db.Add("e", database.Tuple{fmt.Sprintf("s%d", i), "hub"})
		db.Add("e", database.Tuple{"hub", fmt.Sprintf("t%d", i)})
	}
	return db
}

// RandomDB returns a random database over the given predicate/arity
// pairs with the given domain size and facts per relation.
func RandomDB(rng *rand.Rand, preds map[string]int, domain, facts int) *database.DB {
	db := database.New()
	for pred, arity := range preds {
		for i := 0; i < facts; i++ {
			t := make(database.Tuple, arity)
			for j := range t {
				t[j] = fmt.Sprintf("c%d", rng.Intn(domain))
			}
			db.Add(pred, t)
		}
	}
	return db
}

// RandomCQ returns a random conjunctive query with the given head
// predicate over binary EDB predicates e1..eNumPreds, with the given
// number of body atoms and variable pool size. The head uses the first
// two variables, and the body is forced to mention them so the query is
// safe.
func RandomCQ(rng *rand.Rand, head string, atoms, vars, numPreds int) cq.CQ {
	v := func(i int) ast.Term { return ast.V(fmt.Sprintf("V%d", i)) }
	body := make([]ast.Atom, atoms)
	for i := range body {
		pred := fmt.Sprintf("e%d", rng.Intn(numPreds)+1)
		a, b := rng.Intn(vars), rng.Intn(vars)
		// Force the distinguished variables to occur.
		if i == 0 {
			a = 0
		}
		if i == atoms-1 {
			b = 1 % vars
		}
		body[i] = ast.NewAtom(pred, v(a), v(b))
	}
	return cq.CQ{Head: ast.NewAtom(head, v(0), v(1%vars)), Body: body}
}

// RandomLinearProgram returns a random path-linear recursive program
// with one recursive rule and one base rule over binary EDB predicates.
// The recursive rule has the shape
//
//	p(X, Y) :- e_i(X, Z1), ..., e_j(Zk-1, Zk), p(Zk, Y).
//
// with 1..maxChain EDB atoms, and the base rule is p(X, Y) :- b(X, Y).
func RandomLinearProgram(rng *rand.Rand, maxChain, numPreds int) *ast.Program {
	k := 1 + rng.Intn(maxChain)
	v := func(i int) ast.Term { return ast.V(fmt.Sprintf("Z%d", i)) }
	var body []ast.Atom
	for i := 0; i < k; i++ {
		pred := fmt.Sprintf("e%d", rng.Intn(numPreds)+1)
		body = append(body, ast.NewAtom(pred, v(i), v(i+1)))
	}
	body = append(body, ast.NewAtom("p", v(k), ast.V("Y")))
	return ast.NewProgram(
		ast.NewRule(ast.NewAtom("p", v(0), ast.V("Y")), body...),
		ast.NewRule(ast.NewAtom("p", ast.V("X"), ast.V("Y")), ast.NewAtom("b", ast.V("X"), ast.V("Y"))),
	)
}
