package ast

import (
	"slices"
	"strings"
)

// Stratum is one evaluation stratum of a program: the rules defining the
// predicates of one strongly connected component of the dependence
// graph. Strata are ordered callees-first, so every body atom of a
// stratum's rules refers either to an EDB predicate or to a predicate
// defined in the same or an earlier stratum — fixpointing the strata in
// order therefore computes the program's least fixpoint (the rule sets
// partition the program and evaluation is monotone).
type Stratum struct {
	// Preds are the component's intensional predicates, sorted by name
	// then arity.
	Preds []PredSym
	// Recursive reports whether the component is a dependence-graph
	// cycle (more than one predicate, or one predicate with a
	// self-loop): a recursive stratum needs a fixpoint loop, a
	// nonrecursive one is complete after a single round.
	Recursive bool
	// Rules are the indexes into Program.Rules of the rules whose head
	// predicate lies in the component, ascending.
	Rules []int
}

// sccGraph is the dependence graph over dense predicate indexes, with
// its strongly connected components. Every evaluation stratifies its
// program, so the graph lives in a handful of flat slices rather than
// maps: building it costs a fixed number of allocations whatever the
// program's size.
type sccGraph struct {
	// syms lists every predicate of the program, sorted by name then
	// arity; a predicate's index into syms is its node.
	syms []PredSym
	// head[ri] is the node of rule ri's head.
	head []int
	// out[off[v]:end[v]] lists the dependents of v (the heads of rules
	// whose body uses v), deduplicated, in first-appearance order.
	off, end, out []int
	// comp[v] is v's component, numbered in Tarjan's emission order:
	// a component's dependents are emitted before it, so callees-first
	// order is descending component number.
	comp []int
	// members[cstart[c]:cstart[c+1]] lists component c's nodes in the
	// order Tarjan popped them.
	members, cstart []int
	ncomp           int

	// Tarjan state.
	index, low, stack []int
	counter           int
}

func cmpSym(a, b PredSym) int {
	if c := strings.Compare(a.Name, b.Name); c != 0 {
		return c
	}
	return a.Arity - b.Arity
}

// sccs builds the dependence graph of p and its components. Nodes are
// visited in sorted order and edges in first-appearance order, so the
// components and their order are a pure function of the program.
func (p *Program) sccs() sccGraph {
	var g sccGraph
	natoms := 0
	for _, r := range p.Rules {
		natoms += 1 + len(r.Body)
	}
	syms := make([]PredSym, 0, natoms)
	for _, r := range p.Rules {
		syms = append(syms, r.Head.Sym())
		for _, a := range r.Body {
			syms = append(syms, a.Sym())
		}
	}
	slices.SortFunc(syms, cmpSym)
	g.syms = slices.Compact(syms)
	node := func(a Atom) int {
		v, _ := slices.BinarySearchFunc(g.syms, a.Sym(), cmpSym)
		return v
	}

	n, nr, nedges := len(g.syms), len(p.Rules), natoms-len(p.Rules)
	ints := make([]int, nr+(n+1)+n+nedges+n+n+(n+1)+3*n)
	carve := func(k int) []int {
		s := ints[:k:k]
		ints = ints[k:]
		return s
	}
	g.head, g.off, g.end, g.out = carve(nr), carve(n+1), carve(n), carve(nedges)
	g.comp, g.members, g.cstart = carve(n), carve(n), carve(n+1)
	g.index, g.low, g.stack = carve(n), carve(n), carve(n)[:0]

	// Counting sort of the body→head edges by body node keeps each
	// node's list in rule order; a per-head stamp then drops repeats.
	for ri, r := range p.Rules {
		g.head[ri] = node(r.Head)
		for _, a := range r.Body {
			g.off[node(a)+1]++
		}
	}
	for v := 0; v < n; v++ {
		g.off[v+1] += g.off[v]
	}
	copy(g.end, g.off[:n])
	for ri, r := range p.Rules {
		for _, a := range r.Body {
			b := node(a)
			g.out[g.end[b]] = g.head[ri]
			g.end[b]++
		}
	}
	stamp := g.comp // free until Tarjan assigns components
	for v := range stamp {
		stamp[v] = -1
	}
	for v := 0; v < n; v++ {
		k := g.off[v]
		for _, w := range g.out[g.off[v]:g.end[v]] {
			if stamp[w] != v {
				stamp[w] = v
				g.out[k] = w
				k++
			}
		}
		g.end[v] = k
	}

	for v := 0; v < n; v++ {
		g.index[v], g.comp[v] = -1, -1
	}
	for v := 0; v < n; v++ {
		if g.index[v] < 0 {
			g.strongconnect(v)
		}
	}
	return g
}

// strongconnect is Tarjan's visit of v. A node is on the stack exactly
// when it has been visited and not yet assigned a component.
func (g *sccGraph) strongconnect(v int) {
	g.index[v], g.low[v] = g.counter, g.counter
	g.counter++
	g.stack = append(g.stack, v)
	for _, w := range g.out[g.off[v]:g.end[v]] {
		if g.index[w] < 0 {
			g.strongconnect(w)
			g.low[v] = min(g.low[v], g.low[w])
		} else if g.comp[w] < 0 {
			g.low[v] = min(g.low[v], g.index[w])
		}
	}
	if g.low[v] != g.index[v] {
		return
	}
	k := g.cstart[g.ncomp]
	for {
		w := g.stack[len(g.stack)-1]
		g.stack = g.stack[:len(g.stack)-1]
		g.comp[w] = g.ncomp
		g.members[k] = w
		k++
		if w == v {
			break
		}
	}
	g.ncomp++
	g.cstart[g.ncomp] = k
}

// recursive reports whether component c is a dependence cycle: more
// than one predicate, or one with a self-loop.
func (g *sccGraph) recursive(c int) bool {
	if g.cstart[c+1]-g.cstart[c] > 1 {
		return true
	}
	v := g.members[g.cstart[c]]
	return slices.Contains(g.out[g.off[v]:g.end[v]], v)
}

// SCCs returns the strongly connected components of the dependence graph
// in reverse topological order (callees before callers): if component i
// contains a predicate used by a predicate in component j, then i <= j.
func (p *Program) SCCs() [][]PredSym {
	g := p.sccs()
	out := make([][]PredSym, 0, g.ncomp)
	for c := g.ncomp - 1; c >= 0; c-- {
		comp := make([]PredSym, 0, g.cstart[c+1]-g.cstart[c])
		for _, v := range g.members[g.cstart[c]:g.cstart[c+1]] {
			comp = append(comp, g.syms[v])
		}
		out = append(out, comp)
	}
	return out
}

// Strata returns the program's evaluation schedule: one Stratum per
// dependence-graph SCC that contains at least one intensional
// predicate, in topological (callees-first) order. The schedule is a
// pure function of the program: SCCs enumerates components
// deterministically, predicate and rule lists are sorted, so repeated
// calls — and calls from different worker configurations — produce
// identical schedules.
func (p *Program) Strata() []Stratum {
	g := p.sccs()
	// Bucket head predicates and rules by component; walking nodes and
	// rules in ascending order leaves every bucket sorted. npreds and
	// nrules count per component; npreds[c] then becomes c's position
	// in the schedule. They and isHead reuse Tarjan's arrays, which are
	// free once sccs returns.
	npreds, nrules := g.index[:g.ncomp], g.low[:g.ncomp]
	clear(npreds)
	clear(nrules)
	isHead := g.stack[:len(g.syms)]
	clear(isHead)
	nheads := 0
	for _, v := range g.head {
		if isHead[v] == 0 {
			isHead[v] = 1
			npreds[g.comp[v]]++
			nheads++
		}
		nrules[g.comp[v]]++
	}
	preds := make([]PredSym, nheads)
	rules := make([]int, len(g.head))
	out := make([]Stratum, 0, g.ncomp)
	for c := g.ncomp - 1; c >= 0; c-- {
		if npreds[c] == 0 {
			continue // pure-EDB component
		}
		out = append(out, Stratum{
			Preds:     preds[:0:npreds[c]],
			Recursive: g.recursive(c),
			Rules:     rules[:0:nrules[c]],
		})
		preds, rules = preds[npreds[c]:], rules[nrules[c]:]
		npreds[c] = len(out) - 1
	}
	for v, sym := range g.syms {
		if isHead[v] != 0 {
			s := &out[npreds[g.comp[v]]]
			s.Preds = append(s.Preds, sym)
		}
	}
	for ri, v := range g.head {
		s := &out[npreds[g.comp[v]]]
		s.Rules = append(s.Rules, ri)
	}
	return out
}

// FormatStrata renders a schedule compactly, e.g. "{tc}* -> {j} -> {t}":
// one group per stratum in evaluation order, recursive strata starred.
func FormatStrata(strata []Stratum) string {
	parts := make([]string, len(strata))
	for i, s := range strata {
		names := make([]string, len(s.Preds))
		for j, sym := range s.Preds {
			names[j] = sym.Name
		}
		star := ""
		if s.Recursive {
			star = "*"
		}
		parts[i] = "{" + strings.Join(names, " ") + "}" + star
	}
	return strings.Join(parts, " -> ")
}
