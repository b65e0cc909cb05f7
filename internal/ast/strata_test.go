package ast

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// refSCCs is the straightforward map-based Tarjan over DependenceGraph:
// nodes visited in sorted order, edges in first-appearance order,
// components reversed to callees-first. The dense implementation must
// reproduce it exactly, member order included, because evaluation and
// maintenance run strata in this order.
func refSCCs(p *Program) [][]PredSym {
	edges := p.DependenceGraph()
	nodes := make([]PredSym, 0, len(edges))
	for n := range edges {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return cmpSym(nodes[i], nodes[j]) < 0 })
	index := make(map[PredSym]int)
	low := make(map[PredSym]int)
	onStack := make(map[PredSym]bool)
	var stack []PredSym
	var sccs [][]PredSym
	counter := 0
	var visit func(v PredSym)
	visit = func(v PredSym) {
		index[v], low[v] = counter, counter
		counter++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range edges[v] {
			if _, seen := index[w]; !seen {
				visit(w)
				low[v] = min(low[v], low[w])
			} else if onStack[w] {
				low[v] = min(low[v], index[w])
			}
		}
		if low[v] == index[v] {
			var comp []PredSym
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			sccs = append(sccs, comp)
		}
	}
	for _, n := range nodes {
		if _, seen := index[n]; !seen {
			visit(n)
		}
	}
	for i, j := 0, len(sccs)-1; i < j; i, j = i+1, j-1 {
		sccs[i], sccs[j] = sccs[j], sccs[i]
	}
	return sccs
}

// refStrata builds the schedule from refSCCs the obvious way.
func refStrata(p *Program) []Stratum {
	edges := p.DependenceGraph()
	var out []Stratum
	for _, comp := range refSCCs(p) {
		var s Stratum
		for _, sym := range comp {
			for ri, r := range p.Rules {
				if r.Head.Sym() == sym {
					s.Rules = append(s.Rules, ri)
				}
			}
			if p.IsIDB(sym) {
				s.Preds = append(s.Preds, sym)
			}
		}
		if len(s.Preds) == 0 {
			continue
		}
		sort.Slice(s.Preds, func(i, j int) bool { return cmpSym(s.Preds[i], s.Preds[j]) < 0 })
		sort.Ints(s.Rules)
		s.Recursive = len(comp) > 1
		for _, w := range edges[comp[0]] {
			if w == comp[0] {
				s.Recursive = true
			}
		}
		out = append(out, s)
	}
	return out
}

// randomProgram draws a program over a few predicate names and arities,
// dense enough to produce cycles, self-loops, and pure-EDB components.
func randomProgram(rng *rand.Rand) *Program {
	names := []string{"a", "b", "c", "d", "e", "f", "g"}
	atom := func() Atom {
		return NewAtom(names[rng.Intn(len(names))], make([]Term, rng.Intn(2))...)
	}
	p := &Program{}
	for i := rng.Intn(9); i >= 0; i-- {
		r := Rule{Head: atom()}
		for j := rng.Intn(4); j > 0; j-- {
			r.Body = append(r.Body, atom())
		}
		p.Rules = append(p.Rules, r)
	}
	return p
}

func TestStrataMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		p := randomProgram(rng)
		if got, want := p.SCCs(), refSCCs(p); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("program %d:\n%sSCCs = %v, want %v", i, p, got, want)
		}
		got, want := p.Strata(), refStrata(p)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("program %d:\n%sStrata = %v, want %v", i, p, got, want)
		}
	}
}

// TestStrataAllocs pins stratification to a fixed number of allocations:
// every evaluation computes the schedule, including one-rule lookups.
func TestStrataAllocs(t *testing.T) {
	p := NewProgram(NewRule(NewAtom("q", V("Y")), NewAtom("tc", C("a"), V("Y"))))
	if n := testing.AllocsPerRun(10, func() { p.Strata() }); n > 5 {
		t.Errorf("Strata of a one-rule program: %.0f allocs, want at most 5", n)
	}
}

func TestRecursivePredsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 2000; i++ {
		p := randomProgram(rng)
		want := make(map[PredSym]bool)
		for _, s := range refStrata(p) {
			if s.Recursive {
				for _, sym := range s.Preds {
					want[sym] = true
				}
			}
		}
		if got := p.RecursivePreds(); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("program %d:\n%sRecursivePreds = %v, want %v", i, p, got, want)
		}
	}
}
