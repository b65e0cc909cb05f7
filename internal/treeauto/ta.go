// Package treeauto implements nondeterministic top-down automata on
// finite labeled trees (paper §4.2): acceptance, Boolean operations
// (Proposition 4.4), emptiness in polynomial time (Proposition 4.5), and
// containment (Proposition 4.6, EXPTIME). Containment is decided by a
// lazy bottom-up subset construction over the right automaton fused with
// the left automaton, with antichain pruning.
//
// Leaf acceptance is normalized: instead of the paper's final-state set
// F (a leaf accepts when some transition tuple lies entirely within F),
// a leaf accepts when the empty tuple is a transition of its
// (state, symbol) pair. The two formulations are equivalent: a paper
// automaton is normalized by adding the empty tuple wherever a
// fully-final tuple exists. The normalized form composes cleanly under
// product constructions, where tuples of different lengths otherwise
// fail to zip.
package treeauto

import (
	"fmt"
	"sort"
	"strings"
)

// Tree is a finite tree whose nodes carry integer symbols.
type Tree struct {
	Symbol   int
	Children []*Tree
}

// Leaf returns a leaf node.
func Leaf(symbol int) *Tree { return &Tree{Symbol: symbol} }

// Branch returns an internal node.
func Branch(symbol int, children ...*Tree) *Tree {
	return &Tree{Symbol: symbol, Children: children}
}

// Size returns the number of nodes.
func (t *Tree) Size() int {
	n := 1
	for _, c := range t.Children {
		n += c.Size()
	}
	return n
}

// Depth returns the height (a leaf has depth 1).
func (t *Tree) Depth() int {
	max := 0
	for _, c := range t.Children {
		if d := c.Depth(); d > max {
			max = d
		}
	}
	return max + 1
}

// String renders the tree as symbol(children...).
func (t *Tree) String() string {
	var b strings.Builder
	var rec func(*Tree)
	rec = func(n *Tree) {
		fmt.Fprintf(&b, "%d", n.Symbol)
		if len(n.Children) > 0 {
			b.WriteByte('(')
			for i, c := range n.Children {
				if i > 0 {
					b.WriteByte(',')
				}
				rec(c)
			}
			b.WriteByte(')')
		}
	}
	rec(t)
	return b.String()
}

// TA is a nondeterministic top-down tree automaton. States are
// 0..NumStates-1 and symbols 0..NumSymbols-1.
type TA struct {
	numStates  int
	numSymbols int
	start      []int
	// trans[state][symbol] is the set of child-state tuples; an empty
	// tuple means the state accepts a leaf with that symbol.
	trans []map[int][][]int
}

// New returns an automaton with no start states and no transitions.
func New(states, symbols int) *TA {
	return &TA{
		numStates:  states,
		numSymbols: symbols,
		trans:      make([]map[int][][]int, states),
	}
}

// NumStates returns the number of states.
func (a *TA) NumStates() int { return a.numStates }

// NumTransitions returns the number of transition tuples.
func (a *TA) NumTransitions() int {
	n := 0
	for _, m := range a.trans {
		//repolint:allow maprange — counting only; order-insensitive.
		for _, tuples := range m {
			n += len(tuples)
		}
	}
	return n
}

// AddStart marks s as a start (root) state.
func (a *TA) AddStart(s int) { a.start = append(a.start, s) }

// Start returns the start states.
func (a *TA) Start() []int { return a.start }

// AddTransition adds the tuple of child states to δ(state, symbol). An
// empty (nil) tuple makes the state accept a leaf labeled symbol.
func (a *TA) AddTransition(state, symbol int, children []int) {
	if a.trans[state] == nil {
		a.trans[state] = make(map[int][][]int)
	}
	for _, existing := range a.trans[state][symbol] {
		if equalInts(existing, children) {
			return
		}
	}
	a.trans[state][symbol] = append(a.trans[state][symbol], append([]int(nil), children...))
}

// Tuples returns the transition tuples of (state, symbol).
func (a *TA) Tuples(state, symbol int) [][]int {
	if a.trans[state] == nil {
		return nil
	}
	return a.trans[state][symbol]
}

// SymbolsFrom returns the symbols with transitions out of state, sorted.
func (a *TA) SymbolsFrom(state int) []int {
	if a.trans[state] == nil {
		return nil
	}
	out := make([]int, 0, len(a.trans[state]))
	for sym := range a.trans[state] {
		//repolint:allow maprange — symbols are sorted before returning below.
		out = append(out, sym)
	}
	sort.Ints(out)
	return out
}

// Accepts reports whether the automaton accepts the tree.
func (a *TA) Accepts(t *Tree) bool {
	memo := make(map[memoKey]bool)
	for _, s := range a.start {
		if a.acceptsFrom(s, t, memo) {
			return true
		}
	}
	return false
}

type memoKey struct {
	state int
	node  *Tree
}

func (a *TA) acceptsFrom(state int, t *Tree, memo map[memoKey]bool) bool {
	k := memoKey{state, t}
	if v, ok := memo[k]; ok {
		return v
	}
	memo[k] = false // cycles impossible on finite trees; placeholder
	result := false
	for _, tuple := range a.Tuples(state, t.Symbol) {
		if len(tuple) != len(t.Children) {
			continue
		}
		ok := true
		for i, child := range t.Children {
			if !a.acceptsFrom(tuple[i], child, memo) {
				ok = false
				break
			}
		}
		if ok {
			result = true
			break
		}
	}
	memo[k] = result
	return result
}

// Empty reports whether the tree language is empty; when nonempty, a
// minimal-height witness tree is returned. This is the bottom-up
// fixpoint of Proposition 4.5.
func (a *TA) Empty() (bool, *Tree) {
	// witness[s] is a tree accepted from state s, or nil.
	witness := make([]*Tree, a.numStates)
	have := make([]bool, a.numStates)
	changed := true
	for changed {
		changed = false
		for s := 0; s < a.numStates; s++ {
			if have[s] {
				continue
			}
			for _, sym := range a.SymbolsFrom(s) {
				for _, tuple := range a.Tuples(s, sym) {
					ok := true
					for _, c := range tuple {
						if !have[c] {
							ok = false
							break
						}
					}
					if !ok {
						continue
					}
					children := make([]*Tree, len(tuple))
					for i, c := range tuple {
						children[i] = witness[c]
					}
					witness[s] = &Tree{Symbol: sym, Children: children}
					have[s] = true
					changed = true
					break
				}
				if have[s] {
					break
				}
			}
		}
	}
	for _, s := range a.start {
		if have[s] {
			return false, witness[s]
		}
	}
	return true, nil
}

// RankedSymbol is a symbol together with an arity; determinization
// ranges over an explicit ranked alphabet.
type RankedSymbol struct {
	Symbol int
	Arity  int
}

// RankedAlphabet returns the (symbol, arity) pairs occurring in the
// automaton's transitions, sorted.
func (a *TA) RankedAlphabet() []RankedSymbol {
	seen := make(map[RankedSymbol]bool)
	for s := 0; s < a.numStates; s++ {
		for _, sym := range a.SymbolsFrom(s) {
			for _, tuple := range a.Tuples(s, sym) {
				seen[RankedSymbol{sym, len(tuple)}] = true
			}
		}
	}
	out := make([]RankedSymbol, 0, len(seen))
	for rs := range seen {
		//repolint:allow maprange — symbols are sorted before returning below.
		out = append(out, rs)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Symbol != out[j].Symbol {
			return out[i].Symbol < out[j].Symbol
		}
		return out[i].Arity < out[j].Arity
	})
	return out
}

// MergeRanked returns the union of two ranked alphabets.
func MergeRanked(a, b []RankedSymbol) []RankedSymbol {
	seen := make(map[RankedSymbol]bool)
	var out []RankedSymbol
	for _, rs := range append(append([]RankedSymbol(nil), a...), b...) {
		if !seen[rs] {
			seen[rs] = true
			out = append(out, rs)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Symbol != out[j].Symbol {
			return out[i].Symbol < out[j].Symbol
		}
		return out[i].Arity < out[j].Arity
	})
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
