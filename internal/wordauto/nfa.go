// Package wordauto implements nondeterministic finite automata on words
// (paper §4.1): Boolean operations (Proposition 4.1), emptiness
// (Proposition 4.2), and containment (Proposition 4.3). Containment is
// decided by a lazy subset construction over the right automaton fused
// with a product against the left automaton, with antichain pruning —
// the PSPACE procedure of [MS72] engineered for practical instances.
//
// States and symbols are dense integers; callers keep their own label
// tables (see Interner).
package wordauto

import (
	"fmt"
	"sort"
	"strings"
)

// NFA is a nondeterministic finite automaton. States are 0..NumStates-1
// and symbols 0..NumSymbols-1. The zero value is not usable; construct
// with New.
type NFA struct {
	numStates  int
	numSymbols int
	start      []int
	accept     []bool
	// trans[state] maps symbol -> successor states.
	trans []map[int][]int
}

// New returns an automaton with the given numbers of states and symbols,
// no start states, no accepting states, and no transitions.
func New(states, symbols int) *NFA {
	n := &NFA{
		numStates:  states,
		numSymbols: symbols,
		accept:     make([]bool, states),
		trans:      make([]map[int][]int, states),
	}
	return n
}

// NumStates returns the number of states.
func (n *NFA) NumStates() int { return n.numStates }

// NumTransitions returns the total number of transition edges.
func (n *NFA) NumTransitions() int {
	total := 0
	for _, m := range n.trans {
		//repolint:allow maprange — counting only; order-insensitive.
		for _, ts := range m {
			total += len(ts)
		}
	}
	return total
}

// AddStart marks state s as a start state.
func (n *NFA) AddStart(s int) { n.start = append(n.start, s) }

// SetAccept marks state s as accepting.
func (n *NFA) SetAccept(s int) { n.accept[s] = true }

// Start returns the start states.
func (n *NFA) Start() []int { return n.start }

// AddTransition adds the transition s --a--> t.
func (n *NFA) AddTransition(s, a, t int) {
	if n.trans[s] == nil {
		n.trans[s] = make(map[int][]int)
	}
	for _, u := range n.trans[s][a] {
		if u == t {
			return
		}
	}
	n.trans[s][a] = append(n.trans[s][a], t)
}

// Next returns the successors of s on symbol a.
func (n *NFA) Next(s, a int) []int {
	if n.trans[s] == nil {
		return nil
	}
	return n.trans[s][a]
}

// SymbolsFrom returns the symbols with at least one transition out of s,
// sorted.
func (n *NFA) SymbolsFrom(s int) []int {
	if n.trans[s] == nil {
		return nil
	}
	out := make([]int, 0, len(n.trans[s]))
	for a := range n.trans[s] {
		//repolint:allow maprange — symbols are sorted before returning below.
		out = append(out, a)
	}
	sort.Ints(out)
	return out
}

// Accepts reports whether the automaton accepts the word.
func (n *NFA) Accepts(word []int) bool {
	cur := make(map[int]bool)
	for _, s := range n.start {
		cur[s] = true
	}
	for _, a := range word {
		next := make(map[int]bool)
		//repolint:allow maprange — set-to-set image; order-insensitive.
		for s := range cur {
			for _, t := range n.Next(s, a) {
				next[t] = true
			}
		}
		cur = next
		if len(cur) == 0 {
			return false
		}
	}
	//repolint:allow maprange — existential check; order-insensitive.
	for s := range cur {
		if n.accept[s] {
			return true
		}
	}
	return false
}

// Empty reports whether the language is empty; when it is not, a
// shortest accepted word is returned (Proposition 4.2: emptiness is
// graph reachability).
func (n *NFA) Empty() (bool, []int) {
	type entry struct {
		state  int
		parent int // index into queue, -1 for roots
		sym    int
	}
	var queue []entry
	seen := make([]bool, n.numStates)
	for _, s := range n.start {
		if !seen[s] {
			seen[s] = true
			queue = append(queue, entry{state: s, parent: -1})
		}
	}
	for i := 0; i < len(queue); i++ {
		e := queue[i]
		if n.accept[e.state] {
			// Reconstruct the word.
			var rev []int
			for j := i; queue[j].parent >= 0; j = queue[j].parent {
				rev = append(rev, queue[j].sym)
			}
			word := make([]int, len(rev))
			for k := range rev {
				word[k] = rev[len(rev)-1-k]
			}
			return false, word
		}
		for _, a := range n.SymbolsFrom(e.state) {
			for _, t := range n.Next(e.state, a) {
				if !seen[t] {
					seen[t] = true
					queue = append(queue, entry{state: t, parent: i, sym: a})
				}
			}
		}
	}
	return true, nil
}

// String renders the automaton compactly for debugging.
func (n *NFA) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "NFA(states=%d, symbols=%d, start=%v)\n", n.numStates, n.numSymbols, n.start)
	for s := 0; s < n.numStates; s++ {
		for _, a := range n.SymbolsFrom(s) {
			fmt.Fprintf(&b, "  %d --%d--> %v\n", s, a, n.Next(s, a))
		}
		if n.accept[s] {
			fmt.Fprintf(&b, "  %d accepting\n", s)
		}
	}
	return b.String()
}
