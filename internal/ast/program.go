package ast

import (
	"fmt"
	"strings"
)

// Program is a Datalog program: a list of Horn rules. The zero value is
// an empty program. Programs are immutable by convention once analyzed;
// mutate Rules only before calling analysis methods, or use Clone.
type Program struct {
	Rules []Rule
}

// NewProgram constructs a program from rules.
func NewProgram(rules ...Rule) *Program {
	return &Program{Rules: rules}
}

// Clone returns a deep copy of the program.
func (p *Program) Clone() *Program {
	rules := make([]Rule, len(p.Rules))
	for i, r := range p.Rules {
		rules[i] = r.Clone()
	}
	return &Program{Rules: rules}
}

// String renders the program one rule per line.
func (p *Program) String() string {
	var b strings.Builder
	for _, r := range p.Rules {
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// IDBPreds returns the set of intensional predicate symbols: those that
// occur in the head of some rule.
func (p *Program) IDBPreds() map[PredSym]bool {
	out := make(map[PredSym]bool)
	for _, r := range p.Rules {
		out[r.Head.Sym()] = true
	}
	return out
}

// EDBPreds returns the set of extensional predicate symbols: those that
// occur only in rule bodies.
func (p *Program) EDBPreds() map[PredSym]bool {
	idb := p.IDBPreds()
	out := make(map[PredSym]bool)
	for _, r := range p.Rules {
		for _, a := range r.Body {
			if !idb[a.Sym()] {
				out[a.Sym()] = true
			}
		}
	}
	return out
}

// IsIDB reports whether sym is intensional in p.
func (p *Program) IsIDB(sym PredSym) bool {
	for _, r := range p.Rules {
		if r.Head.Sym() == sym {
			return true
		}
	}
	return false
}

// RulesFor returns the rules whose head predicate is sym, in program
// order.
func (p *Program) RulesFor(sym PredSym) []Rule {
	var out []Rule
	for _, r := range p.Rules {
		if r.Head.Sym() == sym {
			out = append(out, r)
		}
	}
	return out
}

// Validate checks structural well-formedness: consistent arity per
// predicate name, no IDB predicate also used at a different arity, and
// that every rule head is intensional by construction. It returns the
// first problem found, or nil.
func (p *Program) Validate() error {
	arity := make(map[string]int)
	check := func(a Atom) error {
		if got, ok := arity[a.Pred]; ok {
			if got != len(a.Args) {
				return fmt.Errorf("predicate %s used with arities %d and %d", a.Pred, got, len(a.Args))
			}
		} else {
			arity[a.Pred] = len(a.Args)
		}
		return nil
	}
	for _, r := range p.Rules {
		if err := check(r.Head); err != nil {
			return err
		}
		for _, a := range r.Body {
			if err := check(a); err != nil {
				return err
			}
		}
	}
	return nil
}

// DependenceGraph returns the dependence relation of the program as
// adjacency lists: edges[q] contains p when p depends on q, i.e. q occurs
// in the body of a rule whose head predicate is p (paper §2.1).
func (p *Program) DependenceGraph() map[PredSym][]PredSym {
	edges := make(map[PredSym][]PredSym)
	seen := make(map[[2]PredSym]bool)
	for _, r := range p.Rules {
		h := r.Head.Sym()
		if _, ok := edges[h]; !ok {
			edges[h] = nil
		}
		for _, a := range r.Body {
			b := a.Sym()
			if _, ok := edges[b]; !ok {
				edges[b] = nil
			}
			key := [2]PredSym{b, h}
			if !seen[key] {
				seen[key] = true
				edges[b] = append(edges[b], h)
			}
		}
	}
	return edges
}

// RecursivePreds returns the set of predicates that are recursive: those
// in a dependence-graph cycle (an SCC of size >= 2, or a self-loop).
func (p *Program) RecursivePreds() map[PredSym]bool {
	out := make(map[PredSym]bool)
	g := p.sccs()
	for c := 0; c < g.ncomp; c++ {
		if g.recursive(c) {
			for _, v := range g.members[g.cstart[c]:g.cstart[c+1]] {
				out[g.syms[v]] = true
			}
		}
	}
	return out
}

// IsRecursive reports whether the dependence graph has a cycle.
func (p *Program) IsRecursive() bool { return len(p.RecursivePreds()) > 0 }

// IsNonrecursive reports whether the dependence graph is acyclic.
func (p *Program) IsNonrecursive() bool { return !p.IsRecursive() }

// IsLinear reports whether every rule contains at most one recursive
// subgoal (paper §1): a body atom whose predicate is in the same SCC as
// the head predicate.
func (p *Program) IsLinear() bool {
	comp := p.sccIndex()
	for _, r := range p.Rules {
		h, ok := comp[r.Head.Sym()]
		if !ok {
			continue
		}
		n := 0
		for _, a := range r.Body {
			if ca, ok := comp[a.Sym()]; ok && ca == h {
				n++
			}
		}
		if n > 1 {
			return false
		}
	}
	return true
}

// IsPathLinear reports whether every rule contains at most one IDB
// subgoal of any kind, so that proof trees degenerate to paths. Programs
// that are linear but not path-linear can be made path-linear by inlining
// their nonrecursive IDB predicates (nonrec.InlineNonrecursive).
func (p *Program) IsPathLinear() bool {
	idb := p.IDBPreds()
	for _, r := range p.Rules {
		n := 0
		for _, a := range r.Body {
			if idb[a.Sym()] {
				n++
			}
		}
		if n > 1 {
			return false
		}
	}
	return true
}

func (p *Program) sccIndex() map[PredSym]int {
	out := make(map[PredSym]int)
	for i, comp := range p.SCCs() {
		for _, n := range comp {
			out[n] = i
		}
	}
	return out
}

// MaxRuleVars returns the maximum number of distinct variables in any
// rule of the program.
func (p *Program) MaxRuleVars() int {
	max := 0
	for _, r := range p.Rules {
		if n := len(r.Vars()); n > max {
			max = n
		}
	}
	return max
}

// VarNum returns varnum(p) as used for proof trees (paper §5.1): twice
// the maximum number of variables in any rule. See DESIGN.md for why we
// count all rule variables rather than only those in IDB atoms.
func (p *Program) VarNum() int { return 2 * p.MaxRuleVars() }

// GoalArity returns the arity of goal in p, or -1 if goal never occurs.
func (p *Program) GoalArity(goal string) int {
	for _, r := range p.Rules {
		if r.Head.Pred == goal {
			return len(r.Head.Args)
		}
		for _, a := range r.Body {
			if a.Pred == goal {
				return len(a.Args)
			}
		}
	}
	return -1
}
