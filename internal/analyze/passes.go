package analyze

import (
	"fmt"
	"sort"
	"strings"

	"datalogeq/internal/ast"
	"datalogeq/internal/core"
	"datalogeq/internal/cq"
	"datalogeq/internal/guard"
)

// passArity flags predicates used at more than one arity (DL0001,
// error). The first occurrence fixes the expected arity; every later
// occurrence at a different arity is reported at its own position.
func passArity(c *context) {
	type first struct {
		arity int
		pos   ast.Pos
	}
	seen := make(map[string]first)
	check := func(a ast.Atom) {
		if f, ok := seen[a.Pred]; ok {
			if f.arity != len(a.Args) {
				c.arityConflict = true
				c.emit("DL0001", Error, a.Pos, fmt.Sprintf(
					"predicate %s used with arity %d here but arity %d at %s",
					a.Pred, len(a.Args), f.arity, f.pos))
			}
			return
		}
		seen[a.Pred] = first{arity: len(a.Args), pos: a.Pos}
	}
	for _, r := range c.prog.Rules {
		check(r.Head)
		for _, a := range r.Body {
			check(a)
		}
	}
}

// passSafety flags head variables that do not occur in the body
// (DL0002, warning): the rule is unsafe in the classical sense and the
// evaluator falls back to active-domain semantics for those variables,
// while several decision procedures reject the program outright.
func passSafety(c *context) {
	for _, r := range c.prog.Rules {
		if r.IsFact() {
			continue
		}
		bv := r.BodyVars()
		for _, v := range r.Head.Vars(nil) {
			if containsStr(bv, v) {
				continue
			}
			pos, _ := r.Head.VarPos(v)
			if len(r.Body) == 0 {
				c.emit("DL0002", Warning, pos, fmt.Sprintf(
					"head variable %s of bodiless rule ranges over the active domain", v))
			} else {
				c.emit("DL0002", Warning, pos, fmt.Sprintf(
					"unsafe rule: head variable %s does not occur in the body (active-domain semantics apply)", v))
			}
		}
	}
}

// passGoal checks the goal predicate (DL0003): an error when it occurs
// nowhere in the program, an info when it is extensional (queries
// would return database facts unchanged).
func passGoal(c *context) {
	if c.goalDefined {
		return
	}
	for _, r := range c.prog.Rules {
		for _, a := range r.Body {
			if a.Pred == c.opts.Goal {
				c.emit("DL0003", Info, a.Pos, fmt.Sprintf(
					"goal predicate %s is extensional (no defining rule); queries return database facts", c.opts.Goal))
				return
			}
		}
	}
	c.emit("DL0003", Error, ast.Pos{}, fmt.Sprintf(
		"goal predicate %s does not occur in the program", c.opts.Goal))
}

// passUnusedPred flags intensional predicates that the goal does not
// transitively depend on (DL0004, warning), one report per predicate
// at its first defining rule.
func passUnusedPred(c *context) {
	if !c.goalDefined {
		return
	}
	for i, r := range c.prog.Rules {
		sym := r.Head.Sym()
		if c.contributes[sym] || c.deadPreds[sym] {
			continue
		}
		c.deadPreds[sym] = true
		c.deadFirstRule[sym] = i
		c.emit("DL0004", Warning, r.Pos, fmt.Sprintf(
			"predicate %s is never used: goal %s does not depend on it", sym, c.opts.Goal))
	}
}

// passUnreachableRule flags individual rules whose head predicate
// cannot contribute to the goal (DL0005, warning). The rule where
// DL0004 already reported the predicate itself is skipped, so a dead
// predicate yields one DL0004 plus one DL0005 per additional rule
// rather than doubled noise on the same line.
func passUnreachableRule(c *context) {
	if !c.goalDefined {
		return
	}
	for i, r := range c.prog.Rules {
		sym := r.Head.Sym()
		if c.contributes[sym] {
			continue
		}
		if first, ok := c.deadFirstRule[sym]; ok && first == i {
			continue
		}
		c.emit("DL0005", Warning, r.Pos, fmt.Sprintf(
			"rule for %s cannot contribute to goal %s", sym, c.opts.Goal))
	}
}

// passDuplicate flags rules whose canonical form (invariant under
// variable renaming and body reordering, cq.NormalizeKey) matches an
// earlier rule (DL0006, warning).
func passDuplicate(c *context) {
	seen := make(map[string]int)
	for i, r := range c.prog.Rules {
		key := cq.CQ{Head: r.Head, Body: r.Body}.NormalizeKey()
		if j, ok := seen[key]; ok {
			c.dupRules[i] = true
			c.emit("DL0006", Warning, r.Pos, fmt.Sprintf(
				"duplicate rule: identical (up to renaming) to the rule at %s", c.prog.Rules[j].Pos))
			continue
		}
		seen[key] = i
	}
}

// maxSubsumptionBody bounds the per-rule body size fed to the
// backtracking containment search, and maxSubsumptionGroup the number
// of rules per head predicate considered pairwise; beyond them the
// pass stays silent rather than risking quadratic or exponential work
// on adversarial input (e.g. a program that is mostly ground facts).
const (
	maxSubsumptionBody  = 12
	maxSubsumptionGroup = 64
)

// passSubsumed flags rules subsumed by another rule for the same head
// predicate via a containment mapping (DL0007, warning): if rule r is
// contained in rule r' as conjunctive queries (Theorem 2.2, treating
// all body predicates as extensional), every fact r derives in a
// fixpoint round is also derived by r', so r is redundant. Exact
// duplicates are already covered by DL0006 and skipped here.
func passSubsumed(c *context) {
	groups := make(map[ast.PredSym][]int)
	for i, r := range c.prog.Rules {
		if c.dupRules[i] || len(r.Body) > maxSubsumptionBody {
			continue
		}
		groups[r.Head.Sym()] = append(groups[r.Head.Sym()], i)
	}
	var syms []ast.PredSym
	for sym, idxs := range groups {
		if len(idxs) > 1 && len(idxs) <= maxSubsumptionGroup {
			syms = append(syms, sym)
		}
	}
	sort.Slice(syms, func(i, j int) bool {
		if syms[i].Name != syms[j].Name {
			return syms[i].Name < syms[j].Name
		}
		return syms[i].Arity < syms[j].Arity
	})
	for _, sym := range syms {
		idxs := groups[sym]
		for _, i := range idxs {
			ri := c.prog.Rules[i]
			qi := cq.CQ{Head: ri.Head, Body: ri.Body}
			for _, j := range idxs {
				if i == j {
					continue
				}
				rj := c.prog.Rules[j]
				qj := cq.CQ{Head: rj.Head, Body: rj.Body}
				if !cq.Contained(qi, qj) {
					continue
				}
				// For mutually subsuming (equivalent) rules keep the
				// earlier one and flag only the later.
				if j > i && cq.Contained(qj, qi) {
					continue
				}
				c.emit("DL0007", Warning, ri.Pos, fmt.Sprintf(
					"rule is subsumed by the rule for %s at %s (containment mapping exists)", sym, rj.Pos))
				break
			}
		}
	}
}

// passClassify reports the §2.1 recursion classification (DL0008,
// info): the program-level class — nonrecursive, linear (at most one
// intensional subgoal per rule), piecewise-linear (at most one subgoal
// in the head's component per rule), or general recursive — and one
// info per recursive component of the dependence graph.
func passClassify(c *context) {
	if len(c.prog.Rules) == 0 {
		return
	}
	pos := c.prog.Rules[0].Pos
	switch {
	case c.prog.IsNonrecursive():
		c.emit("DL0008", Info, pos,
			"program is nonrecursive: the dependence graph is acyclic (§2.1); it is equivalent to a union of conjunctive queries")
	case c.prog.IsPathLinear():
		c.emit("DL0008", Info, pos,
			"program is linear recursive: every rule has at most one intensional subgoal; equivalence to a nonrecursive program is decidable in EXPSPACE (Thm 6.6)")
	case c.prog.IsLinear():
		c.emit("DL0008", Info, pos,
			"program is piecewise-linear: every rule has at most one subgoal in its head's component; inlining nonrecursive predicates makes it linear")
	default:
		c.emit("DL0008", Info, pos,
			"program is recursive (nonlinear): some rule has two subgoals in its head's component; equivalence to a nonrecursive program is decidable in 2EXPTIME (Thm 5.12)")
	}
	// Per-component reports for the recursive SCCs, at the first rule
	// whose head lies in the component.
	edges := c.prog.DependenceGraph()
	for _, comp := range c.prog.SCCs() {
		if !sccRecursive(comp, edges) {
			continue
		}
		inComp := make(map[ast.PredSym]bool, len(comp))
		for _, s := range comp {
			inComp[s] = true
		}
		names := make([]string, len(comp))
		for i, s := range comp {
			names[i] = s.String()
		}
		sort.Strings(names)
		linear := true
		compPos := ast.Pos{}
		for _, r := range c.prog.Rules {
			if !inComp[r.Head.Sym()] {
				continue
			}
			if !compPos.IsValid() {
				compPos = r.Pos
			}
			n := 0
			for _, a := range r.Body {
				if inComp[a.Sym()] {
					n++
				}
			}
			if n > 1 {
				linear = false
			}
		}
		kind := "linear"
		if !linear {
			kind = "nonlinear"
		}
		c.emit("DL0008", Info, compPos, fmt.Sprintf(
			"recursive component {%s} is %s", strings.Join(names, ", "), kind))
	}
}

// sccRecursive reports whether the component is recursive: more than
// one predicate, or a single predicate with a self-loop.
func sccRecursive(comp []ast.PredSym, edges map[ast.PredSym][]ast.PredSym) bool {
	if len(comp) > 1 {
		return true
	}
	n := comp[0]
	for _, m := range edges[n] {
		if m == n {
			return true
		}
	}
	return false
}

// Gating bounds for the boundedness search (DL0009): the pass runs the
// full containment machinery of internal/core, so it is restricted to
// small programs where the automata stay tiny.
const (
	boundedMaxRules    = 10
	boundedMaxRuleVars = 6
)

// passBounded searches for a proof that a recursive program is bounded
// (DL0009, warning): equivalent to the union of its expansions up to a
// small height, via core.BoundedRewriting (a sound, incomplete check —
// general boundedness is undecidable [GMSV93]). A bounded program pays
// for recursion it does not need.
func passBounded(c *context) {
	if c.opts.DisableBoundedness || c.arityConflict || !c.goalDefined || c.prog.IsNonrecursive() {
		return
	}
	if len(c.prog.Rules) > boundedMaxRules || c.prog.MaxRuleVars() > boundedMaxRuleVars {
		return
	}
	for _, r := range c.prog.Rules {
		if !r.IsSafe() {
			// The expansion machinery assumes safe rules.
			return
		}
	}
	depth := c.opts.BoundedDepth
	if depth <= 0 {
		depth = 2
	}
	maxStates := c.opts.BoundedMaxStates
	if maxStates <= 0 {
		maxStates = 4096
	}
	size, k, ok := boundedSearch(c.prog, c.opts.Goal, depth, maxStates)
	if !ok {
		return
	}
	pos := ast.Pos{}
	recursive := c.prog.RecursivePreds()
	for _, r := range c.prog.Rules {
		if recursive[r.Head.Sym()] {
			pos = r.Pos
			break
		}
	}
	c.emit("DL0009", Warning, pos, fmt.Sprintf(
		"program is bounded: equivalent to the union of its %d expansions of height ≤ %d; the recursion can be eliminated", size, k))
}

// boundedSearch wraps core.BoundedRewriting, converting resource-limit
// errors and any internal panic into "no finding": the analyzer must
// never crash on input the parser accepts.
func boundedSearch(prog *ast.Program, goal string, depth, maxStates int) (size, k int, ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	u, kk, found, err := core.BoundedRewriting(prog, goal, depth, core.Options{Budget: guard.Budget{MaxStates: int64(maxStates)}})
	if err != nil || !found {
		return 0, 0, false
	}
	return u.Size(), kk, true
}

// passCartesian flags rule bodies that split into two or more
// variable-disjoint groups of non-ground subgoals (DL0010, warning):
// the evaluator joins left to right, so disjoint groups multiply into
// a Cartesian product on the hot path.
func passCartesian(c *context) {
	for _, r := range c.prog.Rules {
		if len(r.Body) < 2 {
			continue
		}
		// Union-find over body atoms sharing at least one variable;
		// ground atoms are constant-time filters, not product factors.
		parent := make([]int, len(r.Body))
		for i := range parent {
			parent[i] = i
		}
		var find func(int) int
		find = func(x int) int {
			for parent[x] != x {
				parent[x] = parent[parent[x]]
				x = parent[x]
			}
			return x
		}
		byVar := make(map[string]int)
		for i, a := range r.Body {
			for _, t := range a.Args {
				if t.Kind != ast.Var {
					continue
				}
				if j, ok := byVar[t.Name]; ok {
					parent[find(i)] = find(j)
				} else {
					byVar[t.Name] = i
				}
			}
		}
		groups := make(map[int]int)
		for i, a := range r.Body {
			if a.IsGround() {
				continue
			}
			groups[find(i)]++
		}
		if len(groups) > 1 {
			c.emit("DL0010", Warning, r.Pos, fmt.Sprintf(
				"rule body is a Cartesian product of %d variable-disjoint subgoal groups", len(groups)))
		}
	}
}

// passSingleton reports variables that occur exactly once in a rule
// (DL0011, info — a common typo shape; prefix with _ to silence) and
// warns when a variable literally named "_" occurs more than once,
// since unlike in Prolog each occurrence denotes the *same* variable
// and silently joins positions (DL0011, warning).
func passSingleton(c *context) {
	for _, r := range c.prog.Rules {
		counts := make(map[string]int)
		countAtom := func(a ast.Atom) {
			for _, t := range a.Args {
				if t.Kind == ast.Var {
					counts[t.Name]++
				}
			}
		}
		countAtom(r.Head)
		for _, a := range r.Body {
			countAtom(a)
		}
		// Report in order of first occurrence for determinism.
		for _, v := range r.Vars() {
			n := counts[v]
			if v == "_" && n > 1 {
				pos := varPosInRule(r, v)
				c.emit("DL0011", Warning, pos, fmt.Sprintf(
					"variable _ occurs %d times and joins those positions (it is an ordinary variable, not a wildcard)", n))
				continue
			}
			if n == 1 && !strings.HasPrefix(v, "_") {
				pos := varPosInRule(r, v)
				c.emit("DL0011", Info, pos, fmt.Sprintf(
					"variable %s occurs only once; prefix it with _ if this is intentional", v))
			}
		}
	}
}

// varPosInRule returns the position of the first occurrence of v in
// the rule (head first), falling back to the rule position.
func varPosInRule(r ast.Rule, v string) ast.Pos {
	if pos, ok := r.Head.VarPos(v); ok {
		return pos
	}
	for _, a := range r.Body {
		if pos, ok := a.VarPos(v); ok {
			return pos
		}
	}
	return r.Pos
}

func containsStr(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}
