package core

import (
	"context"
	"errors"
	"fmt"

	"datalogeq/internal/ast"
	"datalogeq/internal/cq"
	"datalogeq/internal/expansion"
	"datalogeq/internal/guard"
	"datalogeq/internal/par"
	"datalogeq/internal/treeauto"
	"datalogeq/internal/ucq"
	"datalogeq/internal/wordauto"
)

// Options bound the automata constructions.
type Options struct {
	// Ctx, when non-nil, cancels a check between stages and inside the
	// state-construction and antichain loops, returning Ctx.Err().
	Ctx context.Context
	// Workers bounds the goroutines used for per-disjunct automaton
	// construction and the containment check's subset steps; 0 or
	// negative means runtime.GOMAXPROCS(0). Results are identical for
	// every value.
	Workers int
	// Budget declares guard-layer limits across every phase of a check:
	// MaxStates bounds each automaton construction and the antichain
	// loop separately, MaxSteps bounds subset-step firings, MaxCanon
	// bounds canonical-database facts in the converse direction, and
	// MaxWall is one global deadline shared by all phases. A trip
	// degrades the check to an Unknown verdict (see Result.Verdict)
	// rather than an error.
	Budget guard.Budget
}

// ctxErr reports the options context's cancellation.
func (o Options) ctxErr() error {
	if o.Ctx == nil {
		return nil
	}
	return o.Ctx.Err()
}

// Stats reports the sizes of the constructed automata — the quantities
// Theorem 5.12's analysis is about.
type Stats struct {
	// Letters is the alphabet size: rule instances over var(Π) ∪ consts.
	Letters int
	// PtreeStates is the number of states of A^ptrees (IDB atoms).
	PtreeStates int
	// ThetaStates is the total number of states across the A^θᵢ.
	ThetaStates int
	// Budget is the guard-meter consumption of the construction phases
	// (states charged while building A^ptrees and the A^θᵢ). The
	// antichain phase's consumption travels on the *guard.LimitError
	// when it trips.
	Budget guard.Usage
}

// Witness is a counterexample to containment: a proof tree of the
// program admitting no strong containment mapping from any disjunct,
// together with the expansion it represents. Every database on which
// Query produces a tuple outside the union's answer is a concrete
// separating database; Query's own canonical database is one.
type Witness struct {
	Tree  *expansion.Tree
	Query cq.CQ
}

// Result is the outcome of a containment check.
type Result struct {
	// Contained is the answer when Verdict is Yes or No; it is false and
	// meaningless when Verdict is Unknown.
	Contained bool
	// Verdict is the three-valued outcome: Yes/No when the procedure ran
	// to completion, Unknown when a resource budget tripped first.
	Verdict Verdict
	Witness *Witness
	// Limit carries the budget trip when Verdict is Unknown.
	Limit *guard.LimitError
	Stats Stats
}

// verdictOf maps a completed boolean answer to a Verdict.
func verdictOf(ok bool) Verdict {
	if ok {
		return Yes
	}
	return No
}

// degrade converts a budget trip into a graceful Unknown result carrying
// the partial stats; every other error propagates unchanged.
func degrade(res Result, err error) (Result, error) {
	var le *guard.LimitError
	if errors.As(err, &le) {
		res.Contained = false
		res.Verdict = Unknown
		res.Witness = nil
		res.Limit = le
		return res, nil
	}
	return res, err
}

// ContainsUCQ decides whether the program (with the given goal
// predicate) is contained in the union of conjunctive queries — the
// 2EXPTIME procedure of Theorem 5.12: T(A^ptrees) ⊆ ∪ᵢ T(A^θᵢ), checked
// with the fused antichain algorithm of treeauto.Contains.
//
// On budget exhaustion the check degrades instead of failing: the
// result carries Verdict == Unknown, the *guard.LimitError that tripped,
// and the stats of whatever was constructed, with a nil error.
func ContainsUCQ(prog *ast.Program, goal string, q ucq.UCQ, opts Options) (res Result, err error) {
	defer guard.Recover(&err, "core/contains-ucq")
	opts.Budget = opts.Budget.Started()
	u, pt, thetas, stats, err := buildAutomata(prog, goal, q, opts)
	if err != nil {
		return degrade(Result{Stats: stats}, err)
	}
	a := pt.TA()
	var b *treeauto.TA
	if len(thetas) == 0 {
		b = treeauto.New(0, u.NumLetters())
	} else {
		b = thetas[0].freeze(u.NumLetters())
		for _, tb := range thetas[1:] {
			b, err = treeauto.Union(b, tb.freeze(u.NumLetters()))
			if err != nil {
				return Result{Stats: stats}, err
			}
		}
	}
	ok, wTree, err := treeauto.ContainsOpt(a, b, treeauto.ContainOptions{
		Ctx: opts.Ctx, Workers: opts.Workers, Budget: opts.Budget,
	})
	if err != nil {
		return degrade(Result{Stats: stats}, err)
	}
	res = Result{Contained: ok, Verdict: verdictOf(ok), Stats: stats}
	if !ok {
		res.Witness = decodeWitness(u, pt, wTree)
	}
	return res, nil
}

// buildAutomata constructs the shared universe, the proof-tree
// automaton, and one strong-mapping automaton per disjunct.
func buildAutomata(prog *ast.Program, goal string, q ucq.UCQ, opts Options) (*Universe, *PtreesResult, []*taBuilder, Stats, error) {
	var stats Stats
	if err := q.Validate(); err != nil {
		return nil, nil, nil, stats, err
	}
	for _, d := range q.Disjuncts {
		if d.Head.Pred != goal {
			return nil, nil, nil, stats, fmt.Errorf("core: disjunct head %s does not match goal %q", d.Head, goal)
		}
	}
	u, err := NewUniverse(prog, goal)
	if err != nil {
		return nil, nil, nil, stats, err
	}
	pm := opts.Budget.Meter()
	pt, err := u.buildPtrees(pm)
	stats.Budget = stats.Budget.Add(pm.Usage())
	stats.Budget.Wall = 0
	if err != nil {
		return nil, nil, nil, stats, err
	}
	stats.PtreeStates = u.NumAtoms()
	stats.Letters = u.NumLetters()
	// The strong-mapping automata only read the universe (every atom
	// they touch was interned by the proof-tree construction), so the
	// per-disjunct builds fan out across the worker pool. Each disjunct
	// charges its own meter (the budget bounds constructions separately,
	// and per-disjunct metering keeps trip points deterministic under
	// the fan-out); the reported error is the lowest-indexed one, as in
	// a sequential scan.
	thetas := make([]*taBuilder, len(q.Disjuncts))
	counts := make([]int, len(q.Disjuncts))
	errs := make([]error, len(q.Disjuncts))
	meters := make([]*guard.Meter, len(q.Disjuncts))
	par.ForEach(par.Workers(opts.Workers), len(q.Disjuncts), func(i int) {
		meters[i] = opts.Budget.Meter() //repolint:allow guardcharge — one meter per disjunct index, never shared across workers
		//repolint:allow guardcharge — buildTheta charges only meters[i]; trips are per-disjunct and deterministic
		thetas[i], counts[i], errs[i] = u.buildTheta(q.Disjuncts[i], pt, meters[i], opts)
	})
	for _, m := range meters {
		mu := m.Usage()
		mu.Wall = 0
		stats.Budget = stats.Budget.Add(mu)
	}
	for i, err := range errs {
		if err != nil {
			return nil, nil, nil, stats, err
		}
		stats.ThetaStates += counts[i]
	}
	return u, pt, thetas, stats, nil
}

// buildTheta constructs A^θ (Proposition 5.10) restricted to reachable
// states, as a builder over the universe's letters. It returns the
// builder and its state count. Safe to run concurrently for different
// disjuncts: it only reads the universe and the proof-tree result, and
// charges only its own meter.
func (u *Universe) buildTheta(theta cq.CQ, pt *PtreesResult, meter *guard.Meter, opts Options) (*taBuilder, int, error) {
	info, err := newThetaInfo(theta)
	if err != nil {
		return nil, 0, err
	}
	b := &taBuilder{}
	ids := make(map[string]int)
	var states []thetaState
	intern := func(st thetaState) int {
		k := st.key()
		if id, ok := ids[k]; ok {
			return id
		}
		ids[k] = len(states)
		states = append(states, st)
		return len(states) - 1
	}
	for _, root := range u.RootAtoms() {
		st, ok := info.startState(u, root)
		if !ok {
			continue
		}
		b.starts = append(b.starts, intern(st))
	}
	charged := 0
	for id := 0; id < len(states); id++ {
		if n := len(states); n > charged {
			if err := meter.Charge("core/theta", guard.States, int64(n-charged)); err != nil {
				return nil, 0, err
			}
			charged = n
		}
		if id&255 == 0 {
			if err := opts.ctxErr(); err != nil {
				return nil, 0, err
			}
			if err := meter.CheckWall("core/theta"); err != nil {
				return nil, 0, err
			}
		}
		st := states[id]
		for _, letter := range pt.LettersByAtom[st.atomID] {
			inst := u.Letter(letter)
			idbPos := pt.IDBPos[letter]
			info.transitions(u, st, inst, idbPos, func(children []thetaState) {
				tuple := make([]int, len(children))
				for k, c := range children {
					tuple[k] = intern(c)
				}
				b.trans = append(b.trans, taEdge{state: id, letter: letter, tuple: tuple})
			})
		}
	}
	b.numStates = len(states)
	return b, len(states), nil
}

// decodeWitness converts a counterexample tree over letter symbols back
// into an expansion-tree witness.
func decodeWitness(u *Universe, pt *PtreesResult, t *treeauto.Tree) *Witness {
	var rec func(t *treeauto.Tree) *expansion.Node
	rec = func(t *treeauto.Tree) *expansion.Node {
		inst := u.Letter(t.Symbol)
		idbPos := pt.IDBPos[t.Symbol]
		n := &expansion.Node{Rule: inst.Clone(), ChildPos: append([]int(nil), idbPos...)}
		for _, c := range t.Children {
			n.Children = append(n.Children, rec(c))
		}
		return n
	}
	tree := &expansion.Tree{Prog: u.Prog, Root: rec(t)}
	return &Witness{Tree: tree, Query: tree.ExpansionQuery()}
}

// ContainsUCQLinear decides containment of a path-linear program in a
// union of conjunctive queries with word automata (the EXPSPACE
// procedure of Theorem 5.12 for linear programs). Programs that are
// linear but not path-linear should first be transformed with
// nonrec.InlineNonrecursive.
func ContainsUCQLinear(prog *ast.Program, goal string, q ucq.UCQ, opts Options) (res Result, err error) {
	defer guard.Recover(&err, "core/contains-ucq-linear")
	opts.Budget = opts.Budget.Started()
	if !prog.IsPathLinear() {
		return Result{}, fmt.Errorf("core: program is not path-linear; inline its nonrecursive predicates first")
	}
	var stats Stats
	if err := q.Validate(); err != nil {
		return Result{}, err
	}
	for _, d := range q.Disjuncts {
		if d.Head.Pred != goal {
			return Result{}, fmt.Errorf("core: disjunct head %s does not match goal %q", d.Head, goal)
		}
	}
	u, err := NewUniverse(prog, goal)
	if err != nil {
		return Result{}, err
	}
	pm := opts.Budget.Meter()
	pt, err := u.buildPtrees(pm)
	stats.Budget = stats.Budget.Add(pm.Usage())
	stats.Budget.Wall = 0
	if err != nil {
		return degrade(Result{Stats: stats}, err)
	}
	stats.PtreeStates = u.NumAtoms()
	stats.Letters = u.NumLetters()

	// A^ptrees as a word automaton: states are IDB atoms plus a final
	// accept state; a proof path is read root to leaf.
	aw := &nfaBuilder{numStates: u.NumAtoms() + 1}
	acceptA := u.NumAtoms()
	aw.accepts = append(aw.accepts, acceptA)
	for _, root := range u.RootAtoms() {
		aw.starts = append(aw.starts, u.InternAtom(root))
	}
	for id := 0; id < u.NumAtoms(); id++ {
		for _, letter := range pt.LettersByAtom[id] {
			idbPos := pt.IDBPos[letter]
			switch len(idbPos) {
			case 0:
				aw.trans = append(aw.trans, nfaEdge{from: id, letter: letter, to: acceptA})
			case 1:
				child := u.InternAtom(u.Letter(letter).Body[idbPos[0]])
				aw.trans = append(aw.trans, nfaEdge{from: id, letter: letter, to: child})
			default:
				// Unreachable: path-linearity was checked above.
				//repolint:allow panic — invariant: unreachable, path-linearity is checked before this switch.
				panic("core: non-path-linear letter in linear procedure")
			}
		}
	}

	// One word automaton per disjunct, then the nondeterministic union.
	// The loop is sequential, but each disjunct still charges a fresh
	// meter: the budget bounds constructions separately, matching the
	// tree-automaton path.
	var bw *wordauto.NFA
	for _, d := range q.Disjuncts {
		if err := opts.ctxErr(); err != nil {
			return Result{Stats: stats}, err
		}
		tm := opts.Budget.Meter()
		nb, n, err := u.buildThetaWord(d, pt, tm, opts)
		tu := tm.Usage()
		tu.Wall = 0
		stats.Budget = stats.Budget.Add(tu)
		if err != nil {
			return degrade(Result{Stats: stats}, err)
		}
		stats.ThetaStates += n
		nfa := nb.freeze(u.NumLetters())
		if bw == nil {
			bw = nfa
		} else {
			bw, err = wordauto.Union(bw, nfa)
			if err != nil {
				return Result{Stats: stats}, err
			}
		}
	}
	if bw == nil {
		bw = wordauto.New(0, u.NumLetters())
	}
	if err := opts.ctxErr(); err != nil {
		return Result{Stats: stats}, err
	}
	ok, word, err := wordauto.ContainsOpt(aw.freeze(u.NumLetters()), bw, wordauto.ContainOptions{Ctx: opts.Ctx, Budget: opts.Budget})
	if err != nil {
		return degrade(Result{Stats: stats}, err)
	}
	res = Result{Contained: ok, Verdict: verdictOf(ok), Stats: stats}
	if !ok {
		res.Witness = decodeWordWitness(u, pt, word)
	}
	return res, nil
}

// buildThetaWord is the word-automaton analogue of buildTheta for
// path-linear programs.
func (u *Universe) buildThetaWord(theta cq.CQ, pt *PtreesResult, meter *guard.Meter, opts Options) (*nfaBuilder, int, error) {
	info, err := newThetaInfo(theta)
	if err != nil {
		return nil, 0, err
	}
	b := &nfaBuilder{}
	ids := make(map[string]int)
	var states []thetaState
	intern := func(st thetaState) int {
		k := st.key()
		if id, ok := ids[k]; ok {
			return id
		}
		ids[k] = len(states)
		states = append(states, st)
		return len(states) - 1
	}
	for _, root := range u.RootAtoms() {
		st, ok := info.startState(u, root)
		if !ok {
			continue
		}
		b.starts = append(b.starts, intern(st))
	}
	type pendingAccept struct{ from, letter int }
	var accepts []pendingAccept
	charged := 0
	for id := 0; id < len(states); id++ {
		if n := len(states); n > charged {
			if err := meter.Charge("core/theta-word", guard.States, int64(n-charged)); err != nil {
				return nil, 0, err
			}
			charged = n
		}
		if id&255 == 0 {
			if err := opts.ctxErr(); err != nil {
				return nil, 0, err
			}
			if err := meter.CheckWall("core/theta-word"); err != nil {
				return nil, 0, err
			}
		}
		st := states[id]
		for _, letter := range pt.LettersByAtom[st.atomID] {
			inst := u.Letter(letter)
			idbPos := pt.IDBPos[letter]
			info.transitions(u, st, inst, idbPos, func(children []thetaState) {
				switch len(children) {
				case 0:
					accepts = append(accepts, pendingAccept{from: id, letter: letter})
				case 1:
					b.trans = append(b.trans, nfaEdge{from: id, letter: letter, to: intern(children[0])})
				}
			})
		}
	}
	acceptState := len(states)
	b.numStates = acceptState + 1
	b.accepts = append(b.accepts, acceptState)
	for _, pa := range accepts {
		b.trans = append(b.trans, nfaEdge{from: pa.from, letter: pa.letter, to: acceptState})
	}
	return b, b.numStates, nil
}

// decodeWordWitness converts a counterexample word (a root-to-leaf
// sequence of letters) into an expansion-tree witness.
func decodeWordWitness(u *Universe, pt *PtreesResult, word []int) *Witness {
	var root, cur *expansion.Node
	for _, letter := range word {
		inst := u.Letter(letter)
		idbPos := pt.IDBPos[letter]
		n := &expansion.Node{Rule: inst.Clone(), ChildPos: append([]int(nil), idbPos...)}
		if root == nil {
			root = n
		} else {
			cur.Children = append(cur.Children, n)
		}
		cur = n
	}
	tree := &expansion.Tree{Prog: u.Prog, Root: root}
	return &Witness{Tree: tree, Query: tree.ExpansionQuery()}
}
