package core

import (
	"errors"
	"fmt"

	"datalogeq/internal/ast"
	"datalogeq/internal/cq"
	"datalogeq/internal/database"
	"datalogeq/internal/guard"
	"datalogeq/internal/nonrec"
	"datalogeq/internal/ucq"
)

// Direction names the failing direction of an equivalence check.
type Direction int

const (
	// BothDirections means the programs are equivalent.
	BothDirections Direction = iota
	// RecursiveNotContained means Π ⊄ Π' (the recursive program
	// produces tuples the nonrecursive one does not).
	RecursiveNotContained
	// NonrecursiveNotContained means Π' ⊄ Π.
	NonrecursiveNotContained
)

func (d Direction) String() string {
	switch d {
	case BothDirections:
		return "equivalent"
	case RecursiveNotContained:
		return "recursive ⊄ nonrecursive"
	case NonrecursiveNotContained:
		return "nonrecursive ⊄ recursive"
	}
	return fmt.Sprintf("Direction(%d)", int(d))
}

// EquivResult is the outcome of an equivalence check between a recursive
// and a nonrecursive program.
type EquivResult struct {
	// Equivalent is the answer when Verdict is Yes or No; it is false
	// and meaningless when Verdict is Unknown.
	Equivalent bool
	// Verdict is the three-valued outcome: Yes/No when both directions
	// ran to completion, Unknown when a resource budget tripped first.
	Verdict Verdict
	// Limit carries the budget trip when Verdict is Unknown.
	Limit   *guard.LimitError
	Failure Direction
	// Witness is set when the recursive program is not contained in
	// the nonrecursive one: a proof tree/expansion the UCQ misses.
	Witness *Witness
	// FailingCQ is set when the nonrecursive program is not contained
	// in the recursive one: a disjunct of the unfolding whose canonical
	// database separates the programs.
	FailingCQ *cq.CQ
	// SeparatingDB and SeparatingTuple give a concrete database and
	// tuple on which the two programs disagree, whichever direction
	// failed.
	SeparatingDB    *database.DB
	SeparatingTuple database.Tuple
	// Stats reports automata sizes from the hard direction.
	Stats Stats
	// UnfoldedDisjuncts is the size of the nonrecursive program's UCQ
	// unfolding (the §6 blowup).
	UnfoldedDisjuncts int
}

// ContainedInNonrecursive decides Π ⊆ Π' where Π' is nonrecursive
// (Theorem 6.4): Π' is unfolded into a union of conjunctive queries —
// with its inherent exponential blowup — and the UCQ containment
// procedure of Theorem 5.12 runs on the result.
func ContainedInNonrecursive(prog *ast.Program, goal string, nr *ast.Program, opts Options) (res Result, disjuncts int, err error) {
	defer guard.Recover(&err, "core/contained-in-nonrec")
	q, err := nonrec.Unfold(nr, goal)
	if err != nil {
		return Result{}, 0, err
	}
	res, err = ContainsUCQ(prog, goal, q, opts)
	return res, q.Size(), err
}

// NonrecursiveContainedIn decides Π' ⊆ Π where Π' is nonrecursive, via
// unfolding and canonical databases. It is NonrecursiveContainedInOpt
// with default options.
func NonrecursiveContainedIn(nr *ast.Program, prog *ast.Program, goal string) (bool, *cq.CQ, error) {
	return NonrecursiveContainedInOpt(nr, prog, goal, Options{})
}

// NonrecursiveContainedInOpt is NonrecursiveContainedIn under opts:
// canonical-database facts are charged against the budget's Canon
// dimension and the per-disjunct evaluations run under the same budget.
func NonrecursiveContainedInOpt(nr *ast.Program, prog *ast.Program, goal string, opts Options) (ok bool, failing *cq.CQ, err error) {
	defer guard.Recover(&err, "core/nonrec-in-program")
	q, err := nonrec.Unfold(nr, goal)
	if err != nil {
		return false, nil, err
	}
	return UCQContainedInProgramOpt(q, prog, goal, opts)
}

// degradeEquiv converts a budget trip into an Unknown equivalence
// result carrying whatever partial stats were gathered; every other
// error propagates unchanged.
func degradeEquiv(out EquivResult, err error) (EquivResult, error) {
	var le *guard.LimitError
	if errors.As(err, &le) {
		out.Equivalent = false
		out.Verdict = Unknown
		out.Limit = le
		return out, nil
	}
	return out, err
}

// EquivalentToNonrecursive decides whether the recursive program prog
// and the nonrecursive program nr compute the same goal relation on
// every database (Theorem 6.5). On failure the result carries a
// machine-checkable separating database and tuple.
//
// On budget exhaustion in either direction the check degrades: the
// result carries Verdict == Unknown and the *guard.LimitError, with a
// nil error. Both directions share one wall deadline.
func EquivalentToNonrecursive(prog *ast.Program, goal string, nr *ast.Program, opts Options) (out EquivResult, err error) {
	defer guard.Recover(&err, "core/equiv-nonrec")
	opts.Budget = opts.Budget.Started()
	if nr.IsRecursive() {
		return EquivResult{}, fmt.Errorf("core: second program is recursive")
	}

	res, disjuncts, err := ContainedInNonrecursive(prog, goal, nr, opts)
	out.UnfoldedDisjuncts = disjuncts
	if err != nil {
		return out, err
	}
	out.Stats = res.Stats
	if res.Verdict == Unknown {
		out.Verdict = Unknown
		out.Limit = res.Limit
		return out, nil
	}
	if !res.Contained {
		out.Verdict = No
		out.Failure = RecursiveNotContained
		out.Witness = res.Witness
		db, head := res.Witness.Query.CanonicalDB()
		out.SeparatingDB = db
		out.SeparatingTuple = head
		return out, nil
	}

	ok, failing, err := NonrecursiveContainedInOpt(nr, prog, goal, opts)
	if err != nil {
		return degradeEquiv(out, err)
	}
	if !ok {
		out.Verdict = No
		out.Failure = NonrecursiveNotContained
		out.FailingCQ = failing
		db, head := failing.CanonicalDB()
		out.SeparatingDB = db
		out.SeparatingTuple = head
		return out, nil
	}

	out.Equivalent = true
	out.Verdict = Yes
	out.Failure = BothDirections
	return out, nil
}

// EquivalentToUCQ decides whether the program and the union of
// conjunctive queries define the same goal relation. Budget exhaustion
// degrades to Verdict == Unknown exactly as in EquivalentToNonrecursive.
func EquivalentToUCQ(prog *ast.Program, goal string, q ucq.UCQ, opts Options) (out EquivResult, err error) {
	defer guard.Recover(&err, "core/equiv-ucq")
	opts.Budget = opts.Budget.Started()
	out.UnfoldedDisjuncts = q.Size()
	res, err := ContainsUCQ(prog, goal, q, opts)
	if err != nil {
		return out, err
	}
	out.Stats = res.Stats
	if res.Verdict == Unknown {
		out.Verdict = Unknown
		out.Limit = res.Limit
		return out, nil
	}
	if !res.Contained {
		out.Verdict = No
		out.Failure = RecursiveNotContained
		out.Witness = res.Witness
		db, head := res.Witness.Query.CanonicalDB()
		out.SeparatingDB = db
		out.SeparatingTuple = head
		return out, nil
	}
	ok, failing, err := UCQContainedInProgramOpt(q, prog, goal, opts)
	if err != nil {
		return degradeEquiv(out, err)
	}
	if !ok {
		out.Verdict = No
		out.Failure = NonrecursiveNotContained
		out.FailingCQ = failing
		db, head := failing.CanonicalDB()
		out.SeparatingDB = db
		out.SeparatingTuple = head
		return out, nil
	}
	out.Equivalent = true
	out.Verdict = Yes
	return out, nil
}
