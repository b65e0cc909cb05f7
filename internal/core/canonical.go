package core

import (
	"sync/atomic"

	"datalogeq/internal/ast"
	"datalogeq/internal/cq"
	"datalogeq/internal/database"
	"datalogeq/internal/eval"
	"datalogeq/internal/guard"
	"datalogeq/internal/par"
	"datalogeq/internal/ucq"
)

// CQContainedInProgram decides whether the conjunctive query theta is
// contained in the program with the given goal predicate — the converse
// direction of the paper's problem, decidable by the classical
// canonical-database argument [CK86, CLM81, Sa88b] cited in §1:
// θ ⊆ Π iff evaluating Π on the canonical (frozen) database of θ
// derives θ's frozen head tuple. It is CQContainedInProgramOpt with
// default options.
func CQContainedInProgram(theta cq.CQ, prog *ast.Program, goal string) (bool, error) {
	return CQContainedInProgramOpt(theta, prog, goal, Options{})
}

// CQContainedInProgramOpt is CQContainedInProgram under opts: the
// canonical database's facts are charged against the budget's Canon
// dimension, and the evaluation on it runs under the same budget (one
// shared wall deadline, fresh fact/step meters).
func CQContainedInProgramOpt(theta cq.CQ, prog *ast.Program, goal string, opts Options) (ok bool, err error) {
	defer guard.Recover(&err, "core/canonical")
	if theta.Head.Pred != goal {
		return false, nil
	}
	b := opts.Budget.Started()
	meter := b.Meter()
	if err := meter.Charge("core/canonical", guard.Canon, int64(theta.Size())); err != nil {
		return false, err
	}
	db, head := theta.CanonicalDB()
	// Canonical databases are tiny (one fact per body atom), so the
	// evaluation runs single-worker; the parallelism worth having is the
	// per-disjunct fan-out in UCQContainedInProgramOpt. The evaluation goes
	// through eval's cost-based planner like any other, so containment
	// checks against large programs inherit its join ordering; per-rule
	// plans are cached across the fixpoint rounds of this one call.
	rel, _, err := eval.Goal(prog, db, goal, eval.Options{Workers: 1, Ctx: opts.Ctx, Budget: b})
	if err != nil {
		return false, err
	}
	return rel.Contains(head), nil
}

// UCQContainedInProgramOpt decides Θ ⊆ Π disjunct-wise under opts
// (Theorem 2.3 makes per-disjunct checking exact when the left side is
// a union). The disjunct checks — independent canonical-database
// evaluations — fan out across the worker pool; the reported failing
// disjunct is the lowest-indexed one, exactly as in a sequential scan:
// workers track the minimum known-bad index and skip disjuncts beyond
// it, and every disjunct below the final minimum has completed cleanly.
//
// Budget accounting stays deterministic under the fan-out: the Canon
// charges for every disjunct's canonical database land on one meter in
// a sequential admission pass before any evaluation starts, and each
// admitted disjunct then evaluates against its own fresh fact/step
// meters derived from the shared budget.
func UCQContainedInProgramOpt(q ucq.UCQ, prog *ast.Program, goal string, opts Options) (ok bool, failing *cq.CQ, err error) {
	defer guard.Recover(&err, "core/ucq-in-program")
	opts.Budget = opts.Budget.Started()
	meter := opts.Budget.Meter()
	for i := range q.Disjuncts {
		if err := opts.ctxErr(); err != nil {
			return false, nil, err
		}
		if err := meter.Charge("core/canonical", guard.Canon, int64(q.Disjuncts[i].Size())); err != nil {
			return false, nil, err
		}
		if err := meter.CheckWall("core/canonical"); err != nil {
			return false, nil, err
		}
	}
	// The admission pass above already charged Canon for every disjunct;
	// clear the canon limit so the per-disjunct evaluations don't charge
	// the same facts twice.
	perDisjunct := opts
	perDisjunct.Budget.MaxCanon = 0
	n := len(q.Disjuncts)
	oks := make([]bool, n)
	errs := make([]error, n)
	var bad atomic.Int64
	bad.Store(int64(n))
	par.ForEach(par.Workers(opts.Workers), n, func(i int) {
		if int64(i) > bad.Load() {
			return // a lower bad index already decides the outcome
		}
		ok, err := CQContainedInProgramOpt(q.Disjuncts[i], prog, goal, perDisjunct)
		oks[i], errs[i] = ok, err
		if ok && err == nil {
			return
		}
		for {
			cur := bad.Load()
			if int64(i) >= cur || bad.CompareAndSwap(cur, int64(i)) {
				return
			}
		}
	})
	for i := range q.Disjuncts {
		if errs[i] != nil {
			return false, nil, errs[i]
		}
		if !oks[i] {
			d := q.Disjuncts[i]
			return false, &d, nil
		}
	}
	return true, nil, nil
}

// CheckOnDB compares two programs on one concrete database, returning a
// tuple in Q_{p1}(db) \ Q_{p2}(db) if any. It is not a decision
// procedure (containment quantifies over all databases) but refutes
// containment soundly; the decision procedures' witnesses are verified
// through it.
func CheckOnDB(p1 *ast.Program, p2 *ast.Program, goal string, db *database.DB) (database.Tuple, bool, error) {
	r1, _, err := eval.Goal(p1, db, goal, eval.Options{})
	if err != nil {
		return nil, false, err
	}
	r2, _, err := eval.Goal(p2, db, goal, eval.Options{})
	if err != nil {
		return nil, false, err
	}
	// Compare on interned rows; rows from different databases share the
	// process-wide symbol table, so IDs are directly comparable.
	var row database.Row
	for i := 0; i < r1.Len(); i++ {
		row = r1.AppendRowAt(row[:0], i)
		if !r2.ContainsRow(row) {
			return row.Tuple(), true, nil
		}
	}
	return nil, false, nil
}
