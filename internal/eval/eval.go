// Package eval implements bottom-up evaluation of Datalog programs: the
// semantics Q_Π(D) = ∪_i Q^i_Π(D) of paper §2.1. Both naive and
// semi-naive fixpoint strategies are provided; semi-naive is the default.
//
// Evaluation is stratified: the program's dependence-graph components
// (ast.Program.Strata) are fixpointed one at a time in callees-first
// order, so a nonrecursive stratum — a union of conjunctive queries over
// completed relations — fires once per body match, and only recursive
// strata loop. Static rewriting (internal/opt) is a separate pass that
// callers run before handing the program here.
//
// Rules with empty bodies or with head variables not bound by the body
// (Example 6.2 of the paper uses "dist0(x, x) :- .") are evaluated with
// active-domain semantics: unbound head variables range over the set of
// constants occurring in the database or the program. The domain is
// built only when some rule has such a variable, so evaluations of safe
// programs never scan the database for it.
//
// The hot path runs entirely on the storage engine's interned IDs:
// rules are compiled to slot form (plan.CompileRules), each (rule ×
// delta-position) task is planned by the cost-based join planner
// (internal/plan) into an operator tree of index probes and filtered
// scans ordered by live cardinality statistics — the planner keeps one
// plan per (rule, delta position) and rebuilds it only when the stats
// epoch moves, so stable rounds replan nothing —
// join indexes live on the relations and are maintained incrementally
// as facts are derived, and semi-naive deltas are windows of row IDs
// into each relation's slab rather than copied tuple slices.
//
// Evaluation is parallel (exec.go): each fixpoint round freezes the
// store, fans the rule firings out over Options.Workers goroutines that
// probe the frozen snapshot lock-free, and applies the buffered
// derivations in a single-threaded, canonically ordered merge. The
// output database, Stats, and budget trip points are bit-identical for
// every worker count.
//
// Incremental maintenance (Maintain, MaintainDurable) is implemented by
// internal/ivm over the same compiled rules and planner.
package eval

import (
	"context"
	"fmt"

	"datalogeq/internal/ast"
	"datalogeq/internal/database"
	"datalogeq/internal/guard"
	"datalogeq/internal/plan"
)

// Stats reports work done by an evaluation.
type Stats struct {
	// Iterations is the number of fixpoint rounds executed, summed over
	// the strata.
	Iterations int
	// Derived is the number of distinct IDB facts derived.
	Derived int
	// Firings is the number of rule-body matches that produced a
	// (possibly duplicate) head fact.
	Firings int

	// Storage-engine breakdown for this evaluation.

	// IndexHits counts join lookups answered by a persistent index.
	IndexHits uint64
	// IndexBuilds counts full-scan index constructions; bounded by the
	// number of distinct (predicate, column-mask) pairs in the program,
	// independent of rounds or data size.
	IndexBuilds uint64
	// IndexAppends counts incremental index maintenance operations:
	// one per (inserted row, live index on its relation).
	IndexAppends uint64
	// SlabBytes is the columnar-slab footprint of the result database.
	SlabBytes int64
	// InternedConstants is the size of the shared symbol table after
	// evaluation.
	InternedConstants int

	// Plan-cache behavior of the cost-based planner, counted per
	// (rule, delta position) slot: hits, misses (plan constructions),
	// and replans (a miss on a slot whose plan was built at another
	// stats epoch). On a stable store — no relation creations,
	// power-of-two growth crossings, or index builds between rounds —
	// every task hits the cache and Replans stays flat.
	PlanCacheHits   uint64
	PlanCacheMisses uint64
	PlanReplans     uint64

	// Budget is the guard-layer consumption snapshot: facts, steps, and
	// plans charged against Options.Budget (counters are deterministic
	// across worker counts; Wall is not).
	Budget guard.Usage
}

// Options configure evaluation.
type Options struct {
	// Naive selects the naive strategy (recompute every rule against
	// the full store each round) instead of semi-naive.
	Naive bool
	// Budget declares guard-layer resource limits: derived facts
	// (Facts), rule-body firings (Steps), and wall time, all enforced at
	// single-threaded points so trips are bit-identical for every worker
	// count. A trip aborts evaluation with a *guard.LimitError carrying
	// a progress snapshot; the partial database is still returned.
	Budget guard.Budget
	// NoPlanner disables cost-based join ordering: plans keep the
	// textual body order with the same index pushdown — the engine's
	// historical fixed left-to-right behavior. The fixpoint, Stats
	// counters (except index and plan-cache statistics), and budget
	// trip points are identical with and without the planner; the flag
	// exists for differential testing and plan-regression debugging.
	NoPlanner bool
	// Workers is the number of goroutines that fire rules within a
	// round; 0 or negative means runtime.GOMAXPROCS(0). Results are
	// bit-identical for every value.
	Workers int
	// Ctx, when non-nil, cancels evaluation: long 2EXPTIME-ish runs
	// return Ctx.Err() promptly (workers poll a cancellation flag
	// between and within tasks) with a partial database.
	Ctx context.Context
}

// window is a half-open range [lo, hi) of row IDs in a relation's slab:
// the facts a predicate gained during one fixpoint round.
type window struct{ lo, hi int }

// Eval computes the least fixpoint of prog over edb and returns a new
// database containing all EDB facts plus every derived IDB fact. The
// input database is not modified.
//
// A budget trip returns the partial database together with a
// *guard.LimitError; an internal panic (in this package or a worker
// goroutine) is recovered and returned as a *guard.PanicError — Eval
// never crashes the process.
func Eval(prog *ast.Program, edb *database.DB, opts Options) (db *database.DB, stats Stats, err error) {
	db, stats, _, err = evalWith(prog, edb, opts, false)
	return db, stats, err
}

// evalWith is the shared core of Eval and EvalExplain; explain turns on
// the per-step row instrumentation the Explain report is built from.
func evalWith(prog *ast.Program, edb *database.DB, opts Options, explain bool) (db *database.DB, stats Stats, ex *Explain, err error) {
	defer guard.Recover(&err, "eval")
	if err := prog.Validate(); err != nil {
		return nil, Stats{}, nil, err
	}
	if err := ValidateArities(prog, edb); err != nil {
		return nil, Stats{}, nil, err
	}
	rules, maxVars := plan.CompileRules(prog)
	e := &evaluator{
		prog:    prog,
		rules:   rules,
		maxVars: maxVars,
		total:   edb.Clone(),
		opts:    opts,
		meter:   opts.Budget.Started().Meter(),
		planner: &plan.Planner{Fixed: opts.NoPlanner},
		explain: explain,
	}
	if needsDomain(rules) {
		e.domain = activeDomainIDs(prog, edb)
	}
	stats, err = e.run()
	st := e.total.StorageStats()
	stats.IndexHits = st.IndexHits + e.probeHits
	stats.IndexBuilds = st.IndexBuilds
	stats.IndexAppends = st.IndexAppends
	stats.SlabBytes = st.SlabBytes
	stats.InternedConstants = database.InternedCount()
	stats.PlanCacheHits = e.planner.Hits
	stats.PlanCacheMisses = e.planner.Misses
	stats.PlanReplans = e.planner.Replans
	stats.Budget = e.meter.Usage()
	if explain {
		ex = e.buildExplain(stats)
	}
	return e.total, stats, ex, err
}

// Goal evaluates prog over edb and returns the relation computed for the
// goal predicate (empty if the goal derives nothing).
func Goal(prog *ast.Program, edb *database.DB, goal string, opts Options) (*database.Relation, Stats, error) {
	out, stats, err := Eval(prog, edb, opts)
	if err != nil {
		return nil, stats, err
	}
	if r := out.Lookup(goal); r != nil {
		return r, stats, nil
	}
	arity := prog.GoalArity(goal)
	if arity < 0 {
		return nil, stats, fmt.Errorf("eval: goal predicate %q does not occur in program", goal)
	}
	return database.NewRelation(arity), stats, nil
}

// ValidateArities rejects programs whose predicate arities disagree
// with the database's relations. Without this check an arity clash
// either panicked deep in the storage layer (head collision) or
// silently matched rows of the wrong width (body atom), both reachable
// from ordinary user input: a program file and a fact file that
// disagree about a predicate.
func ValidateArities(prog *ast.Program, edb *database.DB) error {
	checked := make(map[string]bool)
	check := func(a ast.Atom) error {
		if checked[a.Pred] {
			return nil
		}
		checked[a.Pred] = true
		if r := edb.Lookup(a.Pred); r != nil && r.Arity() != len(a.Args) {
			at := ""
			if a.Pos.IsValid() {
				at = " (program position " + a.Pos.String() + ")"
			}
			return fmt.Errorf("eval: predicate %s has arity %d in the program but arity %d in the database%s",
				a.Pred, len(a.Args), r.Arity(), at)
		}
		return nil
	}
	for _, r := range prog.Rules {
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

// needsDomain reports whether any rule has a head variable its body
// leaves unbound: the matcher enumerates the active domain only for
// those, so no other evaluation pays for building it.
func needsDomain(rules []plan.Rule) bool {
	for i := range rules {
		if len(rules[i].UnboundGroups) > 0 {
			return true
		}
	}
	return false
}

// activeDomainIDs interns the active domain of the evaluation: the
// database's constants (in sorted order, for deterministic enumeration)
// followed by the program's constants in order of appearance.
func activeDomainIDs(prog *ast.Program, edb *database.DB) []uint32 {
	seen := make(map[uint32]bool)
	var out []uint32
	for _, c := range edb.ActiveDomain() {
		id := database.Intern(c)
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	addAtom := func(a ast.Atom) {
		for _, t := range a.Args {
			if t.Kind == ast.Const {
				id := database.Intern(t.Name)
				if !seen[id] {
					seen[id] = true
					out = append(out, id)
				}
			}
		}
	}
	for _, r := range prog.Rules {
		addAtom(r.Head)
		for _, a := range r.Body {
			addAtom(a)
		}
	}
	return out
}
