package eval

import (
	"slices"
	"sync/atomic"

	"datalogeq/internal/ast"
	"datalogeq/internal/database"
	"datalogeq/internal/guard"
	"datalogeq/internal/par"
	"datalogeq/internal/plan"
)

// The round engine. Each fixpoint round runs in three strictly
// separated phases:
//
//  1. plan (single-threaded): every (rule × delta-position) task of the
//     round gets an operator-tree plan from the cost-based planner,
//     whose cache keeps one plan per (rule, delta position) and rebuilds
//     it when the stats epoch moves — stable rounds replan nothing.
//     Planning ensures the indexes the chosen plans probe, so this is
//     also where lazy index builds happen; workers never write.
//  2. fire (parallel): the round's task list — one task per rule in a
//     full round, one per (rule, delta position) in a semi-naive round —
//     fans out over the worker pool. Workers stream their plans against
//     the frozen store (database.Relation.Probe is a pure read) and
//     buffer every derived head row; the store and its indexes are
//     frozen for the whole phase and reads need no locks.
//  3. merge (single-threaded): apply the buffered rows in task order.
//
// Determinism: the task list is a pure function of the program and the
// previous round's windows; planning is single-threaded, in canonical
// task order, against a store state that is itself worker-count
// independent, so every worker count sees identical plans; each task's
// output rows depend only on its plan and the frozen store and are
// enumerated in ascending row-ID order at every step (index posting
// lists and linear scans are both oldest-first); the merge applies
// tasks in canonical task order. Insertion order into the store —
// hence row IDs, delta windows, duplicate suppression, Stats, and the
// budget trip points — is therefore bit-identical for every worker
// count, including 1.
//
// Join order does not leak into the contract either: the set of
// complete matches of a rule body under a delta restriction is
// independent of the order the atoms are joined in, so Firings, Derived
// facts, round counts, and budget trips are identical whether the
// cost-based planner or the fixed textual order (Options.NoPlanner)
// produced the plans. Only the index-usage counters and the plan-cache
// statistics differ between the two modes.
//
// Rounds run per stratum (ast.Program.Strata), callees-first: each
// stratum's rules are fixpointed to completion before the next stratum
// starts. Within a stratum this is Jacobi-style iteration: facts
// derived in round i are visible to joins from round i+1 on, never
// mid-round. The schedule is a pure function of the program, so the
// determinism contract above holds across strata too.

// task is one unit of parallel work: fire rule against the frozen
// store, with body position deltaPos (if >= 0) restricted to window w,
// executing plan p.
type task struct {
	rule     int
	deltaPos int
	w        window
	p        *plan.Plan
}

// taskResult is a task's buffered output: head rows, flattened at the
// head's arity. count is the number of firings (== rows/arity except
// for zero-arity heads, which buffer no cells). trace carries the
// per-step actual row counts when explain instrumentation is on.
type taskResult struct {
	rows  []uint32
	count int
	trace []uint64
}

// planTrace accumulates explain instrumentation for one plan: how many
// tasks executed it and the cumulative actual rows per step, aggregated
// single-threaded at merge time in canonical task order.
type planTrace struct {
	rule     int
	deltaPos int
	p        *plan.Plan
	tasks    int
	rows     []uint64
}

type evaluator struct {
	prog    *ast.Program
	rules   []plan.Rule
	maxVars int
	total   *database.DB
	domain  []uint32
	opts    Options
	meter   *guard.Meter
	planner *plan.Planner

	workers  int
	stop     *atomic.Bool
	matchers []*matcher

	// heads lists the program's distinct head predicates, sorted: the
	// only relations an evaluation grows. marks[i] is heads[i]'s growth
	// over the last round — rows [lo, hi), with hi its length at the
	// current round boundary.
	heads []string
	marks []window

	// probeHits accumulates the workers' index-probe counts; folded into
	// Stats.IndexHits by Eval.
	probeHits uint64

	// explain turns on per-step row instrumentation; traces aggregates
	// it per plan, in first-use order (canonical, since the merge walks
	// tasks in canonical order).
	explain    bool
	traces     map[*plan.Plan]*planTrace
	traceOrder []*planTrace

	// limitErr is the budget trip observed by the merge; later buffered
	// rows are discarded (their firings still count). The merge is
	// single-threaded and replays tasks in canonical order, so the trip
	// point is bit-identical for every worker count.
	limitErr error

	stats Stats
}

func (e *evaluator) run() (Stats, error) {
	e.workers = par.Workers(e.opts.Workers)
	stop, release := par.StopFlag(e.opts.Ctx)
	e.stop = stop
	defer release()

	// Every body predicate of a stratum's rules is extensional or
	// defined in the same or an earlier — already completed — stratum,
	// so the union of the per-stratum fixpoints is the program's least
	// fixpoint. A completed fixpoint leaves the marks at the current
	// lengths, so the next stratum starts from them.
	e.heads = make([]string, len(e.rules))
	for i := range e.rules {
		e.heads[i] = e.rules[i].HeadPred
	}
	slices.Sort(e.heads)
	e.heads = slices.Compact(e.heads)
	e.marks = make([]window, len(e.heads))
	for i, p := range e.heads {
		n := e.relLen(p)
		e.marks[i] = window{n, n}
	}
	for _, s := range e.prog.Strata() {
		if err := e.fixpoint(s.Rules); err != nil {
			return e.stats, err
		}
	}
	return e.stats, nil
}

// fixpoint runs the round loop over one stratum's rules until they
// derive nothing new.
func (e *evaluator) fixpoint(ruleSet []int) error {
	full := true // fire every rule against the full store
	for {
		if err := e.ctxErr(); err != nil {
			return err
		}
		if err := e.meter.CheckWall("eval/round"); err != nil {
			return err
		}
		tasks := e.buildTasks(ruleSet, full)
		if len(tasks) == 0 {
			// The last growth feeds no rule of this stratum (under
			// semi-naive, always so for a nonrecursive stratum), so it is
			// complete without an empty round.
			return nil
		}
		if err := e.planTasks(tasks); err != nil {
			return err
		}
		results, err := e.runTasks(tasks)
		if err != nil {
			return err
		}
		mergeErr := e.merge(tasks, results)
		e.recycle(results)
		e.stats.Iterations++
		if mergeErr != nil {
			return mergeErr
		}
		if !e.advance() {
			return nil
		}
		full = e.opts.Naive
	}
}

// ctxErr reports cancellation of the evaluation's context.
func (e *evaluator) ctxErr() error {
	if e.opts.Ctx == nil {
		return nil
	}
	return e.opts.Ctx.Err()
}

// relLen is the length of pred's relation; 0 before it exists.
func (e *evaluator) relLen(pred string) int {
	if r := e.total.Lookup(pred); r != nil {
		return r.Len()
	}
	return 0
}

// advance moves every head's mark to its current length, recording the
// rows appended by the last merge as its delta window, and reports
// whether any relation grew.
func (e *evaluator) advance() bool {
	grew := false
	for i, p := range e.heads {
		lo, hi := e.marks[i].hi, e.relLen(p)
		e.marks[i] = window{lo, hi}
		grew = grew || hi > lo
	}
	return grew
}

// buildTasks lists the round's work in canonical order: the stratum's
// rules in ascending program order; within a rule, delta positions in
// body order. The merge replays results in this same order.
func (e *evaluator) buildTasks(ruleSet []int, full bool) []task {
	var tasks []task
	for _, ri := range ruleSet {
		if full {
			tasks = append(tasks, task{rule: ri, deltaPos: -1})
			continue
		}
		for _, bi := range e.rules[ri].IDBBody {
			hi, _ := slices.BinarySearch(e.heads, e.rules[ri].Body[bi].Pred)
			if w := e.marks[hi]; w.hi > w.lo {
				tasks = append(tasks, task{rule: ri, deltaPos: bi, w: w})
			}
		}
	}
	return tasks
}

// planTasks attaches a plan to every task, single-threaded between
// rounds. The stats epoch is read once at the round boundary, so every
// task of the round keys the plan cache against the same epoch; cache
// misses construct a plan (ensuring the indexes it probes — the round's
// only index builds) and charge the budget's Plans dimension, in
// canonical task order so trips are worker-count independent.
func (e *evaluator) planTasks(tasks []task) error {
	epoch := e.total.StatsEpoch()
	for ti := range tasks {
		t := &tasks[ti]
		p, cached := e.planner.Plan(plan.Request{
			Rule:     &e.rules[t.rule],
			DeltaPos: t.deltaPos,
			DB:       e.total,
			Epoch:    epoch,
		})
		t.p = p
		if !cached {
			if err := e.meter.Charge("eval/plan", guard.Plans, 1); err != nil {
				return err
			}
		}
	}
	return nil
}

// runTasks fires the round's tasks across the worker pool and collects
// the buffered results, indexed by task. Each dense worker ID owns one
// matcher, so scratch buffers are reused without locking.
func (e *evaluator) runTasks(tasks []task) ([]taskResult, error) {
	results := make([]taskResult, len(tasks))
	nw := e.workers
	if nw > len(tasks) {
		nw = len(tasks)
	}
	for len(e.matchers) < nw {
		e.matchers = append(e.matchers, e.newMatcher())
	}
	par.Run(e.workers, len(tasks), func(w, ti int) {
		results[ti] = e.matchers[w].runTask(tasks[ti])
	})
	for _, m := range e.matchers {
		e.probeHits += m.x.Probes
		m.x.Probes = 0
	}
	if err := e.ctxErr(); err != nil {
		// Workers stop early once the cancellation flag trips, so the
		// buffers may be truncated; discard them.
		return nil, err
	}
	return results, nil
}

// merge applies the round's buffered rows to the store in task order.
// Firings are counted for the whole round — the barrier means every
// task completed — while rows past a budget trip are discarded. All
// budget charges happen here, single-threaded and in canonical task
// order, which is what makes trip points worker-count-independent.
func (e *evaluator) merge(tasks []task, results []taskResult) error {
	for ti := range results {
		res := &results[ti]
		if e.explain && res.trace != nil {
			e.recordTrace(&tasks[ti], res.trace)
		}
		e.stats.Firings += res.count
		if res.count > 0 {
			if err := e.meter.Charge("eval/merge", guard.Steps, int64(res.count)); err != nil && e.limitErr == nil {
				e.limitErr = err
			}
		}
		if e.limitErr != nil {
			continue
		}
		r := &e.rules[tasks[ti].rule]
		arity := len(r.Head)
		if arity == 0 {
			for k := 0; k < res.count && e.limitErr == nil; k++ {
				e.addFact(r.HeadPred, database.Row{})
			}
			continue
		}
		rows := res.rows
		for off := 0; off+arity <= len(rows) && e.limitErr == nil; off += arity {
			e.addFact(r.HeadPred, database.Row(rows[off:off+arity]))
		}
	}
	return e.limitErr
}

// recycle hands the round's result buffers back to the workers' free
// lists, round-robin, so the next round's tasks write into them instead
// of allocating. Runs single-threaded between rounds; the merge has
// already copied every row it kept into the store.
func (e *evaluator) recycle(results []taskResult) {
	if len(e.matchers) == 0 {
		return
	}
	for i := range results {
		if b := results[i].rows; cap(b) > 0 {
			m := e.matchers[i%len(e.matchers)]
			m.free = append(m.free, b)
		}
	}
}

// recordTrace folds one task's per-step row counts into its plan's
// cumulative trace. Runs inside the single-threaded merge, in canonical
// task order, so trace aggregation is deterministic.
func (e *evaluator) recordTrace(t *task, rows []uint64) {
	tr := e.traces[t.p]
	if tr == nil {
		tr = &planTrace{
			rule:     t.rule,
			deltaPos: t.deltaPos,
			p:        t.p,
			rows:     make([]uint64, len(t.p.Steps)),
		}
		if e.traces == nil {
			e.traces = make(map[*plan.Plan]*planTrace)
		}
		e.traces[t.p] = tr
		e.traceOrder = append(e.traceOrder, tr)
	}
	tr.tasks++
	for i, v := range rows {
		tr.rows[i] += v
	}
}

func (e *evaluator) addFact(pred string, row database.Row) {
	if e.total.AddRow(pred, row) {
		e.stats.Derived++
		if err := e.meter.Charge("eval/merge", guard.Facts, 1); err != nil && e.limitErr == nil {
			e.limitErr = err
		}
	}
}
