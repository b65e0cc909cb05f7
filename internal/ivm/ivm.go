// Package ivm is the counting-based incremental view maintenance layer:
// it keeps the least fixpoint Q_Π(D) of a program materialized while
// the base database D changes, without re-running the fixpoint.
//
// The materialization carries one support count per derived row —
// the number of rule-body matches deriving it, plus one if the fact is
// asserted in the base database. Inserts run semi-naive delta rounds
// over the affected strata only (ast.Program.Strata, callees-first),
// with per-atom row-ID windows giving an exactly-once enumeration of
// the new matches, so counts stay exact. Retraction is
// delete-and-rederive with counts: killed matches decrement their head
// support exactly once (scattered deleted rows are joined through
// residual plans with row-exclusion filters); nonrecursive strata
// delete precisely the rows whose support reaches zero, while recursive
// strata overdelete transitively and then revive every overdeleted row
// that kept support — the count left after overdeletion is exactly the
// number of derivations untouched by the deletion, which makes the
// classic DRed rederivation query a simple count>0 test. Physical
// deletion is deferred to one database.Relation.DeleteRowsMarked call
// per touched relation at the end of the update, so the cascade
// enumerates against intact slabs; it tombstones the killed rows, and
// any compaction it trips runs there, never mid-cascade.
//
// Every update runs single-threaded in canonical order (strata in
// topological order, rules ascending, body positions ascending,
// frontier rows in kill order), and all admission — each row insertion,
// deletion, and support-count mutation — is charged to the budget's
// Maintained dimension at those points, so the live database, each
// update's UpdateStats, and any budget trip are bit-identical for every
// worker count, extending the engine's evaluation contract to
// maintenance.
//
// Rules are compiled once to plan.Rule, the slot form evaluation fires,
// and every enumeration runs through the same planner and streaming
// executor. The package registers itself with eval.RegisterMaintainer;
// use eval.Maintain to construct a handle.
package ivm

import (
	"context"
	"fmt"
	"sync/atomic"

	"datalogeq/internal/ast"
	"datalogeq/internal/database"
	"datalogeq/internal/eval"
	"datalogeq/internal/guard"
	"datalogeq/internal/plan"
)

func init() {
	eval.RegisterMaintainer(func(prog *ast.Program, edb *database.DB, opts eval.Options) (eval.Maintainer, eval.Stats, error) {
		return newMaint(prog, edb, opts)
	})
}

// maint is the maintained materialization behind an eval.Handle.
type maint struct {
	prog  *ast.Program
	opts  eval.Options
	rules []plan.Rule
	// nslots is the largest rule environment size.
	nslots int
	strata []ast.Stratum
	// stratumRecursive[pred] reports whether pred's defining stratum is
	// recursive — the retraction-side overdelete/exact-count switch.
	stratumRecursive map[string]bool
	// counted marks the IDB (head) predicates, whose live relations
	// carry support counts.
	counted map[string]bool

	// base is the asserted database: the facts the user has inserted
	// and not retracted, of any predicate. live is base plus every
	// derived fact, with counts on IDB relations.
	base *database.DB
	live *database.DB

	// planner is the handle's plan cache: one slot per (rule, body
	// position, residual), kept across updates, so a stable store
	// replans nothing between updates.
	planner *plan.Planner
	// headRels[ri] is rule ri's head relation in the live store.
	headRels []*database.Relation
	// bodyRels[ri][ai] is the live relation of rule ri's body atom ai
	// (created empty if the predicate has no facts yet).
	bodyRels [][]*database.Relation
	// strataBody[si] is the set of predicates appearing in stratum si's
	// rule bodies; strataPreds[si] the stratum's own (head) predicates.
	strataBody  []map[string]bool
	strataPreds []map[string]bool

	// Tracked-relation snapshot for insert propagation, rebuilt at
	// update start: names sorted, atomIdx[ri][ai] the tracked position
	// of rule ri's atom ai (-1 if the predicate appeared later).
	trackNames []string
	trackRels  []*database.Relation
	trackIdx   map[string]int
	atomIdx    [][]int

	// upd is the pooled per-update machinery (update.go); updates are
	// serialized per handle.
	upd *update

	// stop aborts a streaming enumeration mid-run on a budget trip; the
	// trip error is recorded in tripErr and rethrown after the executor
	// winds down.
	stop    atomic.Bool
	tripErr error

	// broken poisons the handle after a budget trip or internal error:
	// the live database may be mid-update and no longer consistent.
	broken error

	// dur, when non-nil, is the durable store behind the handle
	// (durable.go): each successful update is committed to its WAL, and
	// a WAL past its size threshold triggers a snapshot. nil while
	// recovery replays the tail, so replayed batches are not re-logged.
	dur *database.Durable

	// tagClient/tagSeq, when set, are the idempotency tag the next
	// durable commit records with its batch (InsertTagged /
	// RetractTagged); cleared after each update.
	tagClient string
	tagSeq    uint64

	// updCtx/updDone, when set via SetUpdateContext, bound the next
	// updates with a caller deadline: cancellation is observed at every
	// admission point and aborts the update like a budget trip
	// (poisoning the handle, since the live state is mid-cascade).
	updCtx  context.Context
	updDone <-chan struct{}
}

// newMaint runs the initial fixpoint and attaches exact support counts.
func newMaint(prog *ast.Program, edb *database.DB, opts eval.Options) (*maint, eval.Stats, error) {
	if err := prog.Validate(); err != nil {
		return nil, eval.Stats{}, err
	}
	rules, nslots, err := compile(prog)
	if err != nil {
		return nil, eval.Stats{}, err
	}
	live, stats, err := eval.Eval(prog, edb, opts)
	if err != nil {
		// A partial fixpoint cannot be maintained; surface the trip.
		return nil, stats, err
	}
	m := wire(prog, rules, nslots, edb.Clone(), live, opts)
	m.initCounts()
	return m, stats, nil
}

// wire assembles a maint around an existing (base, live) pair: strata
// maps and head/body relation pointers. It does not run a
// fixpoint and does not touch counts — newMaint computes them fresh,
// while the durable attach path (durable.go) restores them from a
// snapshot.
func wire(prog *ast.Program, rules []plan.Rule, nslots int, base, live *database.DB, opts eval.Options) *maint {
	m := &maint{
		prog:             prog,
		opts:             opts,
		rules:            rules,
		nslots:           nslots,
		strata:           prog.Strata(),
		stratumRecursive: make(map[string]bool),
		counted:          make(map[string]bool),
		base:             base,
		live:             live,
		planner:          &plan.Planner{Fixed: opts.NoPlanner},
	}
	for _, s := range m.strata {
		body := make(map[string]bool)
		preds := make(map[string]bool)
		for _, ri := range s.Rules {
			for _, a := range m.rules[ri].Body {
				body[a.Pred] = true
			}
		}
		for _, sym := range s.Preds {
			m.stratumRecursive[sym.Name] = s.Recursive
			preds[sym.Name] = true
		}
		m.strataBody = append(m.strataBody, body)
		m.strataPreds = append(m.strataPreds, preds)
	}
	m.headRels = make([]*database.Relation, len(m.rules))
	m.bodyRels = make([][]*database.Relation, len(m.rules))
	m.atomIdx = make([][]int, len(m.rules))
	for ri := range m.rules {
		r := &m.rules[ri]
		m.counted[r.HeadPred] = true
		m.headRels[ri] = m.live.Relation(r.HeadPred, len(r.Head))
		m.headRels[ri].EnableCounts()
		m.bodyRels[ri] = make([]*database.Relation, len(r.Body))
		m.atomIdx[ri] = make([]int, len(r.Body))
		for ai := range r.Body {
			m.bodyRels[ri][ai] = m.live.Relation(r.Body[ai].Pred, len(r.Body[ai].Args))
		}
	}
	return m
}

// track rebuilds the tracked-relation snapshot after admission: the
// sorted live predicate list, each rule atom's tracked position, and
// the per-update length buffers.
func (m *maint) track() {
	m.trackNames = m.trackNames[:0]
	m.trackRels = m.trackRels[:0]
	for _, p := range m.live.Preds() {
		m.trackNames = append(m.trackNames, p)
		m.trackRels = append(m.trackRels, m.live.Lookup(p))
	}
	if m.trackIdx == nil {
		m.trackIdx = make(map[string]int)
	}
	clear(m.trackIdx)
	for i, p := range m.trackNames {
		m.trackIdx[p] = i
	}
	for ri := range m.rules {
		for ai, a := range m.rules[ri].Body {
			if ti, ok := m.trackIdx[a.Pred]; ok {
				m.atomIdx[ri][ai] = ti
			} else {
				m.atomIdx[ri][ai] = -1
			}
		}
	}
}

// compile lowers every rule and rejects programs outside the
// maintainable fragment: a head variable the body does not bind ranges
// over the active domain, which changes retroactively as constants come
// and go — retraction would not be local.
func compile(prog *ast.Program) ([]plan.Rule, int, error) {
	rules, nslots := plan.CompileRules(prog)
	for ri := range rules {
		if r := &rules[ri]; len(r.UnboundGroups) > 0 {
			v := r.Src.Head.Args[r.UnboundGroups[0][0]].Name
			return nil, 0, fmt.Errorf("ivm: rule %d (%s): head variable %s is not bound by the body; active-domain rules cannot be maintained incrementally", ri, r.HeadPred, v)
		}
	}
	return rules, nslots, nil
}

// initCounts attaches exact support counts to the fresh fixpoint: one
// full enumeration of every rule's matches (the same planned streaming
// joins evaluation uses, through the handle's plan cache), plus one
// support per base-asserted fact.
func (m *maint) initCounts() {
	env := make([]uint32, m.nslots)
	headRow := make(database.Row, 0, 8)
	for ri := range m.rules {
		r := &m.rules[ri]
		rel := m.headRels[ri]
		p, _ := m.planner.Plan(plan.Request{
			Rule:     r,
			DeltaPos: -1,
			DB:       m.live,
			Epoch:    m.live.StatsEpoch(),
		})
		x := plan.Exec{Env: env}
		x.OnMatch = func() {
			headRow = r.AppendHead(headRow[:0], x.Env)
			id := rel.RowID(headRow)
			// Every match's head is in the fixpoint by construction.
			rel.AddCountAt(int(id), 1)
		}
		x.Run(p, plan.Window{})
		env = x.Env
	}
	for _, pred := range m.base.Preds() {
		if !m.counted[pred] {
			continue
		}
		br := m.base.Lookup(pred)
		rel := m.live.Lookup(pred)
		row := make(database.Row, 0, br.Arity())
		for i := 0; i < br.Len(); i++ {
			if br.Dead(i) {
				continue
			}
			row = br.AppendRowAt(row[:0], i)
			rel.AddCountAt(int(rel.RowID(row)), 1)
		}
	}
}

// DB returns the live maintained database.
func (m *maint) DB() *database.DB { return m.live }

// Base returns the asserted base database.
func (m *maint) Base() *database.DB { return m.base }

// meter starts a fresh per-update budget meter. Each update is governed
// like one evaluation: trips are deterministic because every charge
// happens at a single-threaded point in canonical order.
func (m *maint) meter() *guard.Meter {
	return m.opts.Budget.Started().Meter()
}

// groundRow validates one ground fact against the program and existing
// relations and returns its (pred, interned row).
func (m *maint) groundRow(a ast.Atom) (string, database.Row, error) {
	row := make(database.Row, 0, len(a.Args))
	for _, t := range a.Args {
		if t.Kind != ast.Const {
			return "", nil, fmt.Errorf("ivm: fact %s is not ground", a)
		}
		row = append(row, database.Intern(t.Name))
	}
	if ar := m.prog.GoalArity(a.Pred); ar >= 0 && ar != len(a.Args) {
		return "", nil, fmt.Errorf("ivm: fact %s has arity %d but predicate %s has arity %d in the program", a, len(a.Args), a.Pred, ar)
	}
	if r := m.live.Lookup(a.Pred); r != nil && r.Arity() != len(a.Args) {
		return "", nil, fmt.Errorf("ivm: fact %s has arity %d but relation %s has arity %d", a, len(a.Args), a.Pred, r.Arity())
	}
	return a.Pred, row, nil
}

// checkUsable rejects updates on a poisoned handle.
func (m *maint) checkUsable() error {
	if m.broken != nil {
		return fmt.Errorf("ivm: handle is no longer consistent after earlier error: %w", m.broken)
	}
	return nil
}

// charge records one admission (row inserted or deleted, or one support
// count mutated) against the Maintained budget dimension, and polls the
// update context. On a trip or a cancellation the stop flag winds down
// any streaming enumeration and the handle is poisoned by the caller.
func (m *maint) charge(meter *guard.Meter, phase string) error {
	if m.updDone != nil {
		select {
		case <-m.updDone:
			err := m.updCtx.Err()
			m.stop.Store(true)
			if m.tripErr == nil {
				m.tripErr = err
			}
			return err
		default:
		}
	}
	if err := meter.Charge(phase, guard.Maintained, 1); err != nil {
		m.stop.Store(true)
		if m.tripErr == nil {
			m.tripErr = err
		}
		return err
	}
	return nil
}

// SetUpdateContext bounds later updates with ctx: a deadline or
// cancellation aborts an in-flight Insert/Retract at its next admission
// point, poisoning the handle exactly like a budget trip (the cascade
// is half-applied). A nil ctx clears the bound. The server front end
// sets a per-request context here while holding its write lock, so each
// mutation observes its own client's deadline.
func (m *maint) SetUpdateContext(ctx context.Context) {
	if ctx == nil {
		m.updCtx, m.updDone = nil, nil
		return
	}
	m.updCtx, m.updDone = ctx, ctx.Done()
}

// ctxLive rejects an update whose context is already expired before
// anything is mutated: unlike a mid-update cancellation this leaves the
// handle fully consistent, so it does not poison.
func (m *maint) ctxLive() error {
	if m.updDone == nil {
		return nil
	}
	select {
	case <-m.updDone:
		return m.updCtx.Err()
	default:
		return nil
	}
}

// Err returns the error that poisoned the handle, nil while it is
// healthy.
func (m *maint) Err() error { return m.broken }

// InsertTagged is Insert with a durable idempotency tag: the committed
// batch records (client, clientSeq) so the store — and a serving front
// end recovering it after a crash — recognizes a retry of the same pair
// instead of re-applying it. On an in-memory handle the tag is ignored.
func (m *maint) InsertTagged(facts []ast.Atom, client string, clientSeq uint64) (eval.UpdateStats, error) {
	m.tagClient, m.tagSeq = client, clientSeq
	defer func() { m.tagClient, m.tagSeq = "", 0 }()
	return m.Insert(facts)
}

// RetractTagged is Retract with a durable idempotency tag; see
// InsertTagged.
func (m *maint) RetractTagged(facts []ast.Atom, client string, clientSeq uint64) (eval.UpdateStats, error) {
	m.tagClient, m.tagSeq = client, clientSeq
	defer func() { m.tagClient, m.tagSeq = "", 0 }()
	return m.Retract(facts)
}

// ClientSeq reports the durable store's idempotency table entry for
// client; (0, false) on an in-memory handle.
func (m *maint) ClientSeq(client string) (uint64, bool) {
	if m.dur == nil {
		return 0, false
	}
	return m.dur.ClientSeq(client)
}

// Clients returns the durable store's full idempotency table; nil on an
// in-memory handle.
func (m *maint) Clients() map[string]uint64 {
	if m.dur == nil {
		return nil
	}
	return m.dur.Clients()
}
