package plan

import (
	"sync/atomic"

	"datalogeq/internal/database"
)

// Window is a half-open row-ID range [Lo, Hi): the delta window the
// plan's Delta step is restricted to. Ignored by plans with no delta
// step.
type Window struct{ Lo, Hi int }

// Exec is the streaming executor: it runs a plan against the frozen
// store, pipelining each step's bindings straight into the next step
// and firing OnMatch once per complete body match. Nothing is
// materialized between steps — the whole intermediate state is Env.
//
// An Exec is single-goroutine scratch state; eval gives each worker its
// own. During a run it only reads the store (Relation.Probe / At), so
// any number of Execs may run concurrently over a frozen store.
type Exec struct {
	// Env is the slot environment; Run grows it to the plan's NumSlots.
	Env []uint32
	// OnMatch fires once per complete match, with Env fully bound. The
	// callback may read Env and call Poll/Stopped, but must not re-enter
	// Run.
	OnMatch func()
	// Stop, when non-nil, is polled every 1024 match steps; once it is
	// true the run winds down promptly (Stopped reports it).
	Stop *atomic.Bool
	// Rows, when non-nil and long enough, accumulates per-step actual
	// binding counts (explain instrumentation): Rows[i] += 1 for every
	// row of step i that passes its checks.
	Rows []uint64
	// SkipRow, when non-nil, is consulted once per candidate row before
	// its filters run: returning true excludes slab row rid of step si
	// from the enumeration. Incremental maintenance uses it to subtract
	// scattered row-ID sets (deleted or not-yet-revived rows) that no
	// contiguous window can express. Dead rows are skipped before it is
	// consulted. Nil, over a relation without tombstones, costs one test
	// per step, not one per row.
	SkipRow func(si int, rid int32) bool

	// Probes counts index probes issued; the caller folds it into its
	// index-hit statistics after the parallel phase.
	Probes uint64

	key     database.Row
	steps   uint32
	stopped bool
}

// Stopped reports whether a Stop flag ended the run early.
func (x *Exec) Stopped() bool { return x.stopped }

// Poll amortizes the Stop check: callers in tight loops (head
// enumeration over the active domain) call it per iteration and bail
// once it returns true.
func (x *Exec) Poll() bool {
	if x.stopped {
		return true
	}
	x.steps++
	if x.steps&1023 == 0 && x.Stop != nil && x.Stop.Load() {
		x.stopped = true
	}
	return x.stopped
}

// Run executes the plan over the frozen store, firing OnMatch per
// match. The window restricts the plan's Delta step; pass the zero
// Window for full-store plans.
func (x *Exec) Run(p *Plan, w Window) {
	if x.stopped {
		return
	}
	for len(x.Env) < p.NumSlots {
		x.Env = append(x.Env, 0)
	}
	x.run(p, 0, w, nil)
}

// RunBounded executes the plan with an explicit row-ID window per body
// atom, indexed by original atom position (Step.Atom): step s
// enumerates rows [bounds[s.Atom].Lo, bounds[s.Atom].Hi), with Hi = -1
// meaning "through the end of the relation". The plan's Delta marking
// is ignored — the caller controls every atom's range. Incremental
// maintenance uses this for exactly-once delta decompositions, where
// atoms before and after the delta position see different frontiers.
// Env slots may be pre-bound by the caller (residual plans); RunBounded
// grows Env without clearing it.
func (x *Exec) RunBounded(p *Plan, bounds []Window) {
	if x.stopped {
		return
	}
	for len(x.Env) < p.NumSlots {
		x.Env = append(x.Env, 0)
	}
	x.run(p, 0, Window{}, bounds)
}

func (x *Exec) run(p *Plan, si int, w Window, bounds []Window) {
	if si == len(p.Steps) {
		x.OnMatch()
		return
	}
	st := &p.Steps[si]
	rel := st.rel
	if rel == nil {
		return
	}
	// The store is frozen during the fire phase, so Len() is the
	// round-start slab length.
	lo, hi := 0, rel.Len()
	switch {
	case bounds != nil:
		b := bounds[st.Atom]
		lo = b.Lo
		if b.Hi >= 0 {
			hi = b.Hi
		}
	case st.Delta:
		lo, hi = w.Lo, w.Hi
	}
	if st.Mask == 0 || st.Wide {
		x.scan(p, si, st, rel, lo, hi, w, bounds)
		return
	}
	// Probe path: constants and bound slots form the key; the
	// persistent index returns matching row IDs in [lo, hi), oldest
	// first.
	key := x.key[:0]
	for _, kp := range st.Key {
		if kp.Const {
			key = append(key, kp.ID)
		} else {
			key = append(key, x.Env[kp.Slot])
		}
	}
	x.key = key
	rows, ok := rel.Probe(st.Mask, key, lo, hi)
	if !ok {
		// Index not built (the plan predates it being possible); fall
		// back to scanning. Unreachable when the planner ensured the
		// index, kept as a safety net.
		x.scan(p, si, st, rel, lo, hi, w, bounds)
		return
	}
	x.Probes++
	// Postings keep deleted rows; a relation without tombstones and a
	// run without a row filter skip nothing, and pay this test once.
	filter := rel.HasDead() || x.SkipRow != nil
	for _, rid := range rows {
		if x.Poll() {
			return
		}
		if filter && x.skip(si, rel, rid) {
			continue
		}
		i := int(rid)
		if !checksPass(st.Checks, rel, i) {
			continue
		}
		for _, b := range st.Binds {
			x.Env[b.Slot] = rel.At(i, b.Pos)
		}
		x.count(si)
		x.run(p, si+1, w, bounds)
		if x.stopped {
			return
		}
	}
}

// scan is the fallback operator: a straight pass over rows [lo, hi)
// verifying every filter. It serves steps with no constrained columns
// (where an index would enumerate everything anyway) and atoms wider
// than the 64-bit mask.
func (x *Exec) scan(p *Plan, si int, st *Step, rel *database.Relation, lo, hi int, w Window, bounds []Window) {
	filter := rel.HasDead() || x.SkipRow != nil
rows:
	for i := lo; i < hi; i++ {
		if x.Poll() {
			return
		}
		if filter && x.skip(si, rel, int32(i)) {
			continue
		}
		for _, f := range st.Filters {
			switch f.Kind {
			case FilterConst:
				if rel.At(i, f.Pos) != f.ID {
					continue rows
				}
			case FilterBound:
				if rel.At(i, f.Pos) != x.Env[f.Slot] {
					continue rows
				}
			case FilterRepeat:
				if rel.At(i, f.Pos) != rel.At(i, f.First) {
					continue rows
				}
			}
		}
		for _, b := range st.Binds {
			x.Env[b.Slot] = rel.At(i, b.Pos)
		}
		x.count(si)
		x.run(p, si+1, w, bounds)
		if x.stopped {
			return
		}
	}
}

// skip reports whether candidate row rid of step si is excluded: dead,
// or rejected by SkipRow.
func (x *Exec) skip(si int, rel *database.Relation, rid int32) bool {
	return rel.Dead(int(rid)) || x.SkipRow != nil && x.SkipRow(si, rid)
}

// checksPass verifies the repeated-variable constraints the probe key
// cannot express.
func checksPass(checks []Filter, rel *database.Relation, i int) bool {
	for _, c := range checks {
		if rel.At(i, c.Pos) != rel.At(i, c.First) {
			return false
		}
	}
	return true
}

// count records one binding produced at step si when tracing.
func (x *Exec) count(si int) {
	if x.Rows != nil && si < len(x.Rows) {
		x.Rows[si]++
	}
}
