package plan

import (
	"sort"

	"datalogeq/internal/database"
)

// Request describes one planning problem: a compiled rule, the delta
// position of the semi-naive task, and the store (with its stats epoch)
// to plan against.
type Request struct {
	// Rule supplies the slot-form body, the head slots kept live to the
	// end, and the environment size; it is also the plan cache's key, so
	// callers pass the same *Rule for every task of one rule.
	Rule *Rule
	// DeltaPos is the body position restricted to the task's delta
	// window, or -1 for a full firing.
	DeltaPos int
	// DB is the store planned against; index choices call EnsureIndex
	// on it, so planning must run in a write phase (eval plans between
	// rounds, single-threaded).
	DB *database.DB
	// Epoch is DB.StatsEpoch() at the round boundary, the cache's
	// staleness key, compared only for equality. The caller reads it
	// once per round so every task of a round keys against the same
	// epoch.
	Epoch uint64
	// Residual requests a plan over the body minus the DeltaPos atom,
	// with that atom's slots treated as bound from the start: the caller
	// binds them in Exec.Env per delta row and runs the plan once per
	// row. DeltaPos must be a valid atom position.
	Residual bool
}

// slotKey names one plan slot: a compiled rule, the body position of
// the task's delta (-1 for a full firing), and the residual flag.
type slotKey struct {
	rule     *Rule
	deltaPos int
	residual bool
}

// slot is the plan a slot holds and the stats epoch it was built at.
type slot struct {
	p     *Plan
	epoch uint64
}

// Planner builds and caches plans, one per slot. One Planner serves one
// evaluation or one maintained handle; it is not safe for concurrent
// use (eval plans single-threaded between rounds, ivm updates are
// serialized).
type Planner struct {
	// Fixed disables cost-based ordering: plans keep the textual body
	// order, with the same mask/pushdown compilation. This is the
	// "planner off" baseline of the differential tests — identical
	// semantics to the pre-planner left-to-right engine.
	Fixed bool

	slots map[slotKey]slot

	// Hits / Misses / Replans count per-slot cache behavior: a hit finds
	// the slot's plan built at the requested epoch, and a replan is a
	// miss on a slot that held a plan built at another epoch.
	Hits, Misses, Replans uint64
}

// Plan returns the plan for req, rebuilding its slot's plan whenever
// the slot was built at another epoch. cached reports a hit; callers
// charge plan-construction budgets only on misses.
func (pl *Planner) Plan(req Request) (p *Plan, cached bool) {
	k := slotKey{req.Rule, req.DeltaPos, req.Residual}
	s, ok := pl.slots[k]
	if ok && s.epoch == req.Epoch {
		pl.Hits++
		return s.p, true
	}
	pl.Misses++
	if ok {
		pl.Replans++
	}
	p = pl.build(req)
	if pl.slots == nil {
		pl.slots = make(map[slotKey]slot)
	}
	pl.slots[k] = slot{p, req.Epoch}
	return p, false
}

// build constructs the plan: choose a join order, compile each atom
// into a probe/scan step relative to that order, annotate dead slots,
// and ensure the chosen indexes exist.
func (pl *Planner) build(req Request) *Plan {
	r := req.Rule
	// Residual plans exclude the delta atom: its slots are bound by the
	// caller before the run, so later steps key and filter against them
	// exactly as if an earlier step had bound them.
	var pre []int
	if req.Residual {
		for _, arg := range r.Body[req.DeltaPos].Args {
			if !arg.Const {
				pre = append(pre, arg.Slot)
			}
		}
	}
	var order []int
	if pl.Fixed {
		order = make([]int, 0, len(r.Body))
		for i := range r.Body {
			if req.Residual && i == req.DeltaPos {
				continue
			}
			order = append(order, i)
		}
	} else {
		order = chooseOrder(r.Body, req.DeltaPos, req.DB, req.Residual)
	}
	p := &Plan{
		DeltaPos: req.DeltaPos,
		Epoch:    req.Epoch,
		NumSlots: r.NumSlots,
		Fixed:    pl.Fixed,
		Residual: req.Residual,
	}
	stepDelta := req.DeltaPos
	if req.Residual {
		stepDelta = -1
	}
	p.Steps = compileSteps(r.Body, order, stepDelta, req.DB, pre)
	annotateDead(p.Steps, r.NumSlots, r.HeadSlots)
	for i := range p.Steps {
		st := &p.Steps[i]
		if st.Mask != 0 && st.rel != nil {
			st.rel.EnsureIndex(st.Mask)
		}
	}
	return p
}

// chooseOrder picks the join order greedily: the delta atom first (its
// window is the round's novelty and is typically the smallest input),
// then repeatedly the remaining atom with the lowest estimated fan-out
// under the slots bound so far. Ties break toward the lowest original
// atom index, which keeps planning deterministic. Residual requests
// treat the delta atom as already consumed — its slots are bound, but
// it contributes no step.
func chooseOrder(atoms []Atom, deltaPos int, db *database.DB, residual bool) []int {
	n := len(atoms)
	order := make([]int, 0, n)
	used := make([]bool, n)
	bound := make(map[int]bool)
	take := func(ai int) {
		order = append(order, ai)
		used[ai] = true
		for _, arg := range atoms[ai].Args {
			if !arg.Const {
				bound[arg.Slot] = true
			}
		}
	}
	want := n
	if residual {
		used[deltaPos] = true
		want--
		for _, arg := range atoms[deltaPos].Args {
			if !arg.Const {
				bound[arg.Slot] = true
			}
		}
	} else if deltaPos >= 0 {
		take(deltaPos)
	}
	for len(order) < want {
		best, bestCost := -1, 0.0
		for ai := 0; ai < n; ai++ {
			if used[ai] {
				continue
			}
			c := estimateFan(atoms[ai], bound, db)
			if best < 0 || c < bestCost {
				best, bestCost = ai, c
			}
		}
		take(best)
	}
	return order
}

// compileSteps lowers the atoms, in the chosen order, to executable
// steps: each position becomes a pushed-down constant, a bound-slot
// key/filter, a repeat check, or a fresh binding, relative to the slots
// the preceding steps bind. preBound lists slots the caller binds
// before the run (residual plans); they compile as bound everywhere.
func compileSteps(atoms []Atom, order []int, deltaPos int, db *database.DB, preBound []int) []Step {
	bound := make(map[int]bool)
	for _, s := range preBound {
		bound[s] = true
	}
	steps := make([]Step, 0, len(order))
	cum := 1.0
	for _, ai := range order {
		a := atoms[ai]
		st := Step{
			Atom:  ai,
			Pred:  a.Pred,
			Delta: ai == deltaPos,
			Wide:  a.Wide(),
			rel:   db.Lookup(a.Pred),
		}
		st.EstFan = estimateFan(a, bound, db)
		cum *= st.EstFan
		st.EstRows = cum
		firstPos := make(map[int]int)
		for pos, arg := range a.Args {
			switch {
			case arg.Const:
				st.Filters = append(st.Filters, Filter{Kind: FilterConst, Pos: pos, ID: arg.ID})
				if !st.Wide {
					st.Mask |= 1 << uint(pos)
					st.Key = append(st.Key, KeyPart{Const: true, ID: arg.ID})
				}
			case bound[arg.Slot]:
				st.Filters = append(st.Filters, Filter{Kind: FilterBound, Pos: pos, Slot: arg.Slot})
				if !st.Wide {
					st.Mask |= 1 << uint(pos)
					st.Key = append(st.Key, KeyPart{Slot: arg.Slot})
				}
			default:
				if fp, ok := firstPos[arg.Slot]; ok {
					f := Filter{Kind: FilterRepeat, Pos: pos, First: fp}
					st.Filters = append(st.Filters, f)
					st.Checks = append(st.Checks, f)
					continue
				}
				firstPos[arg.Slot] = pos
				st.Binds = append(st.Binds, Bind{Pos: pos, Slot: arg.Slot})
			}
		}
		for _, b := range st.Binds {
			bound[b.Slot] = true
		}
		steps = append(steps, st)
	}
	return steps
}

// annotateDead marks, per step, the env slots whose last consumer is
// that step and which the head never reads — where a materializing
// executor would project them away.
func annotateDead(steps []Step, numSlots int, headSlots []int) {
	last := make([]int, numSlots)
	for i := range last {
		last[i] = -1
	}
	touch := func(slot, si int) {
		if slot >= 0 && slot < numSlots && si > last[slot] {
			last[slot] = si
		}
	}
	for si := range steps {
		for _, f := range steps[si].Filters {
			if f.Kind == FilterBound {
				touch(f.Slot, si)
			}
		}
		for _, b := range steps[si].Binds {
			touch(b.Slot, si)
		}
	}
	live := make(map[int]bool, len(headSlots))
	for _, s := range headSlots {
		live[s] = true
	}
	for slot, si := range last {
		if si >= 0 && !live[slot] {
			steps[si].Dead = append(steps[si].Dead, slot)
		}
	}
	for si := range steps {
		sort.Ints(steps[si].Dead)
	}
}
