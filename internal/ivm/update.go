package ivm

import (
	"datalogeq/internal/database"
	"datalogeq/internal/eval"
	"datalogeq/internal/guard"
	"datalogeq/internal/plan"
)

// Per-update machinery shared by Insert and Retract. Updates are small
// and frequent, so the hot loops avoid per-round allocation and never
// pay for a whole relation: row phase state lives in per-relation
// tables sized by the rows the update touched, the executor and its
// callbacks are built once per update, frontier buffers are swapped and
// reset rather than reallocated, and plans come straight from the
// handle's planner, whose slots are keyed by the compiled rule.

// Row phase bits, per relation, kept only for rows an update touches.
// IDs index the slab as the update found it, so the state dies with the
// update.
const (
	// rsDead marks a killed (and not revived) row.
	rsDead uint8 = 1 << iota
	// rsFront marks a member of the current overdelete frontier.
	rsFront
	// rsProp marks an overdelete frontier member already propagated.
	rsProp
	// rsRev marks a member of the current revival frontier.
	rsRev
	// rsPending marks a revival buffered for the round boundary.
	rsPending
)

// Executor callback modes.
const (
	updInsert = iota
	updDelete
	updRevive
)

// killRec is one killed row, recorded in kill order; the global order
// drives deterministic frontier construction.
type killRec struct {
	pred string
	rel  *database.Relation
	ph   *phases
	rid  int32
}

// phases holds one relation's row phase bits for the rows the current
// update touched: a linear-probe map from row ID to bits, and the
// touched IDs in first-touch order. It is sized by the touched rows,
// never by the relation, and reset removes exactly those rows, so an
// update costs nothing per untouched row.
type phases struct {
	slots []phaseSlot
	ids   []int32
}

type phaseSlot struct {
	rid  int32 // row ID + 1; 0 = empty
	bits uint8
}

// slotIn returns the index of rid's slot in slots, or of the empty
// slot where it would go.
func slotIn(slots []phaseSlot, rid int32) int {
	mask := len(slots) - 1
	i := int(uint64(uint32(rid))*0x9E3779B97F4A7C15>>32) & mask
	for slots[i].rid != 0 && slots[i].rid != rid+1 {
		i = (i + 1) & mask
	}
	return i
}

// get returns rid's phase bits, 0 for an untouched row.
func (p *phases) get(rid int32) uint8 {
	if len(p.ids) == 0 {
		return 0
	}
	return p.slots[slotIn(p.slots, rid)].bits
}

// at returns rid's phase bits for update, recording rid as touched.
func (p *phases) at(rid int32) *uint8 {
	if 4*(len(p.ids)+1) > 3*len(p.slots) {
		// Re-place in touch order, so the table is always the one that
		// inserting ids in order builds; reset relies on it.
		old := p.slots
		p.slots = make([]phaseSlot, max(16, 2*len(old)))
		for _, id := range p.ids {
			p.slots[slotIn(p.slots, id)] = old[slotIn(old, id)]
		}
	}
	i := slotIn(p.slots, rid)
	if p.slots[i].rid == 0 {
		p.slots[i].rid = rid + 1
		p.ids = append(p.ids, rid)
	}
	return &p.slots[i].bits
}

// reset forgets every touched row, newest first: removing the entries
// of a linear-probe table in reverse insertion order retraces the
// table's earlier states, so each removal finds its row without any
// deletion repair, and the cost is the touched rows, not the table.
func (p *phases) reset() {
	for k := len(p.ids) - 1; k >= 0; k-- {
		p.slots[slotIn(p.slots, p.ids[k])] = phaseSlot{}
	}
	p.ids = p.ids[:0]
}

// appendDead appends the touched rows whose bits include rsDead.
func (p *phases) appendDead(dst []int32) []int32 {
	for _, id := range p.ids {
		if p.get(id)&rsDead != 0 {
			dst = append(dst, id)
		}
	}
	return dst
}

// frontier is one round's worth of rows to propagate, grouped by
// predicate in discovery order. Buffers are reset and reused.
type frontier struct {
	preds []string
	rows  map[string][]int32
	n     int
}

func newFrontier() *frontier {
	return &frontier{rows: make(map[string][]int32)}
}

func (f *frontier) add(pred string, rid int32) {
	rs := f.rows[pred]
	if len(rs) == 0 {
		f.preds = append(f.preds, pred)
	}
	f.rows[pred] = append(rs, rid)
	f.n++
}

func (f *frontier) reset() {
	for _, p := range f.preds {
		f.rows[p] = f.rows[p][:0]
	}
	f.preds = f.preds[:0]
	f.n = 0
}

// update is one Insert or Retract in flight.
type update struct {
	m     *maint
	meter *guard.Meter
	us    *eval.UpdateStats

	// x is the streaming executor, reused across every task of the
	// update; its callbacks dispatch on the fields below.
	x       plan.Exec
	headRow database.Row
	mode    int
	rule    *plan.Rule
	headRel *database.Relation
	// recursive is the current stratum's recursion flag: recursive
	// strata overdelete unconditionally, nonrecursive ones exactly.
	recursive bool
	// bindSet is scratch for bindDelta: one flag per env slot.
	bindSet []bool

	// Retract state: per-relation row phases, the global kill order,
	// the frontier being discovered (next kills or pending revivals),
	// and double-buffered frontiers.
	st         map[*database.Relation]*phases
	deadOrder  []killRec
	next       *frontier
	fa, fb     *frontier
	stepStates []*phases
	skipMask   []uint8
	// ids is scratch for the row-ID lists handed to DeleteRowsMarked.
	ids []int32

	// Insert state: tracked-relation length snapshots, and each base
	// relation's length before admission, for undoing a failed Insert.
	prev, cur []int
	bounds    []plan.Window
	baseLens  []baseLen
}

// baseLen is a base relation's length before an Insert admitted rows
// to it.
type baseLen struct {
	rel *database.Relation
	n   int
}

// newUpdate returns the handle's pooled update, reset. Updates are
// serialized per handle, so one pooled instance (executor, frontier
// buffers, state arrays) serves every Insert and Retract.
func (m *maint) newUpdate(meter *guard.Meter, us *eval.UpdateStats) *update {
	u := m.upd
	if u == nil {
		u = &update{m: m}
		u.x.Env = make([]uint32, m.nslots)
		u.bindSet = make([]bool, m.nslots)
		u.x.Stop = &m.stop
		u.x.OnMatch = u.onMatch
		u.headRow = make(database.Row, 0, 8)
		u.st = make(map[*database.Relation]*phases)
		u.fa, u.fb = newFrontier(), newFrontier()
		m.upd = u
	}
	u.meter = meter
	u.us = us
	// Forget the rows the previous update touched, keeping the tables.
	for _, p := range u.st {
		p.reset()
	}
	u.deadOrder = u.deadOrder[:0]
	u.baseLens = u.baseLens[:0]
	u.fa.reset()
	u.fb.reset()
	u.x.SkipRow = nil
	return u
}

// bindDelta binds body atom ai of r to slab row rid of rel: constants
// must match, repeated slots must agree, and fresh slots are written
// into the executor's env. Reports whether the row satisfies the atom.
func (u *update) bindDelta(r *plan.Rule, ai int, rel *database.Relation, rid int32) bool {
	set := u.bindSet[:r.NumSlots]
	clear(set)
	env := u.x.Env
	for pos, arg := range r.Body[ai].Args {
		v := rel.At(int(rid), pos)
		if arg.Const {
			if v != arg.ID {
				return false
			}
			continue
		}
		if set[arg.Slot] {
			if env[arg.Slot] != v {
				return false
			}
			continue
		}
		env[arg.Slot] = v
		set[arg.Slot] = true
	}
	return true
}

// stateOf returns rel's phase table, creating it on first touch.
func (u *update) stateOf(rel *database.Relation) *phases {
	p := u.st[rel]
	if p == nil {
		p = &phases{}
		u.st[rel] = p
	}
	return p
}

// kill marks a row dead, recording it in the global kill order.
// Reports whether the row was newly killed.
func (u *update) kill(pred string, rel *database.Relation, rid int32) bool {
	p := u.stateOf(rel)
	b := p.at(rid)
	if *b&rsDead != 0 {
		return false
	}
	*b |= rsDead
	u.deadOrder = append(u.deadOrder, killRec{pred, rel, p, rid})
	return true
}

// prepTask points the executor's row filter at one residual task of
// rule ri with delta position ai: each step's body relation and skip
// mask — before for steps over atoms preceding ai, after for the rest.
func (u *update) prepTask(ri, ai int, p *plan.Plan, before, after uint8) {
	u.stepStates = u.stepStates[:0]
	u.skipMask = u.skipMask[:0]
	for i := range p.Steps {
		st := &p.Steps[i]
		mask := after
		if st.Atom < ai {
			mask = before
		}
		u.skipMask = append(u.skipMask, mask)
		// A table with no touched rows is left from an earlier update,
		// not state: treat it as untouched.
		s := u.st[u.m.bodyRels[ri][st.Atom]]
		if s != nil && len(s.ids) == 0 {
			s = nil
		}
		u.stepStates = append(u.stepStates, s)
	}
}

// skipRow is the executor's per-candidate-row filter: skip when the
// row's phase intersects the step's skip mask. Untouched relations have
// no state and nothing to skip.
func (u *update) skipRow(si int, rid int32) bool {
	s := u.stepStates[si]
	return s != nil && s.get(rid)&u.skipMask[si] != 0
}

// onMatch handles one complete body match, dispatching on the update
// phase: insert propagation adds support (and rows), overdelete removes
// support and kills, revival restores support and buffers revivals.
func (u *update) onMatch() {
	if u.m.stop.Load() {
		return
	}
	u.us.Firings++
	u.headRow = u.rule.AppendHead(u.headRow[:0], u.x.Env)
	rel := u.headRel
	switch u.mode {
	case updInsert:
		if id := rel.RowID(u.headRow); id >= 0 {
			rel.AddCountAt(int(id), 1)
			u.us.CountUpdates++
			u.m.charge(u.meter, "ivm/insert")
			return
		}
		rel.AddRow(u.headRow)
		rel.AddCountAt(rel.Len()-1, 1)
		u.us.RowsInserted++
		u.us.CountUpdates++
		u.m.charge(u.meter, "ivm/insert")
	case updDelete:
		// The match's head is in the fixpoint by construction: every
		// body row was, before this update, a fixpoint row.
		hid := rel.RowID(u.headRow)
		c := rel.AddCountAt(int(hid), -1)
		u.us.CountUpdates++
		u.m.charge(u.meter, "ivm/retract")
		if (u.recursive || c == 0) && u.kill(u.rule.HeadPred, rel, hid) {
			u.next.add(u.rule.HeadPred, hid)
		}
	case updRevive:
		hid := rel.RowID(u.headRow)
		rel.AddCountAt(int(hid), 1)
		u.us.CountUpdates++
		u.m.charge(u.meter, "ivm/retract")
		// Only a dead row can revive, and every dead row has been
		// touched: a live head needs no lookup beyond get.
		if s := u.stateOf(rel); s.get(hid)&(rsDead|rsPending) == rsDead {
			*s.at(hid) |= rsPending
			u.next.add(u.rule.HeadPred, hid)
		}
	}
}
