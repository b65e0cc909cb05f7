package ivm

import (
	"datalogeq/internal/ast"
	"datalogeq/internal/database"
	"datalogeq/internal/eval"
	"datalogeq/internal/guard"
	"datalogeq/internal/plan"
)

// Insert: counting-based insert maintenance. New base facts are
// admitted, then each stratum (callees-first) runs semi-naive delta
// rounds whose per-atom windows enumerate every match containing at
// least one new row exactly once — atom i ranges over the rows new this
// round, atoms before i over the previous frontier, atoms after i over
// everything up to the round snapshot. Each match increments its head
// row's support; a row appearing for the first time is added to the
// live database. Because the enumeration is exactly-once, counts stay
// exact and a later Retract can trust them.

// admission is one validated fact of an update batch.
type admission struct {
	pred string
	row  database.Row
}

func (m *maint) Insert(facts []ast.Atom) (eval.UpdateStats, error) {
	var us eval.UpdateStats
	if err := m.checkUsable(); err != nil {
		return us, err
	}
	if err := m.ctxLive(); err != nil {
		return us, err
	}
	adms, err := m.validate(facts)
	if err != nil {
		return us, err
	}
	meter := m.meter()
	m.stop.Store(false)
	m.tripErr = nil

	// Lengths before admission: everything at or past these marks is
	// this update's delta. New predicates admitted below default to 0.
	preLens := make(map[string]int)
	for _, p := range m.live.Preds() {
		preLens[p] = m.live.Lookup(p).Len()
	}

	u := m.newUpdate(meter, &us)
	// A failed Insert drops the base rows it appended, so Base() is
	// unchanged by an update that reports an error.
	fail := func(err error) (eval.UpdateStats, error) {
		u.unadmit()
		return m.fail(&us, meter, err)
	}
	for _, ad := range adms {
		br := m.base.Relation(ad.pred, len(ad.row))
		u.noteBase(br)
		if !br.AddRow(ad.row) {
			continue // already asserted; sets, not bags
		}
		lr := m.live.Relation(ad.pred, len(ad.row))
		if m.counted[ad.pred] {
			lr.EnableCounts()
		}
		if id := lr.RowID(ad.row); id >= 0 {
			// Already derived: external support only bumps the count.
			if m.counted[ad.pred] {
				lr.AddCountAt(int(id), 1)
				us.CountUpdates++
				if err := m.charge(meter, "ivm/insert"); err != nil {
					return fail(err)
				}
			}
			continue
		}
		lr.AddRow(ad.row)
		us.RowsInserted++
		if m.counted[ad.pred] {
			lr.AddCountAt(lr.Len()-1, 1)
			us.CountUpdates++
		}
		if err := m.charge(meter, "ivm/insert"); err != nil {
			return fail(err)
		}
	}

	m.track()
	start := make([]int, len(m.trackRels))
	for i, name := range m.trackNames {
		start[i] = preLens[name]
	}
	if err := u.propagateInserts(start); err != nil {
		return fail(err)
	}
	if err := m.commitDurable(database.OpInsert, facts, &us, meter); err != nil {
		return us, err
	}
	us.Budget = meter.Usage()
	return us, nil
}

// validate interns and checks every fact before any mutation, so a bad
// batch leaves the handle untouched.
func (m *maint) validate(facts []ast.Atom) ([]admission, error) {
	adms := make([]admission, 0, len(facts))
	for _, a := range facts {
		pred, row, err := m.groundRow(a)
		if err != nil {
			return nil, err
		}
		adms = append(adms, admission{pred, row})
	}
	return adms, nil
}

// noteBase records rel's length before this update first admits a row
// to it.
func (u *update) noteBase(rel *database.Relation) {
	for _, b := range u.baseLens {
		if b.rel == rel {
			return
		}
	}
	u.baseLens = append(u.baseLens, baseLen{rel, rel.Len()})
}

// unadmit drops the base rows this update appended: a suffix of each
// noted base slab.
func (u *update) unadmit() {
	for _, b := range u.baseLens {
		u.ids = u.ids[:0]
		for i := b.n; i < b.rel.Len(); i++ {
			u.ids = append(u.ids, int32(i))
		}
		b.rel.DeleteRowsMarked(u.ids)
	}
}

// fail poisons the handle: the live database is mid-update.
func (m *maint) fail(us *eval.UpdateStats, meter *guard.Meter, err error) (eval.UpdateStats, error) {
	m.broken = err
	us.Budget = meter.Usage()
	return *us, err
}

// propagateInserts runs the per-stratum delta rounds. start holds the
// pre-admission lengths per tracked relation: for each stratum the
// first round's delta is everything admitted or derived since the
// update began — earlier strata's additions included — and later rounds
// narrow to the rows the previous round appended.
func (u *update) propagateInserts(start []int) error {
	m := u.m
	u.mode = updInsert
	if cap(u.prev) < len(start) {
		u.prev = make([]int, len(start))
		u.cur = make([]int, len(start))
	}
	prev, cur := u.prev[:len(start)], u.cur[:len(start)]
	for _, s := range m.strata {
		copy(prev, start)
		fired := false
		for {
			if err := u.meter.CheckWall("ivm/insert"); err != nil {
				return err
			}
			if m.opts.Ctx != nil {
				if err := m.opts.Ctx.Err(); err != nil {
					return err
				}
			}
			for i, rel := range m.trackRels {
				cur[i] = rel.Len()
			}
			epoch := m.live.StatsEpoch()
			tasks := 0
			for _, ri := range s.Rules {
				r := &m.rules[ri]
				for ai := range r.Body {
					ti := m.atomIdx[ri][ai]
					if ti < 0 || prev[ti] >= cur[ti] {
						continue
					}
					tasks++
					p, cached := m.planner.Plan(plan.Request{
						Rule:     r,
						DeltaPos: ai,
						DB:       m.live,
						Epoch:    epoch,
					})
					if !cached {
						if err := u.meter.Charge("ivm/plan", guard.Plans, 1); err != nil {
							return err
						}
					}
					if cap(u.bounds) < len(r.Body) {
						u.bounds = make([]plan.Window, len(r.Body))
					}
					bounds := u.bounds[:len(r.Body)]
					for aj := range r.Body {
						tj := m.atomIdx[ri][aj]
						switch {
						case tj < 0:
							bounds[aj] = plan.Window{}
						case aj < ai:
							bounds[aj] = plan.Window{Lo: 0, Hi: prev[tj]}
						case aj == ai:
							bounds[aj] = plan.Window{Lo: prev[tj], Hi: cur[tj]}
						default:
							bounds[aj] = plan.Window{Lo: 0, Hi: cur[tj]}
						}
					}
					u.rule = r
					u.headRel = m.headRels[ri]
					u.x.RunBounded(p, bounds)
					if m.tripErr != nil {
						return m.tripErr
					}
				}
			}
			if tasks == 0 {
				break
			}
			u.us.Rounds++
			fired = true
			copy(prev, cur)
		}
		if fired {
			u.us.StrataRun++
		}
	}
	return nil
}
