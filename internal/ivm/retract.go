package ivm

import (
	"datalogeq/internal/ast"
	"datalogeq/internal/database"
	"datalogeq/internal/eval"
	"datalogeq/internal/guard"
	"datalogeq/internal/plan"
)

// Retract: counting delete-and-rederive. Retracted base facts lose
// their base support; rows left without support (nonrecursive strata:
// support exactly zero; recursive strata: any row a dying match
// reached, pessimistically) are killed and propagated stratum by
// stratum. Each stratum runs rounds over a kill frontier: for every
// frontier row at every body position, a residual plan joins the rest
// of the body against the live store, and per-step phase filters —
// positions before the delta skip propagated-or-frontier rows,
// positions after skip propagated rows — make the enumeration of dying
// matches exactly-once, so each match decrements its head's support
// exactly once. After the cascade, a recursive stratum's overdeleted
// rows with support left (their remaining derivations use no deleted
// row) are revived, and revival rounds restore the counts their
// matches contribute. Physical deletion is one deferred DeleteRowsMarked
// per touched relation at the end of the update, handed the killed rows.
func (m *maint) Retract(facts []ast.Atom) (eval.UpdateStats, error) {
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
	u := m.newUpdate(meter, &us)
	u.x.SkipRow = u.skipRow

	for _, ad := range adms {
		br := m.base.Lookup(ad.pred)
		if br == nil {
			continue // never asserted; retraction is a no-op
		}
		bid := br.RowID(ad.row)
		if bid < 0 {
			continue
		}
		// The base row is only marked: it leaves the base after the
		// cascade succeeds, so a failed update leaves Base() unchanged.
		b := u.stateOf(br).at(bid)
		if *b&rsDead != 0 {
			continue // duplicate within the batch
		}
		*b |= rsDead
		lr := m.live.Lookup(ad.pred)
		lid := lr.RowID(ad.row)
		if m.counted[ad.pred] {
			// Derived predicate: drop the base support; the row dies
			// only when no derivation is left. A recursive stratum must
			// overdelete pessimistically — support may be cyclic.
			c := lr.AddCountAt(int(lid), -1)
			us.CountUpdates++
			if err := m.charge(meter, "ivm/retract"); err != nil {
				return m.fail(&us, meter, err)
			}
			if m.stratumRecursive[ad.pred] || c == 0 {
				u.kill(ad.pred, lr, lid)
			}
		} else {
			u.kill(ad.pred, lr, lid)
			if err := m.charge(meter, "ivm/retract"); err != nil {
				return m.fail(&us, meter, err)
			}
		}
	}

	for si, s := range m.strata {
		if err := u.retractStratum(si, s); err != nil {
			return m.fail(&us, meter, err)
		}
	}

	// Deferred deletion: the cascade enumerated against intact slabs;
	// now the dead rows leave the store for real, in sorted predicate
	// order.
	for _, pred := range m.live.Preds() {
		rel := m.live.Lookup(pred)
		p := u.st[rel]
		if p == nil || len(p.ids) == 0 {
			continue
		}
		u.ids = p.appendDead(u.ids[:0])
		n := rel.DeleteRowsMarked(u.ids)
		us.RowsDeleted += n
		for j := 0; j < n; j++ {
			if err := m.charge(meter, "ivm/retract"); err != nil {
				return m.fail(&us, meter, err)
			}
		}
	}
	// Every step that can fail is done: the marked base rows go too.
	// Resetting the phase table after the deletion keeps a repeated
	// predicate from deleting again by row IDs a compaction shifted.
	for _, ad := range adms {
		if br := m.base.Lookup(ad.pred); br != nil {
			if p := u.st[br]; p != nil && len(p.ids) != 0 {
				u.ids = p.appendDead(u.ids[:0])
				br.DeleteRowsMarked(u.ids)
				p.reset()
			}
		}
	}
	if err := m.commitDurable(database.OpRetract, facts, &us, meter); err != nil {
		return us, err
	}
	us.Budget = meter.Usage()
	return us, nil
}

// retractStratum cascades the kills accumulated so far through one
// stratum: overdelete rounds first, then — for a recursive stratum —
// count-driven rederivation. Phase bits (all but rsDead) are cleared at
// stratum end so the next stratum's frontier and filters start clean.
func (u *update) retractStratum(si int, s ast.Stratum) error {
	m := u.m
	bodyPreds := m.strataBody[si]
	front := u.fa
	front.reset()
	for _, k := range u.deadOrder {
		if bodyPreds[k.pred] && k.ph.get(k.rid)&rsDead != 0 {
			front.add(k.pred, k.rid)
			*k.ph.at(k.rid) |= rsFront
		}
	}
	if front.n == 0 {
		return nil
	}
	u.mode = updDelete
	u.recursive = s.Recursive
	fired := false
	next := u.fb
	for front.n > 0 {
		roundFired, err := u.frontierRound(s, front, next, rsFront|rsProp, rsProp)
		if err != nil {
			return err
		}
		fired = fired || roundFired
		// Promote: the propagated frontier joins the exclusion set, and
		// this round's kills become the next frontier.
		for _, p := range front.preds {
			ph := u.st[m.live.Lookup(p)]
			for _, rid := range front.rows[p] {
				b := ph.at(rid)
				*b = *b&^rsFront | rsProp
			}
		}
		for _, p := range next.preds {
			ph := u.st[m.live.Lookup(p)]
			for _, rid := range next.rows[p] {
				*ph.at(rid) |= rsFront
			}
		}
		front, next = next, front
	}
	if fired {
		u.us.StrataRun++
	}
	var err error
	if s.Recursive {
		err = u.rederive(si, s)
	}
	for _, k := range u.deadOrder {
		*k.ph.at(k.rid) &^= rsFront | rsProp | rsRev | rsPending
	}
	return err
}

// rederive revives overdeleted rows that kept support. After
// overdeletion, a dead row's count is exactly the number of its
// derivations untouched by any deleted row — the matches that
// decremented it were precisely those through a killed row — so
// count>0 is the whole rederivation query. Revival rounds then restore
// the contributions of matches running through revived rows: position
// filters (before the delta: skip dead or current-frontier rows; after:
// skip dead rows) keep the enumeration exactly-once, and newly revivable
// heads are buffered to the round boundary so filters stay stable
// within a round.
func (u *update) rederive(si int, s ast.Stratum) error {
	m := u.m
	sPreds := m.strataPreds[si]
	front := u.fa
	front.reset()
	for _, k := range u.deadOrder {
		if !sPreds[k.pred] {
			continue
		}
		b := k.ph.at(k.rid)
		if *b&rsDead == 0 {
			continue
		}
		if k.rel.CountAt(int(k.rid)) > 0 {
			*b = *b&^rsDead | rsRev
			u.us.Rederived++
			front.add(k.pred, k.rid)
		}
	}
	u.mode = updRevive
	next := u.fb
	for front.n > 0 {
		if _, err := u.frontierRound(s, front, next, rsDead|rsRev, rsDead); err != nil {
			return err
		}
		// The propagated revivals become plain live rows; buffered
		// revivals come alive and form the next frontier.
		for _, p := range front.preds {
			ph := u.st[m.live.Lookup(p)]
			for _, rid := range front.rows[p] {
				*ph.at(rid) &^= rsRev
			}
		}
		for _, p := range next.preds {
			ph := u.st[m.live.Lookup(p)]
			for _, rid := range next.rows[p] {
				b := ph.at(rid)
				*b = *b&^(rsDead|rsPending) | rsRev
				u.us.Rederived++
			}
		}
		front, next = next, front
	}
	return nil
}

// frontierRound runs one round of the retraction cascade through
// stratum s: for every rule and every body position with rows in
// front, the residual plan joins the rest of the body against each
// frontier row, skipping rows whose phase intersects before at steps
// over earlier body atoms and after at the rest. Matches run onMatch
// under u.mode, which buffers the next frontier into next. It reports
// whether any task ran.
func (u *update) frontierRound(s ast.Stratum, front, next *frontier, before, after uint8) (bool, error) {
	m := u.m
	if err := u.meter.CheckWall("ivm/retract"); err != nil {
		return false, err
	}
	epoch := m.live.StatsEpoch()
	next.reset()
	u.next = next
	fired := false
	for _, ri := range s.Rules {
		r := &m.rules[ri]
		for ai := range r.Body {
			rows := front.rows[r.Body[ai].Pred]
			if len(rows) == 0 {
				continue
			}
			fired = true
			p, cached := m.planner.Plan(plan.Request{
				Rule:     r,
				DeltaPos: ai,
				DB:       m.live,
				Epoch:    epoch,
				Residual: true,
			})
			if !cached {
				if err := u.meter.Charge("ivm/plan", guard.Plans, 1); err != nil {
					return fired, err
				}
			}
			u.prepTask(ri, ai, p, before, after)
			u.rule = r
			u.headRel = m.headRels[ri]
			frel := m.bodyRels[ri][ai]
			for _, rid := range rows {
				if !u.bindDelta(r, ai, frel, rid) {
					continue
				}
				u.x.RunBounded(p, nil)
				if m.tripErr != nil {
					return fired, m.tripErr
				}
			}
		}
	}
	if fired {
		u.us.Rounds++
	}
	return fired, nil
}
