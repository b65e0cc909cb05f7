package ivm

import (
	"datalogeq/internal/ast"
	"datalogeq/internal/database"
	"datalogeq/internal/eval"
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
// matches contribute. Physical deletion is one deferred compaction per
// touched relation at the end of the update.
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

	baseDead := make(map[string]map[int32]bool)
	for _, ad := range adms {
		br := m.base.Lookup(ad.pred)
		if br == nil {
			continue // never asserted; retraction is a no-op
		}
		bid := br.RowID(ad.row)
		if bid < 0 {
			continue
		}
		bd := baseDead[ad.pred]
		if bd == nil {
			bd = make(map[int32]bool)
			baseDead[ad.pred] = bd
		}
		if bd[bid] {
			continue // duplicate within the batch
		}
		bd[bid] = true
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
	for _, pred := range sortedKeys(baseDead) {
		bd := baseDead[pred]
		m.base.Lookup(pred).DeleteRows(func(i int) bool { return bd[int32(i)] })
	}

	for si, s := range m.strata {
		if err := u.retractStratum(si, s); err != nil {
			return m.fail(&us, meter, err)
		}
	}

	// Deferred compaction: the cascade enumerated against intact slabs;
	// now the dead rows leave the store for real, in sorted predicate
	// order.
	for _, pred := range m.live.Preds() {
		rel := m.live.Lookup(pred)
		sl := u.st[rel]
		if len(sl) == 0 {
			continue
		}
		n := rel.DeleteRowsMarked(sl, rsDead)
		us.RowsDeleted += n
		for j := 0; j < n; j++ {
			if err := m.charge(meter, "ivm/retract"); err != nil {
				return m.fail(&us, meter, err)
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
		if bodyPreds[k.pred] && u.st[k.rel][k.rid]&rsDead != 0 {
			front.add(k.pred, k.rid)
			u.st[k.rel][k.rid] |= rsFront
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
		if err := u.meter.CheckWall("ivm/retract"); err != nil {
			return err
		}
		epoch := m.live.StatsEpoch()
		next.reset()
		u.next = next
		roundFired := false
		for _, ri := range s.Rules {
			r := &m.rules[ri]
			for ai := range r.Body {
				rows := front.rows[r.Body[ai].Pred]
				if len(rows) == 0 {
					continue
				}
				roundFired = true
				e, err := m.residualEntry(ri, ai, epoch, u.meter)
				if err != nil {
					return err
				}
				u.prepTask(e, e.odMask)
				u.rule = r
				u.headRel = m.headRels[ri]
				frel := m.bodyRels[ri][ai]
				for _, rid := range rows {
					if !u.bindDelta(r, ai, frel, rid) {
						continue
					}
					u.x.RunBounded(e.p, nil)
					if m.tripErr != nil {
						return m.tripErr
					}
				}
			}
		}
		if roundFired {
			u.us.Rounds++
			fired = true
		}
		// Promote: the propagated frontier joins the exclusion set, and
		// this round's kills become the next frontier.
		for _, p := range front.preds {
			sl := u.st[m.live.Lookup(p)]
			for _, rid := range front.rows[p] {
				sl[rid] = sl[rid]&^rsFront | rsProp
			}
		}
		for _, p := range next.preds {
			sl := u.st[m.live.Lookup(p)]
			for _, rid := range next.rows[p] {
				sl[rid] |= rsFront
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
		u.st[k.rel][k.rid] &^= rsFront | rsProp | rsRev | rsPending
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
		sl := u.st[k.rel]
		if sl[k.rid]&rsDead == 0 {
			continue
		}
		if k.rel.CountAt(int(k.rid)) > 0 {
			sl[k.rid] = sl[k.rid]&^rsDead | rsRev
			u.us.Rederived++
			front.add(k.pred, k.rid)
		}
	}
	u.mode = updRevive
	next := u.fb
	for front.n > 0 {
		if err := u.meter.CheckWall("ivm/retract"); err != nil {
			return err
		}
		epoch := m.live.StatsEpoch()
		next.reset()
		u.next = next
		roundFired := false
		for _, ri := range s.Rules {
			r := &m.rules[ri]
			for ai := range r.Body {
				rows := front.rows[r.Body[ai].Pred]
				if len(rows) == 0 {
					continue
				}
				roundFired = true
				e, err := m.residualEntry(ri, ai, epoch, u.meter)
				if err != nil {
					return err
				}
				u.prepTask(e, e.rvMask)
				u.rule = r
				u.headRel = m.headRels[ri]
				frel := m.bodyRels[ri][ai]
				for _, rid := range rows {
					if !u.bindDelta(r, ai, frel, rid) {
						continue
					}
					u.x.RunBounded(e.p, nil)
					if m.tripErr != nil {
						return m.tripErr
					}
				}
			}
		}
		if roundFired {
			u.us.Rounds++
		}
		// The propagated revivals become plain live rows; buffered
		// revivals come alive and form the next frontier.
		for _, p := range front.preds {
			sl := u.st[m.live.Lookup(p)]
			for _, rid := range front.rows[p] {
				sl[rid] &^= rsRev
			}
		}
		for _, p := range next.preds {
			sl := u.st[m.live.Lookup(p)]
			for _, rid := range next.rows[p] {
				sl[rid] = sl[rid]&^(rsDead|rsPending) | rsRev
				u.us.Rederived++
			}
		}
		front, next = next, front
	}
	return nil
}

// sortedKeys returns the map's keys in ascending order.
func sortedKeys(m map[string]map[int32]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
