package ivm

// Durable maintenance: the glue between the counting maintainer and
// database.Durable. The WAL is a command log — each acknowledged
// Insert/Retract batch is appended after it has been applied in memory
// — so recovery is replay: decode the snapshot's (base, live) pair,
// re-wire a maintainer around it without re-running the fixpoint, and
// push the WAL tail back through the ordinary Insert/Retract paths.
// The engine's determinism contract (same state + same operations ⇒
// bit-identical state) is what makes this exact: the replayed handle
// finishes in precisely the state the crashed process held after its
// last acknowledged commit.
//
// Support counts belong to the program that derived them, so every
// snapshot records the maintained program's identity (programID). A
// store reopened under a different program — or holding a snapshot
// that predates identities — keeps only the snapshot's base: the live
// store is re-materialized from it under the new program, and a fresh
// snapshot is written before the handle serves anything.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	"datalogeq/internal/ast"
	"datalogeq/internal/database"
	"datalogeq/internal/eval"
	"datalogeq/internal/guard"
)

func init() {
	eval.RegisterDurableMaintainer(func(prog *ast.Program, d *database.Durable, opts eval.Options) (eval.Maintainer, eval.Stats, error) {
		return newDurableMaint(prog, d, opts)
	})
}

// newDurableMaint recovers (or freshly initializes) a maintainer over
// an open durable store. m.dur stays nil until the tail has replayed,
// so recovery never re-logs the batches it is reading.
func newDurableMaint(prog *ast.Program, d *database.Durable, opts eval.Options) (*maint, eval.Stats, error) {
	var m *maint
	var stats eval.Stats
	id := programID(prog)
	d.SetIdentity(id)
	snap := d.SnapshotState()
	if snap != nil && (len(snap) != 2 || snap[0] == nil || snap[1] == nil) {
		return nil, stats, fmt.Errorf("ivm: snapshot holds %d databases, want (base, live)", len(snap))
	}
	remat := snap != nil && d.SnapshotIdentity() != id
	if snap != nil && !remat {
		if err := prog.Validate(); err != nil {
			return nil, stats, err
		}
		rules, nslots, err := compile(prog)
		if err != nil {
			return nil, stats, err
		}
		// Counts were serialized with the live store under this
		// program; wire only.
		m = wire(prog, rules, nslots, snap[0], snap[1], opts)
	} else {
		// No snapshot, or one whose counts another program derived:
		// materialize from the base alone.
		base := database.New()
		if snap != nil {
			base = snap[0]
		}
		var err error
		m, stats, err = newMaint(prog, base, opts)
		if err != nil {
			return nil, stats, err
		}
	}
	for i, b := range d.Tail() {
		var err error
		switch b.Op {
		case database.OpInsert:
			_, err = m.Insert(b.Facts)
		case database.OpRetract:
			_, err = m.Retract(b.Facts)
		default:
			err = fmt.Errorf("unknown opcode %d", b.Op)
		}
		if err != nil {
			return nil, stats, fmt.Errorf("ivm: replaying WAL batch %d of generation %d: %w", i, d.Gen(), err)
		}
	}
	m.dur = d
	if remat || d.ShouldSnapshot() {
		// A re-materialized store must not be recovered under the old
		// program's identity again, and a long recovered tail means the
		// next crash would replay it again: fold either into a snapshot
		// now.
		if err := d.Snapshot([]*database.DB{m.base, m.live}); err != nil {
			return nil, stats, err
		}
	}
	return m, stats, nil
}

// commitDurable makes an applied update durable: the batch is appended
// to the WAL and fsynced, and a WAL past its threshold triggers a
// snapshot. Called at the end of every successful Insert/Retract; a
// no-op on in-memory handles. On error the handle is poisoned — the
// in-memory state is already mutated but the batch cannot be
// acknowledged as durable, so the caller must not continue as if it
// were.
func (m *maint) commitDurable(op byte, facts []ast.Atom, us *eval.UpdateStats, meter *guard.Meter) error {
	if m.dur == nil {
		return nil
	}
	if err := m.dur.CommitTagged(op, facts, m.tagClient, m.tagSeq); err != nil {
		_, e := m.fail(us, meter, err)
		return e
	}
	if m.dur.ShouldSnapshot() {
		if err := m.dur.Snapshot([]*database.DB{m.base, m.live}); err != nil {
			_, e := m.fail(us, meter, err)
			return e
		}
	}
	return nil
}

// Checkpoint forces a snapshot of the current state, truncating the
// WAL; a no-op on in-memory handles.
func (m *maint) Checkpoint() error {
	if err := m.checkUsable(); err != nil {
		return err
	}
	if m.dur == nil {
		return nil
	}
	return m.dur.Snapshot([]*database.DB{m.base, m.live})
}

// Seq returns the durable store's committed-batch sequence number, or
// 0 for an in-memory handle. Crash tests use it to learn how many
// scripted batches survived.
func (m *maint) Seq() uint64 {
	if m.dur == nil {
		return 0
	}
	return m.dur.Seq()
}

// Close releases the durable store's file handle (acknowledged commits
// are already fsynced). The handle must not be used afterwards.
func (m *maint) Close() error {
	if m.dur == nil {
		return nil
	}
	return m.dur.Close()
}

// programID identifies a maintained program: a hash of its rules, each
// rendered canonically and sorted, so the same rule set in any order
// has one identity. Support counts are a function of the rules, so a
// snapshot's counts are valid exactly under the program whose identity
// it records.
func programID(prog *ast.Program) string {
	rules := make([]string, len(prog.Rules))
	for i, r := range prog.Rules {
		rules[i] = r.String()
	}
	sort.Strings(rules)
	sum := sha256.Sum256([]byte(strings.Join(rules, "\n")))
	return hex.EncodeToString(sum[:])
}
