package eval

import (
	"context"
	"fmt"

	"datalogeq/internal/ast"
	"datalogeq/internal/database"
	"datalogeq/internal/guard"
)

// Incremental view maintenance entry points. The algorithm lives in
// internal/ivm, which evaluates through this package's machinery, so
// eval cannot import it; ivm registers its factories below instead.

// UpdateStats reports the work one incremental update (Insert or
// Retract) performed, the maintenance analogue of Stats. Every counter
// is accumulated at single-threaded points in canonical order, so —
// like Stats — an update's UpdateStats are bit-identical for every
// worker count.
type UpdateStats struct {
	// RowsInserted counts rows newly added to the live database:
	// admitted base facts plus derived rows whose support went 0 →
	// positive.
	RowsInserted int
	// RowsDeleted counts rows physically removed: retracted base facts
	// plus derived rows whose support reached zero and survived no
	// rederivation.
	RowsDeleted int
	// Rederived counts overdeleted rows the rederivation pass revived
	// (they kept alternative support not routed through a deleted row).
	Rederived int
	// CountUpdates counts support-count mutations applied — the "rows
	// touched" measure of an update, charged against the budget's
	// Maintained dimension.
	CountUpdates int64
	// StrataRun counts strata whose rules actually fired; unaffected
	// strata are skipped wholesale.
	StrataRun int
	// Rounds counts delta rounds executed across all strata run.
	Rounds int
	// Firings counts rule-body matches enumerated by the update.
	Firings int
	// Budget is the maintainer's cumulative guard consumption after the
	// update (shared across the handle's lifetime, like one evaluation).
	Budget guard.Usage
}

// String renders the update account on one line, REPL-style.
func (u UpdateStats) String() string {
	return fmt.Sprintf("%d rows in, %d rows out, %d rederived, %d count updates, %d strata, %d rounds, %d firings",
		u.RowsInserted, u.RowsDeleted, u.Rederived, u.CountUpdates, u.StrataRun, u.Rounds, u.Firings)
}

// Maintainer is the incremental-maintenance implementation installed by
// internal/ivm. Facts are ground atoms; Insert and Retract run the
// counting delta algorithm over the affected strata only and leave the
// live database at exactly the fixpoint a from-scratch evaluation of
// (base ± facts) would produce. Handle exposes every method.
type Maintainer interface {
	// Insert adds ground facts to the base database and propagates them
	// through the materialization. Unknown predicates create new base
	// relations. A budget trip returns a *guard.LimitError and poisons
	// the handle (see Err).
	Insert(facts []ast.Atom) (UpdateStats, error)
	// Retract removes ground facts from the base database and
	// propagates the removal: support counts are decremented, rows
	// losing all support are deleted, and rederivation revives rows
	// with alternative derivations. Retracting an absent fact is a
	// no-op. A budget trip returns a *guard.LimitError and poisons the
	// handle.
	Retract(facts []ast.Atom) (UpdateStats, error)
	// InsertTagged is Insert with a durable idempotency tag: the
	// committed batch records (client, clientSeq), so after any crash
	// or reconnect ClientSeq still reports the acknowledged pair. On an
	// in-memory handle the tag is ignored.
	InsertTagged(facts []ast.Atom, client string, clientSeq uint64) (UpdateStats, error)
	// RetractTagged is Retract with a durable idempotency tag; see
	// InsertTagged.
	RetractTagged(facts []ast.Atom, client string, clientSeq uint64) (UpdateStats, error)
	// DB returns the live maintained database (base facts plus every
	// derived fact, with support counts on IDB relations). Callers must
	// treat it as read-only; it is only valid between updates.
	DB() *database.DB
	// Base returns the asserted base database: the facts inserted and
	// not retracted, with no derived rows. Read-only, valid between
	// updates; re-evaluating the program over a clone of it reproduces
	// DB, which is how recovery is verified.
	Base() *database.DB
	// Checkpoint forces a snapshot on a durable handle: the full state
	// is written as the next generation and the WAL truncated, so the
	// next open recovers without replaying. A no-op in memory.
	Checkpoint() error
	// Seq returns the durable store's committed-batch sequence number:
	// how many batches have ever been acknowledged durable, counting
	// from the store's creation. 0 in memory.
	Seq() uint64
	// Close releases the durable store behind the handle (acknowledged
	// commits are already fsynced); a no-op in memory. The handle must
	// not be used afterwards.
	Close() error
	// ClientSeq reports the durable idempotency table's entry for
	// client: the highest client sequence ever committed under that ID.
	// A serving front end uses it for exactly-once retries: a batch
	// retried at or below it has already been acknowledged. (0, false)
	// when the client is unknown or the handle has no durable store.
	ClientSeq(client string) (uint64, bool)
	// Clients returns the durable idempotency table (client ID →
	// highest committed client sequence); nil without a durable store.
	Clients() map[string]uint64
	// SetUpdateContext bounds later updates with ctx: an expired
	// context rejects the update up front (handle intact), and a
	// cancellation mid-cascade aborts it like a budget trip (handle
	// poisoned). nil clears the bound.
	SetUpdateContext(ctx context.Context)
	// Err returns the error that poisoned the handle — a budget trip,
	// cancellation, or I/O failure mid-update left the materialization
	// inconsistent — or nil while the handle is healthy. A poisoned
	// handle refuses further updates; rebuild it from the durable store
	// (whose state is exactly the acknowledged batches) or from Base.
	Err() error
}

// MaintainerFactory builds a Maintainer: it runs the initial fixpoint
// of prog over edb (reporting its Stats) and attaches support counts.
type MaintainerFactory func(prog *ast.Program, edb *database.DB, opts Options) (Maintainer, Stats, error)

// DurableMaintainerFactory builds a Maintainer bound to an open
// durable store: recovered state is rebuilt (snapshot plus WAL tail,
// or an initial fixpoint for a fresh store) and every later committed
// update is logged through the store.
type DurableMaintainerFactory func(prog *ast.Program, d *database.Durable, opts Options) (Maintainer, Stats, error)

// maintainerFactory is the installed hook; nil until internal/ivm is
// imported.
var maintainerFactory MaintainerFactory

// durableFactory is the durable-mode hook, installed alongside.
var durableFactory DurableMaintainerFactory

// RegisterMaintainer installs the incremental maintenance factory.
// Called from internal/ivm's init; last registration wins.
func RegisterMaintainer(f MaintainerFactory) { maintainerFactory = f }

// RegisterDurableMaintainer installs the durable maintenance factory.
// Called from internal/ivm's init; last registration wins.
func RegisterDurableMaintainer(f DurableMaintainerFactory) { durableFactory = f }

// Handle is a maintained materialization of prog over a base database:
// the initial fixpoint is computed once, and Insert/Retract update it
// incrementally — delta rounds over the affected strata instead of a
// re-fixpoint, with per-row support counts driving retraction. At every
// point the live database, each update's UpdateStats, and any budget
// trip are bit-identical across worker counts, matching the engine's
// evaluation contract.
type Handle struct {
	Maintainer
}

// Maintain computes the initial fixpoint of prog over edb and returns a
// handle for incremental updates, plus the initial evaluation's Stats.
// The input database is not modified. It requires internal/ivm to be
// linked in (it registers itself via RegisterMaintainer) and rejects
// programs outside the maintainable fragment — rules whose head
// variables the body does not bind (active-domain semantics would make
// retraction non-local).
func Maintain(prog *ast.Program, edb *database.DB, opts Options) (*Handle, Stats, error) {
	if maintainerFactory == nil {
		return nil, Stats{}, fmt.Errorf("eval: Maintain requires the incremental maintainer (import datalogeq/internal/ivm)")
	}
	m, stats, err := maintainerFactory(prog, edb, opts)
	if err != nil {
		return nil, stats, err
	}
	return &Handle{m}, stats, nil
}

// MaintainDurable binds a maintained materialization of prog to an
// open durable store and returns a handle whose committed updates
// survive crashes. A fresh store gets an initial fixpoint over the
// empty database (insert the base facts through the handle); a
// recovered store is rebuilt from its snapshot plus WAL tail — by the
// engine's determinism contract, into exactly the state the crashed
// process held after its last acknowledged commit. Stats are those of
// the initial fixpoint (zero when recovery skipped it). The handle
// takes ownership of d; do not use d directly afterwards.
func MaintainDurable(prog *ast.Program, d *database.Durable, opts Options) (*Handle, Stats, error) {
	if durableFactory == nil {
		return nil, Stats{}, fmt.Errorf("eval: MaintainDurable requires the incremental maintainer (import datalogeq/internal/ivm)")
	}
	m, stats, err := durableFactory(prog, d, opts)
	if err != nil {
		return nil, stats, err
	}
	return &Handle{m}, stats, nil
}
