// Package plan is the compiled rule form (Rule, CompileRules), the
// cost-based query planner, and the streaming relational-algebra
// executor behind eval's rule firing and ivm's maintenance. A compiled
// slot-form rule body — a conjunction of atoms over interned constants
// and dense variable slots — is turned into an explicit left-deep
// operator tree: an index probe or filtered scan at each leaf, joined
// in an order chosen greedily from live cardinality statistics
// (relation lengths and index posting-list counts exposed by
// database.StatsEpoch / IndexCard), with constants and bound-prefix
// columns pushed down into the probe keys and dead variables annotated
// at the step where their last consumer runs.
//
// The executor streams: each probe or scan pipelines its bindings
// directly into the next step's key construction, and complete matches
// fire a caller-supplied OnMatch callback — no intermediate relation is
// ever materialized, so the memory footprint of a join is one slot
// environment regardless of intermediate cardinalities.
//
// Determinism contract (inherited by eval's differential tests): the
// set of complete matches of a conjunction is independent of join
// order, so for a fixed input the OnMatch count is bit-identical
// whichever plan runs. Within one plan, candidate rows are enumerated
// in ascending row-ID order at every step (index posting lists and
// linear scans are both oldest-first), so a single plan also enumerates
// matches in a deterministic order. Planning itself is deterministic:
// ties in the cost model break toward the lowest original atom index.
//
// The Planner is the only plan cache. It keeps one plan per slot — a
// compiled *Rule, a delta position, and the residual flag — together
// with the stats epoch the plan was built at, and rebuilds the slot's
// plan whenever the requested epoch differs. While the store's
// StatsEpoch is unchanged, every cardinality the cost model would read
// is close enough that replanning cannot change the chosen order, so
// stable fixpoint rounds replan nothing.
package plan

import (
	"datalogeq/internal/database"
)

// Arg is one argument position of a slot-form atom: an interned
// constant or a variable slot. Repeated variables share a slot; the
// planner derives equality constraints from the repetition, so no
// textual-order classification (bound/bind/check) is baked in here.
type Arg struct {
	// Const marks a constant position; ID is its interned constant.
	Const bool
	ID    uint32
	// Slot is the variable's dense slot when !Const.
	Slot int
}

// Atom is a slot-form body atom: the planner's input unit.
type Atom struct {
	Pred string
	Args []Arg
}

// Wide reports whether the atom's arity exceeds the 64-bit column mask;
// wide atoms always execute as filtered scans.
func (a Atom) Wide() bool { return len(a.Args) > 64 }

// FilterKind classifies a scan-side filter on one column.
type FilterKind uint8

const (
	// FilterConst: the column must equal an interned constant.
	FilterConst FilterKind = iota
	// FilterBound: the column must equal the value of an env slot bound
	// by an earlier step.
	FilterBound
	// FilterRepeat: the column must equal an earlier column of the same
	// row (a repeated variable whose first occurrence is in this atom).
	FilterRepeat
)

// Filter is one column constraint of a step.
type Filter struct {
	Kind FilterKind
	// Pos is the column the constraint applies to.
	Pos int
	// ID is the constant (FilterConst).
	ID uint32
	// Slot is the env slot (FilterBound).
	Slot int
	// First is the earlier column holding the same variable
	// (FilterRepeat).
	First int
}

// Bind records that a step's matching row binds env slot Slot from
// column Pos (the variable's first occurrence under the plan's order).
type Bind struct {
	Pos  int
	Slot int
}

// KeyPart is one component of a step's index-probe key, in mask-column
// order: a pushed-down constant or a bound slot.
type KeyPart struct {
	Const bool
	ID    uint32
	Slot  int
}

// Step is one operator of a left-deep plan: probe or scan one relation
// under the bindings of the preceding steps, extend the environment,
// recurse.
type Step struct {
	// Atom is the original body position this step came from.
	Atom int
	// Pred is the relation probed or scanned.
	Pred string
	// Delta marks the step restricted to the executor's Window (the
	// semi-naive delta position).
	Delta bool
	// Wide marks an atom too wide for a 64-bit mask; always scans.
	Wide bool
	// Mask is the index column mask of the probe path: bit c set means
	// column c is a constant or a slot bound by an earlier step. 0
	// means no column is constrained and the step scans.
	Mask uint64
	// Key builds the probe key, one part per set mask bit, ascending.
	Key []KeyPart
	// Checks are the FilterRepeat constraints the probe path must still
	// verify per row (repeats are not expressible in the key).
	Checks []Filter
	// Filters is the full constraint set (constants, bound slots,
	// repeats) for the scan path.
	Filters []Filter
	// Binds extends the environment from the matching row.
	Binds []Bind
	// Dead lists env slots whose last consumer is this step and which
	// the head does not use: the streaming analogue of an early
	// projection. Purely diagnostic — the pipeline never materializes,
	// so dropping a slot is free — but explain output uses it to show
	// where a blocking executor would project.
	Dead []int
	// EstFan is the cost model's estimate of matching rows per input
	// binding; EstRows the cumulative estimate after this step.
	EstFan  float64
	EstRows float64

	// rel is the relation resolved at plan time; nil when the predicate
	// had no relation yet, and then the step matches nothing. A plan
	// with a nil rel is never reused after the relation appears: eval
	// never deletes rows during an evaluation, so every term of
	// StatsEpoch only grows and creating a relation changes the epoch,
	// and ivm's wire creates every rule relation up front.
	rel *database.Relation
}

// Plan is a compiled, cached join plan for one (rule, delta position)
// pair at one stats epoch.
type Plan struct {
	Steps []Step
	// DeltaPos is the original atom position restricted to the window;
	// -1 for a full (non-semi-naive) firing.
	DeltaPos int
	// Epoch is the stats epoch the plan was built at.
	Epoch uint64
	// NumSlots is the environment size the executor needs.
	NumSlots int
	// Fixed marks a plan built in textual body order (planner off).
	Fixed bool
	// Residual marks a plan whose DeltaPos atom is not a step at all:
	// the caller binds that atom's slots in Env before running and
	// verifies its constant/repeat constraints itself. Incremental
	// retraction uses residual plans to join the rest of a body against
	// one deleted row at a time.
	Residual bool
}
