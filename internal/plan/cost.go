package plan

import (
	"math"

	"datalogeq/internal/database"
)

// The cost model. Estimates come from statistics the storage engine
// already maintains: relation lengths and, when a persistent index on
// the relevant column mask exists, its distinct-key count (posting-list
// count). An index probe on mask over a relation of n rows with d
// distinct keys returns n/d rows for an average key — the persistent
// hash indexes ARE the pre-sized hash-join build sides, so this is the
// exact expected fan-out of the join step under a uniform key
// distribution, not a proxy. When no index exists yet (typically round
// one, before any plan has ensured one), a fixed per-bound-column
// selectivity stands in; the index the plan then builds bumps the stats
// epoch, and the next round replans against real counts.

// heuristicSelectivity is the assumed fraction of rows surviving one
// bound-column constraint when no index statistics exist yet.
const heuristicSelectivity = 0.1

// estimateFan estimates how many rows of a match per input binding,
// given the set of already-bound slots.
func estimateFan(a Atom, bound map[int]bool, db *database.DB) float64 {
	rel := db.Lookup(a.Pred)
	if rel == nil {
		return 0
	}
	n := float64(rel.LiveLen())
	var mask uint64
	nbound := 0
	for pos, arg := range a.Args {
		if arg.Const || bound[arg.Slot] {
			nbound++
			if !a.Wide() {
				mask |= 1 << uint(pos)
			}
		}
	}
	if nbound == 0 {
		return n
	}
	if mask != 0 {
		if d, ok := rel.IndexCard(mask); ok && d > 0 {
			return n / float64(d)
		}
	}
	return n * math.Pow(heuristicSelectivity, float64(nbound))
}
