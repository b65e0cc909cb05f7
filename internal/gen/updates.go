package gen

import (
	"math/rand"

	"datalogeq/internal/ast"
	"datalogeq/internal/database"
)

// UpdateStream returns a deterministic schedule of ground-fact batches
// for incremental-maintenance workloads: steps batches, each holding
// batch distinct facts sampled from db's pred relation. Replaying a
// batch as a retraction followed by a reinsertion leaves the maintained
// state unchanged, so a benchmark can loop over the stream
// indefinitely; the same seed always yields the same schedule.
func UpdateStream(rng *rand.Rand, db *database.DB, pred string, steps, batch int) [][]ast.Atom {
	rel := db.Lookup(pred)
	if rel == nil || rel.LiveLen() == 0 {
		return nil
	}
	tuples := rel.Tuples()
	if batch > len(tuples) {
		batch = len(tuples)
	}
	out := make([][]ast.Atom, steps)
	for s := range out {
		idx := rng.Perm(len(tuples))[:batch]
		facts := make([]ast.Atom, 0, batch)
		for _, i := range idx {
			args := make([]ast.Term, len(tuples[i]))
			for c, v := range tuples[i] {
				args[c] = ast.C(v)
			}
			facts = append(facts, ast.Atom{Pred: pred, Args: args})
		}
		out[s] = facts
	}
	return out
}
