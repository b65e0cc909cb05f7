package core

import (
	"fmt"

	"datalogeq/internal/ast"
	"datalogeq/internal/expansion"
	"datalogeq/internal/ucq"
)

// BoundedRewriting searches for a nonrecursive equivalent of the
// program as a union of its own expansions: the program is equivalent
// to the union of its expansions of height at most k iff it is
// *contained* in that union (the converse containment always holds).
//
// The boundedness problem — does *some* equivalent nonrecursive program
// exist — is undecidable [GMSV93], which the paper contrasts with its
// own decidable problem; this bounded search is the natural decidable
// approximation the decision procedure of Theorem 5.12 enables: it
// returns the first height k ≤ maxDepth whose expansion union is
// equivalent to the program, or reports that none exists up to
// maxDepth.
func BoundedRewriting(prog *ast.Program, goal string, maxDepth int, opts Options) (ucq.UCQ, int, bool, error) {
	if maxDepth < 1 {
		return ucq.UCQ{}, 0, false, fmt.Errorf("core: maxDepth must be at least 1")
	}
	opts.Budget = opts.Budget.Started()
	for k := 1; k <= maxDepth; k++ {
		queries := expansion.Expansions(prog, goal, k, 0)
		u := ucq.Dedup(ucq.New(queries...))
		res, err := ContainsUCQ(prog, goal, u, opts)
		if err != nil {
			return ucq.UCQ{}, 0, false, err
		}
		if res.Verdict == Unknown {
			// The search has no third value to offer — a trip at depth k
			// says nothing about larger depths — so the budget trip
			// surfaces as the error it is.
			return ucq.UCQ{}, 0, false, res.Limit
		}
		if res.Contained {
			return u, k, true, nil
		}
	}
	return ucq.UCQ{}, 0, false, nil
}
