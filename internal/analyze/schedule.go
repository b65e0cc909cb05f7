package analyze

import (
	"fmt"

	"datalogeq/internal/ast"
	"datalogeq/internal/guard"
	"datalogeq/internal/opt"
)

// passSchedule reports the SCC-stratified evaluation schedule (DL0012,
// info): the dependence-graph components of the program's intensional
// predicates in the topological (callees-first) order the evaluator
// fixpoints them, recursive components starred. Programs whose
// schedule is a single nonrecursive stratum get no report — there the
// schedule is one round.
func passSchedule(c *context) {
	if c.arityConflict || len(c.prog.Rules) == 0 {
		return
	}
	strata := c.prog.Strata()
	recursive := false
	for _, s := range strata {
		if s.Recursive {
			recursive = true
		}
	}
	if len(strata) < 2 && !recursive {
		return
	}
	c.emit("DL0012", Info, c.prog.Rules[0].Pos, fmt.Sprintf(
		"stratified evaluation schedule: %s (* marks recursive components, each fixpointed to completion before its dependents)",
		ast.FormatStrata(strata)))
}

// passRewrites dry-runs the static optimizer (DL0013, info) and
// reports each rewrite it would apply, at the position of the rule it
// touches. Rewrites whose findings already have a dedicated code are
// filtered out — duplicate rules are DL0006, subsumed rules DL0007,
// and goal-unreachable rules DL0004/DL0005 — so the pass surfaces only
// what the earlier passes cannot: duplicate body atoms, constant
// propagation, and recursion elimination (the applied form of DL0009).
func passRewrites(c *context) {
	if c.arityConflict || len(c.prog.Rules) == 0 {
		return
	}
	oo := opt.Options{
		Goal:          c.opts.Goal,
		BoundedDepth:  c.opts.BoundedDepth,
		DisableUnfold: c.opts.DisableBoundedness,
	}
	if c.opts.BoundedMaxStates > 0 {
		oo.Budget = guard.Budget{MaxStates: int64(c.opts.BoundedMaxStates)}
	}
	_, rep, err := opt.Optimize(c.prog, oo)
	if err != nil {
		// The optimizer degraded (budget panic recovered into an error);
		// analysis stays silent rather than half-reported.
		return
	}
	covered := map[string]bool{
		"dedup-rules":     true, // DL0006
		"cleanup-dedup":   true,
		"subsume-rules":   true, // DL0007
		"cleanup-subsume": true,
		"dead-code":       true, // DL0004/DL0005
		"cleanup-dead":    true,
	}
	for _, a := range rep.Rewrites() {
		if covered[a.Pass] {
			continue
		}
		c.emit("DL0013", Info, ast.Pos{Line: a.Line, Col: a.Col}, fmt.Sprintf(
			"optimizer rewrite available (%s): %s", a.Pass, a.Msg))
	}
}
