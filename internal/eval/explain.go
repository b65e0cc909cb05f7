package eval

import (
	"fmt"
	"strings"

	"datalogeq/internal/ast"
	"datalogeq/internal/database"
)

// Explain is the plan report of an instrumented evaluation: per rule,
// every distinct plan the planner chose for it (one per delta position
// and stats epoch it was planned at), with the join order, access
// paths, estimated rows, and the actual rows each step produced summed
// over every task that ran the plan. It is a separate type rather than
// part of Stats so Stats stays a flat comparable struct for the
// differential tests.
type Explain struct {
	Rules []RuleExplain
	// Plan-cache totals, duplicated from Stats for self-contained
	// rendering.
	PlanCacheHits, PlanCacheMisses, PlanReplans uint64
}

// RuleExplain groups the plans chosen for one source rule.
type RuleExplain struct {
	// Rule is the source text of the rule.
	Rule string
	// Plans lists the distinct plans executed for the rule, in first-use
	// order.
	Plans []PlanExplain
}

// PlanExplain is one rendered plan with its execution totals.
type PlanExplain struct {
	// DeltaPos is the body position the plan's delta window restricts,
	// or -1 for a full-store firing.
	DeltaPos int
	// Epoch is the stats epoch the plan was costed at.
	Epoch uint64
	// Fixed marks a textual-order plan (Options.NoPlanner).
	Fixed bool
	// Tasks counts how many tasks executed the plan.
	Tasks int
	// Est is the cost model's cumulative row estimate per step, in plan
	// order; Actual the rows each step actually produced, summed over
	// every task that ran the plan. Comparing the two is how plan
	// regressions are diagnosed.
	Est    []float64
	Actual []uint64
	// Text is the rendered join tree: one line per step with access
	// path, estimated and actual rows, and projection points.
	Text string
}

// String renders the whole report.
func (ex *Explain) String() string {
	var b strings.Builder
	for _, re := range ex.Rules {
		fmt.Fprintf(&b, "%s\n", re.Rule)
		for _, pe := range re.Plans {
			mode := ""
			if pe.Fixed {
				mode = ", fixed order"
			}
			if pe.DeltaPos < 0 {
				fmt.Fprintf(&b, "  [full round, epoch %d, %d task(s)%s]\n", pe.Epoch, pe.Tasks, mode)
			} else {
				fmt.Fprintf(&b, "  [delta at body atom %d, epoch %d, %d task(s)%s]\n", pe.DeltaPos+1, pe.Epoch, pe.Tasks, mode)
			}
			b.WriteString(pe.Text)
		}
	}
	fmt.Fprintf(&b, "plan cache: %d hits, %d misses, %d replans\n",
		ex.PlanCacheHits, ex.PlanCacheMisses, ex.PlanReplans)
	return b.String()
}

// EvalExplain is Eval with plan instrumentation: it additionally
// returns the Explain report describing every plan the evaluation ran.
// The instrumentation only adds per-step counters inside the workers
// (aggregated at the single-threaded merge), so the returned database,
// Stats, and error are identical to Eval's for the same inputs.
func EvalExplain(prog *ast.Program, edb *database.DB, opts Options) (*database.DB, Stats, *Explain, error) {
	return evalWith(prog, edb, opts, true)
}

// buildExplain assembles the report from the merge-time traces, grouped
// by rule in program order.
func (e *evaluator) buildExplain(stats Stats) *Explain {
	ex := &Explain{
		PlanCacheHits:   stats.PlanCacheHits,
		PlanCacheMisses: stats.PlanCacheMisses,
		PlanReplans:     stats.PlanReplans,
	}
	byRule := make(map[int][]*planTrace)
	for _, tr := range e.traceOrder {
		byRule[tr.rule] = append(byRule[tr.rule], tr)
	}
	for ri := range e.rules {
		trs := byRule[ri]
		if len(trs) == 0 {
			continue
		}
		r := &e.rules[ri]
		name := func(slot int) string {
			if slot >= 0 && slot < len(r.Names) {
				return r.Names[slot]
			}
			return fmt.Sprintf("s%d", slot)
		}
		re := RuleExplain{Rule: r.Src.String()}
		for _, tr := range trs {
			est := make([]float64, len(tr.p.Steps))
			for i := range tr.p.Steps {
				est[i] = tr.p.Steps[i].EstRows
			}
			re.Plans = append(re.Plans, PlanExplain{
				DeltaPos: tr.deltaPos,
				Epoch:    tr.p.Epoch,
				Fixed:    tr.p.Fixed,
				Tasks:    tr.tasks,
				Est:      est,
				Actual:   tr.rows,
				Text:     tr.p.Render(name, tr.rows),
			})
		}
		ex.Rules = append(ex.Rules, re)
	}
	return ex
}
