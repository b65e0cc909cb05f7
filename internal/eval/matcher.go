package eval

import (
	"datalogeq/internal/database"
	"datalogeq/internal/plan"
)

// A matcher is one worker's private rule-firing state: a streaming plan
// executor (internal/plan.Exec) plus the head-instantiation logic that
// turns each complete body match into buffered head rows. The executor
// pipelines candidate rows through the task's operator tree — index
// probes and filtered scans in the planner's join order — and fires
// OnMatch per complete match; emitHead then instantiates the head under
// the slot environment, enumerating the active domain for head
// variables the body leaves unbound.
//
// During a round the matcher only reads the store (Relation.Probe, At)
// and appends derived head rows to its private out buffer; the round
// engine merges buffers after the parallel phase.
type matcher struct {
	e *evaluator
	x plan.Exec

	// rule is the task currently firing; set by runTask before the
	// executor runs, read by the OnMatch callback.
	rule *plan.Rule

	// headRow is a reusable scratch row.
	headRow database.Row

	// out and count buffer the current task's emissions: head rows
	// flattened at the head arity, and the firing count. out is taken
	// from free at task start and handed off in the taskResult; the
	// round engine returns buffers after its merge, so steady-state
	// rounds allocate no result buffers.
	out   []uint32
	count int

	// free holds result buffers returned by the round engine, reusable
	// by this worker's next tasks. Only the owning worker pops (during
	// the parallel phase) and only the single-threaded recycle step
	// pushes (between rounds), so no locking is needed.
	free [][]uint32
}

func (e *evaluator) newMatcher() *matcher {
	m := &matcher{e: e}
	m.x.Env = make([]uint32, e.maxVars)
	m.x.Stop = e.stop
	m.x.OnMatch = m.emitHead
	return m
}

// runTask fires one task and returns its buffered output. The output
// buffer comes from the worker's free list (the round engine recycles
// result buffers after each merge) and is handed off in the result, so
// stable rounds reuse the same few buffers instead of allocating.
func (m *matcher) runTask(t task) taskResult {
	m.rule = &m.e.rules[t.rule]
	if n := len(m.free); n > 0 {
		m.out = m.free[n-1][:0]
		m.free = m.free[:n-1]
	} else {
		m.out = nil
	}
	m.count = 0
	var trace []uint64
	if m.e.explain {
		trace = make([]uint64, len(t.p.Steps))
	}
	m.x.Rows = trace
	m.x.Run(t.p, plan.Window{Lo: t.w.lo, Hi: t.w.hi})
	rows := m.out
	m.out = nil
	return taskResult{rows: rows, count: m.count, trace: trace}
}

// emitHead instantiates the head under the rule's environment and
// buffers the resulting rows; unbound head variables range over the
// active domain. Rows are copied into the out buffer, so the scratch
// row is reused across emissions.
func (m *matcher) emitHead() {
	r := m.rule
	row := r.AppendHead(m.headRow[:0], m.x.Env)
	m.headRow = row
	if len(r.UnboundGroups) == 0 {
		m.emit(row)
		return
	}
	var assign func(g int)
	assign = func(g int) {
		if m.x.Stopped() {
			return
		}
		if g == len(r.UnboundGroups) {
			m.emit(row)
			return
		}
		for _, id := range m.e.domain {
			for _, p := range r.UnboundGroups[g] {
				row[p] = id
			}
			assign(g + 1)
		}
	}
	assign(0)
}

// emit buffers one head row (a firing).
func (m *matcher) emit(row database.Row) {
	if m.x.Poll() {
		return
	}
	m.out = append(m.out, row...)
	m.count++
}
