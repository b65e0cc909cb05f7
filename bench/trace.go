package main

// The traced run: spans recorded in memory from the benchmark's own
// calls into each layer, the per-layer metrics taken from them, and the
// Chrome trace-event file they are written to.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"datalogeq/internal/ast"
	"datalogeq/internal/database"
	"datalogeq/internal/eval"
	"datalogeq/internal/parser"
)

// span is one timed call. Op is the ID of the root span of the request
// it belongs to; Parent is 0 for a root.
type span struct {
	Name       string
	PID, TID   int
	ID, Parent int64
	Op         int64
	Start, Dur time.Duration // Start is relative to the trace epoch
}

// recorder collects one goroutine's spans, so recording takes no lock.
type recorder struct {
	epoch    time.Time
	pid, tid int
	n        int64
	spans    []span
}

func (r *recorder) newID() int64 {
	r.n++
	return int64(r.pid)<<40 | int64(r.tid)<<32 | r.n
}

// add records a span; a child's op is its parent, because requests are
// traced two levels deep.
func (r *recorder) add(name string, id, parent int64, t0, t1 time.Time) {
	op := parent
	if op == 0 {
		op = id
	}
	r.spans = append(r.spans, span{Name: name, PID: r.pid, TID: r.tid, ID: id, Parent: parent, Op: op,
		Start: t0.Sub(r.epoch), Dur: t1.Sub(t0)})
}

// timed runs f as a child span of parent and returns how long it took.
func (r *recorder) timed(name string, parent int64, f func()) time.Duration {
	t0 := time.Now()
	f()
	t1 := time.Now()
	r.add(name, r.newID(), parent, t0, t1)
	return t1.Sub(t0)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover.
func selfTimes(spans []span) map[int64]time.Duration {
	type iv struct{ lo, hi time.Duration }
	kids := make(map[int64][]iv)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], iv{s.Start, s.Start + s.Dur})
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		lo, hi := s.Start, s.Start+s.Dur
		ivs := kids[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
		covered, reach := time.Duration(0), lo
		for _, c := range ivs {
			a, b := max(c.lo, reach), min(c.hi, hi)
			if b > a {
				covered += b - a
				reach = b
			}
		}
		out[s.ID] = s.Dur - covered
	}
	return out
}

// writeChromeTrace writes spans as Chrome trace-event JSON, which
// Perfetto (ui.perfetto.dev) and chrome://tracing open directly.
func writeChromeTrace(path string, spans []span, procs map[int]string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	var events []event
	pids := make([]int, 0, len(procs))
	for pid := range procs {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	for _, pid := range pids {
		events = append(events, event{Name: "process_name", Ph: "M", PID: pid, Args: map[string]any{"name": procs[pid]}})
	}
	self := selfTimes(spans)
	for _, s := range spans {
		events = append(events, event{
			Name: s.Name, Ph: "X", PID: s.PID, TID: s.TID,
			TS: us(s.Start), Dur: us(s.Dur),
			Args: map[string]any{"op": s.Op, "id": s.ID, "parent": s.Parent, "self_us": us(self[s.ID])},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// Trace pass numbers, which with the workload's index make the trace's
// process IDs.
const (
	passWire   = 1
	passServer = 2
	passLayers = 3
)

var passNames = map[int]string{passWire: "wire", passServer: "server", passLayers: "layers"}

// runTraced is the traced run. After set-up and warm-up it splits the
// window into four equal passes over the same op streams:
//  1. the wire loop untraced, the reference for trace_overhead_pct;
//  2. the wire loop with a root span per request;
//  3. the same streams through in-process Server.Query and Server.Apply,
//     still one request at a time;
//  4. one goroutine replaying fresh streams against eval.Handle,
//     database.Durable and eval.Eval objects the benchmark owns, with one
//     child span per layer call.
func runTraced(cfg config, w *workload, epoch time.Time, pidBase int) (*result, error) {
	dir, err := runDir(cfg, w)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	srv, _, err := setup(w, filepath.Join(dir, "data"))
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	s, err := listen(srv)
	if err != nil {
		shutdown(srv)
		return nil, err
	}
	s.dataDir = filepath.Join(dir, "data")
	loops, closeClients, err := clients(s, w)
	if err != nil {
		s.stop()
		return nil, err
	}
	passLen := cfg.window / 4
	timedPass := func() error {
		for _, l := range loops {
			l.samples, l.last = l.samples[:0], time.Time{}
		}
		now := time.Now()
		return runPass(loops, pass{from: now, end: now.Add(passLen)})
	}
	now := time.Now()
	err = runPass(loops, pass{from: now.Add(cfg.warmup), end: now.Add(cfg.warmup)})
	var untraced, wire [2][]float64
	if err == nil {
		err = timedPass()
		untraced = [2][]float64{durations(loops[0], nil), durations(loops[1], nil)}
	}
	if err == nil {
		for c, l := range loops {
			l.rec = &recorder{epoch: epoch, pid: pidBase + passWire, tid: c}
		}
		err = timedPass()
		wire = [2][]float64{durations(loops[0], nil), durations(loops[1], nil)}
	}
	closeClients()
	var serverAll [2][]float64
	var serverReads []float64
	var spans []span
	if err == nil {
		for c, l := range loops {
			spans = append(spans, l.rec.spans...)
			l.c = serverConn{srv: srv, client: clientID(c)}
			l.rec = &recorder{epoch: epoch, pid: pidBase + passServer, tid: c}
		}
		err = timedPass()
		for c, l := range loops {
			serverAll[c] = durations(l, nil)
			serverReads = append(serverReads, durations(l, func(s sample) bool { return s.read })...)
			spans = append(spans, l.rec.spans...)
		}
	}
	if err = firstErr(err, s.stop()); err != nil {
		return nil, err
	}
	r := &result{workload: w.name, seed: cfg.seed, trace: true, metrics: make(map[string]value)}
	for _, l := range loops {
		r.tally.add(l.chk.tally)
	}
	if w.durable {
		r.notes = append(r.notes, recoveryCheck(w, s.dataDir, loops)...)
	}

	lp, err := newLayers(w, filepath.Join(dir, "layers"), &recorder{epoch: epoch, pid: pidBase + passLayers})
	if err != nil {
		return nil, err
	}
	err = lp.run(passLen)
	lp.close()
	if err != nil {
		return nil, err
	}
	r.tally.add(lp.chk)
	spans = append(spans, lp.rec.spans...)
	r.spans = spans

	both := func(x [2][]float64) []float64 { return append(append([]float64(nil), x[0]...), x[1]...) }
	queryMS := median(serverReads)
	r.set("server.query_ms", queryMS, len(serverReads))
	r.set("server.op_ms", median(both(serverAll)), len(both(serverAll)))
	r.set("server.wait_ms", queryMS-median(lp.readMS), len(serverReads))
	r.set("server.proto_line_ms", median(wire[0])-median(serverAll[0]), len(wire[0]))
	r.set("server.proto_http_ms", median(wire[1])-median(serverAll[1]), len(wire[1]))
	r.set("trace_overhead_pct", 100*(median(both(wire))/median(both(untraced))-1), len(both(wire)))
	lp.metrics(r)
	return r, nil
}

// durations returns l's measured latencies in ms, those keep admits
// (all when keep is nil).
func durations(l *loop, keep func(sample) bool) []float64 {
	var out []float64
	for _, s := range l.samples {
		if keep == nil || keep(s) {
			out = append(out, ms(s.dur))
		}
	}
	return out
}

// countN is how many evaluations and writes the layers pass takes its
// count metrics from. A fixed prefix of a seeded stream makes every
// count repeat exactly between runs of the same seed.
const countN = 16

// layers is the layers pass: the served program maintained in memory
// and on a durable store, plus a separate WAL store, all owned by the
// benchmark and driven from one goroutine.
type layers struct {
	w     *workload
	opts  eval.Options
	rec   *recorder
	mem   *eval.Handle
	dur   *eval.Handle
	store *database.Durable
	st    *forestState
	chk   tally
	seq   uint64

	readMS                                         []float64 // the workload's own reads: parse + eval + render
	parseUS, cloneMS, domainMS, evalMS             []float64
	insertUS, retractUS, memUS, durUS, walUS, snap []float64
	evals                                          []eval.Stats
	planRows, answers                              float64
	updates                                        []eval.UpdateStats
	walBytes, factBytes                            float64
	snapBytes, snapRows                            float64
}

func newLayers(w *workload, dir string, rec *recorder) (*layers, error) {
	l := &layers{w: w, rec: rec}
	var err error
	if l.mem, _, err = eval.Maintain(servedProg, database.New(), l.opts); err == nil {
		_, err = l.mem.Insert(w.base)
	}
	if err != nil {
		return nil, fmt.Errorf("layers: maintain: %w", err)
	}
	d, err := database.Open(filepath.Join(dir, "durable"), database.OpenOptions{SnapshotBytes: snapshotBytes})
	if err != nil {
		return nil, err
	}
	if l.dur, _, err = eval.MaintainDurable(servedProg, d, l.opts); err != nil {
		d.Close()
		return nil, err
	}
	if _, err = l.dur.Insert(w.base); err != nil {
		l.dur.Close()
		return nil, err
	}
	if l.store, err = database.Open(filepath.Join(dir, "wal"), database.OpenOptions{SnapshotBytes: snapshotBytes}); err != nil {
		l.dur.Close()
		return nil, err
	}
	// Three snapshots of the base state before any write: they give
	// snapshot.write_ms samples on workloads whose writes never fill the
	// WAL, and a deterministic snapshot size.
	for i := 0; i < 3; i++ {
		before := l.store.Usage().Bytes
		if err := l.snapshot(0); err != nil {
			l.close()
			return nil, err
		}
		l.snapBytes = float64(l.store.Usage().Bytes - before)
	}
	l.snapRows = float64(l.mem.DB().FactCount())
	return l, nil
}

func (l *layers) close() {
	l.dur.Close()
	l.store.Close()
}

func (l *layers) snapshot(parent int64) error {
	var err error
	d := l.rec.timed("snapshot.write", parent, func() { err = l.store.Snapshot([]*database.DB{l.mem.Base(), l.mem.DB()}) })
	l.snap = append(l.snap, ms(d))
	return err
}

// run replays both clients' streams alternately, with a probe after
// every fourth op, for d and until countN evaluations and writes have
// run. Off the clock, both maintained handles must then equal a fresh
// evaluation of their base.
func (l *layers) run(d time.Duration) error {
	ss := l.w.newStreams()
	l.st = ss[0].st
	pr := l.w.newProber(l.st)
	end := time.Now().Add(d)
	for i := 0; time.Now().Before(end) || len(l.evals) < countN || len(l.updates) < countN; i++ {
		o := ss[i%2].next()
		if err := l.do(&o, false); err != nil {
			return err
		}
		if i%4 == 3 {
			o := pr.next()
			if err := l.do(&o, true); err != nil {
				return err
			}
		}
	}
	for _, h := range []*eval.Handle{l.mem, l.dur} {
		scratch, _, err := eval.Eval(servedProg, h.Base(), l.opts)
		if err != nil {
			return fmt.Errorf("layers: %w", err)
		}
		l.chk.attempted++
		if !h.DB().Equal(scratch) {
			l.chk.wrongAnswer("layers: a maintained database differs from a fresh evaluation of its base")
		}
	}
	return nil
}

func (l *layers) do(o *op, probe bool) error {
	root, t0 := l.rec.newID(), time.Now()
	var err error
	switch o.kind {
	case opEval:
		err = l.query(o, root, probe)
	case opHub:
		var got []string
		d := l.rec.timed("render", root, func() { got = render(l.mem.DB(), o.goal) })
		l.readMS = append(l.readMS, ms(d))
		l.chk.attempted++
		if want := l.w.reach(l.st, "hub", 0, 0); !equalStrings(got, want) {
			l.chk.wrongAnswer("layers hub: got %q, want %q", got, want)
		}
	default:
		err = l.write(o, root)
	}
	l.rec.add(opName(o.kind), root, 0, t0, time.Now())
	return err
}

func (l *layers) query(o *op, root int64, probe bool) error {
	var prog *ast.Program
	var err error
	dp := l.rec.timed("parser.program", root, func() { prog, err = parser.Program(o.program) })
	if err != nil {
		return fmt.Errorf("layers: %w", err)
	}
	db := l.mem.DB()
	dc := l.rec.timed("database.clone", root, func() { _ = db.Clone() })
	dd := l.rec.timed("database.active_domain", root, func() { _ = db.ActiveDomain() })
	var out *database.DB
	var st eval.Stats
	de := l.rec.timed("eval.eval", root, func() { out, st, err = eval.Eval(prog, db, l.opts) })
	if err != nil {
		return fmt.Errorf("layers: eval: %w", err)
	}
	var got []string
	dr := l.rec.timed("render", root, func() { got = render(out, o.goal) })
	l.parseUS = append(l.parseUS, us(dp))
	l.cloneMS = append(l.cloneMS, ms(dc))
	l.domainMS = append(l.domainMS, ms(dd))
	l.evalMS = append(l.evalMS, ms(de))
	if !probe {
		l.readMS = append(l.readMS, ms(dp+de+dr))
	}
	l.chk.attempted++
	if !equalStrings(got, o.want) {
		l.chk.wrongAnswer("layers %s: got %q, want %q", o.program, got, o.want)
	}
	if len(l.evals) < countN {
		var ex *eval.Explain
		l.rec.timed("plan.explain", root, func() { _, _, ex, err = eval.EvalExplain(prog, db, l.opts) })
		if err != nil {
			return fmt.Errorf("layers: explain: %w", err)
		}
		for _, re := range ex.Rules {
			for _, pe := range re.Plans {
				for _, n := range pe.Actual {
					l.planRows += float64(n)
				}
			}
		}
		l.answers += float64(len(got))
		l.evals = append(l.evals, st)
	}
	return nil
}

func (l *layers) write(o *op, root int64) error {
	var facts []ast.Atom
	var err error
	dp := l.rec.timed("parser.facts", root, func() { facts, err = parser.FactList(o.facts) })
	if err != nil {
		return fmt.Errorf("layers: %w", err)
	}
	opcode, name := database.OpInsert, "ivm.insert"
	apply, applyDurable := l.mem.Insert, l.dur.Insert
	if o.kind == opRetract {
		opcode, name = database.OpRetract, "ivm.retract"
		apply, applyDurable = l.mem.Retract, l.dur.Retract
	}
	var us0 eval.UpdateStats
	dm := l.rec.timed(name, root, func() { us0, err = apply(facts) })
	if err != nil {
		return fmt.Errorf("layers: %s %s: %w", name, o.facts, err)
	}
	dd := l.rec.timed(name+"_durable", root, func() { _, err = applyDurable(facts) })
	if err != nil {
		return fmt.Errorf("layers: durable %s %s: %w", name, o.facts, err)
	}
	l.seq++
	walBefore := l.store.WALSize()
	dw := l.rec.timed("wal.commit", root, func() { err = l.store.CommitTagged(opcode, facts, "layers", l.seq) })
	if err != nil {
		return fmt.Errorf("layers: wal commit: %w", err)
	}
	walDelta := l.store.WALSize() - walBefore
	if l.store.ShouldSnapshot() {
		if err := l.snapshot(root); err != nil {
			return fmt.Errorf("layers: snapshot: %w", err)
		}
	}
	l.parseUS = append(l.parseUS, us(dp))
	if o.kind == opInsert {
		l.insertUS = append(l.insertUS, us(dm))
	} else {
		l.retractUS = append(l.retractUS, us(dm))
	}
	l.memUS = append(l.memUS, us(dm))
	l.durUS = append(l.durUS, us(dd))
	l.walUS = append(l.walUS, us(dw))
	l.chk.attempted++
	l.chk.applied++
	if len(l.updates) < countN {
		l.updates = append(l.updates, us0)
		l.walBytes += float64(walDelta)
		l.factBytes += float64(len(o.facts))
	}
	return nil
}

// metrics sets the layers pass's metrics on r.
func (l *layers) metrics(r *result) {
	n := float64(len(l.evals))
	var rounds, firings, derived, builds, hits, lookups float64
	for _, s := range l.evals {
		rounds += float64(s.Iterations)
		firings += float64(s.Firings)
		derived += float64(s.Derived)
		builds += float64(s.IndexBuilds)
		hits += float64(s.PlanCacheHits)
		lookups += float64(s.PlanCacheHits + s.PlanCacheMisses)
	}
	evalMS, cloneMS, domainMS := median(l.evalMS), median(l.cloneMS), median(l.domainMS)
	r.set("parser.us_per_op", median(l.parseUS), len(l.parseUS))
	r.set("database.clone_ms", cloneMS, len(l.cloneMS))
	r.set("database.active_domain_ms", domainMS, len(l.domainMS))
	r.set("database.live_rows", l.snapRows, 0)
	r.set("eval.ms", evalMS, len(l.evalMS))
	r.set("eval.self_ms", evalMS-cloneMS-domainMS, len(l.evalMS))
	r.set("eval.rounds", rounds/n, len(l.evals))
	r.set("eval.firings", firings/n, len(l.evals))
	r.set("eval.derived", derived/n, len(l.evals))
	r.set("eval.index_builds", builds/n, len(l.evals))
	r.set("eval.useful_ratio", derived/firings, len(l.evals))
	r.set("plan.cache_hit_rate", hits/lookups, len(l.evals))
	r.set("plan.rows_per_result", l.planRows/l.answers, len(l.evals))

	m := float64(len(l.updates))
	var counts, ivmFirings, strata, ivmRounds float64
	for _, u := range l.updates {
		counts += float64(u.CountUpdates)
		ivmFirings += float64(u.Firings)
		strata += float64(u.StrataRun)
		ivmRounds += float64(u.Rounds)
	}
	r.set("ivm.insert_us", median(l.insertUS), len(l.insertUS))
	r.set("ivm.retract_us", median(l.retractUS), len(l.retractUS))
	r.set("ivm.count_updates", counts/m, len(l.updates))
	r.set("ivm.firings", ivmFirings/m, len(l.updates))
	r.set("ivm.strata_run", strata/m, len(l.updates))
	r.set("ivm.rounds", ivmRounds/m, len(l.updates))
	r.set("ivm.durable_tax_us", median(l.durUS)-median(l.memUS), len(l.durUS))

	// Steady state: a snapshot every snapshotBytes of WAL, each the size
	// of the base-state snapshot.
	bpw := l.walBytes / m
	r.set("wal.commit_us", median(l.walUS), len(l.walUS))
	r.set("wal.bytes_per_write", bpw, len(l.updates))
	r.set("wal.write_amp", bpw*(1+l.snapBytes/snapshotBytes)/(l.factBytes/m), len(l.updates))
	r.set("snapshot.write_ms", median(l.snap), len(l.snap))
	r.set("snapshot.bytes_per_row", l.snapBytes/l.snapRows, 0)
	r.set("snapshot.per_1k_writes", 1000*bpw/snapshotBytes, len(l.updates))
}

// render returns the goal relation as the server renders it: sorted
// fact lines.
func render(db *database.DB, goal string) []string {
	rel := db.Lookup(goal)
	if rel == nil {
		return nil
	}
	out := make([]string, 0, rel.Len())
	var row database.Row
	for i := 0; i < rel.Len(); i++ {
		row = rel.AppendRowAt(row[:0], i)
		args := make([]ast.Term, len(row))
		for j, id := range row {
			args[j] = ast.C(database.Symbol(id))
		}
		out = append(out, ast.Atom{Pred: goal, Args: args}.String()+".")
	}
	sort.Strings(out)
	return out
}
