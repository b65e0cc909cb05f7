package main

// The closed-loop load generator and the end-to-end run.

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"datalogeq/internal/database"
	"datalogeq/internal/eval"
)

// config fixes how long and how often a run measures.
type config struct {
	seed   int64
	window time.Duration // measured window (the traced run splits it into four passes)
	warmup time.Duration
	// An end-to-end run sets up at least setups times and for at least
	// setupTime; setup_s is the median.
	setups    int
	setupTime time.Duration
	size      size
	scratch   string // parent directory of the run's durable stores
}

// tally counts checked ops. failed counts every op that did not succeed
// (shed, unknown, error or wrong answer); wrong counts wrong answers.
type tally struct {
	attempted, failed, wrong int
	applied                  int // mutations acknowledged as applied
	firstWrong               string
}

func (t *tally) add(u tally) {
	t.attempted += u.attempted
	t.failed += u.failed
	t.wrong += u.wrong
	t.applied += u.applied
	if t.firstWrong == "" {
		t.firstWrong = u.firstWrong
	}
}

// wrongAnswer counts a wrong answer, which is also a failed op.
func (t *tally) wrongAnswer(format string, args ...any) {
	t.failed++
	t.wrong++
	if t.firstWrong == "" {
		t.firstWrong = fmt.Sprintf(format, args...)
	}
}

// checker verifies one client's replies.
type checker struct {
	tally
	hub     *hubLog
	durable bool
	lastSeq uint64
}

// check judges reply r to o; hubLo is the hub version when o was sent.
func (c *checker) check(o *op, r reply, hubLo int) {
	c.attempted++
	if r.status != "complete" && r.status != "applied" {
		c.failed++
		return
	}
	switch o.kind {
	case opEval:
		if !equalStrings(r.tuples, o.want) {
			c.wrongAnswer("%s: got %q, want %q", o.program, r.tuples, o.want)
		}
	case opHub:
		if !c.hub.match(hubLo, r.tuples) {
			c.wrongAnswer("hub: got %q, matching no state of chain 0 since version %d", r.tuples, hubLo)
		}
	default:
		c.applied++
		if r.seq < c.lastSeq || (c.durable && r.seq == c.lastSeq) {
			c.wrongAnswer("%s %s: seq %d after %d", opName(o.kind), o.facts, r.seq, c.lastSeq)
		}
		c.lastSeq = r.seq
	}
}

func opName(k opKind) string {
	return [...]string{"eval", "query", "insert", "retract"}[k]
}

// sample is one measured op.
type sample struct {
	dur  time.Duration
	read bool
}

// loop is one client: a connection, its op stream and its checker.
type loop struct {
	c       conn
	s       *stream
	chk     *checker
	rec     *recorder // nil: untraced
	samples []sample
	last    time.Time // when the last measured op completed
}

// pass runs both clients' loops. Ops sent before from are not
// measured. The loops stop sending at end, or once enough() holds when
// the window left too few samples, but never after hardEnd.
type pass struct {
	from, end, hardEnd time.Time
	enough             func(total, reads int) bool
}

// runPass is a closed loop with one request in flight: it alternates
// between the two clients, and each sends its stream's next op as soon
// as the previous reply arrives, with no think time. The server's work
// for one request thus has the host's CPUs to itself; two requests in
// flight on a 2-CPU host made the latencies measure the scheduler.
func runPass(loops [2]*loop, p pass) error {
	var total, reads int
	for i := 0; ; i++ {
		now := time.Now()
		if !now.Before(p.end) && (p.enough == nil || p.enough(total, reads) || !now.Before(p.hardEnd)) {
			return nil
		}
		read, measured, err := loops[i%2].step(p.from)
		if err != nil {
			return err
		}
		if measured {
			total++
			if read {
				reads++
			}
		}
	}
}

// step sends l's next op and checks the reply. It reports whether the
// op was a read and whether it was measured: sent at or after from.
func (l *loop) step(from time.Time) (read, measured bool, err error) {
	o := l.s.next()
	lo := 0
	if l.chk.hub != nil {
		lo = l.chk.hub.lo()
		if o.chain0 {
			l.chk.hub.begin(o.hubNext)
		}
	}
	t0 := time.Now()
	r, err := l.c.do(&o)
	t1 := time.Now()
	if err != nil {
		return false, false, fmt.Errorf("client %d, %s: %w", l.s.client, opName(o.kind), err)
	}
	if o.chain0 && r.status == "applied" {
		l.chk.hub.ack()
	}
	l.chk.check(&o, r, lo)
	if t0.Before(from) {
		return o.read(), false, nil
	}
	l.samples = append(l.samples, sample{t1.Sub(t0), o.read()})
	l.last = t1
	if l.rec != nil {
		l.rec.add(requestSpanName(l.c, &o), l.rec.newID(), 0, t0, t1)
	}
	return o.read(), true, nil
}

func requestSpanName(c conn, o *op) string {
	proto := "server"
	switch c.(type) {
	case *lineConn:
		proto = "line"
	case *httpConn:
		proto = "http"
	}
	return proto + "." + opName(o.kind)
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// result is one workload's outcome.
type result struct {
	workload string
	seed     int64
	trace    bool
	tally
	metrics map[string]value
	spans   []span
	notes   []string // failed post-run checks
}

func (r *result) correct() bool { return r.wrong == 0 && len(r.notes) == 0 }

func (r *result) set(name string, v float64, samples int) {
	r.metrics[name] = value{Value: v, Unit: unitOf(name), Samples: samples}
}

// unitOf returns a metric's unit, including the two ledger-only metrics.
func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.Name == name {
				return d.Unit
			}
		}
	}
	if name == "write_p99_ms" {
		return "ms"
	}
	return "fraction" // error_rate
}

// runDir creates the directory a run keeps its durable stores in.
func runDir(cfg config, w *workload) (string, error) {
	if err := os.MkdirAll(cfg.scratch, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(cfg.scratch, "run-"+w.name+"-")
}

// setupRepeated sets the server up at least cfg.setups times and for at
// least cfg.setupTime, keeps the last one running, and returns the
// set-up times; setup_s is their median. Each set-up starts from a
// collected heap, so none pays for its predecessor's garbage.
func setupRepeated(cfg config, w *workload, dir string) (s *served, times []float64, err error) {
	start := time.Now()
	for i := 0; s == nil; i++ {
		data := filepath.Join(dir, "data"+strconv.Itoa(i))
		runtime.GC()
		srv, d, err := setup(w, data)
		if err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		times = append(times, d.Seconds())
		if i+1 < cfg.setups || time.Since(start) < cfg.setupTime {
			if err := shutdown(srv); err != nil {
				return nil, nil, err
			}
			if err := os.RemoveAll(data); err != nil {
				return nil, nil, err
			}
			continue
		}
		if s, err = listen(srv); err != nil {
			shutdown(srv)
			return nil, nil, err
		}
		s.dataDir = data
	}
	return s, times, nil
}

// clientID is client c's idempotency ID.
func clientID(c int) string { return "bench" + strconv.Itoa(c) }

// clients connects client 0 over the line protocol and client 1 over
// HTTP, with a checker each and fresh streams.
func clients(s *served, w *workload) ([2]*loop, func(), error) {
	lc, err := dialLine(s.lineAddr, clientID(0))
	if err != nil {
		return [2]*loop{}, nil, err
	}
	hc := newHTTPConn(s.httpURL, clientID(1))
	ss := w.newStreams()
	var loops [2]*loop
	for c, cn := range []conn{lc, hc} {
		loops[c] = &loop{c: cn, s: ss[c], chk: &checker{hub: ss[c].hub, durable: w.durable}}
	}
	return loops, func() { lc.close(); hc.close() }, nil
}

// runE2E is the untraced run: set-up, warm-up, then the measured window.
func runE2E(cfg config, w *workload) (*result, error) {
	dir, err := runDir(cfg, w)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	s, setupTimes, err := setupRepeated(cfg, w, dir)
	if err != nil {
		return nil, err
	}
	loops, closeClients, err := clients(s, w)
	if err != nil {
		s.stop()
		return nil, err
	}
	start := time.Now()
	p := pass{from: start.Add(cfg.warmup)}
	p.end = p.from.Add(cfg.window)
	p.hardEnd = p.end.Add(time.Minute)
	need := samplesFor(0.99)
	p.enough = func(total, reads int) bool { return total >= need && reads >= need }

	var before, after runtime.MemStats
	done := make(chan error, 1)
	go func() { done <- runPass(loops, p) }() //repolint:allow goroutine — runs the pass while this goroutine reads MemStats at the window start; joined through done.
	time.Sleep(time.Until(p.from))
	runtime.ReadMemStats(&before)
	err = <-done
	runtime.ReadMemStats(&after)
	var heap runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&heap)
	closeClients()
	if err = firstErr(err, s.stop()); err != nil {
		return nil, err
	}

	r := &result{workload: w.name, seed: cfg.seed, metrics: make(map[string]value)}
	var all, readMS, writeMS []float64
	var last time.Time
	for _, l := range loops {
		r.tally.add(l.chk.tally)
		for _, smp := range l.samples {
			all = append(all, ms(smp.dur))
			if smp.read {
				readMS = append(readMS, ms(smp.dur))
			} else {
				writeMS = append(writeMS, ms(smp.dur))
			}
		}
		if l.last.After(last) {
			last = l.last
		}
	}
	n := len(all)
	if n == 0 {
		return nil, fmt.Errorf("%s: no op completed in the window", w.name)
	}
	r.set("ops_per_s", float64(n)/last.Sub(p.from).Seconds(), n)
	for _, pc := range []struct {
		name string
		xs   []float64
		p    float64
	}{{"p50_ms", all, 0.5}, {"p99_ms", all, 0.99}, {"read_p99_ms", readMS, 0.99}, {"write_p99_ms", writeMS, 0.99}} {
		v, _, ok := percentile(sortedCopy(pc.xs), pc.p)
		if ok {
			r.set(pc.name, v, len(pc.xs))
		} else if pc.name != "write_p99_ms" || len(pc.xs) > 0 {
			return nil, fmt.Errorf("%s: %d samples are too few for %s", w.name, len(pc.xs), pc.name)
		}
	}
	r.set("allocs_per_op", float64(after.Mallocs-before.Mallocs)/float64(n), n)
	r.set("bytes_per_op", float64(after.TotalAlloc-before.TotalAlloc)/float64(n), n)
	r.set("live_heap_mb", float64(heap.HeapAlloc)/(1<<20), 0)
	r.set("setup_s", median(setupTimes), len(setupTimes))
	r.set("error_rate", float64(r.failed)/float64(r.attempted), r.attempted)
	if w.durable {
		r.notes = append(r.notes, recoveryCheck(w, s.dataDir, loops)...)
	}
	return r, nil
}

// recoveryCheck reopens serve-durable's store after the drain, off the
// clock, and checks that it holds exactly the acknowledged history: Seq
// is every applied batch plus the base batch, the client table holds
// each client's last acknowledged sequence, the base relation is the one
// the clients' model implies, and the live database equals a fresh
// evaluation of the program over that base.
func recoveryCheck(w *workload, dataDir string, loops [2]*loop) []string {
	d, err := database.Open(dataDir, database.OpenOptions{SnapshotBytes: snapshotBytes})
	if err != nil {
		return []string{"recovery: " + err.Error()}
	}
	h, _, err := eval.MaintainDurable(servedProg, d, eval.Options{})
	if err != nil {
		d.Close()
		return []string{"recovery: " + err.Error()}
	}
	defer h.Close()
	var notes []string
	wantSeq := uint64(1)
	wantClients := map[string]uint64{}
	for c, l := range loops {
		wantSeq += uint64(l.chk.applied)
		if l.s.seq > 0 {
			wantClients[clientID(c)] = l.s.seq
		}
	}
	if h.Seq() != wantSeq {
		notes = append(notes, fmt.Sprintf("recovery: Seq %d, want %d acknowledged batches", h.Seq(), wantSeq))
	}
	if got := h.Clients(); !equalClients(got, wantClients) {
		notes = append(notes, fmt.Sprintf("recovery: client table %v, want %v", got, wantClients))
	}
	if !h.Base().Equal(w.baseFacts(loops[0].s.st)) {
		notes = append(notes, "recovery: base relation differs from the acknowledged mutations")
	}
	scratch, _, err := eval.Eval(servedProg, h.Base(), eval.Options{})
	if err != nil || !h.DB().Equal(scratch) {
		notes = append(notes, fmt.Sprintf("recovery: live database differs from a fresh evaluation of its base (err %v)", err))
	}
	return notes
}

func equalClients(a, b map[string]uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}
