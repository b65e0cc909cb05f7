// Package server is the fault-tolerant network front end of the
// engine: a long-lived service holding one maintained materialization
// (in-memory or durable) and serving many concurrent sessions over
// HTTP/JSON and a newline-delimited line protocol.
//
// Robustness is the design center, because the underlying decision
// procedures are 2EXPTIME-complete and the real world supplies slow
// clients, overload, panics, and kill -9:
//
//   - Admission control: a bounded FIFO queue with deterministic load
//     shedding (admission.go). Overload produces a shed response with a
//     Retry-After hint, never an unbounded goroutine pile-up.
//   - Deadline propagation: each request's deadline (client-supplied,
//     clamped to a server maximum) flows as a context into eval's round
//     engine for queries and into the maintenance cascade for
//     mutations, so a severed or impatient client stops consuming CPU
//     at the next admission point.
//   - Graceful degradation: per-tenant guard.Budgets bound each
//     request; a trip returns an UNKNOWN verdict with partial results
//     and a Retry-After hint — a structured outcome, never a 500.
//   - Panic isolation: every request body runs under guard.Recover, so
//     an internal invariant violation poisons one response, not the
//     process.
//   - Self-healing: a mutation aborted mid-cascade (trip, deadline,
//     I/O error) poisons the shared handle; the server rebuilds it —
//     from the durable store, whose state is exactly the acknowledged
//     batches, or from the in-memory base — and keeps serving.
//   - Idempotency: mutations tagged (client ID, client sequence) ride
//     the durable store's client table, so a retry after a severed
//     connection or a server crash is acknowledged again without being
//     re-applied.
//   - Graceful drain: Shutdown stops accepting, lets in-flight requests
//     finish, checkpoints the store, and returns — the SIGTERM path of
//     `datalog serve` exits 0.
package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"datalogeq/internal/ast"
	"datalogeq/internal/database"
	"datalogeq/internal/eval"
	"datalogeq/internal/guard"
	"datalogeq/internal/magic"
	"datalogeq/internal/parser"
)

// Typed admission outcomes. Both protocol layers map them to their
// shed/draining responses; they are never surfaced as internal errors.
var (
	errShed     = errors.New("server: overloaded, request shed")
	errDraining = errors.New("server: draining, not accepting requests")
)

// TenantConfig bounds one tenant's requests.
type TenantConfig struct {
	// Budget is the per-request resource budget (facts, steps, wall,
	// maintained rows, ...). The zero budget is unlimited.
	Budget guard.Budget
	// MaxInflight caps the tenant's concurrently executing requests;
	// 0 = no per-tenant cap (the global admission queue still applies).
	// At the cap the request is shed immediately — per-tenant fairness
	// is strict, not queued, so one tenant cannot occupy the global
	// queue.
	MaxInflight int
}

// Config describes a server. Zero values take the documented defaults.
type Config struct {
	// Program is the maintained Datalog program. Required.
	Program *ast.Program
	// DataDir, when set, backs the materialization with a durable store
	// in that directory: every acknowledged mutation survives kill -9.
	// Empty serves from memory.
	DataDir string
	// SnapshotBytes and MaxBytes configure the durable store (see
	// database.OpenOptions).
	SnapshotBytes int64
	MaxBytes      int64
	// Workers is eval's per-round worker count (0 = all cores).
	Workers int
	// MaxInflight is the global concurrent-request limit (default 4).
	MaxInflight int
	// QueueDepth is the admission queue length beyond MaxInflight
	// (default 16). Requests arriving past it are shed.
	QueueDepth int
	// DefaultDeadline applies when a request carries none (default 10s).
	DefaultDeadline time.Duration
	// MaxDeadline clamps client-supplied deadlines (default 60s).
	MaxDeadline time.Duration
	// RetryAfter is the backoff hint attached to shed and UNKNOWN
	// responses (default 1s).
	RetryAfter time.Duration
	// IdleTimeout closes line-protocol connections with no traffic
	// (default 2m). It is the slow-client bound: a dead peer cannot pin
	// a goroutine forever.
	IdleTimeout time.Duration
	// DefaultBudget is the per-request budget for tenants not listed in
	// Tenants.
	DefaultBudget guard.Budget
	// Tenants maps tenant IDs to their admission configuration.
	Tenants map[string]TenantConfig
	// Logf receives one-line operational events; nil discards them.
	Logf func(format string, args ...any)
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.MaxInflight <= 0 {
		out.MaxInflight = 4
	}
	if out.QueueDepth <= 0 {
		out.QueueDepth = 16
	}
	if out.DefaultDeadline <= 0 {
		out.DefaultDeadline = 10 * time.Second
	}
	if out.MaxDeadline <= 0 {
		out.MaxDeadline = 60 * time.Second
	}
	if out.RetryAfter <= 0 {
		out.RetryAfter = time.Second
	}
	if out.IdleTimeout <= 0 {
		out.IdleTimeout = 2 * time.Minute
	}
	if out.Logf == nil {
		out.Logf = func(string, ...any) {}
	}
	return out
}

// Stats is a point-in-time operational snapshot.
type Stats struct {
	Served     int64  `json:"served"`
	Shed       int64  `json:"shed"`
	Unknown    int64  `json:"unknown"`
	Duplicates int64  `json:"duplicates"`
	Panics     int64  `json:"panics"`
	Rebuilds   int64  `json:"rebuilds"`
	Inflight   int    `json:"inflight"`
	Queued     int    `json:"queued"`
	Seq        uint64 `json:"seq"`
	Draining   bool   `json:"draining"`
}

// tenantState tracks one tenant's live admission and counters.
type tenantState struct {
	cfg      TenantConfig
	mu       sync.Mutex
	inflight int
}

// Server is one serving instance. Construct with New, attach listeners
// with ServeHTTP/ServeLine (or the cmd wrapper), stop with Shutdown.
type Server struct {
	cfg Config
	adm *admission

	// hmu guards the handle: shared for queries (the maintained DB is
	// read-only between updates), exclusive for mutations and rebuilds.
	hmu sync.RWMutex
	h   *eval.Handle
	// clientSeqs is the idempotency table: highest acknowledged client
	// sequence per client ID. Seeded from the durable store at build
	// and after every rebuild, so it survives crashes; in-memory
	// servers keep it for the life of the process. Guarded by hmu.
	clientSeqs map[string]uint64
	// degraded, non-nil when a rebuild failed, marks the server
	// unhealthy: mutations are refused until an operator intervenes.
	// Guarded by hmu.
	degraded error

	tmu     sync.Mutex
	tenants map[string]*tenantState

	draining atomic.Bool
	baseCtx  context.Context
	cancel   context.CancelFunc

	served     atomic.Int64
	shed       atomic.Int64
	unknown    atomic.Int64
	duplicates atomic.Int64
	panics     atomic.Int64
	rebuilds   atomic.Int64

	// line-protocol connection tracking for drain (line.go).
	cmu       sync.Mutex
	conns     map[net.Conn]struct{}
	lineWG    sync.WaitGroup
	listeners []net.Listener
}

// New materializes the program (recovering the durable store when
// DataDir is set) and returns a serving instance with no listeners yet.
func New(cfg Config) (*Server, error) {
	if cfg.Program == nil {
		return nil, fmt.Errorf("server: Config.Program is required")
	}
	c := cfg.withDefaults()
	s := &Server{
		cfg:     c,
		adm:     newAdmission(c.MaxInflight, c.QueueDepth),
		tenants: make(map[string]*tenantState),
		conns:   make(map[net.Conn]struct{}),
	}
	s.baseCtx, s.cancel = context.WithCancel(context.Background())
	h, _, err := s.buildHandle()
	if err != nil {
		return nil, err
	}
	s.h = h
	s.clientSeqs = h.Clients()
	if s.clientSeqs == nil {
		s.clientSeqs = make(map[string]uint64)
	}
	return s, nil
}

// buildHandle materializes a fresh handle: recovered from the durable
// store, or an empty in-memory base.
func (s *Server) buildHandle() (*eval.Handle, eval.Stats, error) {
	opts := eval.Options{Workers: s.cfg.Workers}
	if s.cfg.DataDir == "" {
		return eval.Maintain(s.cfg.Program, database.New(), opts)
	}
	d, err := database.Open(s.cfg.DataDir, database.OpenOptions{
		Budget:        guard.Budget{MaxBytes: s.cfg.MaxBytes},
		SnapshotBytes: s.cfg.SnapshotBytes,
	})
	if err != nil {
		return nil, eval.Stats{}, err
	}
	return eval.MaintainDurable(s.cfg.Program, d, opts)
}

// tenant returns (creating on first use) the tenant's state.
func (s *Server) tenant(name string) *tenantState {
	if name == "" {
		name = "default"
	}
	s.tmu.Lock()
	defer s.tmu.Unlock()
	t, ok := s.tenants[name]
	if !ok {
		cfg, listed := s.cfg.Tenants[name]
		if !listed {
			cfg = TenantConfig{Budget: s.cfg.DefaultBudget}
		}
		t = &tenantState{cfg: cfg}
		s.tenants[name] = t
	}
	return t
}

// admit runs global and per-tenant admission; the returned release is
// non-nil exactly when admission succeeded.
func (s *Server) admit(ctx context.Context, t *tenantState) (release func(), err error) {
	if s.draining.Load() {
		return nil, errDraining
	}
	if t.cfg.MaxInflight > 0 {
		t.mu.Lock()
		if t.inflight >= t.cfg.MaxInflight {
			t.mu.Unlock()
			s.shed.Add(1)
			return nil, errShed
		}
		t.inflight++
		t.mu.Unlock()
	}
	if err := s.adm.acquire(ctx); err != nil {
		if t.cfg.MaxInflight > 0 {
			t.mu.Lock()
			t.inflight--
			t.mu.Unlock()
		}
		if errors.Is(err, errShed) {
			s.shed.Add(1)
		}
		return nil, err
	}
	return func() {
		s.adm.release()
		if t.cfg.MaxInflight > 0 {
			t.mu.Lock()
			t.inflight--
			t.mu.Unlock()
		}
	}, nil
}

// deadline resolves a request's effective deadline: the client's ask,
// clamped to MaxDeadline, defaulting to DefaultDeadline.
func (s *Server) deadline(req time.Duration) time.Duration {
	d := req
	if d <= 0 {
		d = s.cfg.DefaultDeadline
	}
	if d > s.cfg.MaxDeadline {
		d = s.cfg.MaxDeadline
	}
	return d
}

// QueryResult is the outcome of one query request.
type QueryResult struct {
	// Verdict is "complete", or "unknown" when a budget trip or the
	// request deadline cut evaluation short — the tuples are then a
	// sound underapproximation.
	Verdict string `json:"verdict"`
	// Tuples are the goal relation's facts, rendered and sorted.
	Tuples []string `json:"tuples"`
	// Reason carries the trip or cancellation detail for "unknown".
	Reason string `json:"reason,omitempty"`
	// RetryAfter suggests when to retry an "unknown" result, seconds.
	RetryAfter int64 `json:"retry_after_seconds,omitempty"`
	// Derived/Firings report evaluation work for ad-hoc programs.
	Derived int `json:"derived,omitempty"`
	Firings int `json:"firings,omitempty"`
}

// Query serves one read request for tenant: with programSrc empty, a
// dump of the maintained goal relation; otherwise the supplied program
// is evaluated over the live database under the tenant's budget and the
// request deadline, and the goal relation of that evaluation returned.
// Budget trips and deadline expiry degrade to an "unknown" verdict with
// partial tuples; panics are isolated and returned as errors.
func (s *Server) Query(ctx context.Context, tenant, goal, programSrc string, reqDeadline time.Duration) (QueryResult, error) {
	t := s.tenant(tenant)
	ctx, cancel := context.WithTimeout(ctx, s.deadline(reqDeadline))
	defer cancel()
	release, err := s.admit(ctx, t)
	if err != nil {
		return QueryResult{}, err
	}
	defer release()
	defer s.served.Add(1)

	var res QueryResult
	err = s.recoverWrap("server/query", func() error {
		var qerr error
		res, qerr = s.runQuery(ctx, t, goal, programSrc)
		return qerr
	})
	if err != nil {
		var pe *guard.PanicError
		if errors.As(err, &pe) {
			s.panics.Add(1)
			s.cfg.Logf("server: query panic isolated: %v", pe)
		}
		return QueryResult{}, err
	}
	if res.Verdict == "unknown" {
		s.unknown.Add(1)
	}
	return res, nil
}

// runQuery executes under the handle's read lock: queries share it,
// mutations exclude it.
func (s *Server) runQuery(ctx context.Context, t *tenantState, goal, programSrc string) (QueryResult, error) {
	s.hmu.RLock()
	defer s.hmu.RUnlock()
	if programSrc == "" {
		if s.cfg.Program.GoalArity(goal) < 0 {
			return QueryResult{}, &badRequestError{fmt.Sprintf("goal predicate %q does not occur in the served program", goal)}
		}
		return QueryResult{Verdict: "complete", Tuples: factLines(s.h.DB().Lookup(goal), goal)}, nil
	}
	prog, err := parser.Program(programSrc)
	if err != nil {
		return QueryResult{}, &badRequestError{fmt.Sprintf("program: %v", err)}
	}
	if prog.GoalArity(goal) < 0 {
		return QueryResult{}, &badRequestError{fmt.Sprintf("goal predicate %q does not occur in the query program", goal)}
	}
	opts := eval.Options{
		Workers: s.cfg.Workers,
		Budget:  t.cfg.Budget.Started(),
		Ctx:     ctx,
	}
	// A constant bound into a recursive predicate makes the query
	// goal-directed: evaluate its magic-sets rewrite, whose adorned goal
	// relation is the goal relation of the program as sent.
	rel := goal
	if mr := magic.Rewrite(prog, goal, s.h.DB()); mr != nil {
		prog, rel = mr.Program, mr.GoalPred
	}
	out, stats, err := eval.Eval(prog, s.h.DB(), opts)
	res := QueryResult{
		Verdict: "complete",
		Derived: stats.Derived,
		Firings: stats.Firings,
	}
	if err != nil {
		var le *guard.LimitError
		switch {
		case errors.As(err, &le):
			res.Verdict, res.Reason = "unknown", le.Error()
		case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
			res.Verdict, res.Reason = "unknown", fmt.Sprintf("request deadline: %v", err)
		default:
			return QueryResult{}, &badRequestError{err.Error()}
		}
		res.RetryAfter = int64(s.cfg.RetryAfter / time.Second)
	}
	res.Tuples = factLines(out.Lookup(rel), goal)
	return res, nil
}

// MutationResult is the outcome of one insert/retract request.
type MutationResult struct {
	// Applied: the batch was applied and (on a durable store)
	// acknowledged durable.
	Applied bool `json:"applied"`
	// Duplicate: the (client, seq) pair was already acknowledged; the
	// batch was not re-applied. Retries land here.
	Duplicate bool `json:"duplicate,omitempty"`
	// Seq is the store's committed-batch sequence number after the
	// request (0 for in-memory servers).
	Seq uint64 `json:"seq"`
	// Verdict is "applied", "duplicate", or "unknown" (the update was
	// aborted by a budget trip or the deadline and rolled away by a
	// rebuild — it is NOT applied; retry after RetryAfter).
	Verdict string `json:"verdict"`
	// Reason carries the trip/cancellation detail for "unknown".
	Reason string `json:"reason,omitempty"`
	// RetryAfter suggests when to retry an "unknown" result, seconds.
	RetryAfter int64 `json:"retry_after_seconds,omitempty"`
	// Stats is the update's work account when applied.
	Stats string `json:"stats,omitempty"`
}

// Apply serves one mutation: op is database.OpInsert or
// database.OpRetract. A non-empty client with seq > 0 makes the request
// idempotent: a (client, seq) at or below the highest acknowledged
// sequence for that client is acknowledged again without being
// re-applied — the contract that makes retries over severed connections
// safe. A budget trip, deadline expiry, or I/O failure mid-update
// aborts the batch, rebuilds the materialization from the last
// consistent state, and reports "unknown" (not applied) with a
// Retry-After hint; the server keeps serving.
func (s *Server) Apply(ctx context.Context, tenant string, op byte, facts []ast.Atom, client string, seq uint64, reqDeadline time.Duration) (MutationResult, error) {
	t := s.tenant(tenant)
	ctx, cancel := context.WithTimeout(ctx, s.deadline(reqDeadline))
	defer cancel()
	release, err := s.admit(ctx, t)
	if err != nil {
		return MutationResult{}, err
	}
	defer release()
	defer s.served.Add(1)

	var res MutationResult
	err = s.recoverWrap("server/apply", func() error {
		var aerr error
		res, aerr = s.runApply(ctx, t, op, facts, client, seq)
		return aerr
	})
	if err != nil {
		var pe *guard.PanicError
		if errors.As(err, &pe) {
			s.panics.Add(1)
			s.cfg.Logf("server: mutation panic isolated: %v", pe)
			// The cascade may have been mid-flight; rebuild defensively.
			s.hmu.Lock()
			s.rebuildLocked(pe)
			s.hmu.Unlock()
		}
		return MutationResult{}, err
	}
	switch res.Verdict {
	case "unknown":
		s.unknown.Add(1)
	case "duplicate":
		s.duplicates.Add(1)
	}
	return res, nil
}

// runApply holds the exclusive handle lock for dedup + apply + ack, so
// the idempotency check and the mutation are atomic with respect to
// other writers.
func (s *Server) runApply(ctx context.Context, t *tenantState, op byte, facts []ast.Atom, client string, seq uint64) (MutationResult, error) {
	if op != database.OpInsert && op != database.OpRetract {
		return MutationResult{}, &badRequestError{fmt.Sprintf("unknown opcode %d", op)}
	}
	s.hmu.Lock()
	defer s.hmu.Unlock()
	if s.degraded != nil {
		return MutationResult{}, fmt.Errorf("server: degraded after failed rebuild: %w", s.degraded)
	}
	if client != "" && seq > 0 {
		if last := s.clientSeqs[client]; seq <= last {
			return MutationResult{Duplicate: true, Seq: s.h.Seq(), Verdict: "duplicate"}, nil
		}
	}
	// Propagate the request deadline into the maintenance cascade; the
	// handle is exclusively ours while hmu is held.
	s.h.SetUpdateContext(ctx)
	var us eval.UpdateStats
	var err error
	if op == database.OpInsert {
		us, err = s.h.InsertTagged(facts, client, seq)
	} else {
		us, err = s.h.RetractTagged(facts, client, seq)
	}
	s.h.SetUpdateContext(nil)
	if err != nil {
		if s.h.Err() == nil {
			// The handle is intact: the batch was refused before anything
			// mutated (validation, pre-expired deadline).
			if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
				return MutationResult{
					Verdict:    "unknown",
					Reason:     fmt.Sprintf("request deadline before apply: %v", err),
					RetryAfter: int64(s.cfg.RetryAfter / time.Second),
					Seq:        s.h.Seq(),
				}, nil
			}
			return MutationResult{}, &badRequestError{err.Error()}
		}
		// Poisoned mid-cascade: the batch was NOT committed (durable
		// commit happens only after a fully successful update). Rebuild
		// to the last consistent state and degrade gracefully.
		s.rebuildLocked(err)
		return MutationResult{
			Verdict:    "unknown",
			Reason:     err.Error(),
			RetryAfter: int64(s.cfg.RetryAfter / time.Second),
			Seq:        s.h.Seq(),
		}, nil
	}
	if client != "" && seq > 0 {
		s.clientSeqs[client] = seq
	}
	return MutationResult{Applied: true, Seq: s.h.Seq(), Verdict: "applied", Stats: us.String()}, nil
}

// rebuildLocked replaces a poisoned handle with a fresh
// materialization. Durable servers recover from the store — whose
// contents are exactly the acknowledged batches, so the aborted update
// vanishes. In-memory servers re-materialize from the current base
// database, which a failed update leaves as it was. Requires hmu held
// exclusively. A rebuild failure marks the
// server degraded rather than crashing it.
func (s *Server) rebuildLocked(cause error) {
	s.rebuilds.Add(1)
	s.cfg.Logf("server: rebuilding materialization after: %v", cause)
	var h *eval.Handle
	var err error
	if s.cfg.DataDir != "" {
		s.h.Close()
		h, _, err = s.buildHandle()
	} else {
		base := s.h.Base().Clone()
		h, _, err = eval.Maintain(s.cfg.Program, base, eval.Options{Workers: s.cfg.Workers})
	}
	if err != nil {
		s.degraded = fmt.Errorf("rebuild after %v: %w", cause, err)
		s.cfg.Logf("server: DEGRADED — rebuild failed: %v", err)
		return
	}
	s.h = h
	if cs := h.Clients(); cs != nil {
		s.clientSeqs = cs
	}
}

// recoverWrap runs fn under a guard.Recover boundary: a panic anywhere
// in the request body becomes a *guard.PanicError return, never a
// process crash.
func (s *Server) recoverWrap(phase string, fn func() error) (err error) {
	defer guard.Recover(&err, phase)
	return fn()
}

// Checkpoint forces a durable snapshot (no-op for in-memory servers).
func (s *Server) Checkpoint() error {
	s.hmu.Lock()
	defer s.hmu.Unlock()
	return s.h.Checkpoint()
}

// Seq returns the store's committed-batch sequence number.
func (s *Server) Seq() uint64 {
	s.hmu.RLock()
	defer s.hmu.RUnlock()
	return s.h.Seq()
}

// Stats snapshots the server's counters.
func (s *Server) Stats() Stats {
	inflight, queued := s.adm.load()
	return Stats{
		Served:     s.served.Load(),
		Shed:       s.shed.Load(),
		Unknown:    s.unknown.Load(),
		Duplicates: s.duplicates.Load(),
		Panics:     s.panics.Load(),
		Rebuilds:   s.rebuilds.Load(),
		Inflight:   inflight,
		Queued:     queued,
		Seq:        s.Seq(),
		Draining:   s.draining.Load(),
	}
}

// Healthy reports whether the server is accepting work.
func (s *Server) Healthy() bool {
	if s.draining.Load() {
		return false
	}
	s.hmu.RLock()
	defer s.hmu.RUnlock()
	return s.degraded == nil
}

// Shutdown drains the server: stop accepting (listeners close, new
// requests get draining responses), let in-flight requests finish
// within ctx, checkpoint the durable store, and release the handle.
// Safe to call once; the SIGTERM path of `datalog serve`.
func (s *Server) Shutdown(ctx context.Context) error {
	if !s.draining.CompareAndSwap(false, true) {
		return nil
	}
	s.cfg.Logf("server: draining")
	for _, ln := range s.snapshotListeners() {
		ln.Close()
	}
	s.adm.close()
	drainErr := s.adm.drain(ctx)
	// In-flight line commands have released their slots; any connection
	// still open is idle between commands and safe to sever.
	s.closeConns()
	s.lineWG.Wait()
	s.cancel()
	s.hmu.Lock()
	defer s.hmu.Unlock()
	if err := s.h.Checkpoint(); err != nil {
		s.cfg.Logf("server: checkpoint on drain failed: %v", err)
		s.h.Close()
		return err
	}
	seq := s.h.Seq()
	if err := s.h.Close(); err != nil {
		return err
	}
	s.cfg.Logf("server: drained, checkpoint written, seq=%d", seq)
	return drainErr
}

func (s *Server) snapshotListeners() []net.Listener {
	s.cmu.Lock()
	defer s.cmu.Unlock()
	out := make([]net.Listener, len(s.listeners))
	copy(out, s.listeners)
	return out
}

func (s *Server) closeConns() {
	s.cmu.Lock()
	defer s.cmu.Unlock()
	for c := range s.conns {
		c.Close()
	}
}

// badRequestError marks client mistakes (parse errors, unknown goals,
// non-ground facts): protocol layers answer 400 / "err", not 500.
type badRequestError struct{ msg string }

func (e *badRequestError) Error() string { return e.msg }

// factLines renders rel's live rows as sorted fact lines of pred. Every
// line is appended to one buffer, which becomes one string the lines
// are sliced from, so the allocation count does not grow with rel.
func factLines(rel *database.Relation, pred string) []string {
	if rel == nil {
		return nil
	}
	// Size the buffer as if every constant were quoted; only escapes
	// inside quoted constants can outgrow it.
	size := 0
	for i := 0; i < rel.Len(); i++ {
		if rel.Dead(i) {
			continue
		}
		size += len(pred) + 3 // "(", ")" and "."
		for c := 0; c < rel.Arity(); c++ {
			size += len(database.Symbol(rel.At(i, c))) + 4 // quotes and ", "
		}
	}
	buf := make([]byte, 0, size)
	ends := make([]int, 0, rel.LiveLen())
	for i := 0; i < rel.Len(); i++ {
		if rel.Dead(i) {
			continue
		}
		buf = append(buf, pred...)
		if rel.Arity() > 0 {
			buf = append(buf, '(')
			for c := 0; c < rel.Arity(); c++ {
				if c > 0 {
					buf = append(buf, ", "...)
				}
				buf = ast.AppendConst(buf, database.Symbol(rel.At(i, c)))
			}
			buf = append(buf, ')')
		}
		buf = append(buf, '.')
		ends = append(ends, len(buf))
	}
	all := string(buf)
	lines := make([]string, len(ends))
	start := 0
	for i, end := range ends {
		lines[i] = all[start:end]
		start = end
	}
	sort.Strings(lines)
	return lines
}

// parseFacts parses a comma-separated ground fact list ("e(a,b), e(b,c).").
func parseFacts(src string) ([]ast.Atom, error) {
	facts, err := parser.FactList(src)
	if err != nil {
		return nil, err
	}
	if len(facts) == 0 {
		return nil, fmt.Errorf("empty fact list")
	}
	return facts, nil
}
