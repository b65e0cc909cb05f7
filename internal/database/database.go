// Package database implements the extensional store a Datalog program is
// evaluated over: named relations holding tuples of constants. It is the
// "database D" of the paper's semantics Q_Π(D).
//
// Internally the store is an interned-constant engine: constants are
// mapped once to dense uint32 IDs by a shared symbol table (interner.go),
// tuples are rows of IDs living in flat columnar slabs per relation, and
// dedup plus join indexes hash IDs rather than string keys. Indexes are
// persistent and incrementally maintained: once a (relation, column-mask)
// index exists, every inserted row is appended to its posting list, so
// fixpoint evaluation never re-scans a relation to rebuild an index. The
// string-facing API (Tuple, Add, Contains, Tuples) is a thin
// compatibility surface over this engine.
package database

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync/atomic"

	"datalogeq/internal/ast"
)

// Tuple is a tuple of constants. Tuples are compared by value.
type Tuple []string

// Key returns a canonical map key for the tuple. Distinct tuples have
// distinct keys.
func (t Tuple) Key() string {
	var b strings.Builder
	for i, c := range t {
		if i > 0 {
			b.WriteByte(0)
		}
		b.WriteString(c)
	}
	return b.String()
}

// Equal reports whether two tuples are identical.
func (t Tuple) Equal(u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if t[i] != u[i] {
			return false
		}
	}
	return true
}

// Clone returns a copy of the tuple.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// String renders the tuple as (a, b, c).
func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, c := range t {
		parts[i] = c
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// StorageStats aggregates the engine-level counters of a relation or
// database: index usage and slab footprint.
type StorageStats struct {
	// IndexHits counts key lookups answered by a persistent index.
	IndexHits uint64
	// IndexBuilds counts full-scan index constructions. Once built an
	// index is maintained incrementally, so this stays bounded by the
	// number of distinct (relation, column-mask) pairs ever queried.
	IndexBuilds uint64
	// IndexAppends counts incremental posting-list insertions: one per
	// (new row, live index on its relation).
	IndexAppends uint64
	// SlabBytes is the capacity of the columnar slabs in bytes.
	SlabBytes int64
	// Rows is the total number of stored rows.
	Rows int
}

func (s *StorageStats) add(t StorageStats) {
	s.IndexHits += t.IndexHits
	s.IndexBuilds += t.IndexBuilds
	s.IndexAppends += t.IndexAppends
	s.SlabBytes += t.SlabBytes
	s.Rows += t.Rows
}

// Relation is a set of same-arity tuples with insertion order preserved.
// Tuples live as rows of interned IDs in per-column slabs; row IDs are
// dense insertion indices, which delta-window evaluation relies on.
//
// Deleted rows are tombstones (counts.go): they keep their slab slot
// until the relation compacts, so Len is the slab bound — the range of
// row IDs and of delta windows — and LiveLen the number of tuples the
// relation holds. Every reader that walks rows by ID, or through a
// posting list from Match or Probe, skips rows for which Dead reports
// true. HasDead lets a hot loop pay that check once per call while the
// relation has no tombstones, which is always the case for relations
// nothing deletes from, such as evaluation's.
//
// Concurrency contract: a Relation alternates between two phases.
//
//   - Read phase: any number of goroutines may call the pure readers —
//     Len, LiveLen, Dead, HasDead, Arity, At, Column, AppendRowAt,
//     RowAt, ContainsRow, Probe, Clone — concurrently. Nothing may
//     mutate the relation (no Add/AddRow, no Match or EnsureIndex that
//     would build an index, no Tuples, no Contains/Equal, which reuse
//     internal scratch space).
//   - Write phase: exactly one goroutine mutates; no concurrent readers.
//
// The parallel evaluator enforces this with a round barrier: workers
// probe frozen snapshots during the round, and a single-threaded merge
// applies derived rows between rounds. AddRow and Probe carry a cheap
// atomic assertion that panics when the phases are mixed, so a violation
// surfaces immediately instead of as silent corruption.
type Relation struct {
	arity int
	n     int
	cols  [][]uint32
	set   rowSet
	// dead is the tombstone bitmap (bit i set: row i is deleted),
	// allocated by the first deletion and dropped by compaction; ndead
	// counts its set bits.
	dead  []uint64
	ndead int
	// indexes maps a column bitmask to its persistent index.
	indexes map[uint64]*relIndex
	// counts, when non-nil, is the per-row derivation-count column used
	// by incremental view maintenance (counts.go). Kept aligned with the
	// slab: AddRow appends a zero for each new row.
	counts []int32
	// strs lazily materializes the live rows below slab row strsN for
	// the string-facing Tuples().
	strs    []Tuple
	strsN   int
	scratch Row
	stats   StorageStats
	// writing asserts the concurrency contract above: set while AddRow
	// mutates, checked by Probe.
	writing atomic.Bool
}

// NewRelation returns an empty relation of the given arity.
func NewRelation(arity int) *Relation {
	return &Relation{arity: arity, cols: make([][]uint32, arity)}
}

// Arity returns the relation's arity.
func (r *Relation) Arity() int { return r.arity }

// Len returns the slab length: one past the largest row ID, dead rows
// included. Delta windows and row-ID loops use it; LiveLen counts the
// tuples.
func (r *Relation) Len() int { return r.n }

// LiveLen returns the number of tuples: the slab length minus the dead
// rows.
func (r *Relation) LiveLen() int { return r.n - r.ndead }

// HasDead reports whether any row of the slab is a tombstone.
func (r *Relation) HasDead() bool { return r.ndead != 0 }

// Dead reports whether row i is a tombstone, deleted but not yet
// compacted away. It is a pure read, safe during a read phase.
func (r *Relation) Dead(i int) bool {
	return r.ndead != 0 && i>>6 < len(r.dead) && r.dead[i>>6]&(1<<(uint(i)&63)) != 0
}

// hashAt hashes slab row i exactly as hashRow hashes the same row.
func (r *Relation) hashAt(i int) uint64 {
	h := hashSeed
	for c := range r.cols {
		h = hashID(h, r.cols[c][i])
	}
	return h
}

// rowEqual compares slab row i to a probe row of the same arity.
func (r *Relation) rowEqual(i int, row Row) bool {
	for c := range r.cols {
		if r.cols[c][i] != row[c] {
			return false
		}
	}
	return true
}

// Add inserts a tuple, reporting whether it was new. It panics if the
// tuple has the wrong arity, which always indicates a programming error
// upstream (the parser and evaluator enforce arity).
func (r *Relation) Add(t Tuple) bool {
	if len(t) != r.arity {
		//repolint:allow panic — invariant: callers (parser, compiled eval) enforce arity; a mismatch is a programming error, not user input.
		panic(fmt.Sprintf("database: tuple %v has arity %d, relation has arity %d", t, len(t), r.arity))
	}
	r.scratch = AppendInterned(r.scratch[:0], t)
	return r.AddRow(r.scratch)
}

// AddRow inserts a row of interned IDs, reporting whether it was new.
// The row's values are copied into the relation's slabs, so the caller
// retains ownership of row and may reuse it. Every live index on the
// relation is maintained incrementally. It panics on an arity mismatch.
func (r *Relation) AddRow(row Row) bool {
	if len(row) != r.arity {
		//repolint:allow panic — invariant: callers (parser, compiled eval) enforce arity; a mismatch is a programming error, not user input.
		panic(fmt.Sprintf("database: row %v has arity %d, relation has arity %d", row, len(row), r.arity))
	}
	h := hashRow(row)
	if r.set.lookup(r, row, h) >= 0 {
		return false
	}
	r.writing.Store(true)
	id := int32(r.n)
	for c := range r.cols {
		r.cols[c] = append(r.cols[c], row[c])
	}
	r.n++
	if r.counts != nil {
		r.counts = append(r.counts, 0)
	}
	r.set.insert(r, id, h)
	for _, idx := range r.indexes {
		r.scratch = idx.add(r, id, r.scratch)
		r.stats.IndexAppends++
	}
	r.writing.Store(false)
	return true
}

// Contains reports whether the relation holds t. It never interns: a
// constant the engine has not seen cannot be in any relation.
func (r *Relation) Contains(t Tuple) bool {
	if len(t) != r.arity {
		return false
	}
	row := r.scratch[:0]
	for _, c := range t {
		id, ok := LookupID(c)
		if !ok {
			return false
		}
		row = append(row, id)
	}
	r.scratch = row
	return r.set.lookup(r, row, hashRow(row)) >= 0
}

// ContainsRow reports whether the relation holds the row.
func (r *Relation) ContainsRow(row Row) bool {
	if len(row) != r.arity {
		return false
	}
	return r.set.lookup(r, row, hashRow(row)) >= 0
}

// RowAt returns row i as a fresh Row. Like AppendRowAt, At and Column,
// it reads the slab and so returns a dead row's values too.
func (r *Relation) RowAt(i int) Row {
	return r.AppendRowAt(nil, i)
}

// AppendRowAt appends row i's IDs to dst and returns it; use with
// dst[:0] to iterate rows without allocating.
func (r *Relation) AppendRowAt(dst Row, i int) Row {
	for c := range r.cols {
		dst = append(dst, r.cols[c][i])
	}
	return dst
}

// At returns the ID at row i, column c.
func (r *Relation) At(i, c int) uint32 { return r.cols[c][i] }

// Column returns column c's slab. The slice is shared; callers must not
// modify it.
func (r *Relation) Column(c int) []uint32 { return r.cols[c] }

// Tuples returns the live tuples in insertion order, materialized as
// strings. The returned slice is shared and extended lazily as rows are
// added; callers must not modify it.
func (r *Relation) Tuples() []Tuple {
	for i := r.strsN; i < r.n; i++ {
		if !r.Dead(i) {
			r.strs = append(r.strs, r.RowAt(i).Tuple())
		}
	}
	r.strsN = r.n
	return r.strs
}

// Match returns the IDs of rows in [lo, hi) whose values at the columns
// of mask (bit c set = column c) equal key, in ascending row order,
// dead rows included: callers skip those for which Dead reports true.
// It is served by the relation's persistent index for mask, building it
// on first use; mask must be nonzero and the arity at most 64. The
// returned slice aliases the index; callers must not modify it.
func (r *Relation) Match(mask uint64, key Row, lo, hi int) []int32 {
	idx := r.indexFor(mask)
	r.stats.IndexHits++
	rows := idx.lookup(r, key, hashRow(key))
	return window(rows, lo, hi)
}

// indexFor returns the persistent index on mask, building it by a
// two-pass full scan (relIndex.build) on first use.
func (r *Relation) indexFor(mask uint64) *relIndex {
	if idx, ok := r.indexes[mask]; ok {
		return idx
	}
	cols := make([]int, 0, r.arity)
	for c := 0; c < r.arity; c++ {
		if mask&(1<<uint(c)) != 0 {
			cols = append(cols, c)
		}
	}
	idx := &relIndex{cols: cols}
	r.scratch = idx.build(r, r.scratch, false)
	if r.indexes == nil {
		r.indexes = make(map[uint64]*relIndex)
	}
	r.indexes[mask] = idx
	r.stats.IndexBuilds++
	return idx
}

// EnsureIndex builds the persistent index on mask if it does not exist
// yet, by a full scan. It is the write-phase half of the
// concurrent probing contract: the parallel evaluator ensures every
// index its compiled rules will probe between rounds, so that Probe is
// a pure read during the round. Mask semantics match Match.
func (r *Relation) EnsureIndex(mask uint64) {
	r.indexFor(mask)
}

// HasIndex reports whether a persistent index on mask exists, without
// building one. It is a pure read, safe during a read phase.
func (r *Relation) HasIndex(mask uint64) bool {
	_, ok := r.indexes[mask]
	return ok
}

// IndexCard returns the number of distinct keys in the persistent index
// on mask — the posting-list count a cost model turns into an average
// fan-out (rows / distinct keys) — and whether the index exists. It
// never builds an index and never touches counters or scratch space, so
// planners may call it freely during a read phase.
func (r *Relation) IndexCard(mask uint64) (distinct int, ok bool) {
	idx, found := r.indexes[mask]
	if !found {
		return 0, false
	}
	return len(idx.entries), true
}

// Probe returns the IDs of rows in [lo, hi) whose values at the columns
// of mask equal key, dead rows included, exactly like Match, but as a
// pure read: it never builds an index (ok reports whether one exists)
// and never touches the relation's counters or scratch space, so any
// number of goroutines may Probe concurrently during a read phase.
// Callers count their own hits and fold them in later via
// AddIndexHits. The returned slice aliases the index; callers must not
// modify it.
func (r *Relation) Probe(mask uint64, key Row, lo, hi int) (rows []int32, ok bool) {
	if r.writing.Load() {
		//repolint:allow panic — invariant: the evaluator's round barrier separates probes from writes; a trip here is a scheduler bug, not user input.
		panic("database: Probe during a write phase (concurrent-read contract violated)")
	}
	idx, found := r.indexes[mask]
	if !found {
		return nil, false
	}
	return window(idx.lookup(r, key, hashRow(key)), lo, hi), true
}

// AddIndexHits folds n externally counted Probe hits into the
// relation's statistics. Single-writer: call it only from a write
// phase (the evaluator's merge step).
func (r *Relation) AddIndexHits(n uint64) {
	r.stats.IndexHits += n
}

// Stats returns the relation's engine counters.
func (r *Relation) Stats() StorageStats {
	s := r.stats
	for _, col := range r.cols {
		s.SlabBytes += 4 * int64(cap(col))
	}
	s.Rows = r.LiveLen()
	return s
}

// Clone returns a deep copy of the relation's live rows, compacted: the
// clone has no tombstones. Indexes are not copied; they rebuild lazily
// on first use in the clone. It only reads r, so it is safe during a
// read phase.
func (r *Relation) Clone() *Relation {
	out := NewRelation(r.arity)
	out.n = r.n
	if r.ndead != 0 {
		// Compaction only reads the slabs it replaces, so the clone
		// starts out sharing r's and ends up with fresh ones.
		copy(out.cols, r.cols)
		out.counts, out.dead, out.ndead = r.counts, r.dead, r.ndead
		out.compact(false)
	} else {
		for c := range r.cols {
			out.cols[c] = append([]uint32(nil), r.cols[c]...)
		}
		if r.counts != nil {
			out.counts = append([]int32(nil), r.counts...)
		}
		out.set = rowSet{table: append([]int32(nil), r.set.table...), n: r.set.n}
	}
	// Share the immutable materialized prefix: it is the clone's first
	// rows, since the clone keeps the live rows in order. The capacity
	// cap forces copy-on-append so clones never write into each other.
	out.strs = r.strs[:len(r.strs):len(r.strs)]
	out.strsN = len(r.strs)
	return out
}

// Equal reports whether two relations hold exactly the same tuples.
func (r *Relation) Equal(s *Relation) bool {
	if r.arity != s.arity || r.LiveLen() != s.LiveLen() {
		return false
	}
	row := r.scratch[:0]
	for i := 0; i < r.n; i++ {
		if r.Dead(i) {
			continue
		}
		row = r.AppendRowAt(row[:0], i)
		if !s.ContainsRow(row) {
			return false
		}
	}
	r.scratch = row
	return true
}

// DB is a database: a map from predicate name to relation. The zero
// value is not usable; construct with New.
//
// Concurrency: Lookup, Preds, FactCount and the per-relation read-phase
// operations are safe to call from many goroutines as long as no
// goroutine mutates the database (Add/AddRow/Relation may create
// relations and must run exclusively). The same read/write phase
// discipline as Relation applies.
type DB struct {
	relations map[string]*Relation
}

// New returns an empty database.
func New() *DB {
	return &DB{relations: make(map[string]*Relation)}
}

// Relation returns the relation for pred, creating an empty one of the
// given arity if absent. It panics on an arity clash with an existing
// relation of the same name.
func (d *DB) Relation(pred string, arity int) *Relation {
	if r, ok := d.relations[pred]; ok {
		if r.arity != arity {
			//repolint:allow panic — invariant: eval.ValidateArities rejects program/database arity clashes before any Relation call; reaching this is a programming error.
			panic(fmt.Sprintf("database: relation %s has arity %d, requested %d", pred, r.arity, arity))
		}
		return r
	}
	r := NewRelation(arity)
	d.relations[pred] = r
	return r
}

// Lookup returns the relation for pred, or nil if absent.
func (d *DB) Lookup(pred string) *Relation { return d.relations[pred] }

// Add inserts the fact pred(t...) and reports whether it was new.
func (d *DB) Add(pred string, t Tuple) bool {
	return d.Relation(pred, len(t)).Add(t)
}

// AddRow inserts the fact pred(row...) and reports whether it was new.
// The caller retains ownership of row.
func (d *DB) AddRow(pred string, row Row) bool {
	return d.Relation(pred, len(row)).AddRow(row)
}

// AddAtom inserts a ground atom as a fact. It returns an error if the
// atom is not ground.
func (d *DB) AddAtom(a ast.Atom) error {
	r := d.Relation(a.Pred, len(a.Args))
	row := r.scratch[:0]
	for _, arg := range a.Args {
		if arg.Kind != ast.Const {
			return fmt.Errorf("database: atom %s is not ground", a)
		}
		row = append(row, Intern(arg.Name))
	}
	r.scratch = row
	r.AddRow(row)
	return nil
}

// Contains reports whether the fact pred(t...) is present.
func (d *DB) Contains(pred string, t Tuple) bool {
	r := d.relations[pred]
	return r != nil && r.Contains(t)
}

// Preds returns the predicate names with relations, sorted.
func (d *DB) Preds() []string {
	out := make([]string, 0, len(d.relations))
	for p := range d.relations {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// FactCount returns the total number of facts across all relations.
func (d *DB) FactCount() int {
	n := 0
	for _, r := range d.relations {
		n += r.LiveLen()
	}
	return n
}

// StorageStats aggregates engine counters across all relations.
func (d *DB) StorageStats() StorageStats {
	var s StorageStats
	for _, r := range d.relations {
		s.add(r.Stats())
	}
	return s
}

// StatsEpoch returns a fingerprint of the database's planning-relevant
// statistics: the number of relations, plus each relation's live row
// count (LiveLen, not the slab length, so tombstones and compaction
// leave it alone) rounded to its power of two and its number of
// persistent indexes. It grows when a relation is created, crosses a
// power-of-two row count upwards, or gains an index, and it falls when
// DeleteRowsMarked shrinks a relation below a power of two — so it is
// not monotone, and planners compare epochs only for equality. Query
// planners key plan caches on it: while the epoch is unchanged, every
// cardinality a cost model would read (relation lengths to within 2×,
// index posting-list counts) is close enough that replanning cannot
// improve the plan. It is computed on demand from the store, so it
// needs no bump discipline at write sites; call it only from a write
// phase or a round boundary (it reads lengths and index maps that a
// concurrent writer would mutate).
func (d *DB) StatsEpoch() uint64 {
	e := uint64(len(d.relations))
	for _, r := range d.relations {
		e += uint64(bits.Len(uint(r.LiveLen()))) + uint64(len(r.indexes))
	}
	return e
}

// Clone returns a deep copy of the database.
func (d *DB) Clone() *DB {
	out := New()
	for p, r := range d.relations {
		out.relations[p] = r.Clone()
	}
	return out
}

// Equal reports whether two databases hold exactly the same facts,
// ignoring empty relations.
func (d *DB) Equal(e *DB) bool {
	for p, r := range d.relations {
		if r.LiveLen() == 0 {
			continue
		}
		s := e.relations[p]
		if s == nil || !r.Equal(s) {
			return false
		}
	}
	for p, s := range e.relations {
		if s.LiveLen() == 0 {
			continue
		}
		r := d.relations[p]
		if r == nil || !s.Equal(r) {
			return false
		}
	}
	return true
}

// DomainIDs returns the set of interned IDs appearing anywhere in the
// database, in unspecified order.
func (d *DB) DomainIDs() []uint32 {
	seen := make(map[uint32]bool)
	var out []uint32
	for _, r := range d.relations {
		for _, col := range r.cols {
			for i, id := range col {
				if !seen[id] && !r.Dead(i) {
					seen[id] = true
					out = append(out, id)
				}
			}
		}
	}
	return out
}

// ActiveDomain returns the set of constants appearing anywhere in the
// database, sorted.
func (d *DB) ActiveDomain() []string {
	ids := d.DomainIDs()
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = Symbol(id)
	}
	sort.Strings(out)
	return out
}

// String renders the database as a sorted list of facts, one per line.
func (d *DB) String() string {
	var lines []string
	for p, r := range d.relations {
		for _, t := range r.Tuples() {
			args := make([]ast.Term, len(t))
			for i, c := range t {
				args[i] = ast.C(c)
			}
			lines = append(lines, ast.Atom{Pred: p, Args: args}.String()+".")
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}
