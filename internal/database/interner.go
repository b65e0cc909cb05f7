package database

import (
	"hash/maphash"
	"sync"
	"sync/atomic"
)

// Interner maps constant strings to dense uint32 IDs and back. IDs are
// assigned in interning order starting at 0, are never recycled, and
// remain valid for the lifetime of the interner. The zero value is not
// usable; construct with NewInterner.
//
// All storage in this package (Row, Relation slabs, indexes) speaks IDs
// from the process-wide shared interner, so rows from different
// databases compare directly by ID.
//
// Concurrency contract: an Interner is safe for concurrent use, and the
// read paths (Intern of an already-known string, ID, Value, Len) are
// lock-free — parallel evaluation workers and containment checks probe
// the table without contending on a mutex. Only the slow path of Intern
// (first sight of a string) takes a lock, which serializes writers:
//
//   - string → ID lookups probe an open-addressing table of IDs, whose
//     slots are written and read atomically. A writer fills a slot only
//     after the symbol is resolvable, and grows the table by building a
//     full copy before publishing it, so a reader sees either a slot's
//     final ID or an empty slot — a miss that, on Intern's path, the
//     locked slow path re-checks;
//   - ID → string lookups go through an atomically published snapshot of
//     the symbol slice. Writers append in place while holding the mutex
//     and publish a fresh slice header; a reader holding ID i obtained
//     it (directly or through a row) after the header with len > i was
//     published, so the atomic load always yields a slice long enough.
//
// The table stores 4 bytes per slot and the strings live only in the
// symbol slice, so a symbol costs its string, a slice entry and a slot.
type Interner struct {
	mu    sync.Mutex // serializes writers; readers never take it
	seed  maphash.Seed
	table atomic.Pointer[[]atomic.Uint32] // ID + 1 per slot; 0 = empty
	syms  atomic.Pointer[[]string]
}

// NewInterner returns an empty interner.
func NewInterner() *Interner {
	in := &Interner{seed: maphash.MakeSeed()}
	empty := make([]string, 0)
	in.syms.Store(&empty)
	table := make([]atomic.Uint32, 16)
	in.table.Store(&table)
	return in
}

// Intern returns the ID for s, assigning the next dense ID on first
// sight. For already-interned strings this is a lock-free lookup.
func (in *Interner) Intern(s string) uint32 {
	if id, ok := in.ID(s); ok {
		return id
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if id, ok := in.ID(s); ok {
		return id
	}
	cur := *in.syms.Load()
	id := uint32(len(cur))
	// Append in place (amortized growth) and publish the longer header
	// before making the ID discoverable: anyone who can observe the ID
	// can then resolve it through Value.
	next := append(cur, s)
	in.syms.Store(&next)
	table := *in.table.Load()
	if 4*len(next) > 3*len(table) {
		table = make([]atomic.Uint32, 2*len(table))
		for old, sym := range cur {
			table[in.slot(table, sym)].Store(uint32(old) + 1)
		}
		in.table.Store(&table)
	}
	table[in.slot(table, s)].Store(id + 1)
	return id
}

// slot returns the index of s's slot in table, or of the empty slot
// where it would go.
func (in *Interner) slot(table []atomic.Uint32, s string) int {
	mask := uint64(len(table) - 1)
	i := maphash.String(in.seed, s) & mask
	for {
		v := table[i].Load()
		if v == 0 || (*in.syms.Load())[v-1] == s {
			return int(i)
		}
		i = (i + 1) & mask
	}
}

// ID returns the ID for s if it has been interned.
func (in *Interner) ID(s string) (uint32, bool) {
	table := *in.table.Load()
	v := table[in.slot(table, s)].Load()
	return v - 1, v != 0
}

// Value returns the string for an interned ID. It panics on an ID that
// was never assigned, which always indicates corrupted row data.
func (in *Interner) Value(id uint32) string {
	return (*in.syms.Load())[id]
}

// Len returns the number of interned constants.
func (in *Interner) Len() int {
	return len(*in.syms.Load())
}

// shared is the process-wide symbol table every DB speaks.
var shared = NewInterner()

// Intern interns s in the shared symbol table.
func Intern(s string) uint32 { return shared.Intern(s) }

// LookupID returns the shared-table ID for s if s has ever been
// interned. A miss means s cannot occur in any relation.
func LookupID(s string) (uint32, bool) { return shared.ID(s) }

// Symbol returns the constant string for a shared-table ID.
func Symbol(id uint32) string { return shared.Value(id) }

// InternedCount returns the size of the shared symbol table.
func InternedCount() int { return shared.Len() }
