package database

import "sort"

// This file holds the two hash structures that keep the storage engine
// free of per-tuple string keys: rowSet, the dedup set over a
// relation's slab, and relIndex, a persistent hash index of a relation
// on a column subset. Both are open-addressing tables that store row
// IDs and compare probe rows against the slab directly, so neither
// insertion nor lookup materializes a key object.

// rowSet is the relation's dedup set: a linear-probe table of row IDs
// with per-row hashes kept for cheap resize.
type rowSet struct {
	table  []int32 // rowID + 1; 0 = empty
	hashes []uint64
	n      int
}

// lookup returns the row ID holding r, or -1.
func (s *rowSet) lookup(rel *Relation, r Row, h uint64) int32 {
	if len(s.table) == 0 {
		return -1
	}
	mask := uint64(len(s.table) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		slot := s.table[i]
		if slot == 0 {
			return -1
		}
		id := slot - 1
		if s.hashes[id] == h && rel.rowEqual(int(id), r) {
			return id
		}
	}
}

// insert records that row ID id (already appended to the slab) hashes
// to h. The caller has checked the row is absent.
func (s *rowSet) insert(id int32, h uint64) {
	if 4*(s.n+1) > 3*len(s.table) {
		s.grow()
	}
	s.hashes = append(s.hashes, h)
	s.place(id, h)
	s.n++
}

func (s *rowSet) place(id int32, h uint64) {
	mask := uint64(len(s.table) - 1)
	i := h & mask
	for s.table[i] != 0 {
		i = (i + 1) & mask
	}
	s.table[i] = id + 1
}

func (s *rowSet) grow() {
	size := 2 * len(s.table)
	if size < 16 {
		size = 16
	}
	s.table = make([]int32, size)
	for id := 0; id < s.n; id++ {
		s.place(int32(id), s.hashes[id])
	}
}

// remap rewrites the set after an order-preserving compaction: row IDs
// in [first, oldN) shift or die per newID, earlier IDs are untouched.
// Because row hashes do not change, a surviving entry's probe position
// is already correct, so only the affected IDs' slots are visited: each
// is located by probing from its stored hash (cost proportional to the
// rows that moved, not the table), renumbered or cleared, and each
// cleared hole's following probe cluster is re-homed (classic
// linear-probe deletion) so no survivor is stranded behind an empty
// slot. The hash array is compacted alongside. No row is rehashed.
func (s *rowSet) remap(newID []int32, first, oldN, w int) {
	mask := uint64(len(s.table) - 1)
	var slotBuf [256]int32
	slots := slotBuf[:0]
	// Locate before mutating: clearing a slot would break the probe
	// chains later lookups walk.
	for id := first; id < oldN; id++ {
		j := s.hashes[id] & mask
		for s.table[j] != int32(id)+1 {
			j = (j + 1) & mask
		}
		slots = append(slots, int32(j))
	}
	var holeBuf [64]int32
	holes := holeBuf[:0]
	for k, id := 0, first; id < oldN; k, id = k+1, id+1 {
		j := slots[k]
		if nid := newID[id]; nid >= 0 {
			s.table[j] = nid + 1
		} else {
			s.table[j] = 0
			holes = append(holes, j)
		}
	}
	for id := first; id < oldN; id++ {
		if nid := newID[id]; nid >= 0 {
			s.hashes[nid] = s.hashes[id]
		}
	}
	s.hashes = s.hashes[:w]
	s.n = w
	m := len(s.table) - 1
	// Every hole's following cluster is re-homed, even when a repair
	// has already refilled the hole: an earlier hole's walk may have
	// stopped there while it was still empty.
	for _, hi := range holes {
		for j := (int(hi) + 1) & m; s.table[j] != 0; j = (j + 1) & m {
			id := s.table[j] - 1
			s.table[j] = 0
			s.place(id, s.hashes[id])
		}
	}
}

// relIndex is a persistent hash index of a relation on the column set
// cols: projection key → ascending row IDs. It is built once by a full
// scan and thereafter maintained incrementally — every AddRow appends
// the new row ID to its posting list, so fixpoint rounds never rebuild.
type relIndex struct {
	cols    []int
	table   []int32 // entry index + 1; 0 = empty
	entries []idxEntry
}

type idxEntry struct {
	hash uint64
	rows []int32
}

// project appends the row's values at idx.cols to dst.
func (idx *relIndex) project(rel *Relation, row int, dst Row) Row {
	for _, c := range idx.cols {
		dst = append(dst, rel.cols[c][row])
	}
	return dst
}

// lookup returns the posting list for key, or nil.
func (idx *relIndex) lookup(rel *Relation, key Row, h uint64) []int32 {
	if len(idx.table) == 0 {
		return nil
	}
	mask := uint64(len(idx.table) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		slot := idx.table[i]
		if slot == 0 {
			return nil
		}
		e := &idx.entries[slot-1]
		if e.hash == h && idx.keyEqual(rel, int(e.rows[0]), key) {
			return e.rows
		}
	}
}

// keyEqual compares key to the projection of the given slab row.
func (idx *relIndex) keyEqual(rel *Relation, row int, key Row) bool {
	for j, c := range idx.cols {
		if rel.cols[c][row] != key[j] {
			return false
		}
	}
	return true
}

// add appends row ID id to the posting list for its projection key.
func (idx *relIndex) add(rel *Relation, id int32, scratch Row) Row {
	key := idx.project(rel, int(id), scratch[:0])
	h := hashRow(key)
	if len(idx.table) > 0 {
		mask := uint64(len(idx.table) - 1)
		for i := h & mask; ; i = (i + 1) & mask {
			slot := idx.table[i]
			if slot == 0 {
				break
			}
			e := &idx.entries[slot-1]
			if e.hash == h && idx.keyEqual(rel, int(e.rows[0]), key) {
				e.rows = append(e.rows, id)
				return key
			}
		}
	}
	if 4*(len(idx.entries)+1) > 3*len(idx.table) {
		idx.grow()
	}
	idx.entries = append(idx.entries, idxEntry{hash: h, rows: []int32{id}})
	idx.place(int32(len(idx.entries)-1), h)
	return key
}

// build fills an empty index from the relation's rows in two passes, so
// a full-scan construction allocates a fixed handful of slices, never
// one per key.
//
// Pass 1 maps every row to the first row sharing its key, through a
// scratch linear-probe table of those first rows that doubles at the
// same 3/4 load as the index table. Once the key count is known, the
// entries are allocated exactly and placed in first-occurrence order
// into a table of the size incremental adds would have grown, which
// yields the very entry order and table layout of an index grown row by
// row. Pass 2 counting-sorts the row IDs by entry into one slab and
// carves each posting list from it with capacity equal to its length:
// postings stay ascending, and a later append reallocates only that
// key's list instead of writing into its neighbour's.
func (idx *relIndex) build(rel *Relation, scratch Row) Row {
	n := rel.n
	// entryOf holds each row's first row with the same key, then its
	// entry index.
	entryOf := make([]int32, n)
	var firsts []int32 // first row ID + 1; 0 = empty
	keys := 0
	for i := 0; i < n; i++ {
		if 4*(keys+1) > 3*len(firsts) {
			firsts, scratch = idx.regrowFirsts(rel, firsts, scratch)
		}
		scratch = idx.project(rel, i, scratch[:0])
		mask := uint64(len(firsts) - 1)
		j := hashRow(scratch) & mask
		for firsts[j] != 0 && !idx.keyEqual(rel, int(firsts[j]-1), scratch) {
			j = (j + 1) & mask
		}
		if firsts[j] == 0 {
			firsts[j] = int32(i) + 1
			keys++
		}
		entryOf[i] = firsts[j] - 1
	}
	idx.presize(keys)
	for i := 0; i < n; i++ {
		if f := entryOf[i]; f < int32(i) {
			entryOf[i] = entryOf[f] // the first row was numbered already
			continue
		}
		scratch = idx.project(rel, i, scratch[:0])
		h := hashRow(scratch)
		entryOf[i] = int32(len(idx.entries))
		idx.entries = append(idx.entries, idxEntry{hash: h})
		idx.place(entryOf[i], h)
	}
	// Counting sort: at[e] starts one past entry e's postings; filling
	// backwards in row order leaves it at their first slab offset.
	slab := make([]int32, n)
	at := make([]int32, keys)
	for _, e := range entryOf {
		at[e]++
	}
	for e := 1; e < keys; e++ {
		at[e] += at[e-1]
	}
	for i := n - 1; i >= 0; i-- {
		e := entryOf[i]
		at[e]--
		slab[at[e]] = int32(i)
	}
	for e := range idx.entries {
		hi := int32(n)
		if e+1 < keys {
			hi = at[e+1]
		}
		idx.entries[e].rows = slab[at[e]:hi:hi]
	}
	return scratch
}

// regrowFirsts returns build's pass-1 table of first rows at twice its
// size (16 at least), with every row re-placed from its key's hash.
func (idx *relIndex) regrowFirsts(rel *Relation, old []int32, scratch Row) ([]int32, Row) {
	t := make([]int32, max(16, 2*len(old)))
	mask := uint64(len(t) - 1)
	for _, s := range old {
		if s == 0 {
			continue
		}
		scratch = idx.project(rel, int(s-1), scratch[:0])
		j := hashRow(scratch) & mask
		for t[j] != 0 {
			j = (j + 1) & mask
		}
		t[j] = s
	}
	return t, scratch
}

// presize allocates the table and entry slab for n entries: the entries
// exactly, and the table at the size incremental adds reach after n
// entries, so placing n entries in order yields an add-grown layout.
func (idx *relIndex) presize(n int) {
	if n == 0 {
		return
	}
	size := 16
	for 4*n > 3*size {
		size *= 2
	}
	idx.table = make([]int32, size)
	idx.entries = make([]idxEntry, 0, n)
}

func (idx *relIndex) place(entry int32, h uint64) {
	mask := uint64(len(idx.table) - 1)
	i := h & mask
	for idx.table[i] != 0 {
		i = (i + 1) & mask
	}
	idx.table[i] = entry + 1
}

func (idx *relIndex) grow() {
	size := 2 * len(idx.table)
	if size < 16 {
		size = 16
	}
	idx.table = make([]int32, size)
	for e := range idx.entries {
		idx.place(int32(e), idx.entries[e].hash)
	}
}

// remap rewrites the index after an order-preserving compaction of its
// relation: each posting list is filtered and renumbered through newID
// (old row ID → new row ID, -1 = deleted; identity below first) —
// order preservation keeps the lists ascending, and ascending order
// means postings below first need no visit at all — entries whose
// lists empty out are dropped, and only then is the table re-placed
// from the entries' stored key hashes. No row is projected or rehashed.
func (idx *relIndex) remap(newID []int32, first int) {
	emptied := 0
	for ei := range idx.entries {
		e := &idx.entries[ei]
		rows := e.rows
		a := sort.Search(len(rows), func(i int) bool { return int(rows[i]) >= first })
		if a == len(rows) {
			continue
		}
		w := a
		for _, rid := range rows[a:] {
			if nid := newID[rid]; nid >= 0 {
				rows[w] = nid
				w++
			}
		}
		e.rows = rows[:w]
		if w == 0 {
			emptied++
		}
	}
	if emptied == 0 {
		// Every key survived: entry indices are unchanged, so the table
		// is already correct.
		return
	}
	live := idx.entries[:0]
	for ei := range idx.entries {
		if len(idx.entries[ei].rows) > 0 {
			live = append(live, idx.entries[ei])
		}
	}
	idx.entries = live
	for i := range idx.table {
		idx.table[i] = 0
	}
	for ei := range idx.entries {
		idx.place(int32(ei), idx.entries[ei].hash)
	}
}

// window narrows an ascending posting list to row IDs in [lo, hi).
func window(rows []int32, lo, hi int) []int32 {
	if lo <= 0 && (len(rows) == 0 || int(rows[len(rows)-1]) < hi) {
		return rows
	}
	a := sort.Search(len(rows), func(i int) bool { return int(rows[i]) >= lo })
	b := sort.Search(len(rows), func(i int) bool { return int(rows[i]) >= hi })
	return rows[a:b]
}
