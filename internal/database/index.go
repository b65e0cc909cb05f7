package database

import "sort"

// This file holds the two hash structures that keep the storage engine
// free of per-tuple string keys: rowSet, the dedup set over a
// relation's slab, and relIndex, a persistent hash index of a relation
// on a column subset. Both are open-addressing tables that store row
// IDs and compare probe rows against the slab directly, so neither
// insertion nor lookup materializes a key object.

// rowSet is the relation's dedup set: a linear-probe table of the IDs
// of its live rows. It stores no hashes: lookups compare probe rows
// against the slab, and growing, rebuilding and deleting rehash rows
// from the slab.
type rowSet struct {
	table []int32 // rowID + 1; 0 = empty
	n     int
}

// lookup returns the live row ID holding r, or -1.
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
		if rel.rowEqual(int(slot-1), r) {
			return slot - 1
		}
	}
}

// insert records that row ID id, the last row of the slab, hashes to
// h. The caller has checked the row is absent.
func (s *rowSet) insert(rel *Relation, id int32, h uint64) {
	if 4*(s.n+1) > 3*len(s.table) {
		s.rebuild(rel, int(id), max(16, 2*len(s.table)))
	}
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

// rebuild re-places the live rows below upto into a fresh table of the
// given size, hashing each from the slab.
func (s *rowSet) rebuild(rel *Relation, upto, size int) {
	s.table = make([]int32, size)
	s.n = 0
	for id := 0; id < upto; id++ {
		if !rel.Dead(id) {
			s.place(int32(id), rel.hashAt(id))
			s.n++
		}
	}
}

// remove deletes live row id from the set by backward-shift deletion:
// after the hole opens, each later entry of its probe cluster whose
// home slot does not lie cyclically after the hole moves back into it,
// so no lookup is ever stranded behind an empty slot. The cost is the
// length of one cluster, never the table.
func (s *rowSet) remove(rel *Relation, id int32) {
	mask := len(s.table) - 1
	i := int(rel.hashAt(int(id))) & mask
	for s.table[i] != id+1 {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; s.table[j] != 0; j = (j + 1) & mask {
		home := int(rel.hashAt(int(s.table[j]-1))) & mask
		// The entry at j may fill the hole at i iff i lies on its probe
		// path [home, j].
		if (j-home)&mask >= (j-i)&mask {
			s.table[i] = s.table[j]
			i = j
		}
	}
	s.table[i] = 0
	s.n--
}

// tableSize returns the table size incremental inserts reach after n
// entries: the smallest power of two, at least 16, holding n at 3/4
// load.
func tableSize(n int) int {
	size := 16
	for 4*n > 3*size {
		size *= 2
	}
	return size
}

// relIndex is a persistent hash index of a relation on the column set
// cols: projection key → ascending row IDs. It is built once by a full
// scan and thereafter maintained incrementally — every AddRow appends
// the new row ID to its posting list, so fixpoint rounds never rebuild.
// Deletion leaves the postings alone: a deleted row's ID stays in its
// list, and readers skip it through the relation's tombstone bitmap,
// until compaction rebuilds the index over the survivors.
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
// entries are allocated and placed in first-occurrence order into a
// table of the size incremental adds would have grown, which yields the
// very entry order and table layout of an index grown row by row. Pass
// 2 counting-sorts the row IDs by entry into one slab and carves each
// posting list from it: postings stay ascending, and each list's
// capacity ends where its neighbour's begins, so a later append
// reallocates only that key's list instead of writing into its
// neighbour's. Without spare each list's capacity is its length; with
// spare (compaction), every list keeps room for the growth the next
// compaction allows.
func (idx *relIndex) build(rel *Relation, scratch Row, spare bool) Row {
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
	// Room is spareRoom, plus one slot per list so that short lists,
	// which spareRoom rounds down to nothing, can take an append too.
	room := func(int) int { return 0 }
	if spare {
		room = func(c int) int { return spareRoom(c) + 1 }
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
	// Counting sort: entry e's postings fill slab[at[e]:] in row order,
	// followed by its room; at[e] ends one past its postings.
	count := make([]int32, keys)
	for _, e := range entryOf {
		count[e]++
	}
	at := make([]int32, keys)
	total := 0
	for e, c := range count {
		at[e] = int32(total)
		total += int(c) + room(int(c))
	}
	slab := make([]int32, total)
	for i, e := range entryOf {
		slab[at[e]] = int32(i)
		at[e]++
	}
	for e := range idx.entries {
		end := int(at[e])
		idx.entries[e].rows = slab[end-int(count[e]) : end : end+room(int(count[e]))]
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
	idx.table = make([]int32, tableSize(n))
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

// window narrows an ascending posting list to row IDs in [lo, hi).
func window(rows []int32, lo, hi int) []int32 {
	if lo <= 0 && (len(rows) == 0 || int(rows[len(rows)-1]) < hi) {
		return rows
	}
	a := sort.Search(len(rows), func(i int) bool { return int(rows[i]) >= lo })
	b := sort.Search(len(rows), func(i int) bool { return int(rows[i]) >= hi })
	return rows[a:b]
}
