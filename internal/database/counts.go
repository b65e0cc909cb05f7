package database

// Support counts and row deletion: the storage-side substrate of
// counting-based incremental view maintenance (internal/ivm).
//
// A relation may carry an optional derivation-count column aligned with
// its row slab: counts[i] is the number of supports of row i — one per
// rule-body match deriving the row, plus one if the fact is externally
// asserted. The column is maintained by the maintenance layer, not by
// the relation itself: AddRow merely keeps the column aligned (new rows
// start at zero), so evaluation paths that never enable counts pay one
// nil check per insert and nothing else.
//
// DeleteRowsMarked is the retraction-side primitive, and the only way a
// row leaves a relation. It costs O(rows deleted): each row is marked
// in a tombstone bitmap and removed from the dedup set, while its slab
// values, count and index postings stay where they are, so no other
// row is renumbered. Readers skip tombstones (Dead). Once tombstones
// pass a fixed share of the slab, the relation compacts: survivors
// close ranks in order, and the dedup set and every index are rebuilt
// over them. The trigger reads only the relation's own state, so
// replaying the same operations compacts at the same points.
// Maintenance calls DeleteRowsMarked once per touched relation at the
// end of an update, after the deletion cascade has been enumerated, so
// compaction never renumbers rows mid-cascade.

// EnableCounts attaches the derivation-count column, with every
// existing row at zero. It is idempotent.
func (r *Relation) EnableCounts() {
	if r.counts == nil {
		r.counts = make([]int32, r.n)
	}
}

// CountsEnabled reports whether the relation carries a count column.
func (r *Relation) CountsEnabled() bool { return r.counts != nil }

// CountAt returns row i's support count. The column must be enabled.
func (r *Relation) CountAt(i int) int32 { return r.counts[i] }

// AddCountAt adds d (which may be negative) to row i's support count
// and returns the new value. The column must be enabled. Single-writer:
// call only from a write phase.
func (r *Relation) AddCountAt(i int, d int32) int32 {
	r.counts[i] += d
	return r.counts[i]
}

// RowID returns the slab row ID holding row, or -1 if the relation does
// not contain it. It is a pure read, safe during a read phase.
func (r *Relation) RowID(row Row) int32 {
	if len(row) != r.arity {
		return -1
	}
	return r.set.lookup(r, row, hashRow(row))
}

// compactShare and compactSmall fix when DeleteRowsMarked compacts:
// once more than 1/compactShare of the slab is dead, so compaction
// costs amortized O(1) per deleted row, or whenever the slab holds at
// most compactSmall rows, where compacting costs no more than a
// handful of tombstone checks and small relations stay tombstone-free.
const (
	compactShare = 8
	compactSmall = 64
)

// DeleteRowsMarked marks the listed rows dead and returns how many it
// removed; IDs already dead are skipped, so the list may repeat a row.
// Every ID must be below Len. A dead row leaves the dedup set at once
// (RowID and Contains stop finding it, and re-adding the fact appends a
// new row) but keeps its slab slot and index postings, which readers
// skip through Dead. Row IDs therefore stay stable — unless the deletion
// trips compaction (see compactShare), which renumbers the survivors in
// order; callers must not hold row IDs across a call. Single-writer:
// call only from a write phase.
func (r *Relation) DeleteRowsMarked(ids []int32) int {
	r.writing.Store(true)
	defer r.writing.Store(false)
	removed := 0
	for _, id := range ids {
		if r.Dead(int(id)) {
			continue
		}
		if int(id>>6) >= len(r.dead) {
			r.growDead()
		}
		r.dead[id>>6] |= 1 << (uint(id) & 63)
		r.ndead++
		r.set.remove(r, id)
		removed++
	}
	if removed == 0 {
		return 0
	}
	r.strs, r.strsN = nil, 0
	if compactShare*r.ndead > r.n || r.n <= compactSmall {
		r.compact(true)
	}
	return removed
}

// growDead extends the tombstone bitmap over the slab's capacity, so it
// reallocates only as often as the slab itself does.
func (r *Relation) growDead() {
	n := r.n
	if r.arity > 0 {
		n = cap(r.cols[0])
	}
	d := make([]uint64, (n+63)>>6)
	copy(d, r.dead)
	r.dead = d
}

// compact drops every dead row: survivors close ranks in slab order
// (with their counts) in freshly allocated slabs, and the dedup set and
// every index are rebuilt over them by the same full-scan builds a
// fresh relation uses. With spare, the slabs and posting lists keep
// room for the growth the next compaction allows (see spareRoom), so
// appends between two compactions rarely reallocate them. The old
// slabs are only read, so a clone may share them. The caller holds the
// write phase.
func (r *Relation) compact(spare bool) {
	if r.ndead == 0 {
		return
	}
	w := r.LiveLen()
	room := 0
	if spare {
		room = spareRoom(w)
	}
	cols := make([][]uint32, len(r.cols))
	for c := range cols {
		cols[c] = make([]uint32, 0, w+room)
	}
	var counts []int32
	if r.counts != nil {
		counts = make([]int32, 0, w+room)
	}
	// Copy runs of consecutive survivors: deletions are typically
	// sparse, so bulk copies beat a per-element shuffle.
	for i := 0; i < r.n; {
		for i < r.n && r.Dead(i) {
			i++
		}
		j := i
		for j < r.n && !r.Dead(j) {
			j++
		}
		for c := range cols {
			cols[c] = append(cols[c], r.cols[c][i:j]...)
		}
		if counts != nil {
			counts = append(counts, r.counts[i:j]...)
		}
		i = j
	}
	r.cols, r.counts, r.n = cols, counts, w
	r.dead, r.ndead = nil, 0
	r.strs, r.strsN = nil, 0
	r.set.rebuild(r, w, tableSize(w))
	for mask, idx := range r.indexes {
		fresh := &relIndex{cols: idx.cols}
		r.scratch = fresh.build(r, r.scratch, spare)
		r.indexes[mask] = fresh
		r.stats.IndexBuilds++
	}
}

// spareRoom is the growth room a compacted structure of n items keeps:
// a slab right after compaction may gain n/(compactShare-1) tombstones
// before the next one.
func spareRoom(n int) int { return n / (compactShare - 1) }
