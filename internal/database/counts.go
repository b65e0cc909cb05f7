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
// DeleteRowsMarked is the retraction-side primitive: an order-preserving
// compaction that removes a marked subset of rows and rebuilds the
// dedup set and every live index. Maintenance defers it to the end of
// an update, after the deletion cascade has been enumerated against the
// still-intact slab.

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

// DeleteRowsMarked removes every row i with marks[i]&mask != 0 (marks
// holds at least r.Len() entries), preserving the insertion order of
// the survivors, and returns how many rows were removed. The count
// column (if enabled) is compacted alongside the slab and the
// materialized string cache is dropped. Because the compaction
// preserves order, the dedup set and every live index are remapped
// rather than rebuilt: content hashes do not change when row IDs
// shift, so survivors are renumbered through a prefix-sum ID map and
// re-placed by their stored hashes — no row is rehashed. Row IDs above
// the first deleted row change; callers must not hold stale IDs across
// a call. Single-writer: call only from a write phase.
func (r *Relation) DeleteRowsMarked(marks []uint8, mask uint8) int {
	first := -1
	for i := 0; i < r.n; i++ {
		if marks[i]&mask != 0 {
			first = i
			break
		}
	}
	if first < 0 {
		return 0
	}
	newID := r.idScratch(first)
	w := first
	for i := first; i < r.n; i++ {
		if marks[i]&mask != 0 {
			newID[i] = -1
			continue
		}
		newID[i] = int32(w)
		w++
	}
	return r.compact(newID, first, w)
}

// idScratch returns the reusable newID buffer, sized r.n, with the
// identity prefix [0, first) filled in.
func (r *Relation) idScratch(first int) []int32 {
	newID := r.newIDBuf
	if cap(newID) < r.n {
		newID = make([]int32, r.n)
		r.newIDBuf = newID
	}
	newID = newID[:r.n]
	for i := 0; i < first; i++ {
		newID[i] = int32(i)
	}
	return newID
}

// compact applies an order-preserving deletion described by newID (old
// row ID → new row ID, -1 = deleted; identity below first; w
// survivors) to the slab, count column, dedup set, and every index.
func (r *Relation) compact(newID []int32, first, w int) int {
	r.writing.Store(true)
	defer r.writing.Store(false)

	// Compact the slab and count column by runs of consecutive
	// survivors: deletions are typically sparse, so bulk copies beat a
	// per-element shuffle. The dedup set compacts its own hash array.
	dst := first
	for i := first; i < r.n; {
		for i < r.n && newID[i] < 0 {
			i++
		}
		j := i
		for j < r.n && newID[j] >= 0 {
			j++
		}
		if j > i {
			for c := range r.cols {
				copy(r.cols[c][dst:], r.cols[c][i:j])
			}
			if r.counts != nil {
				copy(r.counts[dst:], r.counts[i:j])
			}
			dst += j - i
		}
		i = j
	}
	removed := r.n - w
	oldN := r.n
	for c := range r.cols {
		r.cols[c] = r.cols[c][:w]
	}
	if r.counts != nil {
		r.counts = r.counts[:w]
	}
	r.n = w
	r.strs = nil
	r.set.remap(newID, first, oldN, w)

	// Remap every live index. The remap is a reconstruction for
	// planning purposes, so it counts as an index build.
	for _, idx := range r.indexes {
		idx.remap(newID, first)
		r.stats.IndexBuilds++
	}
	return removed
}
