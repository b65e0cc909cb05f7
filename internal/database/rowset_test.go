package database

import (
	"testing"
)

// White-box tests of rowSet.remove, the dedup set's single-entry
// backward-shift deletion, aimed at probe clusters that wrap the end of
// the table: the classic linear-probe deletion hazard is a survivor
// stranded behind a cleared hole, and wrap-around plus a sequence of
// deletions (an earlier deletion's shift moving an entry that a later
// one must find and shift again) is where a bug would hide. Each row's
// value is chosen so that its hash lands on a given home slot, so the
// cluster geometry is chosen, not hoped for. The test names are kept
// from the remap-repair tests these replace, which covered the same
// geometries.

// wrapRel builds a 1-column relation whose row i holds a distinct value
// whose hash has home slot homes[i] in the dedup set's 16-slot table.
// Values are raw IDs, never interned.
func wrapRel(t *testing.T, homes []uint64) *Relation {
	t.Helper()
	rel := NewRelation(1)
	v := uint32(1 << 24)
	for _, home := range homes {
		for hashRow(Row{v})&15 != home {
			v++
		}
		rel.AddRow(Row{v})
		v++
	}
	if len(rel.set.table) != 16 {
		t.Fatalf("dedup table has %d slots, want 16", len(rel.set.table))
	}
	return rel
}

// deleteAndCheck removes the rows of order from the dedup set, one at a
// time in that order, and verifies every survivor is still reachable
// by probing from its home, every deleted row is gone, and the table
// holds each survivor exactly once.
func deleteAndCheck(t *testing.T, homes []uint64, order []int) {
	t.Helper()
	rel := wrapRel(t, homes)
	dead := make(map[int]bool)
	for _, i := range order {
		rel.set.remove(rel, int32(i))
		dead[i] = true
	}
	if want := len(homes) - len(dead); rel.set.n != want {
		t.Fatalf("homes %v order %v: set size %d, want %d", homes, order, rel.set.n, want)
	}
	seen := make(map[int32]bool)
	for _, slot := range rel.set.table {
		if slot == 0 {
			continue
		}
		id := slot - 1
		if dead[int(id)] || int(id) >= len(homes) {
			t.Fatalf("homes %v order %v: table holds dead or out-of-range id %d", homes, order, id)
		}
		if seen[id] {
			t.Fatalf("homes %v order %v: id %d appears twice in the table", homes, order, id)
		}
		seen[id] = true
	}
	for i := range homes {
		got := rel.set.lookup(rel, rel.RowAt(i), rel.hashAt(i))
		if dead[i] {
			if got >= 0 {
				t.Errorf("homes %v order %v: deleted row %d still found as id %d", homes, order, i, got)
			}
		} else if got != int32(i) {
			t.Errorf("homes %v order %v: survivor %d stranded: lookup = %d (probe chain broken at a hole)",
				homes, order, i, got)
		}
	}
}

// TestRowSetRemapWrapAround pins hand-built wrap-around geometries: a
// cluster spanning the 15→0 boundary with holes on both sides of the
// wrap, deletions out of slot order, and chains where one deletion's
// shift moves an entry into the slot a later deletion empties.
func TestRowSetRemapWrapAround(t *testing.T) {
	cases := []struct {
		name  string
		homes []uint64
		dead  []int
	}{
		// One cluster wrapping 14..3; kill the two rows sitting exactly on
		// the wrap boundary slots 15 and 0.
		{"boundary-pair", []uint64{14, 14, 14, 14, 14, 14}, []int{1, 2}},
		// Same cluster; holes at slots 15 and 1 — the survivor between the
		// holes (slot 0) and those after both must all re-home.
		{"straddling-holes", []uint64{14, 14, 14, 14, 14, 14}, []int{1, 3}},
		// Deletions in row-ID order but reversed slot order: row 1 sits
		// at slot 0 (pre-wrap home 15), row 5 at slot 4.
		{"reverse-slot-order", []uint64{15, 15, 15, 0, 1, 15}, []int{1, 5}},
		// Mixed homes so the first deletion's shift moves the entry the
		// second deletion removes.
		{"refill-pending-hole", []uint64{15, 15, 15, 0, 1, 15, 2, 3}, []int{0, 4}},
		// Deleting the whole pre-wrap half strands the post-wrap half
		// unless every one shifts back across the boundary.
		{"halve-at-wrap", []uint64{13, 13, 13, 13, 13, 13, 13}, []int{0, 1, 2}},
		// A second cluster entirely below the wrap must be untouched by
		// shifts in the wrapping cluster.
		{"two-clusters", []uint64{14, 14, 14, 14, 6, 6, 6}, []int{1, 2}},
		// Three clusters that merge into one long run (homes 3, 6, 9):
		// each deletion shifts entries of the others' clusters.
		{"refilled-hole-cluster", []uint64{3, 9, 6, 3, 3, 3, 3, 6}, []int{0, 1, 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			deleteAndCheck(t, tc.homes, tc.dead)
			deleteAndCheck(t, tc.homes, reversed(tc.dead))
		})
	}
}

// TestRowSetRemapExhaustive sweeps every nonempty deletion subset of
// every pattern — 2^n - 1 subsets each, deleted in ascending and in
// descending row order — over cluster geometries chosen to maximize
// wrap-around interaction. Any backward-shift bug that depends on
// deletion order, hole adjacency, or the wrap boundary shows up here
// with the exact homes/order pair in the failure message.
func TestRowSetRemapExhaustive(t *testing.T) {
	patterns := [][]uint64{
		{14, 14, 14, 14, 14, 14, 14, 14},     // one cluster wrapping 14..5
		{12, 13, 14, 15, 15, 14, 13, 12},     // nested homes around the wrap
		{15, 0, 15, 0, 15, 0, 15, 0},         // interleaved homes across the boundary
		{15, 15, 0, 0, 1, 1, 14, 14},         // wrap cluster built back-to-front
		{10, 14, 14, 2, 15, 15, 6, 1},        // two clusters, one wrapping
		{13, 13, 15, 15, 1, 1, 3, 3},         // chained mini-clusters over the wrap
		{15, 15, 15, 15, 15, 15, 15, 15, 15}, // nine rows from one home: max cluster
	}
	for _, homes := range patterns {
		n := len(homes)
		for bits := 1; bits < 1<<n; bits++ {
			var order []int
			for i := 0; i < n; i++ {
				if bits&(1<<i) != 0 {
					order = append(order, i)
				}
			}
			deleteAndCheck(t, homes, order)
			deleteAndCheck(t, homes, reversed(order))
		}
	}
}

func reversed(order []int) []int {
	out := make([]int, len(order))
	for i, v := range order {
		out[len(order)-1-i] = v
	}
	return out
}
