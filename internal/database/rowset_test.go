package database

import (
	"testing"
)

// White-box tests of rowSet.remap's probe-chain repair, aimed at probe
// clusters that wrap the end of the table: the classic linear-probe
// deletion hazard is a survivor stranded behind a cleared hole, and
// wrap-around plus multiple interacting holes (an earlier hole's repair
// re-homing an entry into a later hole) is where a repair bug would
// hide. Synthetic hashes pin each row's home slot exactly, so the
// cluster geometry is chosen, not hoped for.

// wrapRel builds a 1-column relation whose slab holds value i at row i
// (every row distinct), plus a 16-slot rowSet where row i's hash places
// it at home homes[i]; high bits keep the hashes distinct per row.
func wrapRel(homes []uint64) (*Relation, *rowSet) {
	vals := make([]uint32, len(homes))
	for i := range vals {
		vals[i] = uint32(i + 1)
	}
	rel := &Relation{arity: 1, n: len(homes), cols: [][]uint32{vals}}
	s := &rowSet{table: make([]int32, 16)}
	for i, home := range homes {
		h := home&15 | uint64(i+1)<<8
		s.hashes = append(s.hashes, h)
		s.place(int32(i), h)
		s.n++
	}
	return rel, s
}

// deleteAndCheck compacts the slab and set exactly as DeleteRowsMarked would
// (newID prefix-sum map, then remap) and verifies every survivor is
// still reachable by probing from its home and every deleted row is
// gone. It returns false (after t.Error) on any stranded survivor.
func deleteAndCheck(t *testing.T, homes []uint64, dead map[int]bool) {
	t.Helper()
	rel, s := wrapRel(homes)
	oldHashes := append([]uint64(nil), s.hashes...)
	oldVals := append([]uint32(nil), rel.cols[0]...)
	oldN := rel.n

	first := -1
	for i := 0; i < oldN; i++ {
		if dead[i] {
			first = i
			break
		}
	}
	if first < 0 {
		t.Fatalf("no deletions in scenario %v / %v", homes, dead)
	}
	newID := make([]int32, oldN)
	w := 0
	for i := 0; i < oldN; i++ {
		if dead[i] {
			newID[i] = -1
			continue
		}
		newID[i] = int32(w)
		if w != i {
			rel.cols[0][w] = rel.cols[0][i]
		}
		w++
	}
	rel.cols[0] = rel.cols[0][:w]
	rel.n = w
	s.remap(newID, first, oldN, w)

	if s.n != w {
		t.Fatalf("homes %v dead %v: set size %d, want %d", homes, dead, s.n, w)
	}
	seen := make(map[int32]bool)
	for _, slot := range s.table {
		if slot == 0 {
			continue
		}
		id := slot - 1
		if id < 0 || int(id) >= w {
			t.Fatalf("homes %v dead %v: table holds dead or out-of-range id %d", homes, dead, id)
		}
		if seen[id] {
			t.Fatalf("homes %v dead %v: id %d appears twice in the table", homes, dead, id)
		}
		seen[id] = true
	}
	for i := 0; i < oldN; i++ {
		got := s.lookup(rel, Row{oldVals[i]}, oldHashes[i])
		if dead[i] {
			if got >= 0 {
				t.Errorf("homes %v dead %v: deleted row %d still found as id %d", homes, dead, i, got)
			}
		} else if got != newID[i] {
			t.Errorf("homes %v dead %v: survivor %d stranded: lookup = %d, want %d (probe chain broken at a hole)",
				homes, dead, i, got, newID[i])
		}
	}
}

// TestRowSetRemapWrapAround pins hand-built wrap-around geometries: a
// cluster spanning the 15→0 boundary with holes on both sides of the
// wrap, holes repaired out of probe order (the holes slice follows row
// ID order, not slot order), and a chain where one hole's repair lands
// an entry in another pending hole.
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
		// Holes repaired in row-ID order but reversed slot order: row 1
		// sits at slot 0 (pre-wrap home 15), row 5 at slot 4.
		{"reverse-slot-order", []uint64{15, 15, 15, 0, 1, 15}, []int{1, 5}},
		// Mixed homes so re-homing an entry can fall into the other hole
		// while both are open.
		{"refill-pending-hole", []uint64{15, 15, 15, 0, 1, 15, 2, 3}, []int{0, 4}},
		// Deleting the whole pre-wrap half strands the post-wrap half
		// unless every one re-homes across the boundary.
		{"halve-at-wrap", []uint64{13, 13, 13, 13, 13, 13, 13}, []int{0, 1, 2}},
		// A second cluster entirely below the wrap must be untouched by
		// repairs in the wrapping cluster.
		{"two-clusters", []uint64{14, 14, 14, 14, 6, 6, 6}, []int{1, 2}},
		// Holes at slots 3, 9 and 6, repaired in that order: hole 3's walk
		// stops at the still-empty hole 6 and leaves slot 5 empty, hole 9's
		// walk then refills hole 6, so the cluster after hole 6 (rows 5
		// and 6) must be re-homed even though the hole is no longer empty.
		{"refilled-hole-cluster", []uint64{3, 9, 6, 3, 3, 3, 3, 6}, []int{0, 1, 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dead := make(map[int]bool)
			for _, i := range tc.dead {
				dead[i] = true
			}
			deleteAndCheck(t, tc.homes, dead)
		})
	}
}

// TestRowSetRemapExhaustive sweeps every nonempty deletion subset of
// every pattern — 2^n - 1 subsets each — over cluster geometries chosen
// to maximize wrap-around interaction. Any probe-chain repair bug that
// depends on hole order, hole adjacency, or the wrap boundary shows up
// here with the exact homes/dead pair in the failure message.
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
			dead := make(map[int]bool)
			for i := 0; i < n; i++ {
				if bits&(1<<i) != 0 {
					dead[i] = true
				}
			}
			deleteAndCheck(t, homes, dead)
		}
	}
}
