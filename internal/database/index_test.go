package database

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// Differential tests of the two-pass index build: an index built by a
// full scan over a loaded relation must be indistinguishable from one
// grown row by row through incremental add, and must stay correct as
// rows are appended and deleted afterwards. The latter pins the
// exact-capacity carve of the build's shared posting slab: an append to
// one key's list must never write into its neighbour's postings.

// indexGen draws rows for one test relation. In the heavy regime column
// 0 takes 3 values and column 1 takes 2, so a key on those columns
// holds ~1000 of 3000 rows; the remaining columns (and every column in
// the unique regime) are distinct per row. Values are raw IDs, never
// interned: the symbol table is process-wide, and growing it would slow
// every snapshot test that encodes it.
type indexGen struct {
	rng   *rand.Rand
	arity int
	heavy bool
	next  uint32
}

func (g *indexGen) row() Row {
	row := make(Row, g.arity)
	for c := range row {
		switch {
		case g.heavy && c == 0:
			row[c] = uint32(g.rng.Intn(3))
		case g.heavy && c == 1:
			row[c] = uint32(g.rng.Intn(2))
		default:
			g.next++
			row[c] = 1<<20 + g.next
		}
	}
	return row
}

// allMasks returns every nonzero column mask of the given arity.
func allMasks(arity int) []uint64 {
	var out []uint64
	for m := uint64(1); m < 1<<uint(arity); m++ {
		out = append(out, m)
	}
	return out
}

// sameIndexes fails unless every index of a and b agrees in entry
// order, key hashes, postings, table layout and IndexCard.
func sameIndexes(t *testing.T, a, b *Relation, masks []uint64) {
	t.Helper()
	for _, m := range masks {
		x, y := a.indexes[m], b.indexes[m]
		if len(x.entries) != len(y.entries) {
			t.Fatalf("mask %b: %d entries vs %d", m, len(x.entries), len(y.entries))
		}
		for e := range x.entries {
			if x.entries[e].hash != y.entries[e].hash || !reflect.DeepEqual(x.entries[e].rows, y.entries[e].rows) {
				t.Fatalf("mask %b entry %d: %v vs %v", m, e, x.entries[e].rows, y.entries[e].rows)
			}
		}
		if !reflect.DeepEqual(x.table, y.table) {
			t.Fatalf("mask %b: table layouts differ", m)
		}
		ca, _ := a.IndexCard(m)
		cb, _ := b.IndexCard(m)
		if ca != cb {
			t.Fatalf("mask %b: IndexCard %d vs %d", m, ca, cb)
		}
	}
}

// probesMatchScan fails unless Probe on every mask answers exactly what
// a scan of the slab does, for every present key and one absent key,
// and IndexCard counts the distinct keys.
func probesMatchScan(t *testing.T, r *Relation, masks []uint64, absent uint32) {
	t.Helper()
	for _, m := range masks {
		cols := r.indexes[m].cols
		want := make(map[string][]int32)
		var order []Row
		for i := 0; i < r.Len(); i++ {
			key := make(Row, 0, len(cols))
			for _, c := range cols {
				key = append(key, r.At(i, c))
			}
			k := fmt.Sprint(key)
			if _, ok := want[k]; !ok {
				order = append(order, key)
			}
			want[k] = append(want[k], int32(i))
		}
		for _, key := range order {
			got, ok := r.Probe(m, key, 0, r.Len())
			if !ok || !reflect.DeepEqual(got, want[fmt.Sprint(key)]) {
				t.Fatalf("mask %b key %v: Probe = %v, scan = %v", m, key, got, want[fmt.Sprint(key)])
			}
		}
		miss := make(Row, len(cols))
		for i := range miss {
			miss[i] = absent
		}
		if got, _ := r.Probe(m, miss, 0, r.Len()); len(got) != 0 {
			t.Fatalf("mask %b: absent key matched rows %v", m, got)
		}
		if card, _ := r.IndexCard(m); card != len(want) {
			t.Fatalf("mask %b: IndexCard = %d, want %d", m, card, len(want))
		}
	}
}

func TestIndexBuildMatchesIncremental(t *testing.T) {
	const absent = 1 << 30
	for arity := 1; arity <= 3; arity++ {
		for _, heavy := range []bool{false, true} {
			t.Run(fmt.Sprintf("arity%d/heavy=%v", arity, heavy), func(t *testing.T) {
				g := &indexGen{rng: rand.New(rand.NewSource(int64(arity))), arity: arity, heavy: heavy}
				masks := allMasks(arity)
				built, grown := NewRelation(arity), NewRelation(arity)
				for _, m := range masks {
					grown.EnsureIndex(m)
				}
				for i := 0; i < 3000; i++ {
					row := g.row()
					built.AddRow(row)
					grown.AddRow(row)
				}
				for _, m := range masks {
					built.EnsureIndex(m)
				}
				if b, gr := built.Stats().IndexBuilds, grown.Stats().IndexBuilds; b != gr {
					t.Fatalf("IndexBuilds %d vs %d", b, gr)
				}
				sameIndexes(t, built, grown, masks)
				probesMatchScan(t, built, masks, absent)

				for step := 0; step < 4; step++ {
					// Appends: rows on existing keys (heavy columns, or a
					// copied prefix of a live row) and on fresh keys.
					for i := 0; i < 200; i++ {
						row := g.row()
						if i%2 == 0 && built.Len() > 0 {
							old := built.RowAt(g.rng.Intn(built.Len()))
							copy(row[:arity-1], old[:arity-1])
						}
						built.AddRow(row)
						grown.AddRow(row)
					}
					sameIndexes(t, built, grown, masks)
					probesMatchScan(t, built, masks, absent)

					// Tombstones below the compaction share: postings keep
					// the dead IDs, and an index built by a full scan now
					// must still equal the add-grown one.
					n, ndead := built.Len(), built.Len()-built.LiveLen()
					ids := liveSample(g.rng, built, (n/compactShare-ndead)/2)
					built.DeleteRowsMarked(ids)
					grown.DeleteRowsMarked(ids)
					if n > compactSmall && (built.Len() != n || !built.HasDead()) {
						t.Fatalf("%d deletions of %d rows compacted below the share", len(ids), n)
					}
					sameIndexes(t, built, grown, masks)
					probesMatchScan(t, built, masks, absent)
					liveRowsFound(t, built)
					for _, m := range masks {
						delete(built.indexes, m)
						built.EnsureIndex(m)
					}
					sameIndexes(t, built, grown, masks)

					// Past the share: the deletion compacts, leaving no
					// tombstone and every index rebuilt over the survivors.
					ids = liveSample(g.rng, built, built.LiveLen()/2)
					built.DeleteRowsMarked(ids)
					grown.DeleteRowsMarked(ids)
					if built.HasDead() || built.Len() != built.LiveLen() {
						t.Fatalf("deleting half the rows left %d tombstones", built.Len()-built.LiveLen())
					}
					sameIndexes(t, built, grown, masks)
					probesMatchScan(t, built, masks, absent)
					liveRowsFound(t, built)
				}
			})
		}
	}
}

// liveSample returns k distinct live row IDs of r drawn at random, in
// random order (fewer if r has fewer live rows).
func liveSample(rng *rand.Rand, r *Relation, k int) []int32 {
	var live []int32
	for i := 0; i < r.Len(); i++ {
		if !r.Dead(i) {
			live = append(live, int32(i))
		}
	}
	rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
	return live[:min(k, len(live))]
}

// liveRowsFound fails unless the dedup set finds every live row at its
// own ID and no dead row at all.
func liveRowsFound(t *testing.T, r *Relation) {
	t.Helper()
	for i := 0; i < r.Len(); i++ {
		got := r.RowID(r.RowAt(i))
		if r.Dead(i) && got >= 0 {
			t.Fatalf("dead row %d found as row %d", i, got)
		}
		if !r.Dead(i) && got != int32(i) {
			t.Fatalf("live row %d found as row %d", i, got)
		}
	}
}

// TestCompactionMatchesFreshBuild: a relation compacted by the deletion
// trigger holds, row for row, what a relation freshly built from its
// survivors holds — the same tuples in the same order, counts, row IDs,
// and indexes identical entry for entry and slot for slot.
func TestCompactionMatchesFreshBuild(t *testing.T) {
	g := &indexGen{rng: rand.New(rand.NewSource(7)), arity: 3, heavy: true}
	masks := allMasks(3)
	r := NewRelation(3)
	r.EnableCounts()
	for _, m := range masks {
		r.EnsureIndex(m)
	}
	for i := 0; i < 2000; i++ {
		r.AddRow(g.row())
		r.AddCountAt(i, int32(i))
	}
	// Tombstones first, then the deletion that trips compaction. The
	// expected survivors are read off the slab in between.
	r.DeleteRowsMarked(liveSample(g.rng, r, 2000/compactShare/2))
	if !r.HasDead() {
		t.Fatal("a deletion below the share compacted")
	}
	ids := liveSample(g.rng, r, 2000/compactShare)
	dying := make(map[int32]bool)
	for _, id := range ids {
		dying[id] = true
	}
	want := NewRelation(3)
	want.EnableCounts()
	for i := 0; i < r.Len(); i++ {
		if !r.Dead(i) && !dying[int32(i)] {
			want.AddRow(r.RowAt(i))
			want.AddCountAt(want.Len()-1, r.CountAt(i))
		}
	}
	r.DeleteRowsMarked(ids)
	if r.HasDead() {
		t.Fatal("a deletion past the share left tombstones")
	}
	for _, m := range masks {
		want.EnsureIndex(m)
	}
	if !r.Equal(want) || r.Len() != want.Len() {
		t.Fatalf("compacted relation (%d rows) differs from a fresh build (%d rows)", r.Len(), want.Len())
	}
	for i := 0; i < r.Len(); i++ {
		if !r.RowAt(i).Equal(want.RowAt(i)) || r.CountAt(i) != want.CountAt(i) {
			t.Fatalf("row %d: %v count %d, fresh build %v count %d", i, r.RowAt(i), r.CountAt(i), want.RowAt(i), want.CountAt(i))
		}
	}
	liveRowsFound(t, r)
	sameIndexes(t, r, want, masks)
}

// BenchmarkIndexBuild times one full-scan index build at the size of a
// served transitive closure: 105k two-column rows over 10.5k distinct
// keys on column 0, the shape of a 500-chain forest's tc relation.
func BenchmarkIndexBuild(b *testing.B) {
	const rows, keys = 105000, 10500
	src := NewRelation(2)
	for i := 0; i < rows; i++ {
		src.AddRow(Row{uint32(i % keys), uint32(keys + i)})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		delete(src.indexes, 1<<0)
		src.EnsureIndex(1 << 0)
	}
}
