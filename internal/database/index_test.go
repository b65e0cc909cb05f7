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

					dead := make([]uint8, built.Len())
					for i := range dead {
						if g.rng.Intn(4) == 0 {
							dead[i] = 1
						}
					}
					built.DeleteRowsMarked(dead, 1)
					grown.DeleteRowsMarked(dead, 1)
					sameIndexes(t, built, grown, masks)
					probesMatchScan(t, built, masks, absent)
				}
			})
		}
	}
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
