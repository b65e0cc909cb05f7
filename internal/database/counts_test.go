package database

import "testing"

func TestCountsColumn(t *testing.T) {
	r := NewRelation(2)
	r.Add(Tuple{"a", "b"})
	if r.CountsEnabled() {
		t.Fatal("counts enabled before EnableCounts")
	}
	r.EnableCounts()
	if !r.CountsEnabled() {
		t.Fatal("counts not enabled after EnableCounts")
	}
	if got := r.CountAt(0); got != 0 {
		t.Fatalf("backfilled count = %d, want 0", got)
	}
	r.Add(Tuple{"b", "c"})
	if got := r.CountAt(1); got != 0 {
		t.Fatalf("new row count = %d, want 0", got)
	}
	if got := r.AddCountAt(1, 3); got != 3 {
		t.Fatalf("AddCountAt = %d, want 3", got)
	}
	if got := r.AddCountAt(1, -2); got != 1 {
		t.Fatalf("AddCountAt = %d, want 1", got)
	}
	cl := r.Clone()
	if !cl.CountsEnabled() || cl.CountAt(1) != 1 {
		t.Fatal("Clone did not copy counts")
	}
	cl.AddCountAt(1, 5)
	if r.CountAt(1) != 1 {
		t.Fatal("Clone shares count storage with original")
	}
}

func TestRowID(t *testing.T) {
	r := NewRelation(2)
	r.Add(Tuple{"a", "b"})
	r.Add(Tuple{"b", "c"})
	row := AppendInterned(nil, Tuple{"b", "c"})
	if got := r.RowID(row); got != 1 {
		t.Fatalf("RowID = %d, want 1", got)
	}
	row = AppendInterned(row[:0], Tuple{"c", "d"})
	if got := r.RowID(row); got != -1 {
		t.Fatalf("RowID of absent row = %d, want -1", got)
	}
	if got := r.RowID(Row{1}); got != -1 {
		t.Fatalf("RowID of wrong-arity row = %d, want -1", got)
	}
}

func TestDeleteRows(t *testing.T) {
	r := NewRelation(2)
	tuples := []Tuple{{"a", "b"}, {"b", "c"}, {"c", "d"}, {"d", "e"}, {"e", "f"}}
	for _, tp := range tuples {
		r.Add(tp)
	}
	r.EnableCounts()
	for i := 0; i < r.Len(); i++ {
		r.AddCountAt(i, int32(i+1))
	}
	r.EnsureIndex(1 << 0) // index on column 0
	r.Tuples()            // materialize the string cache

	// A repeated ID is deleted once. The slab is small enough that the
	// deletion compacts at once, renumbering the survivors.
	removed := r.DeleteRowsMarked([]int32{1, 3, 1})
	if removed != 2 {
		t.Fatalf("removed = %d, want 2", removed)
	}
	if r.Len() != 3 {
		t.Fatalf("Len = %d, want 3", r.Len())
	}
	want := []Tuple{{"a", "b"}, {"c", "d"}, {"e", "f"}}
	wantCounts := []int32{1, 3, 5}
	for i, tp := range want {
		if !r.RowAt(i).Tuple().Equal(tp) {
			t.Fatalf("row %d = %v, want %v", i, r.RowAt(i).Tuple(), tp)
		}
		if r.CountAt(i) != wantCounts[i] {
			t.Fatalf("count %d = %d, want %d", i, r.CountAt(i), wantCounts[i])
		}
	}
	// Dedup set rebuilt: deleted rows are gone, survivors found at new IDs.
	if r.Contains(Tuple{"b", "c"}) || r.Contains(Tuple{"d", "e"}) {
		t.Fatal("deleted row still in dedup set")
	}
	if got := r.RowID(AppendInterned(nil, Tuple{"e", "f"})); got != 2 {
		t.Fatalf("survivor RowID = %d, want 2", got)
	}
	// Re-inserting a deleted tuple must succeed and land at the end.
	if !r.Add(Tuple{"b", "c"}) {
		t.Fatal("re-insert of deleted tuple reported not-new")
	}
	if got := r.RowID(AppendInterned(nil, Tuple{"b", "c"})); got != 3 {
		t.Fatalf("re-inserted RowID = %d, want 3", got)
	}
	// Index rebuilt over survivors: probe by first column.
	key := AppendInterned(nil, Tuple{"c"})
	rows, ok := r.Probe(1<<0, key, 0, r.Len())
	if !ok || len(rows) != 1 || rows[0] != 1 {
		t.Fatalf("Probe after delete = %v ok=%v, want [1]", rows, ok)
	}
	key = AppendInterned(key[:0], Tuple{"d"})
	rows, _ = r.Probe(1<<0, key, 0, r.Len())
	if len(rows) != 0 {
		t.Fatalf("Probe for deleted key = %v, want empty", rows)
	}
	// String cache dropped and rebuilt consistently.
	ts := r.Tuples()
	if len(ts) != 4 || !ts[0].Equal(Tuple{"a", "b"}) || !ts[3].Equal(Tuple{"b", "c"}) {
		t.Fatalf("Tuples after delete = %v", ts)
	}
}

func TestDeleteRowsNoop(t *testing.T) {
	r := NewRelation(1)
	r.Add(Tuple{"a"})
	r.Add(Tuple{"b"})
	if removed := r.DeleteRowsMarked(nil); removed != 0 {
		t.Fatalf("removed = %d, want 0", removed)
	}
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2", r.Len())
	}
}
