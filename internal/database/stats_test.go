package database

import "testing"

// TestStatsEpochMonotone pins the plan-cache key's invalidation
// signal: the epoch moves exactly on relation creation, power-of-two
// row-count crossings, and index builds — and, while rows are only
// added, never moves backwards.
func TestStatsEpochMonotone(t *testing.T) {
	d := New()
	last := d.StatsEpoch()
	bump := func(what string) {
		t.Helper()
		e := d.StatsEpoch()
		if e <= last {
			t.Errorf("%s: epoch %d, want > %d", what, e, last)
		}
		last = e
	}
	same := func(what string) {
		t.Helper()
		if e := d.StatsEpoch(); e != last {
			t.Errorf("%s: epoch %d, want unchanged %d", what, e, last)
		}
	}
	d.Add("e", Tuple{"a", "b"})
	bump("first relation + first row")
	d.Add("e", Tuple{"a", "c"})
	bump("crossing 2 rows")
	d.Add("e", Tuple{"a", "b"})
	same("duplicate insert")
	d.Add("e", Tuple{"a", "d"})
	same("3 rows (no pow2 crossing)")
	d.Add("e", Tuple{"a", "e"})
	bump("crossing 4 rows")
	d.Lookup("e").EnsureIndex(0b01)
	bump("index build")
	d.Lookup("e").EnsureIndex(0b01)
	same("existing index")
	d.Relation("f", 1)
	bump("new empty relation")
}

// TestStatsEpochFallsOnDelete pins why planners compare epochs only for
// equality: deleting rows across a power of two lowers the epoch, and
// re-adding them restores the earlier value.
func TestStatsEpochFallsOnDelete(t *testing.T) {
	d := New()
	for _, c := range []string{"a", "b", "c", "d"} {
		d.Add("e", Tuple{c})
	}
	four := d.StatsEpoch()
	r := d.Lookup("e")
	if n := r.DeleteRowsMarked([]int32{3}); n != 1 {
		t.Fatalf("deleted %d rows, want 1", n)
	}
	if three := d.StatsEpoch(); three >= four {
		t.Fatalf("epoch after shrinking 4 → 3 rows = %d, want below %d", three, four)
	}
	d.Add("e", Tuple{"d"})
	if e := d.StatsEpoch(); e != four {
		t.Fatalf("epoch after regrowing to 4 rows = %d, want %d again", e, four)
	}
}

// TestIndexCard exposes what the cost model consumes: the number of
// distinct keys in a (relation, mask) index, present only once the
// index exists.
func TestIndexCard(t *testing.T) {
	d := New()
	d.Add("e", Tuple{"a", "x"})
	d.Add("e", Tuple{"a", "y"})
	d.Add("e", Tuple{"b", "x"})
	r := d.Lookup("e")
	if _, ok := r.IndexCard(0b01); ok {
		t.Error("IndexCard reported a cardinality before any index build")
	}
	if r.HasIndex(0b01) {
		t.Error("HasIndex true before any index build")
	}
	r.EnsureIndex(0b01)
	if !r.HasIndex(0b01) {
		t.Error("HasIndex false after build")
	}
	if n, ok := r.IndexCard(0b01); !ok || n != 2 {
		t.Errorf("IndexCard(col 0) = %d, %v; want 2 distinct keys", n, ok)
	}
	// Incremental maintenance keeps the cardinality current.
	d.Add("e", Tuple{"c", "x"})
	if n, _ := r.IndexCard(0b01); n != 3 {
		t.Errorf("IndexCard after append = %d, want 3", n)
	}
}
