package server

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"datalogeq/internal/ast"
	"datalogeq/internal/database"
)

// atomLines is the reference rendering factLines must reproduce byte
// for byte: one ast.Atom.String per live row, with a period, sorted.
func atomLines(rel *database.Relation, pred string) []string {
	var out []string
	for i := 0; i < rel.Len(); i++ {
		if rel.Dead(i) {
			continue
		}
		args := make([]ast.Term, rel.Arity())
		for c := range args {
			args[c] = ast.C(database.Symbol(rel.At(i, c)))
		}
		out = append(out, ast.Atom{Pred: pred, Args: args}.String()+".")
	}
	sort.Strings(out)
	return out
}

func TestFactLinesMatchesAtomString(t *testing.T) {
	consts := []string{"plain", "under_score", "x9", "12", "1a", "", "it's", `back\slash`, `\'`, "Upper", "_u", "with space", "é"}
	rel := database.NewRelation(2)
	for _, a := range consts {
		for _, b := range consts[:4] {
			rel.Add(database.Tuple{a, b})
		}
	}
	unary := database.NewRelation(1)
	for _, a := range consts {
		unary.Add(database.Tuple{a})
	}
	nullary := database.NewRelation(0)
	nullary.Add(database.Tuple{})
	// A relation past the compaction threshold keeps a deleted row as a
	// tombstone, which rendering must skip.
	tomb := database.NewRelation(1)
	for i := 0; i < 100; i++ {
		tomb.Add(database.Tuple{fmt.Sprintf("v%d", i)})
	}
	tomb.DeleteRowsMarked([]int32{7, 40})
	if !tomb.HasDead() {
		t.Fatal("no tombstone; the tombstone case is vacuous")
	}
	for _, tc := range []struct {
		rel  *database.Relation
		pred string
	}{{rel, "p"}, {unary, "q"}, {nullary, "z"}, {tomb, "t"}, {database.NewRelation(2), "empty"}} {
		got, want := factLines(tc.rel, tc.pred), atomLines(tc.rel, tc.pred)
		if len(got) != len(want) {
			t.Fatalf("%s: %d lines, want %d", tc.pred, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s line %d: %q, want %q", tc.pred, i, got[i], want[i])
			}
		}
	}
	// The rendering of the constants that need care, spelled out as the
	// renderer before the append-style form printed them.
	literal := map[string]string{
		"12":          `q(12).`,
		"1a":          `q('1a').`,
		"":            `q('').`,
		"it's":        `q('it\'s').`,
		`back\slash`:  `q('back\\slash').`,
		`\'`:          `q('\\\'').`,
		"Upper":       `q('Upper').`,
		"_u":          `q('_u').`,
		"with space":  `q('with space').`,
		"under_score": `q(under_score).`,
	}
	lines := factLines(unary, "q")
	for c, want := range literal {
		if _, ok := slices.BinarySearch(lines, want); !ok {
			t.Errorf("constant %q: no line %s in %q", c, want, lines)
		}
	}
	if got := factLines(database.NewRelation(1), "empty"); got == nil {
		t.Error("an empty relation renders as nil; want an empty, non-nil list")
	}
	if got := factLines(nil, "missing"); got != nil {
		t.Errorf("a missing relation renders as %q; want nil", got)
	}
}

// TestFactLinesAllocsFlat pins the rendering's allocation count: the
// same at 10 tuples as at 1,000.
func TestFactLinesAllocsFlat(t *testing.T) {
	allocs := func(n int) float64 {
		rel := database.NewRelation(2)
		for i := 0; i < n; i++ {
			rel.Add(database.Tuple{fmt.Sprintf("a%d", i), fmt.Sprintf("B%d", i)})
		}
		return testing.AllocsPerRun(20, func() { factLines(rel, "p") })
	}
	small, large := allocs(10), allocs(1000)
	if small != large {
		t.Fatalf("factLines allocates %v times at 10 tuples and %v at 1,000; want the same", small, large)
	}
	t.Logf("factLines: %v allocations at 10 and at 1,000 tuples", small)
}
