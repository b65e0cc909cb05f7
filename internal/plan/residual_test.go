package plan

import (
	"testing"

	"datalogeq/internal/database"
)

// chainDB builds e = {(n0,n1), (n1,n2), ...} over k edges.
func chainDB(t *testing.T, k int) *database.DB {
	t.Helper()
	db := database.New()
	for i := 0; i < k; i++ {
		db.Add("e", database.Tuple{node(i), node(i + 1)})
	}
	return db
}

func node(i int) string {
	return string(rune('a' + i))
}

// TestResidualPlan: a residual plan for body e(x,y), e(y,z) at delta
// position 0 must contain only the second atom, probe it on the
// pre-bound y slot, and enumerate exactly the matches extending one
// externally bound delta row.
func TestResidualPlan(t *testing.T) {
	db := chainDB(t, 4) // a-b-c-d-e
	atoms := []Atom{atomV("e", 0, 1), atomV("e", 1, 2)}
	rule := &Rule{Body: atoms, NumSlots: 3, HeadSlots: []int{0, 2}}
	var pl Planner
	p, _ := pl.Plan(Request{
		Rule:     rule,
		DeltaPos: 0,
		DB:       db,
		Epoch:    db.StatsEpoch(),
		Residual: true,
	})
	if !p.Residual {
		t.Fatal("plan not marked residual")
	}
	if len(p.Steps) != 1 || p.Steps[0].Atom != 1 {
		t.Fatalf("residual steps = %+v, want exactly atom 1", p.Steps)
	}
	if p.Steps[0].Mask == 0 {
		t.Fatal("residual step must probe on the pre-bound slot, got a scan")
	}
	// Bind the delta row e(b, c): slots x=b, y=c. The residual body
	// e(y,z) should match exactly e(c, d).
	x := &Exec{Env: make([]uint32, 3)}
	x.Env[0] = database.Intern("b")
	x.Env[1] = database.Intern("c")
	var got []string
	x.OnMatch = func() {
		got = append(got, database.Symbol(x.Env[0])+database.Symbol(x.Env[1])+database.Symbol(x.Env[2]))
	}
	x.RunBounded(p, []Window{{0, -1}, {0, -1}})
	if len(got) != 1 || got[0] != "bcd" {
		t.Fatalf("residual matches = %v, want [bcd]", got)
	}
	// The same rule and delta position without Residual must not share
	// the cache slot.
	full, cached := pl.Plan(Request{
		Rule:     rule,
		DeltaPos: 0,
		DB:       db,
		Epoch:    db.StatsEpoch(),
	})
	if cached {
		t.Fatal("non-residual request hit the residual cache entry")
	}
	if len(full.Steps) != 2 {
		t.Fatalf("full plan has %d steps, want 2", len(full.Steps))
	}
}

// TestRunBounded: per-atom windows give the exactly-once semi-naive
// decomposition. For body e(x,y), e(y,z) with all four edges "new"
// (mark 0, frozen 4), position-0 windows [0,4)x[0,4) plus position-1
// windows [0,0)x[0,4) must together enumerate every match exactly once.
func TestRunBounded(t *testing.T) {
	db := chainDB(t, 4)
	atoms := []Atom{atomV("e", 0, 1), atomV("e", 1, 2)}
	var pl Planner
	count := func(deltaPos int, bounds []Window) int {
		p, _ := pl.Plan(Request{
			Rule:     &Rule{Body: atoms, NumSlots: 3, HeadSlots: []int{0, 2}},
			DeltaPos: deltaPos,
			DB:       db,
			Epoch:    db.StatsEpoch(),
		})
		n := 0
		x := &Exec{OnMatch: func() { n++ }}
		x.RunBounded(p, bounds)
		return n
	}
	// Delta at atom 0: atom 0 over [0,4), atom 1 over the full frozen
	// prefix [0,4).
	n0 := count(0, []Window{{0, 4}, {0, 4}})
	// Delta at atom 1: atom 0 over the old prefix [0,0), atom 1 over [0,4).
	n1 := count(1, []Window{{0, 0}, {0, 4}})
	if n0+n1 != 3 {
		t.Fatalf("decomposed match count = %d+%d, want 3 total", n0, n1)
	}
	if n0 != 3 || n1 != 0 {
		t.Fatalf("n0=%d n1=%d, want 3 and 0 (empty old prefix)", n0, n1)
	}
}

// TestSkipRow: the exclusion hook subtracts scattered rows no window
// can express.
func TestSkipRow(t *testing.T) {
	db := chainDB(t, 4)
	atoms := []Atom{atomV("e", 0, 1), atomV("e", 1, 2)}
	var pl Planner
	p, _ := pl.Plan(Request{
		Rule:     &Rule{Body: atoms, NumSlots: 3, HeadSlots: []int{0, 2}},
		DeltaPos: -1,
		DB:       db,
		Epoch:    db.StatsEpoch(),
	})
	// Skipping row 1 (edge b-c) at every step kills the two matches
	// using it (a-b-c and b-c-d), leaving c-d-e.
	n := 0
	x := &Exec{
		OnMatch: func() { n++ },
		SkipRow: func(si int, rid int32) bool { return rid == 1 },
	}
	x.Run(p, Window{})
	if n != 1 {
		t.Fatalf("matches with row 1 skipped = %d, want 1", n)
	}
}
