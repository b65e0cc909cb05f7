package plan

import (
	"fmt"
	"strings"
	"testing"

	"datalogeq/internal/database"
)

// atomV builds a slot-form atom from a predicate and slot numbers.
func atomV(pred string, slots ...int) Atom {
	a := Atom{Pred: pred}
	for _, s := range slots {
		a.Args = append(a.Args, Arg{Slot: s})
	}
	return a
}

// starDB builds a small star: two wide dimension relations keyed on
// column 0 and one narrow selective relation.
func starDB(t *testing.T) *database.DB {
	t.Helper()
	db := database.New()
	for k := 0; k < 50; k++ {
		for f := 0; f < 3; f++ {
			db.Add("d1", database.Tuple{fmt.Sprintf("k%d", k), fmt.Sprintf("a%d_%d", k, f)})
			db.Add("d2", database.Tuple{fmt.Sprintf("k%d", k), fmt.Sprintf("b%d_%d", k, f)})
		}
	}
	for k := 0; k < 2; k++ {
		db.Add("sel", database.Tuple{fmt.Sprintf("k%d", k)})
	}
	return db
}

// TestGreedyOrderPicksSelectiveFirst: with no delta forcing a start,
// the greedy planner must open with the smallest relation and leave the
// wide dimensions to run as bound probes.
func TestGreedyOrderPicksSelectiveFirst(t *testing.T) {
	db := starDB(t)
	atoms := []Atom{atomV("d1", 0, 1), atomV("d2", 0, 2), atomV("sel", 0)}
	var pl Planner
	p, cached := pl.Plan(Request{
		Rule:     &Rule{Body: atoms, NumSlots: 3, HeadSlots: []int{0}},
		DeltaPos: -1,
		DB:       db,
		Epoch:    db.StatsEpoch(),
	})
	if cached {
		t.Fatal("first plan must be a cache miss")
	}
	if got := p.Steps[0].Atom; got != 2 {
		t.Fatalf("first step joins atom %d, want the selective atom 2", got)
	}
	for _, st := range p.Steps[1:] {
		if st.Mask == 0 {
			t.Errorf("step for atom %d scans; want an index probe on the bound key column", st.Atom)
		}
		if st.Mask != 1 {
			t.Errorf("step for atom %d probes mask %b, want column 0 only", st.Atom, st.Mask)
		}
	}
	// The planner must have ensured the indexes its probes need.
	for _, pred := range []string{"d1", "d2"} {
		if !db.Lookup(pred).HasIndex(1) {
			t.Errorf("index on %s[0] not ensured at plan time", pred)
		}
	}
}

// TestDeltaAtomForcedFirst: semi-naive tasks must start from the delta
// window regardless of cardinalities, so cached plans stay valid as
// window sizes change round to round.
func TestDeltaAtomForcedFirst(t *testing.T) {
	db := starDB(t)
	atoms := []Atom{atomV("d1", 0, 1), atomV("d2", 0, 2), atomV("sel", 0)}
	var pl Planner
	p, _ := pl.Plan(Request{
		Rule:     &Rule{Body: atoms, NumSlots: 3},
		DeltaPos: 1,
		DB:       db,
		Epoch:    db.StatsEpoch(),
	})
	if p.Steps[0].Atom != 1 || !p.Steps[0].Delta {
		t.Fatalf("first step = atom %d (delta=%v), want delta atom 1 first", p.Steps[0].Atom, p.Steps[0].Delta)
	}
	for _, st := range p.Steps[1:] {
		if st.Delta {
			t.Errorf("non-first step for atom %d marked delta", st.Atom)
		}
	}
}

// TestPlanCacheHitMissReplan pins the slot semantics: the same
// (rule, delta, residual) at the same epoch hits; another epoch on a
// filled slot is a miss counted as a replan, and so is a return to an
// earlier epoch, since a slot holds one plan; a new delta position or a
// second *Rule with an identical body is a plain miss in its own slot.
func TestPlanCacheHitMissReplan(t *testing.T) {
	db := starDB(t)
	atoms := []Atom{atomV("d1", 0, 1), atomV("sel", 0)}
	var pl Planner
	req := Request{Rule: &Rule{Body: atoms, NumSlots: 2, HeadSlots: []int{0}}, DeltaPos: -1, DB: db, Epoch: 7}
	check := func(step string, wantCached bool, hits, misses, replans uint64) *Plan {
		t.Helper()
		p, cached := pl.Plan(req)
		if cached != wantCached || pl.Hits != hits || pl.Misses != misses || pl.Replans != replans {
			t.Fatalf("%s: cached=%v hits=%d misses=%d replans=%d, want cached=%v hits=%d misses=%d replans=%d",
				step, cached, pl.Hits, pl.Misses, pl.Replans, wantCached, hits, misses, replans)
		}
		return p
	}

	p1 := check("first call", false, 0, 1, 0)
	if p2 := check("same epoch", true, 1, 1, 0); p2 != p1 {
		t.Fatal("same-epoch hit returned a different plan")
	}
	req.Epoch = 8
	check("new epoch", false, 1, 2, 1)
	req.Epoch = 7
	if p3 := check("earlier epoch", false, 1, 3, 2); p3 == p1 {
		t.Fatal("return to an earlier epoch reused the evicted plan")
	}
	req.DeltaPos = 0
	check("new delta position", false, 1, 4, 2)
	req.Residual = true
	check("residual", false, 1, 5, 2)

	twin := *req.Rule
	req.Rule = &twin
	req.DeltaPos, req.Residual = -1, false
	check("identical body, second rule", false, 1, 6, 2)
	check("second rule, same epoch", true, 2, 6, 2)
}

// TestFixedModeKeepsTextualOrder: the planner-off baseline preserves
// atom order and still compiles index pushdown.
func TestFixedModeKeepsTextualOrder(t *testing.T) {
	db := starDB(t)
	atoms := []Atom{atomV("d1", 0, 1), atomV("d2", 0, 2), atomV("sel", 0)}
	pl := Planner{Fixed: true}
	p, _ := pl.Plan(Request{
		Rule:     &Rule{Body: atoms, NumSlots: 3},
		DeltaPos: -1,
		DB:       db,
		Epoch:    db.StatsEpoch(),
	})
	for i, st := range p.Steps {
		if st.Atom != i {
			t.Fatalf("fixed plan reordered: step %d runs atom %d", i, st.Atom)
		}
	}
	if p.Steps[0].Mask != 0 {
		t.Errorf("first textual atom has nothing bound; mask = %b", p.Steps[0].Mask)
	}
	if p.Steps[1].Mask != 1 || p.Steps[2].Mask != 1 {
		t.Errorf("later atoms must probe on the shared key: masks %b, %b", p.Steps[1].Mask, p.Steps[2].Mask)
	}
}

// TestDeadSlotAnnotation: a slot unused after its last join and absent
// from the head is annotated at that step; head slots never are.
func TestDeadSlotAnnotation(t *testing.T) {
	db := starDB(t)
	// e(s0, s1), f(s1, s2); head reads s0, s2 — s1 dies at the second
	// step once it has keyed the join.
	atoms := []Atom{atomV("d1", 0, 1), atomV("d2", 1, 2)}
	pl := Planner{Fixed: true}
	p, _ := pl.Plan(Request{
		Rule:     &Rule{Body: atoms, NumSlots: 3, HeadSlots: []int{0, 2}},
		DeltaPos: -1,
		DB:       db,
		Epoch:    db.StatsEpoch(),
	})
	if len(p.Steps[0].Dead) != 0 {
		t.Errorf("step 0 dead slots = %v, want none", p.Steps[0].Dead)
	}
	if len(p.Steps[1].Dead) != 1 || p.Steps[1].Dead[0] != 1 {
		t.Errorf("step 1 dead slots = %v, want [1]", p.Steps[1].Dead)
	}
}

// TestRenderShowsAccessPaths: the explain rendering names the probe
// columns and the projection points.
func TestRenderShowsAccessPaths(t *testing.T) {
	db := starDB(t)
	atoms := []Atom{atomV("d1", 0, 1), atomV("d2", 0, 2), atomV("sel", 0)}
	var pl Planner
	p, _ := pl.Plan(Request{
		Rule:     &Rule{Body: atoms, NumSlots: 3, HeadSlots: []int{0}},
		DeltaPos: -1,
		DB:       db,
		Epoch:    db.StatsEpoch(),
	})
	names := []string{"X", "A", "B"}
	out := p.Render(func(s int) string { return names[s] }, []uint64{2, 6, 18})
	for _, want := range []string{"sel(X)", "probe d1[X,·]", "act 6", "est", "drop"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering lacks %q:\n%s", want, out)
		}
	}
}
