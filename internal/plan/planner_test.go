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
		Rule:     &Rule{Body: atoms, Fingerprint: Fingerprint(atoms, []int{0}), NumSlots: 3, HeadSlots: []int{0}},
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
		Rule:     &Rule{Body: atoms, Fingerprint: Fingerprint(atoms, nil), NumSlots: 3},
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

// TestPlanCacheHitMissReplan pins the cache-key semantics: same
// (fingerprint, delta, epoch) hits; a new epoch for a known shape is a
// miss counted as a replan; a new shape is a plain miss.
func TestPlanCacheHitMissReplan(t *testing.T) {
	db := starDB(t)
	atoms := []Atom{atomV("d1", 0, 1), atomV("sel", 0)}
	fp := Fingerprint(atoms, []int{0})
	var pl Planner
	req := Request{Rule: &Rule{Body: atoms, Fingerprint: fp, NumSlots: 2, HeadSlots: []int{0}}, DeltaPos: -1, DB: db, Epoch: 7}

	p1, cached := pl.Plan(req)
	if cached || pl.Misses != 1 || pl.Hits != 0 || pl.Replans != 0 {
		t.Fatalf("first call: cached=%v hits=%d misses=%d replans=%d", cached, pl.Hits, pl.Misses, pl.Replans)
	}
	p2, cached := pl.Plan(req)
	if !cached || p2 != p1 || pl.Hits != 1 {
		t.Fatalf("second call: cached=%v same=%v hits=%d", cached, p2 == p1, pl.Hits)
	}
	req.Epoch = 8
	if _, cached := pl.Plan(req); cached || pl.Replans != 1 {
		t.Fatalf("epoch bump: cached=%v replans=%d, want miss with 1 replan", cached, pl.Replans)
	}
	req.DeltaPos = 0
	if _, cached := pl.Plan(req); cached || pl.Replans != 1 {
		t.Fatalf("new shape: cached=%v replans=%d, want plain miss", cached, pl.Replans)
	}
}

// TestFixedModeKeepsTextualOrder: the planner-off baseline preserves
// atom order and still compiles index pushdown.
func TestFixedModeKeepsTextualOrder(t *testing.T) {
	db := starDB(t)
	atoms := []Atom{atomV("d1", 0, 1), atomV("d2", 0, 2), atomV("sel", 0)}
	pl := Planner{Fixed: true}
	p, _ := pl.Plan(Request{
		Rule:     &Rule{Body: atoms, Fingerprint: Fingerprint(atoms, nil), NumSlots: 3},
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
		Rule:     &Rule{Body: atoms, Fingerprint: Fingerprint(atoms, []int{0, 2}), NumSlots: 3, HeadSlots: []int{0, 2}},
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

// TestFingerprint pins that fingerprints distinguish structure
// (predicates, constants, slot sharing, head slots) and nothing else.
func TestFingerprint(t *testing.T) {
	a := []Atom{atomV("e", 0, 1), atomV("e", 1, 2)}
	b := []Atom{atomV("e", 0, 1), atomV("e", 1, 2)}
	if Fingerprint(a, []int{0, 2}) != Fingerprint(b, []int{0, 2}) {
		t.Error("identical shapes must share fingerprints")
	}
	c := []Atom{atomV("e", 0, 1), atomV("e", 0, 2)} // different sharing
	if Fingerprint(a, []int{0, 2}) == Fingerprint(c, []int{0, 2}) {
		t.Error("different slot sharing must not collide")
	}
	if Fingerprint(a, []int{0, 2}) == Fingerprint(a, []int{0}) {
		t.Error("different head slots must not collide")
	}
	d := []Atom{{Pred: "e", Args: []Arg{{Const: true, ID: 3}, {Slot: 1}}}, atomV("e", 1, 2)}
	if Fingerprint(a, []int{0, 2}) == Fingerprint(d, []int{0, 2}) {
		t.Error("constants must not collide with slots")
	}
}

// TestRenderShowsAccessPaths: the explain rendering names the probe
// columns and the projection points.
func TestRenderShowsAccessPaths(t *testing.T) {
	db := starDB(t)
	atoms := []Atom{atomV("d1", 0, 1), atomV("d2", 0, 2), atomV("sel", 0)}
	var pl Planner
	p, _ := pl.Plan(Request{
		Rule:     &Rule{Body: atoms, Fingerprint: Fingerprint(atoms, []int{0}), NumSlots: 3, HeadSlots: []int{0}},
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
