package plan

import (
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"

	"datalogeq/internal/database"
)

// bruteMatches enumerates every complete match of the conjunction by
// plain nested loops in textual order — the reference semantics plans
// of any join order must reproduce. deltaPos/lo/hi restrict one atom's
// rows. Returns sorted renderings of the full slot environment.
func bruteMatches(atoms []Atom, nslots int, db *database.DB, deltaPos, lo, hi int) []string {
	env := make([]uint32, nslots)
	bound := make([]bool, nslots)
	var out []string
	var rec func(ai int)
	rec = func(ai int) {
		if ai == len(atoms) {
			out = append(out, fmt.Sprint(env))
			return
		}
		a := atoms[ai]
		rel := db.Lookup(a.Pred)
		if rel == nil {
			return
		}
		l, h := 0, rel.Len()
		if ai == deltaPos {
			l, h = lo, hi
		}
		for i := l; i < h; i++ {
			var fresh []int
			matched := true
			for pos, arg := range a.Args {
				v := rel.At(i, pos)
				if arg.Const {
					if v != arg.ID {
						matched = false
						break
					}
				} else if bound[arg.Slot] {
					if v != env[arg.Slot] {
						matched = false
						break
					}
				} else {
					env[arg.Slot] = v
					bound[arg.Slot] = true
					fresh = append(fresh, arg.Slot)
				}
			}
			if matched {
				rec(ai + 1)
			}
			for _, s := range fresh {
				bound[s] = false
			}
		}
	}
	rec(0)
	sort.Strings(out)
	return out
}

// execMatches runs the plan and collects the same renderings.
func execMatches(p *Plan, nslots int, w Window) []string {
	x := Exec{Env: make([]uint32, nslots)}
	var out []string
	x.OnMatch = func() { out = append(out, fmt.Sprint(x.Env[:nslots])) }
	x.Run(p, w)
	sort.Strings(out)
	return out
}

// randomConjunction builds a random body over binary relations e1..e3
// plus occasional constants and repeated slots.
func randomConjunction(rng *rand.Rand, nslots int) []Atom {
	n := 1 + rng.Intn(3)
	atoms := make([]Atom, n)
	for i := range atoms {
		a := Atom{Pred: fmt.Sprintf("e%d", 1+rng.Intn(3))}
		for j := 0; j < 2; j++ {
			if rng.Intn(8) == 0 {
				a.Args = append(a.Args, Arg{Const: true, ID: database.Intern(fmt.Sprintf("c%d", rng.Intn(4)))})
			} else {
				a.Args = append(a.Args, Arg{Slot: rng.Intn(nslots)})
			}
		}
		atoms[i] = a
	}
	return atoms
}

// TestExecMatchesBruteForce: for random conjunctions over a random
// store, the greedy plan, the fixed plan, and the brute-force reference
// all enumerate exactly the same set of complete matches — the
// join-order-independence that eval's determinism contract rests on.
func TestExecMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	db := database.New()
	for _, pred := range []string{"e1", "e2", "e3"} {
		for i := 0; i < 30; i++ {
			db.Add(pred, database.Tuple{fmt.Sprintf("c%d", rng.Intn(4)), fmt.Sprintf("c%d", rng.Intn(4))})
		}
	}
	const nslots = 4
	for trial := 0; trial < 200; trial++ {
		atoms := randomConjunction(rng, nslots)
		deltaPos := -1
		lo, hi := 0, 0
		if rng.Intn(2) == 0 {
			deltaPos = rng.Intn(len(atoms))
			rel := db.Lookup(atoms[deltaPos].Pred)
			lo = rng.Intn(rel.Len() + 1)
			hi = lo + rng.Intn(rel.Len()-lo+1)
		}
		want := bruteMatches(atoms, nslots, db, deltaPos, lo, hi)
		for _, fixed := range []bool{false, true} {
			pl := Planner{Fixed: fixed}
			p, _ := pl.Plan(Request{
				Rule:     &Rule{Body: atoms, NumSlots: nslots},
				DeltaPos: deltaPos,
				DB:       db,
				Epoch:    0,
			})
			got := execMatches(p, nslots, Window{Lo: lo, Hi: hi})
			if len(got) != len(want) {
				t.Fatalf("trial %d (fixed=%v): %d matches, want %d\natoms: %+v",
					trial, fixed, len(got), len(want), atoms)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trial %d (fixed=%v): match %d = %s, want %s", trial, fixed, i, got[i], want[i])
				}
			}
		}
	}
}

// TestExecEmptyBodyFiresOnce: a plan with no steps is a fact rule; the
// executor fires OnMatch exactly once per task.
func TestExecEmptyBodyFiresOnce(t *testing.T) {
	p := &Plan{DeltaPos: -1}
	n := 0
	x := Exec{OnMatch: func() { n++ }}
	x.Run(p, Window{})
	if n != 1 {
		t.Fatalf("fired %d times, want 1", n)
	}
}

// TestExecStopWindsDown: once the stop flag is set, the run terminates
// without visiting the remaining candidates.
func TestExecStopWindsDown(t *testing.T) {
	db := database.New()
	for i := 0; i < 5000; i++ {
		db.Add("e", database.Tuple{fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i)})
	}
	atoms := []Atom{atomV("e", 0, 1), atomV("e", 2, 3)}
	var pl Planner
	p, _ := pl.Plan(Request{Rule: &Rule{Body: atoms, NumSlots: 4}, DeltaPos: -1, DB: db, Epoch: 0})
	var stop atomic.Bool
	matches := 0
	x := Exec{Env: make([]uint32, 4), Stop: &stop, OnMatch: func() { matches++ }}
	stop.Store(true)
	x.Run(p, Window{})
	if !x.Stopped() {
		t.Fatal("executor did not observe the stop flag")
	}
	if matches >= 5000*5000 {
		t.Fatal("executor ran to completion despite the stop flag")
	}
}
