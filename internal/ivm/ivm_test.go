package ivm_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"datalogeq/internal/ast"
	"datalogeq/internal/database"
	"datalogeq/internal/eval"
	"datalogeq/internal/gen"
	"datalogeq/internal/guard"
	_ "datalogeq/internal/ivm"
	"datalogeq/internal/parser"
)

// tc is the standard transitive-closure program used throughout.
const tcSrc = `
tc(X, Y) :- e(X, Y).
tc(X, Y) :- e(X, Z), tc(Z, Y).
`

func mustMaintain(t *testing.T, prog *ast.Program, edb *database.DB, opts eval.Options) *eval.Handle {
	t.Helper()
	h, _, err := eval.Maintain(prog, edb, opts)
	if err != nil {
		t.Fatalf("Maintain: %v", err)
	}
	return h
}

// fromScratch evaluates prog over base and returns the sorted fact
// rendering.
func fromScratch(t *testing.T, prog *ast.Program, base *database.DB) string {
	t.Helper()
	out, _, err := eval.Eval(prog, base, eval.Options{})
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	return out.String()
}

// usNoWall strips the wall-clock component for bit-identity checks.
func usNoWall(u eval.UpdateStats) eval.UpdateStats {
	u.Budget.Wall = 0
	return u
}

func TestInsertChainMatchesFromScratch(t *testing.T) {
	prog := parser.MustProgram(tcSrc)
	base := database.MustParse("e(a, b). e(b, c).")
	h := mustMaintain(t, prog, base, eval.Options{})

	us, err := h.Insert(parser.MustAtomList("e(c, d)"))
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	base.AddAtom(parser.MustAtom("e(c, d)"))
	if got, want := h.DB().String(), fromScratch(t, prog, base); got != want {
		t.Fatalf("after insert:\n%s\nwant:\n%s", got, want)
	}
	// e(c,d) itself plus tc(c,d), tc(b,d), tc(a,d).
	if us.RowsInserted != 4 {
		t.Errorf("RowsInserted = %d, want 4", us.RowsInserted)
	}
	if us.StrataRun != 1 {
		t.Errorf("StrataRun = %d, want 1", us.StrataRun)
	}
}

func TestInsertDuplicateAndDerived(t *testing.T) {
	prog := parser.MustProgram(tcSrc)
	base := database.MustParse("e(a, b). e(b, c).")
	h := mustMaintain(t, prog, base, eval.Options{})

	// tc(a,c) is already derived; asserting it as a base fact must only
	// add support, not rows, and retracting the assertion must keep it.
	if us, err := h.Insert(parser.MustAtomList("tc(a, c)")); err != nil || us.RowsInserted != 0 {
		t.Fatalf("insert derived: us=%+v err=%v", us, err)
	}
	if us, err := h.Insert(parser.MustAtomList("tc(a, c)")); err != nil || us.CountUpdates != 0 {
		t.Fatalf("re-insert should be a no-op: us=%+v err=%v", us, err)
	}
	if us, err := h.Retract(parser.MustAtomList("tc(a, c)")); err != nil || us.RowsDeleted != 0 {
		t.Fatalf("retract assertion should keep derived row: us=%+v err=%v", us, err)
	}
	if got, want := h.DB().String(), fromScratch(t, prog, database.MustParse("e(a, b). e(b, c).")); got != want {
		t.Fatalf("after assert+retract:\n%s\nwant:\n%s", got, want)
	}
}

func TestRetractChain(t *testing.T) {
	prog := parser.MustProgram(tcSrc)
	base := database.MustParse("e(a, b). e(b, c).")
	h := mustMaintain(t, prog, base, eval.Options{})

	us, err := h.Retract(parser.MustAtomList("e(a, b)"))
	if err != nil {
		t.Fatalf("Retract: %v", err)
	}
	if got, want := h.DB().String(), fromScratch(t, prog, database.MustParse("e(b, c).")); got != want {
		t.Fatalf("after retract:\n%s\nwant:\n%s", got, want)
	}
	// e(a,b), tc(a,b), tc(a,c) die; nothing rederives.
	if us.RowsDeleted != 3 || us.Rederived != 0 {
		t.Errorf("us = %+v, want 3 deleted, 0 rederived", us)
	}
}

func TestRetractDiamondRederives(t *testing.T) {
	// Two paths a→d; deleting one leg must overdelete tc(a,d) and then
	// revive it from the surviving leg.
	prog := parser.MustProgram(tcSrc)
	base := database.MustParse("e(a, b). e(a, c). e(b, d). e(c, d).")
	h := mustMaintain(t, prog, base, eval.Options{})

	us, err := h.Retract(parser.MustAtomList("e(a, b)"))
	if err != nil {
		t.Fatalf("Retract: %v", err)
	}
	if us.Rederived == 0 {
		t.Errorf("expected rederivations, got %+v", us)
	}
	if got, want := h.DB().String(), fromScratch(t, prog, database.MustParse("e(a, c). e(b, d). e(c, d).")); got != want {
		t.Fatalf("after retract:\n%s\nwant:\n%s", got, want)
	}
}

func TestRetractCycle(t *testing.T) {
	// A 2-cycle gives every tc row cyclic support; counts alone cannot
	// decide deletion, overdelete + rederive must.
	prog := parser.MustProgram(tcSrc)
	base := database.MustParse("e(a, b). e(b, a).")
	h := mustMaintain(t, prog, base, eval.Options{})

	if _, err := h.Retract(parser.MustAtomList("e(a, b)")); err != nil {
		t.Fatalf("Retract: %v", err)
	}
	if got, want := h.DB().String(), fromScratch(t, prog, database.MustParse("e(b, a).")); got != want {
		t.Fatalf("after retract:\n%s\nwant:\n%s", got, want)
	}
}

func TestMultiStratumCascade(t *testing.T) {
	// Kills must cross stratum boundaries: reach is downstream of tc.
	prog := parser.MustProgram(tcSrc + "reach(Y) :- tc(a, Y).\n")
	base := database.MustParse("e(a, b). e(b, c). e(x, c).")
	h := mustMaintain(t, prog, base, eval.Options{})

	if _, err := h.Retract(parser.MustAtomList("e(b, c)")); err != nil {
		t.Fatalf("Retract: %v", err)
	}
	if got, want := h.DB().String(), fromScratch(t, prog, database.MustParse("e(a, b). e(x, c).")); got != want {
		t.Fatalf("after retract:\n%s\nwant:\n%s", got, want)
	}
	if _, err := h.Insert(parser.MustAtomList("e(b, c)")); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if got, want := h.DB().String(), fromScratch(t, prog, database.MustParse("e(a, b). e(b, c). e(x, c).")); got != want {
		t.Fatalf("after reinsert:\n%s\nwant:\n%s", got, want)
	}
}

func TestMaintainRejectsUnboundHead(t *testing.T) {
	prog := parser.MustProgram("p(X, Y) :- q(X).")
	if _, _, err := eval.Maintain(prog, database.MustParse("q(a)."), eval.Options{}); err == nil {
		t.Fatal("expected error for head variable unbound by body")
	}
}

func TestInsertRejectsNonGround(t *testing.T) {
	prog := parser.MustProgram(tcSrc)
	h := mustMaintain(t, prog, database.MustParse("e(a, b)."), eval.Options{})
	if _, err := h.Insert([]ast.Atom{parser.MustAtom("e(X, b)")}); err == nil {
		t.Fatal("expected error for non-ground fact")
	}
	if _, err := h.Insert([]ast.Atom{parser.MustAtom("e(a)")}); err == nil {
		t.Fatal("expected error for arity mismatch")
	}
	// A rejected batch must leave the handle usable.
	if _, err := h.Insert(parser.MustAtomList("e(b, c)")); err != nil {
		t.Fatalf("handle unusable after rejected batch: %v", err)
	}
}

func TestBudgetTripPoisonsHandle(t *testing.T) {
	prog := parser.MustProgram(tcSrc)
	base := gen.ChainGraph(30)
	h := mustMaintain(t, prog, base, eval.Options{})

	_, err := h.Retract(parser.MustAtomList("e(n0, n1)"))
	if err != nil {
		t.Fatalf("unbudgeted retract: %v", err)
	}
	h2 := mustMaintain(t, prog, base, eval.Options{Budget: guard.Budget{MaxMaintained: 5}})
	_, err = h2.Retract(parser.MustAtomList("e(n0, n1)"))
	var le *guard.LimitError
	if !errorsAs(err, &le) || le.Resource != guard.Maintained {
		t.Fatalf("err = %v, want Maintained limit", err)
	}
	if _, err := h2.Insert(parser.MustAtomList("e(a, b)")); err == nil {
		t.Fatal("expected poisoned handle to reject further updates")
	}
}

// baseRows renders every relation of db with its rows in slab order,
// so two renderings agree only when contents and row order do.
func baseRows(db *database.DB) string {
	var b strings.Builder
	for _, p := range db.Preds() {
		r := db.Lookup(p)
		for i := 0; i < r.Len(); i++ {
			if !r.Dead(i) {
				fmt.Fprintf(&b, "%s%v\n", p, r.RowAt(i).Tuple())
			}
		}
	}
	return b.String()
}

// TestInjectedTripLeavesBase: a failed update reports its batch as not
// applied, and a server rebuilds an in-memory handle from Base(), so a
// failed Insert or Retract must leave Base() as it was, in contents and
// in row order. Every Maintained charge point of one insert batch and
// of one retract is tripped in turn.
func TestInjectedTripLeavesBase(t *testing.T) {
	prog := parser.MustProgram(tcSrc)
	const start = "e(a, b). e(b, c). e(c, d). e(x, y). tc(b, d)."
	ops := []struct {
		name   string
		insert bool
		facts  string
	}{
		// New edges, an edge already asserted, a derived fact asserted,
		// and a predicate the program does not mention.
		{"insert", true, "e(d, f), e(f, g), e(a, b), tc(a, c), u(z)"},
		// Edges mid-chain and apart, a duplicate within the batch, an
		// asserted derived fact, and a fact never asserted.
		{"retract", false, "e(b, c), e(x, y), e(b, c), tc(b, d), e(q, r)"},
	}
	apply := func(h *eval.Handle, insert bool, facts []ast.Atom) (eval.UpdateStats, error) {
		if insert {
			return h.Insert(facts)
		}
		return h.Retract(facts)
	}
	for _, op := range ops {
		t.Run(op.name, func(t *testing.T) {
			facts := parser.MustAtomList(op.facts)
			us, err := apply(mustMaintain(t, prog, database.MustParse(start), eval.Options{}), op.insert, facts)
			if err != nil {
				t.Fatalf("unarmed %s: %v", op.name, err)
			}
			points := us.Budget.Maintained
			if points < 5 {
				t.Fatalf("%s charged %d Maintained points, want at least 5", op.name, points)
			}
			for k := int64(1); k <= points; k++ {
				opts := eval.Options{Budget: guard.InjectFault(guard.Budget{}, guard.Maintained, k)}
				h := mustMaintain(t, prog, database.MustParse(start), opts)
				want := baseRows(h.Base())
				if _, err := apply(h, op.insert, facts); err == nil {
					t.Fatalf("trip point %d of %d did not fire", k, points)
				}
				if got := baseRows(h.Base()); got != want {
					t.Errorf("trip point %d of %d changed Base():\n%swant:\n%s", k, points, got, want)
				}
			}
		})
	}
}

// TestTipTogglesBuildNoPlans: once one tip insert and retract have
// warmed a forest's plan cache, further tip toggles plan at epochs
// their slots already hold, so they build no plans.
func TestTipTogglesBuildNoPlans(t *testing.T) {
	prog := parser.MustProgram(tcSrc)
	const chains, length = 50, 10
	base := database.New()
	for c := 0; c < chains; c++ {
		for j := 0; j+1 < length; j++ {
			base.Add("e", database.Tuple{fmt.Sprintf("c%dn%d", c, j), fmt.Sprintf("c%dn%d", c, j+1)})
		}
	}
	h := mustMaintain(t, prog, base, eval.Options{})
	for i := 0; i <= 2*chains; i++ {
		c := i % chains
		tip := parser.MustAtomList(fmt.Sprintf("e(c%dn%d, c%dtip)", c, length-1, c))
		ins, err := h.Insert(tip)
		if err != nil {
			t.Fatalf("toggle %d insert: %v", i, err)
		}
		ret, err := h.Retract(tip)
		if err != nil {
			t.Fatalf("toggle %d retract: %v", i, err)
		}
		if i > 0 && (ins.Budget.Plans != 0 || ret.Budget.Plans != 0) {
			t.Fatalf("toggle %d built %d insert and %d retract plans, want none", i, ins.Budget.Plans, ret.Budget.Plans)
		}
	}
	if got, want := h.DB().String(), fromScratch(t, prog, base); got != want {
		t.Fatalf("after toggles:\n%s\nwant:\n%s", got, want)
	}
}

// TestTipRetractAllocsFlat pins that a retract costs what it touches,
// not the relation it touches: the bytes a tip retract allocates on a
// forest of 2000 chains (420k tc rows) stay within 1.2× of those on a
// forest of 50 chains (10.5k tc rows). Each retract removes the tip of
// a chain no earlier update touched, so its rows sit wherever the
// initial fixpoint laid them out, mostly far from the slab's end.
func TestTipRetractAllocsFlat(t *testing.T) {
	small := tipRetractBytes(t, 50)
	large := tipRetractBytes(t, 2000)
	t.Logf("bytes per tip retract: %d on forest50x20, %d on forest2000x20", small, large)
	if 10*large > 12*small {
		t.Fatalf("a tip retract on forest2000x20 allocates %d B, more than 1.2× the %d B on forest50x20", large, small)
	}
}

// tipRetractBytes returns the mean bytes allocated by a tip retract on
// a forest of chains of 20 edges, after a few warm-up retracts.
func tipRetractBytes(t *testing.T, chains int) uint64 {
	t.Helper()
	const length, warm, measured = 20, 4, 16
	h := mustMaintain(t, parser.MustProgram(tcSrc), gen.ForestGraph(chains, length), eval.Options{})
	var ms runtime.MemStats
	var total uint64
	for c := 0; c < warm+measured; c++ {
		tip := parser.MustAtomList(fmt.Sprintf("e(c%dn%d, c%dn%d)", c, length-1, c, length))
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		us, err := h.Retract(tip)
		runtime.ReadMemStats(&ms)
		if err != nil {
			t.Fatal(err)
		}
		if us.RowsDeleted != length+1 {
			t.Fatalf("tip retract deleted %d rows, want %d", us.RowsDeleted, length+1)
		}
		if c >= warm {
			total += ms.TotalAlloc - before
		}
	}
	return total / measured
}

// errorsAs avoids importing errors just for one call.
func errorsAs(err error, target **guard.LimitError) bool {
	for err != nil {
		if le, ok := err.(*guard.LimitError); ok {
			*target = le
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// applyOp mirrors one update on the shadow base database.
func applyOp(base *database.DB, insert bool, facts []ast.Atom) {
	for _, a := range facts {
		if insert {
			base.AddAtom(a)
		} else {
			if r := base.Lookup(a.Pred); r != nil {
				row := make(database.Row, 0, len(a.Args))
				for _, t := range a.Args {
					row = append(row, database.Intern(t.Name))
				}
				if id := r.RowID(row); id >= 0 {
					r.DeleteRowsMarked([]int32{id})
				}
			}
		}
	}
}

// randomOps builds a deterministic insert/retract schedule over a small
// edge universe, biased so both paths get exercised.
func randomOps(rng *rand.Rand, nodes, steps, batch int) []struct {
	insert bool
	facts  []ast.Atom
} {
	ops := make([]struct {
		insert bool
		facts  []ast.Atom
	}, steps)
	for i := range ops {
		ops[i].insert = rng.Intn(3) != 0
		n := 1 + rng.Intn(batch)
		for j := 0; j < n; j++ {
			x, y := rng.Intn(nodes), rng.Intn(nodes)
			ops[i].facts = append(ops[i].facts, parser.MustAtom(fmt.Sprintf("e(n%d, n%d)", x, y)))
		}
	}
	return ops
}

// TestDifferentialRandom drives random insert/retract sequences through
// handles built with 1, 2 and 8 workers, checking after every update
// that (a) the maintained database equals a from-scratch fixpoint of
// the shadow base and (b) the three handles agree bit-for-bit on both
// the database and the UpdateStats.
func TestDifferentialRandom(t *testing.T) {
	progs := map[string]*ast.Program{
		"tc":      parser.MustProgram(tcSrc),
		"layered": gen.LayeredTC(),
		"multi":   parser.MustProgram(tcSrc + "reach(Y) :- tc(a, Y).\nboth(X, Y) :- tc(X, Y), tc(Y, X).\n"),
	}
	for name, prog := range progs {
		t.Run(name, func(t *testing.T) {
			for seed := int64(0); seed < 3; seed++ {
				rng := rand.New(rand.NewSource(seed))
				base := gen.RandomGraph(rand.New(rand.NewSource(seed+100)), 8, 14)
				handles := make([]*eval.Handle, 0, 3)
				for _, w := range []int{1, 2, 8} {
					handles = append(handles, mustMaintain(t, prog, base, eval.Options{Workers: w}))
				}
				shadow := base.Clone()
				for step, op := range randomOps(rng, 8, 12, 3) {
					applyOp(shadow, op.insert, op.facts)
					want := fromScratch(t, prog, shadow)
					var first eval.UpdateStats
					for wi, h := range handles {
						var us eval.UpdateStats
						var err error
						if op.insert {
							us, err = h.Insert(op.facts)
						} else {
							us, err = h.Retract(op.facts)
						}
						if err != nil {
							t.Fatalf("seed %d step %d (insert=%v): %v", seed, step, op.insert, err)
						}
						if got := h.DB().String(); got != want {
							t.Fatalf("seed %d step %d (insert=%v) handle %d diverged:\n got:\n%s\nwant:\n%s",
								seed, step, op.insert, wi, got, want)
						}
						if wi == 0 {
							first = us
						} else if usNoWall(us) != usNoWall(first) {
							t.Fatalf("seed %d step %d: UpdateStats differ across workers: %+v vs %+v",
								seed, step, usNoWall(us), usNoWall(first))
						}
					}
				}
			}
		})
	}
}

// TestDifferentialTombstones is TestDifferentialRandom on relations
// large enough to keep tombstones between updates: a forest whose
// chain edges, tips and cross links are toggled at random, so retracts
// leave dead rows that later probes, scans and reinserts must skip, and
// enough of them pile up to trip compaction several times. After every
// update the handles at 1, 2 and 8 workers must equal a from-scratch
// fixpoint, carry the support counts a fresh materialization computes,
// and agree bit for bit on the UpdateStats.
func TestDifferentialTombstones(t *testing.T) {
	prog := parser.MustProgram(tcSrc + "reach(Y) :- tc(c0n0, Y).\n")
	const chains, length = 6, 12
	base := gen.ForestGraph(chains, length)
	handles := make([]*eval.Handle, 0, 3)
	for _, w := range []int{1, 2, 8} {
		handles = append(handles, mustMaintain(t, prog, base, eval.Options{Workers: w}))
	}
	shadow := base.Clone()
	rng := rand.New(rand.NewSource(5))
	tombstones, compactions := 0, 0
	for step := 0; step < 120; step++ {
		c, j := rng.Intn(chains), rng.Intn(length+1)
		var fact ast.Atom
		switch rng.Intn(3) {
		case 0: // a chain edge, or the tip edge past the chain's end
			fact = parser.MustAtom(fmt.Sprintf("e(c%dn%d, c%dn%d)", c, j, c, j+1))
		case 1: // a link into another chain
			fact = parser.MustAtom(fmt.Sprintf("e(c%dn%d, c%dn%d)", c, j, rng.Intn(chains), rng.Intn(length+1)))
		default: // a derived fact asserted or withdrawn
			fact = parser.MustAtom(fmt.Sprintf("tc(c%dn0, c%dn%d)", c, c, j))
		}
		facts := []ast.Atom{fact}
		insert := !shadow.Contains(fact.Pred, atomTuple(fact))
		applyOp(shadow, insert, facts)
		want := fromScratch(t, prog, shadow)
		wantCounts := countLines(mustMaintain(t, prog, shadow, eval.Options{}).DB())
		tc := handles[0].DB().Lookup("tc")
		before := tc.Len()
		var first eval.UpdateStats
		for wi, h := range handles {
			var us eval.UpdateStats
			var err error
			if insert {
				us, err = h.Insert(facts)
			} else {
				us, err = h.Retract(facts)
			}
			if err != nil {
				t.Fatalf("step %d (insert=%v %s): %v", step, insert, fact, err)
			}
			if got := h.DB().String(); got != want {
				t.Fatalf("step %d (insert=%v %s) handle %d diverged:\n got:\n%s\nwant:\n%s", step, insert, fact, wi, got, want)
			}
			if got := countLines(h.DB()); got != wantCounts {
				t.Fatalf("step %d (insert=%v %s) handle %d counts:\n%s\nwant:\n%s", step, insert, fact, wi, got, wantCounts)
			}
			if wi == 0 {
				first = us
			} else if usNoWall(us) != usNoWall(first) {
				t.Fatalf("step %d: UpdateStats differ across workers: %+v vs %+v", step, usNoWall(us), usNoWall(first))
			}
		}
		if tc.HasDead() {
			tombstones++
		}
		if tc.Len() < before {
			compactions++
		}
	}
	t.Logf("tc held tombstones after %d updates and compacted %d times", tombstones, compactions)
	if tombstones == 0 || compactions < 2 {
		t.Fatalf("tc held tombstones after %d updates and compacted %d times; want both exercised", tombstones, compactions)
	}
}

// atomTuple returns a ground atom's constants.
func atomTuple(a ast.Atom) database.Tuple {
	t := make(database.Tuple, len(a.Args))
	for i, arg := range a.Args {
		t[i] = arg.Name
	}
	return t
}

// FuzzIncremental feeds byte-driven update schedules through the
// maintainer and cross-checks every state against a from-scratch
// fixpoint. Each byte encodes one single-fact update: bit 7 selects
// insert/retract, the rest pick the edge.
func FuzzIncremental(f *testing.F) {
	f.Add([]byte{0x01, 0x23, 0x81, 0x45})
	f.Add([]byte{0x80, 0x00, 0xff, 0x7f, 0x03})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 24 {
			script = script[:24]
		}
		prog := parser.MustProgram(tcSrc)
		base := database.MustParse("e(n0, n1). e(n1, n2). e(n2, n0).")
		h, _, err := eval.Maintain(prog, base, eval.Options{})
		if err != nil {
			t.Fatalf("Maintain: %v", err)
		}
		shadow := base.Clone()
		for _, b := range script {
			insert := b&0x80 != 0
			x, y := int(b>>3)&0x7, int(b)&0x7
			facts := []ast.Atom{parser.MustAtom(fmt.Sprintf("e(n%d, n%d)", x, y))}
			applyOp(shadow, insert, facts)
			if insert {
				_, err = h.Insert(facts)
			} else {
				_, err = h.Retract(facts)
			}
			if err != nil {
				t.Fatalf("update: %v", err)
			}
			want, _, err := eval.Eval(prog, shadow, eval.Options{})
			if err != nil {
				t.Fatalf("Eval: %v", err)
			}
			if got := h.DB().String(); got != want.String() {
				t.Fatalf("diverged after %02x:\n got:\n%s\nwant:\n%s", b, got, want)
			}
		}
	})
}
