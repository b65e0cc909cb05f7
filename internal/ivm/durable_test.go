package ivm_test

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"datalogeq/internal/ast"
	"datalogeq/internal/database"
	"datalogeq/internal/eval"
	"datalogeq/internal/parser"
)

// openDurable opens a durable handle over dir, failing the test on any
// recovery error. A small snapshot threshold forces snapshot cycles
// mid-run so recovery paths with and without a snapshot both execute.
func openDurable(t *testing.T, dir string, prog *ast.Program, opts eval.Options, snapBytes int64) *eval.Handle {
	t.Helper()
	d, err := database.Open(dir, database.OpenOptions{SnapshotBytes: snapBytes})
	if err != nil {
		t.Fatalf("database.Open: %v", err)
	}
	h, _, err := eval.MaintainDurable(prog, d, opts)
	if err != nil {
		t.Fatalf("MaintainDurable: %v", err)
	}
	return h
}

// countLines renders every support count in db as sorted
// "pred(args)=count" lines — the bit-level state DB.String() does not
// show.
func countLines(db *database.DB) string {
	var lines []string
	for _, pred := range db.Preds() {
		r := db.Lookup(pred)
		if !r.CountsEnabled() {
			continue
		}
		for i := 0; i < r.Len(); i++ {
			if !r.Dead(i) {
				lines = append(lines, fmt.Sprintf("%s%s=%d", pred, r.RowAt(i).Tuple(), r.CountAt(i)))
			}
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

func TestDurableFreshInsertReopen(t *testing.T) {
	prog := parser.MustProgram(tcSrc)
	dir := t.TempDir()
	h := openDurable(t, dir, prog, eval.Options{}, -1)
	if _, err := h.Insert(parser.MustAtomList("e(a, b), e(b, c)")); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if _, err := h.Insert(parser.MustAtomList("e(c, d)")); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if _, err := h.Retract(parser.MustAtomList("e(b, c)")); err != nil {
		t.Fatalf("Retract: %v", err)
	}
	want := h.DB().String()
	wantCounts := countLines(h.DB())
	wantEpoch := h.DB().StatsEpoch()
	if h.Seq() != 3 {
		t.Fatalf("Seq = %d, want 3", h.Seq())
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: pure WAL replay (no snapshot was ever taken).
	r := openDurable(t, dir, prog, eval.Options{}, -1)
	defer r.Close()
	if r.Seq() != 3 {
		t.Fatalf("recovered Seq = %d, want 3", r.Seq())
	}
	if got := r.DB().String(); got != want {
		t.Fatalf("recovered DB:\n%s\nwant:\n%s", got, want)
	}
	if got := countLines(r.DB()); got != wantCounts {
		t.Fatalf("recovered counts:\n%s\nwant:\n%s", got, wantCounts)
	}
	if got := r.DB().StatsEpoch(); got != wantEpoch {
		t.Fatalf("recovered StatsEpoch = %d, want %d", got, wantEpoch)
	}
	if got, fs := r.DB().String(), fromScratch(t, prog, r.Base()); got != fs {
		t.Fatalf("recovered DB is not the fixpoint of its base:\n%s\nwant:\n%s", got, fs)
	}
}

func TestDurableCheckpoint(t *testing.T) {
	prog := parser.MustProgram(tcSrc)
	dir := t.TempDir()
	h := openDurable(t, dir, prog, eval.Options{}, -1)
	if _, err := h.Insert(parser.MustAtomList("e(a, b), e(b, c), e(c, a)")); err != nil {
		t.Fatal(err)
	}
	if err := h.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	// Post-checkpoint updates land in the new generation's WAL.
	if _, err := h.Retract(parser.MustAtomList("e(c, a)")); err != nil {
		t.Fatal(err)
	}
	want := h.DB().String()
	wantCounts := countLines(h.DB())
	h.Close()

	r := openDurable(t, dir, prog, eval.Options{}, -1)
	defer r.Close()
	if r.Seq() != 2 {
		t.Fatalf("Seq = %d, want 2", r.Seq())
	}
	if got := r.DB().String(); got != want {
		t.Fatalf("recovered DB:\n%s\nwant:\n%s", got, want)
	}
	if got := countLines(r.DB()); got != wantCounts {
		t.Fatalf("recovered counts:\n%s\nwant:\n%s", got, wantCounts)
	}
}

// TestDurableReopenChangedProgram: a snapshot's support counts belong
// to the program that derived them. Reopened under another program —
// the left-linear form of the same closure, whose counts differ on a
// diamond, and a nonrecursive program deriving fewer facts — the handle
// must hold exactly the new program's materialization of the recovered
// base, counts included, and keep it exact across a retract; the store
// then reopens under the new program without re-materializing.
func TestDurableReopenChangedProgram(t *testing.T) {
	for _, src := range []string{
		"tc(X, Y) :- e(X, Y).\ntc(X, Z) :- tc(X, Y), e(Y, Z).\n",
		"tc(X, Y) :- e(X, Y).\n",
	} {
		dir := t.TempDir()
		h := openDurable(t, dir, parser.MustProgram(tcSrc), eval.Options{}, -1)
		if _, err := h.Insert(parser.MustAtomList("e(a, b), e(a, c), e(b, d), e(c, d), e(d, f)")); err != nil {
			t.Fatal(err)
		}
		if err := h.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if _, err := h.Insert(parser.MustAtomList("e(f, g)")); err != nil {
			t.Fatal(err)
		}
		h.Close()

		prog := parser.MustProgram(src)
		check := func(h *eval.Handle, when string) {
			t.Helper()
			want := mustMaintain(t, prog, h.Base().Clone(), eval.Options{})
			if got, w := h.DB().String(), want.DB().String(); got != w {
				t.Fatalf("%s under %q:\n%s\nwant:\n%s", when, src, got, w)
			}
			if got, w := countLines(h.DB()), countLines(want.DB()); got != w {
				t.Fatalf("%s under %q: counts\n%s\nwant:\n%s", when, src, got, w)
			}
		}
		r := openDurable(t, dir, prog, eval.Options{}, -1)
		check(r, "reopened")
		if _, err := r.Retract(parser.MustAtomList("e(b, d)")); err != nil {
			t.Fatal(err)
		}
		check(r, "after a retract")
		r.Close()
		r = openDurable(t, dir, prog, eval.Options{}, -1)
		check(r, "reopened again")
		r.Close()
	}
}

// TestDurableInMemoryHandleNoops checks the durable surface of a plain
// in-memory handle: Checkpoint/Close succeed as no-ops, Seq is 0.
func TestDurableInMemoryHandleNoops(t *testing.T) {
	prog := parser.MustProgram(tcSrc)
	h := mustMaintain(t, prog, database.MustParse("e(a, b)."), eval.Options{})
	if err := h.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint on in-memory handle: %v", err)
	}
	if h.Seq() != 0 {
		t.Fatalf("Seq = %d on in-memory handle", h.Seq())
	}
	if err := h.Close(); err != nil {
		t.Fatalf("Close on in-memory handle: %v", err)
	}
}

// TestDifferentialDurable drives the same random update schedule
// through a durable handle (crashed and reopened at a scripted batch)
// and an uncrashed in-memory handle, at workers 1, 2 and 8 — the PR 8
// differential pattern extended across a restart. After every step the
// durable database must equal the in-memory one and the from-scratch
// fixpoint of a shadow base, bit for bit (facts, counts, StatsEpoch);
// across worker counts the UpdateStats must agree exactly.
func TestDifferentialDurable(t *testing.T) {
	prog := parser.MustProgram(tcSrc + "reach(Y) :- tc(a, Y).\n")
	for seed := int64(0); seed < 3; seed++ {
		// Tiny snapshot threshold on odd seeds: snapshots fire every few
		// batches, so crashes land both before and after a truncation.
		snapBytes := int64(-1)
		if seed%2 == 1 {
			snapBytes = 64
		}
		rng := rand.New(rand.NewSource(seed))
		ops := randomOps(rng, 6, 10, 2)
		crashAt := rng.Intn(len(ops))

		type lane struct {
			workers int
			dir     string
			durable *eval.Handle
			oracle  *eval.Handle
		}
		var lanes []*lane
		for _, w := range []int{1, 2, 8} {
			opts := eval.Options{Workers: w}
			l := &lane{workers: w, dir: t.TempDir()}
			l.durable = openDurable(t, l.dir, prog, opts, snapBytes)
			l.oracle = mustMaintain(t, prog, database.New(), opts)
			lanes = append(lanes, l)
		}
		shadow := database.New()

		for step, op := range ops {
			applyOp(shadow, op.insert, op.facts)
			want := fromScratch(t, prog, shadow)
			var firstUS eval.UpdateStats
			for li, l := range lanes {
				if step == crashAt {
					// Crash: drop the handle (every acknowledged commit is
					// already fsynced, so closing the file changes nothing
					// on disk) and recover from the directory.
					if err := l.durable.Close(); err != nil {
						t.Fatal(err)
					}
					l.durable = openDurable(t, l.dir, prog, eval.Options{Workers: l.workers}, snapBytes)
					if got := l.durable.DB().String(); got != l.oracle.DB().String() {
						t.Fatalf("seed %d step %d w=%d: recovery diverged:\n%s\nwant:\n%s",
							seed, step, l.workers, got, l.oracle.DB().String())
					}
				}
				apply := func(h *eval.Handle) (eval.UpdateStats, error) {
					if op.insert {
						return h.Insert(op.facts)
					}
					return h.Retract(op.facts)
				}
				dus, err := apply(l.durable)
				if err != nil {
					t.Fatalf("seed %d step %d w=%d durable: %v", seed, step, l.workers, err)
				}
				if _, err := apply(l.oracle); err != nil {
					t.Fatalf("seed %d step %d w=%d oracle: %v", seed, step, l.workers, err)
				}
				if got := l.durable.DB().String(); got != want {
					t.Fatalf("seed %d step %d w=%d: durable diverged from scratch:\n%s\nwant:\n%s",
						seed, step, l.workers, got, want)
				}
				if got, og := countLines(l.durable.DB()), countLines(l.oracle.DB()); got != og {
					t.Fatalf("seed %d step %d w=%d: counts diverged:\n%s\nwant:\n%s",
						seed, step, l.workers, got, og)
				}
				if ge, oe := l.durable.DB().StatsEpoch(), l.oracle.DB().StatsEpoch(); ge != oe {
					t.Fatalf("seed %d step %d w=%d: StatsEpoch %d, oracle %d",
						seed, step, l.workers, ge, oe)
				}
				if li == 0 {
					firstUS = dus
				} else if usNoWall(dus) != usNoWall(firstUS) {
					t.Fatalf("seed %d step %d: durable UpdateStats differ across workers: %+v vs %+v",
						seed, step, usNoWall(dus), usNoWall(firstUS))
				}
			}
		}
		// Final check: one more reopen of each lane lands on the same
		// state, and all lanes agree on Seq.
		for _, l := range lanes {
			want := l.durable.DB().String()
			wantCounts := countLines(l.durable.DB())
			seq := l.durable.Seq()
			if err := l.durable.Close(); err != nil {
				t.Fatal(err)
			}
			r := openDurable(t, l.dir, prog, eval.Options{Workers: l.workers}, snapBytes)
			if r.DB().String() != want || countLines(r.DB()) != wantCounts || r.Seq() != seq {
				t.Fatalf("seed %d w=%d: final reopen diverged (seq %d vs %d)", seed, l.workers, r.Seq(), seq)
			}
			if uint64(len(ops)) > seq {
				t.Fatalf("seed %d w=%d: %d ops but Seq=%d", seed, l.workers, len(ops), seq)
			}
			r.Close()
		}
	}
}

// TestDurableReplayBudgetMatchesOriginal ensures replay uses the same
// per-update budgets as live updates: a schedule that fits the budget
// live must also fit it during recovery.
func TestDurableReplayBudget(t *testing.T) {
	prog := parser.MustProgram(tcSrc)
	dir := t.TempDir()
	opts := eval.Options{}
	h := openDurable(t, dir, prog, opts, -1)
	for i := 0; i < 5; i++ {
		if _, err := h.Insert([]ast.Atom{parser.MustAtom(fmt.Sprintf("e(n%d, n%d)", i, i+1))}); err != nil {
			t.Fatal(err)
		}
	}
	want := h.DB().String()
	h.Close()
	r := openDurable(t, dir, prog, opts, -1)
	defer r.Close()
	if got := r.DB().String(); got != want {
		t.Fatalf("recovered:\n%s\nwant:\n%s", got, want)
	}
}
