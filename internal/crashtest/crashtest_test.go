package crashtest_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"datalogeq/internal/crashtest"
	"datalogeq/internal/database"
	"datalogeq/internal/eval"
	"datalogeq/internal/parser"

	_ "datalogeq/internal/ivm" // registers the durable maintainer
)

// The scripted workload: transitive closure maintained over a stream of
// edge batches. Parent and child share the program, seed, step count and
// snapshot threshold, so both can reconstruct any prefix of the run.
const (
	childTest = "TestCrashtestChild"
	childSrc  = "tc(X, Y) :- e(X, Y).\ntc(X, Z) :- e(X, Y), tc(Y, Z).\n"

	childSeed  = 1
	childSteps = 14
	// Small enough that snapshots fire several times over 14 batches, so
	// crashes land on both sides of a WAL truncation.
	childSnapBytes = 120
)

func childEnv() []string {
	return []string{
		fmt.Sprintf("CRASHTEST_SEED=%d", childSeed),
		fmt.Sprintf("CRASHTEST_STEPS=%d", childSteps),
		fmt.Sprintf("CRASHTEST_SNAPBYTES=%d", childSnapBytes),
	}
}

// TestCrashtestChild is the re-execed workload, not a test of its own:
// it opens the durable store, resumes the scripted stream from the
// store's sequence number, and runs until done — or until the armed
// crashpoint SIGKILLs it mid-protocol.
func TestCrashtestChild(t *testing.T) {
	if !crashtest.IsChild() {
		t.Skip("crashtest child workload; driven by the parent tests")
	}
	if err := crashtest.Arm(); err != nil {
		t.Fatal(err)
	}
	seed := int64(crashtest.EnvInt("CRASHTEST_SEED", childSeed))
	steps := crashtest.EnvInt("CRASHTEST_STEPS", childSteps)
	snapBytes := int64(crashtest.EnvInt("CRASHTEST_SNAPBYTES", childSnapBytes))

	d, err := database.Open(crashtest.Dir(), database.OpenOptions{SnapshotBytes: snapBytes})
	if err != nil {
		t.Fatalf("database.Open: %v", err)
	}
	h, _, err := eval.MaintainDurable(parser.MustProgram(childSrc), d, eval.Options{})
	if err != nil {
		t.Fatalf("MaintainDurable: %v", err)
	}
	defer h.Close()
	ops := crashtest.Stream(seed, steps)
	for _, op := range ops[h.Seq():] {
		if op.Insert {
			_, err = h.Insert(op.Facts)
		} else {
			_, err = h.Retract(op.Facts)
		}
		if err != nil {
			t.Fatalf("update: %v", err)
		}
	}
}

// countLines renders every support count as sorted "pred(args)=count"
// lines; indexLines renders every relation's index masks. Together with
// DB.String() and StatsEpoch they cover all recovered state the engine's
// determinism contract promises.
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

func indexLines(db *database.DB) string {
	var lines []string
	for _, pred := range db.Preds() {
		for _, mask := range db.Lookup(pred).IndexMasks() {
			lines = append(lines, fmt.Sprintf("%s:%#x", pred, mask))
		}
	}
	return strings.Join(lines, "\n")
}

// verifyDir reopens dir, checks the recovered state against an
// in-memory oracle replaying exactly the first Seq scripted batches,
// and returns the recovered sequence number. The parent's snapshot
// threshold is disabled so verification never rewrites generations the
// continuation run will read.
func verifyDir(t *testing.T, dir string) uint64 {
	t.Helper()
	return verifyDirUnder(t, dir, childSrc)
}

// verifyDirUnder is verifyDir with the store reopened, and the oracle
// run, under the program src.
func verifyDirUnder(t *testing.T, dir, src string) uint64 {
	t.Helper()
	prog := parser.MustProgram(src)
	d, err := database.Open(dir, database.OpenOptions{SnapshotBytes: -1})
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	h, _, err := eval.MaintainDurable(prog, d, eval.Options{})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer h.Close()
	seq := h.Seq()
	if seq > childSteps {
		t.Fatalf("recovered Seq = %d, beyond the %d scripted batches", seq, childSteps)
	}

	oracle, _, err := eval.Maintain(prog, database.New(), eval.Options{})
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	for i, op := range crashtest.Stream(childSeed, childSteps)[:seq] {
		if op.Insert {
			_, err = oracle.Insert(op.Facts)
		} else {
			_, err = oracle.Retract(op.Facts)
		}
		if err != nil {
			t.Fatalf("oracle batch %d: %v", i, err)
		}
	}
	if got, want := h.DB().String(), oracle.DB().String(); got != want {
		t.Fatalf("recovered facts diverged after %d batches:\n%s\nwant:\n%s", seq, got, want)
	}
	if got, want := h.Base().String(), oracle.Base().String(); got != want {
		t.Fatalf("recovered base diverged:\n%s\nwant:\n%s", got, want)
	}
	if got, want := countLines(h.DB()), countLines(oracle.DB()); got != want {
		t.Fatalf("recovered counts diverged:\n%s\nwant:\n%s", got, want)
	}
	if got, want := indexLines(h.DB()), indexLines(oracle.DB()); got != want {
		t.Fatalf("recovered indexes diverged:\n%s\nwant:\n%s", got, want)
	}
	if got, want := h.DB().StatsEpoch(), oracle.DB().StatsEpoch(); got != want {
		t.Fatalf("recovered StatsEpoch = %d, oracle %d", got, want)
	}
	return seq
}

// TestCrashRecovery kills the child at every durability protocol point —
// mid-frame append, post-append pre-fsync, post-fsync, snapshot written
// but unrenamed, renamed but WAL unswitched, WAL switched but old
// generation unremoved, and fully truncated — and requires the reopened
// store to match the oracle exactly; then an unarmed re-run must resume
// from the recovered sequence number and land on the full-stream state.
func TestCrashRecovery(t *testing.T) {
	cases := []struct {
		point string
		hit   int
	}{
		{"wal/mid-frame", 1},
		{"wal/mid-frame", 5},
		{"wal/appended", 1},
		{"wal/appended", 7},
		{"wal/synced", 1},
		{"wal/synced", 9},
		{"snapshot/written", 1},
		{"snapshot/written", 2},
		{"snapshot/renamed", 1},
		{"snapshot/renamed", 2},
		{"durable/wal-switched", 1},
		{"durable/truncated", 1},
		{"durable/truncated", 2},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("%s@%d", tc.point, tc.hit), func(t *testing.T) {
			dir := t.TempDir()
			res, err := crashtest.Run(crashtest.Config{
				Test: childTest, Dir: dir,
				Point: tc.point, Hit: tc.hit,
				Env: childEnv(),
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Killed {
				t.Fatalf("child was not killed at %s hit %d; the point never fired\n%s",
					tc.point, tc.hit, res.Output)
			}
			seq := verifyDir(t, dir)
			t.Logf("killed at %s hit %d: %d/%d batches durable", tc.point, tc.hit, seq, childSteps)

			// Resume: an unarmed child must pick up at Seq, finish the
			// stream, and leave the full-run state behind.
			res, err = crashtest.Run(crashtest.Config{Test: childTest, Dir: dir, Env: childEnv()})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Completed {
				t.Fatalf("continuation child did not complete\n%s", res.Output)
			}
			if got := verifyDir(t, dir); got != childSteps {
				t.Fatalf("after continuation Seq = %d, want %d", got, childSteps)
			}
		})
	}
}

// TestCrashRecoveryDurableProgramChange: a store killed after two
// snapshots and reopened under another program — the left-linear form
// of the same closure, whose support counts differ — must recover
// exactly what the new program derives from the acknowledged batches,
// counts included, and not the counts the snapshot carries. Reopening
// under the original program afterwards must recover its state as well.
func TestCrashRecoveryDurableProgramChange(t *testing.T) {
	const leftSrc = "tc(X, Y) :- e(X, Y).\ntc(X, Z) :- tc(X, Y), e(Y, Z).\n"
	dir := t.TempDir()
	res, err := crashtest.Run(crashtest.Config{
		Test: childTest, Dir: dir,
		Point: "snapshot/renamed", Hit: 2,
		Env: childEnv(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Killed {
		t.Fatalf("child was not killed at snapshot/renamed hit 2\n%s", res.Output)
	}
	seq := verifyDirUnder(t, dir, leftSrc)
	if got := verifyDirUnder(t, dir, childSrc); got != seq {
		t.Fatalf("reopening under the original program recovered Seq %d, want %d", got, seq)
	}
}

// TestCrashRecoveryUnarmed is the baseline: no kill, one run, full
// stream durable.
func TestCrashRecoveryUnarmed(t *testing.T) {
	dir := t.TempDir()
	res, err := crashtest.Run(crashtest.Config{Test: childTest, Dir: dir, Env: childEnv()})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("child did not complete\n%s", res.Output)
	}
	if got := verifyDir(t, dir); got != childSteps {
		t.Fatalf("Seq = %d, want %d", got, childSteps)
	}
}

// TestCrashDuringTornTruncation is the double-crash scenario the
// directory fsync in wal.Open exists for: crash #1 (mid-frame) leaves a
// torn WAL tail; the recovery run truncates that tail and is itself
// killed between the truncate and its fsyncs (crash #2 at
// wal/torn-truncated) — exactly the window where, without the syncs, a
// third open could see the torn bytes resurrected and interleaved under
// fresh appends. Recovery after the second crash must still match the
// oracle, and the continuation run must finish the stream.
func TestCrashDuringTornTruncation(t *testing.T) {
	dir := t.TempDir()
	// Crash #1: die mid-append, leaving a torn frame on disk.
	res, err := crashtest.Run(crashtest.Config{
		Test: childTest, Dir: dir,
		Point: "wal/mid-frame", Hit: 3,
		Env: childEnv(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Killed {
		t.Fatalf("first child not killed\n%s", res.Output)
	}
	// Crash #2: the recovery run hits the torn tail, truncates it, and
	// dies before the truncation is fsynced.
	res, err = crashtest.Run(crashtest.Config{
		Test: childTest, Dir: dir,
		Point: "wal/torn-truncated", Hit: 1,
		Env: childEnv(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Killed {
		t.Fatalf("second child not killed at wal/torn-truncated — no torn tail was found\n%s", res.Output)
	}
	verifyDir(t, dir)
	// A third crash immediately after the durable truncation exercises
	// the other side of the window.
	res, err = crashtest.Run(crashtest.Config{
		Test: childTest, Dir: dir,
		Point: "wal/truncation-synced", Hit: 1,
		Env: childEnv(),
	})
	if err != nil {
		t.Fatal(err)
	}
	// The second crash died before appending, so this run may or may not
	// find a torn tail again depending on what the page cache persisted;
	// both a kill (tail found) and a completion (no tail) are legal.
	if !res.Killed && !res.Completed {
		t.Fatalf("third child neither killed nor completed\n%s", res.Output)
	}
	if res.Killed {
		verifyDir(t, dir)
		res, err = crashtest.Run(crashtest.Config{Test: childTest, Dir: dir, Env: childEnv()})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed {
			t.Fatalf("continuation child did not complete\n%s", res.Output)
		}
	}
	if got := verifyDir(t, dir); got != childSteps {
		t.Fatalf("final Seq = %d, want %d", got, childSteps)
	}
}

// TestCrashRepeatedKills crashes the same store over and over at
// successive commits — kill at every WAL fsync in turn — verifying
// recovery after each, so corruption can never accumulate across
// restarts.
func TestCrashRepeatedKills(t *testing.T) {
	dir := t.TempDir()
	for hit := 1; hit <= 4; hit++ {
		res, err := crashtest.Run(crashtest.Config{
			Test: childTest, Dir: dir,
			Point: "wal/synced", Hit: hit,
			Env: childEnv(),
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Killed {
			t.Fatalf("hit %d: child not killed\n%s", hit, res.Output)
		}
		verifyDir(t, dir)
	}
	res, err := crashtest.Run(crashtest.Config{Test: childTest, Dir: dir, Env: childEnv()})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("final child did not complete\n%s", res.Output)
	}
	if got := verifyDir(t, dir); got != childSteps {
		t.Fatalf("final Seq = %d, want %d", got, childSteps)
	}
}
