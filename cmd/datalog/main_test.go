package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"datalogeq/internal/database"
	"datalogeq/internal/eval"
)

func write(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// captureStderr runs fn with os.Stderr redirected into a buffer and
// returns what fn printed there.
func captureStderr(t *testing.T, fn func()) string {
	t.Helper()
	old := os.Stderr
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stderr = w
	defer func() { os.Stderr = old }()
	done := make(chan string)
	go func() {
		var b bytes.Buffer
		io.Copy(&b, r)
		done <- b.String()
	}()
	fn()
	w.Close()
	return <-done
}

func TestCmdEval(t *testing.T) {
	dir := t.TempDir()
	prog := write(t, dir, "tc.dl", "p(X, Y) :- e(X, Z), p(Z, Y).\np(X, Y) :- e(X, Y).\n")
	db := write(t, dir, "g.dl", "e(a, b). e(b, c).")
	if err := cmdEval([]string{"-program", prog, "-db", db, "-goal", "p"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdEval([]string{"-program", prog, "-db", db, "-goal", "p", "-naive"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdEval([]string{"-program", prog}); err == nil {
		t.Error("missing flags accepted")
	}
	if err := cmdEval([]string{"-program", prog, "-db", db, "-goal", "zzz"}); err == nil {
		t.Error("unknown goal accepted")
	}
	bad := write(t, dir, "bad.dl", "p(X :- e(X).")
	if err := cmdEval([]string{"-program", bad, "-db", db, "-goal", "p"}); err == nil {
		t.Error("syntax error accepted")
	}
}

func TestCmdEvalWorkersAndTimeout(t *testing.T) {
	dir := t.TempDir()
	prog := write(t, dir, "tc.dl", "p(X, Y) :- e(X, Z), p(Z, Y).\np(X, Y) :- e(X, Y).\n")
	db := write(t, dir, "g.dl", "e(a, b). e(b, c).")
	for _, workers := range []string{"1", "4"} {
		if err := cmdEval([]string{"-program", prog, "-db", db, "-goal", "p", "-workers", workers}); err != nil {
			t.Fatalf("-workers %s: %v", workers, err)
		}
	}
	// A generous timeout lets the evaluation finish.
	if err := cmdEval([]string{"-program", prog, "-db", db, "-goal", "p", "-timeout", "1m"}); err != nil {
		t.Fatalf("-timeout 1m: %v", err)
	}
	// A zero-width deadline trips the wall budget. The trip degrades
	// gracefully: partial results, an INCOMPLETE note, exit 0.
	var err error
	detail := captureStderr(t, func() {
		err = cmdEval([]string{"-program", prog, "-db", db, "-goal", "p", "-timeout", "1ns"})
	})
	if err != nil {
		t.Errorf("expired timeout must degrade, got error: %v", err)
	}
	if !strings.Contains(detail, "INCOMPLETE") || !strings.Contains(detail, "budget exhausted") {
		t.Errorf("tripped eval stderr %q missing the INCOMPLETE note", detail)
	}
}

// TestCmdEvalBudgetTrip: -max-facts trips mid-evaluation; the partial
// fixpoint is printed with the INCOMPLETE note, and the same budget with
// room to spare changes nothing.
func TestCmdEvalBudgetTrip(t *testing.T) {
	dir := t.TempDir()
	prog := write(t, dir, "tc.dl", "p(X, Y) :- e(X, Z), p(Z, Y).\np(X, Y) :- e(X, Y).\n")
	db := write(t, dir, "g.dl", "e(a, b). e(b, c). e(c, d).")
	var err error
	detail := captureStderr(t, func() {
		err = cmdEval([]string{"-program", prog, "-db", db, "-goal", "p", "-max-facts", "2"})
	})
	if err != nil {
		t.Errorf("facts trip must degrade, got error: %v", err)
	}
	if !strings.Contains(detail, "INCOMPLETE") || !strings.Contains(detail, "facts budget") {
		t.Errorf("tripped eval stderr %q missing the facts-budget note", detail)
	}
	detail = captureStderr(t, func() {
		err = cmdEval([]string{"-program", prog, "-db", db, "-goal", "p", "-max-facts", "100", "-max-steps", "1000"})
	})
	if err != nil {
		t.Errorf("generous budget: %v", err)
	}
	if strings.Contains(detail, "INCOMPLETE") {
		t.Errorf("generous budget still tripped: %q", detail)
	}
}

func TestCmdUnfold(t *testing.T) {
	dir := t.TempDir()
	prog := write(t, dir, "nr.dl", `
		q(X, Y) :- r(X, Z), r(Z, Y).
		r(X, Y) :- e(X, Y).
		r(X, Y) :- f(X, Y).
	`)
	if err := cmdUnfold([]string{"-program", prog, "-goal", "q"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdUnfold([]string{"-program", prog, "-goal", "q", "-minimize"}); err != nil {
		t.Fatal(err)
	}
	rec := write(t, dir, "rec.dl", "p(X) :- p(X).\np(X) :- e(X).\n")
	if err := cmdUnfold([]string{"-program", rec, "-goal", "p"}); err == nil {
		t.Error("recursive program accepted by unfold")
	}
}

func TestCmdClassifyAndTrees(t *testing.T) {
	dir := t.TempDir()
	prog := write(t, dir, "tc.dl", "p(X, Y) :- e(X, Z), p(Z, Y).\np(X, Y) :- b(X, Y).\n")
	if err := cmdClassify([]string{"-program", prog}); err != nil {
		t.Fatal(err)
	}
	if err := cmdTrees([]string{"-program", prog, "-goal", "p", "-depth", "3", "-count", "2"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdClassify([]string{"-program", filepath.Join(dir, "missing.dl")}); err == nil {
		t.Error("missing file accepted")
	}
}

func TestCmdTreesDOT(t *testing.T) {
	dir := t.TempDir()
	prog := write(t, dir, "tc.dl", "p(X, Y) :- e(X, Z), p(Z, Y).\np(X, Y) :- b(X, Y).\n")
	if err := cmdTrees([]string{"-program", prog, "-goal", "p", "-depth", "2", "-dot"}); err != nil {
		t.Fatal(err)
	}
}

func TestCmdEvalWatch(t *testing.T) {
	dir := t.TempDir()
	prog := write(t, dir, "tc.dl", "p(X, Y) :- e(X, Z), p(Z, Y).\np(X, Y) :- e(X, Y).\n")
	db := write(t, dir, "g.dl", "e(a, b). e(b, c).")
	in := strings.NewReader(strings.Join([]string{
		"% a comment, then a blank line",
		"",
		"+e(c, d).",
		"-e(a, b).",
		"this is not a fact",
		"e(a, e).", // bare line defaults to insert
	}, "\n"))
	// evalWatch is driven directly; cmdEval wires os.Stdin to it.
	p, err := loadProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile(db)
	if err != nil {
		t.Fatal(err)
	}
	d, err := database.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	stderr := captureStderr(t, func() {
		h, _, err := eval.Maintain(p, d, eval.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := evalWatch(h, "p", in, &out); err != nil {
			t.Fatal(err)
		}
	})
	got := out.String()
	for _, want := range []string{"% insert:", "% retract:", "p(a, e).", "p(b, d).", "p(c, d)."} {
		if !strings.Contains(got, want) {
			t.Errorf("watch output missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "p(a, b).") || strings.Contains(got, "p(a, c).") {
		t.Errorf("retracted closure still present:\n%s", got)
	}
	if !strings.Contains(stderr, "line 5") {
		t.Errorf("stderr = %q", stderr)
	}
}

// TestCmdEvalDurable runs eval -data over a fresh directory (seeding
// from -db), then reopens it without -db and expects the same goal
// relation — the CLI face of crash recovery.
func TestCmdEvalDurable(t *testing.T) {
	dir := t.TempDir()
	prog := write(t, dir, "tc.dl", "p(X, Y) :- e(X, Z), p(Z, Y).\np(X, Y) :- e(X, Y).\n")
	db := write(t, dir, "g.dl", "e(a, b). e(b, c).")
	store := filepath.Join(dir, "store")

	first, err := captureStdout(t, func() error {
		return cmdEval([]string{"-program", prog, "-db", db, "-goal", "p", "-data", store})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(first, "p(a, c).") {
		t.Fatalf("first run output missing closure:\n%s", first)
	}
	second, err := captureStdout(t, func() error {
		return cmdEval([]string{"-program", prog, "-goal", "p", "-data", store, "-checkpoint"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Fatalf("recovered run differs:\n%s\nwant:\n%s", second, first)
	}
	// After -checkpoint the state lives in a snapshot; recover -verify
	// must accept it.
	out, err := captureStdout(t, func() error {
		return cmdRecover([]string{"-data", store, "-program", prog, "-verify"})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"generation:", "snapshot:          true", "verify:            ok"} {
		if !strings.Contains(out, want) {
			t.Errorf("recover output missing %q:\n%s", want, out)
		}
	}
}

// TestCmdEvalDurableProgramChange: a store checkpointed under one
// program and reopened under another must answer for the program it is
// opened with. -optimize swaps Π₁ for its proven-equivalent unfolding,
// so the answers after the retract must be those of a fresh run over
// the remaining base; support counts carried over from the first
// program would keep buys(t1, x) and buys(t2, x) alive.
func TestCmdEvalDurableProgramChange(t *testing.T) {
	dir := t.TempDir()
	prog := filepath.Join("..", "..", "testdata", "trendy.dl")
	db := write(t, dir, "f.dl", "likes(a, x). likes(b, y). trendy(t1). trendy(t2).")
	store := filepath.Join(dir, "store")
	if _, err := captureStdout(t, func() error {
		return cmdEval([]string{"-program", prog, "-db", db, "-data", store, "-checkpoint", "-goal", "buys"})
	}); err != nil {
		t.Fatal(err)
	}
	var out string
	err := withStdin(t, "-likes(a, x).\n", func() error {
		var err error
		out, err = captureStdout(t, func() error {
			return cmdEval([]string{"-program", prog, "-data", store, "-optimize", "-goal", "buys", "-watch"})
		})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, "buys(") {
			got = append(got, l)
		}
	}
	if want := "buys(b, y). buys(t1, y). buys(t2, y)."; strings.Join(got, " ") != want {
		t.Fatalf("goal rows after the retract = %q, want %q", strings.Join(got, " "), want)
	}
}

// withStdin runs fn with os.Stdin reading input.
func withStdin(t *testing.T, input string, fn func() error) error {
	t.Helper()
	f := filepath.Join(t.TempDir(), "stdin")
	if err := os.WriteFile(f, []byte(input), 0o644); err != nil {
		t.Fatal(err)
	}
	in, err := os.Open(f)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	old := os.Stdin
	os.Stdin = in
	defer func() { os.Stdin = old }()
	return fn()
}

// TestCmdEvalOptimizeMaintained: -optimize composes with -watch and
// with -data. The optimizer prunes junk, which the goal does not need,
// so the handle must maintain the optimized program rather than count
// the original rules against the pruned database; either way the goal
// rows after the updates equal those of the unoptimized run.
func TestCmdEvalOptimizeMaintained(t *testing.T) {
	dir := t.TempDir()
	prog := write(t, dir, "p.dl", `
		tc(X, Y) :- e(X, Y).
		tc(X, Y) :- e(X, Z), tc(Z, Y).
		junk(X) :- e(X, Y), tc(Y, X).
		goal(Y) :- tc(a, Y).
	`)
	db := write(t, dir, "g.dl", "e(a, b). e(b, c). e(c, a).")
	updates := "+e(c, d).\n-e(b, c).\n"
	run := func(flags ...string) string {
		t.Helper()
		args := append([]string{"-program", prog, "-db", db, "-goal", "goal", "-watch"}, flags...)
		var out string
		err := withStdin(t, updates, func() error {
			var err error
			out, err = captureStdout(t, func() error { return cmdEval(args) })
			return err
		})
		if err != nil {
			t.Fatalf("eval %v: %v", flags, err)
		}
		return goalLines(out)
	}
	want := run()
	if want != "goal(b)." {
		t.Fatalf("unoptimized goal rows = %q, want goal(b).", want)
	}
	if got := run("-optimize"); got != want {
		t.Errorf("-optimize -watch goal rows = %q, want %q", got, want)
	}
	if got := run("-optimize", "-data", filepath.Join(dir, "store")); got != want {
		t.Errorf("-optimize -data goal rows = %q, want %q", got, want)
	}
}

// goalLines keeps the goal fact lines of eval's stdout, dropping the
// per-update stats lines.
func goalLines(out string) string {
	var lines []string
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, "goal(") {
			lines = append(lines, l)
		}
	}
	return strings.Join(lines, "\n")
}
