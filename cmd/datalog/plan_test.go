package main

import (
	"strings"
	"testing"
)

// TestCmdEvalExplain: -explain prints the chosen join trees and the
// plan-cache totals to stderr, without changing the tuples on stdout.
func TestCmdEvalExplain(t *testing.T) {
	dir := t.TempDir()
	prog := write(t, dir, "tc.dl", "p(X, Y) :- e(X, Z), p(Z, Y).\np(X, Y) :- e(X, Y).\n")
	db := write(t, dir, "g.dl", "e(a, b). e(b, c). e(c, d).")
	var err error
	detail := captureStderr(t, func() {
		err = cmdEval([]string{"-program", prog, "-db", db, "-goal", "p", "-explain"})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"query plans:", "probe", "plan cache:", "delta at body atom"} {
		if !strings.Contains(detail, want) {
			t.Errorf("-explain stderr lacks %q:\n%s", want, detail)
		}
	}
	// -no-planner composes with -explain and flags the fixed order.
	detail = captureStderr(t, func() {
		err = cmdEval([]string{"-program", prog, "-db", db, "-goal", "p", "-explain", "-no-planner"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(detail, "fixed order") {
		t.Errorf("-no-planner -explain stderr lacks the fixed-order flag:\n%s", detail)
	}
	// -optimize -explain prints the optimizer's rewrite report ahead of
	// the plans of the program it produced.
	detail = captureStderr(t, func() {
		err = cmdEval([]string{"-program", prog, "-db", db, "-goal", "p", "-explain", "-optimize"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if o, q := strings.Index(detail, "optimizer:\nschedule: {p}*"), strings.Index(detail, "query plans:"); o < 0 || q < o {
		t.Errorf("-optimize -explain stderr lacks the rewrite report before the plans:\n%s", detail)
	}
	// -no-planner alone evaluates normally.
	if err := cmdEval([]string{"-program", prog, "-db", db, "-goal", "p", "-no-planner"}); err != nil {
		t.Fatal(err)
	}
}

// TestReplPlan: :plan renders the join trees for a query body and
// keeps the session usable.
func TestReplPlan(t *testing.T) {
	s := newSession()
	s.statement("p(X, Y) :- e(X, Z), p(Z, Y).")
	s.statement("p(X, Y) :- e(X, Y).")
	s.statement("e(a, b). e(b, c).")
	quit, msg := s.command(":plan p(a, X)")
	if quit {
		t.Fatal(":plan quit the session")
	}
	for _, want := range []string{"plan cache:", "est ", "answers"} {
		if !strings.Contains(msg, want) {
			t.Errorf(":plan output lacks %q:\n%s", want, msg)
		}
	}
	if _, msg := s.command(":plan"); !strings.Contains(msg, "usage") {
		t.Errorf(":plan without a body = %q, want usage note", msg)
	}
	if _, msg := s.command(":plan p(X"); !strings.Contains(msg, "error") {
		t.Errorf(":plan with a bad body = %q, want error", msg)
	}
	// The session still answers queries afterwards.
	if got := s.statement("?- p(a, X)."); !strings.Contains(got, "X = b") {
		t.Errorf("query after :plan = %q", got)
	}
}
