package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"datalogeq/internal/analyze"
	"datalogeq/internal/ast"
	"datalogeq/internal/cq"
	"datalogeq/internal/database"
	"datalogeq/internal/eval"
	"datalogeq/internal/guard"
	"datalogeq/internal/opt"
	"datalogeq/internal/parser"
)

// cmdRepl runs the interactive session: rules and facts accumulate,
// "?- body." queries evaluate against the current program.
func cmdRepl(args []string) error {
	fmt.Println("datalog repl — enter rules/facts, '?- body.' to query, :help for commands")
	s := newSession()
	return s.loop(os.Stdin, os.Stdout)
}

// session holds the REPL state.
type session struct {
	prog  *ast.Program
	facts *database.DB
	qn    int
	// budget bounds each query evaluation so a runaway recursive
	// program degrades to a structured message instead of hanging or
	// exhausting memory; the session survives the trip.
	budget guard.Budget
	// handle is the maintained materialization behind :insert/:retract,
	// built lazily on first use and dropped whenever the program or
	// facts change through any other path (statements, :load, :clear) —
	// the handle's base database would no longer match the session's.
	handle *eval.Handle
}

// replBudget is the per-query resource budget: generous enough for any
// interactive workload, tight enough that a divergent query comes back
// with an answerable error.
var replBudget = guard.Budget{MaxFacts: 5_000_000, MaxWall: 30 * time.Second}

func newSession() *session {
	return &session{prog: &ast.Program{}, facts: database.New(), budget: replBudget}
}

// safely invokes fn and converts a panic anywhere below (parser,
// analyzer, evaluator) into a structured error message instead of
// killing the session.
func safely(fn func() string) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprintf("error: internal panic: %v (session preserved)", r)
		}
	}()
	return fn()
}

// loop reads statements (possibly spanning lines, terminated by '.') or
// :commands (one per line) and writes responses.
func (s *session) loop(in io.Reader, out io.Writer) error {
	scanner := bufio.NewScanner(in)
	scanner.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	var buf strings.Builder
	prompt := func() {
		if buf.Len() == 0 {
			fmt.Fprint(out, "> ")
		} else {
			fmt.Fprint(out, "| ")
		}
	}
	prompt()
	for scanner.Scan() {
		line := scanner.Text()
		trimmed := strings.TrimSpace(line)
		if buf.Len() == 0 && strings.HasPrefix(trimmed, ":") {
			var quit bool
			msg := safely(func() string {
				var m string
				quit, m = s.command(trimmed)
				return m
			})
			if msg != "" {
				fmt.Fprintln(out, msg)
			}
			if quit {
				return nil
			}
			prompt()
			continue
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		if !statementComplete(buf.String()) {
			prompt()
			continue
		}
		stmt := buf.String()
		buf.Reset()
		if msg := safely(func() string { return s.statement(stmt) }); msg != "" {
			fmt.Fprintln(out, msg)
		}
		prompt()
	}
	return scanner.Err()
}

// statementComplete reports whether the buffered text ends with a
// period outside quotes and comments.
func statementComplete(text string) bool {
	inQuote := false
	lastMeaningful := byte(0)
	for i := 0; i < len(text); i++ {
		c := text[i]
		switch {
		case inQuote:
			if c == '\\' {
				i++
			} else if c == '\'' {
				inQuote = false
			}
		case c == '\'':
			inQuote = true
		case c == '%':
			for i < len(text) && text[i] != '\n' {
				i++
			}
			continue
		}
		if !inQuote && c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			lastMeaningful = c
		}
	}
	return lastMeaningful == '.'
}

// command handles a :directive; it returns (quit, message).
func (s *session) command(line string) (bool, string) {
	fields := strings.Fields(line)
	switch fields[0] {
	case ":quit", ":q", ":exit":
		return true, "bye"
	case ":help", ":h":
		return false, strings.TrimSpace(`
commands:
  p(X, Y) :- e(X, Z), p(Z, Y).   add a rule
  e(a, b).                       add a fact
  ?- p(a, X).                    query
  :plan p(a, X)                  show the join trees chosen for a query
  :list                          show rules and facts
  :classify                      program properties
  :check [GOAL]                  static analysis of the loaded program
  :opt [GOAL]                    show the statically optimized program and rewrite report
  :insert FACT, ...              add facts through incremental maintenance (no re-fixpoint)
  :retract FACT, ...             remove facts, incrementally deleting what they derived
  :load FILE                     load rules/facts from a file
  :clear                         reset the session
  :quit                          leave`)
	case ":list":
		var b strings.Builder
		b.WriteString(s.prog.String())
		b.WriteString(s.facts.String())
		return false, strings.TrimRight(b.String(), "\n")
	case ":clear":
		s.prog = &ast.Program{}
		s.facts = database.New()
		s.handle = nil
		return false, "cleared"
	case ":insert", ":retract":
		rest := strings.TrimSpace(strings.TrimPrefix(line, fields[0]))
		if rest == "" {
			return false, "usage: " + fields[0] + " FACT, ...   (e.g. :insert e(a, b))"
		}
		return false, s.maintain(fields[0] == ":retract", rest)
	case ":classify":
		var b strings.Builder
		fmt.Fprintf(&b, "rules: %d, facts: %d\n", len(s.prog.Rules), s.facts.FactCount())
		fmt.Fprintf(&b, "recursive: %v, linear: %v, path-linear: %v",
			s.prog.IsRecursive(), s.prog.IsLinear(), s.prog.IsPathLinear())
		return false, b.String()
	case ":check":
		goal := ""
		if len(fields) > 1 {
			goal = fields[1]
		}
		return false, s.check(goal)
	case ":opt":
		goal := ""
		if len(fields) > 1 {
			goal = fields[1]
		}
		return false, s.optimize(goal)
	case ":plan":
		body := strings.TrimSpace(strings.TrimPrefix(line, ":plan"))
		body = strings.TrimSuffix(strings.TrimSpace(strings.TrimPrefix(body, "?-")), ".")
		if body == "" {
			return false, "usage: :plan BODY   (e.g. :plan p(a, X))"
		}
		return false, s.plan(body)
	case ":load":
		if len(fields) != 2 {
			return false, "usage: :load FILE"
		}
		src, err := os.ReadFile(fields[1])
		if err != nil {
			return false, "error: " + err.Error()
		}
		msg := s.statement(string(src))
		if strings.HasPrefix(msg, "error:") {
			return false, msg
		}
		// Loading succeeded: report analyzer warnings for the loaded
		// text (positions refer to the file) but keep the session
		// going — warnings are advice, not failures.
		var b strings.Builder
		if warn := checkSource(string(src), fields[1]); warn != "" {
			b.WriteString(warn)
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "loaded %s", fields[1])
		if msg != "" {
			fmt.Fprintf(&b, " — %s", msg)
		}
		return false, b.String()
	default:
		return false, "unknown command " + fields[0] + " (:help for help)"
	}
}

// check runs the static analyzer over the session's program (rules and
// facts) and renders every diagnostic. Facts are included as bodiless
// rules so arity conflicts with them are caught too.
func (s *session) check(goal string) string {
	prog := s.prog.Clone()
	for _, pred := range s.facts.Preds() {
		rel := s.facts.Lookup(pred)
		var row database.Row
		for i := 0; i < rel.Len(); i++ {
			if rel.Dead(i) {
				continue
			}
			row = rel.AppendRowAt(row[:0], i)
			args := make([]ast.Term, len(row))
			for j, id := range row {
				args[j] = ast.C(database.Symbol(id))
			}
			prog.Rules = append(prog.Rules, ast.Rule{Head: ast.Atom{Pred: pred, Args: args}})
		}
	}
	diags := analyze.Run(prog, analyze.Options{Goal: goal})
	if len(diags) == 0 {
		return "no findings"
	}
	lines := make([]string, len(diags))
	for i, d := range diags {
		lines[i] = d.String()
	}
	return strings.Join(lines, "\n")
}

// optimize runs the static optimizer over the session's rules and
// renders the optimized program with its rewrite report. The session
// program is left untouched — the command is a what-if view, like
// :plan; re-enter the printed rules (after :clear) to adopt them.
func (s *session) optimize(goal string) string {
	if len(s.prog.Rules) == 0 {
		return "no rules loaded"
	}
	optimized, rep, err := opt.Optimize(s.prog, opt.Options{Goal: goal})
	if err != nil {
		return "error: " + err.Error()
	}
	var b strings.Builder
	b.WriteString(strings.TrimRight(optimized.String(), "\n"))
	b.WriteByte('\n')
	b.WriteString(strings.TrimRight(rep.String(), "\n"))
	return b.String()
}

// checkSource analyzes freshly loaded source text and renders its
// warnings and errors (infos are left to :check), or "" when clean.
func checkSource(src, file string) string {
	prog, err := parser.ProgramUnvalidated(src)
	if err != nil {
		return ""
	}
	var lines []string
	for _, d := range analyze.Run(prog, analyze.Options{}) {
		if d.Severity == analyze.Info {
			continue
		}
		lines = append(lines, file+":"+d.String())
	}
	return strings.Join(lines, "\n")
}

// statement handles one or more rules/facts, or a query.
func (s *session) statement(text string) string {
	trimmed := strings.TrimSpace(text)
	if strings.HasPrefix(trimmed, "?-") {
		return s.query(strings.TrimSuffix(strings.TrimSpace(trimmed[2:]), "."))
	}
	prog, err := parser.Program(text)
	if err != nil {
		return "error: " + err.Error()
	}
	// Validate the combined program (and fact arities) before mutating
	// any session state, so a bad statement leaves the session intact.
	candidate := s.prog.Clone()
	var newFacts []ast.Atom
	for _, r := range prog.Rules {
		if r.IsFact() {
			newFacts = append(newFacts, r.Head)
			// Represent the fact as a rule for arity validation.
			candidate.Rules = append(candidate.Rules, ast.Rule{Head: r.Head})
			continue
		}
		candidate.Rules = append(candidate.Rules, r)
	}
	for _, a := range newFacts {
		if rel := s.facts.Lookup(a.Pred); rel != nil && rel.Arity() != len(a.Args) {
			return fmt.Sprintf("error: fact %s clashes with existing arity %d", a, rel.Arity())
		}
	}
	if err := candidate.Validate(); err != nil {
		return "error: " + err.Error()
	}
	for _, r := range prog.Rules {
		if !r.IsFact() {
			s.prog.Rules = append(s.prog.Rules, r)
		}
	}
	for _, a := range newFacts {
		if err := s.facts.AddAtom(a); err != nil {
			return "error: " + err.Error()
		}
	}
	s.handle = nil
	return fmt.Sprintf("ok (%d statements)", len(prog.Rules))
}

// maintain applies :insert/:retract through the incremental maintainer.
// The first use materializes the fixpoint once; later updates run delta
// rounds only. The session's fact store is mirrored on success so
// queries (which evaluate from s.facts) agree with the handle.
func (s *session) maintain(retract bool, factText string) string {
	atoms, err := parser.AtomList(strings.TrimSuffix(factText, "."))
	if err != nil {
		return "error: " + err.Error()
	}
	var b strings.Builder
	if s.handle == nil {
		h, stats, err := eval.Maintain(s.prog, s.facts, eval.Options{Budget: s.budget})
		if err != nil {
			return "error: " + err.Error()
		}
		s.handle = h
		fmt.Fprintf(&b, "materialized: %d facts derived, %d rule firings\n", stats.Derived, stats.Firings)
	}
	var us eval.UpdateStats
	if retract {
		us, err = s.handle.Retract(atoms)
	} else {
		us, err = s.handle.Insert(atoms)
	}
	if err != nil {
		// The handle may be mid-update; drop it so the next :insert
		// rebuilds from the (unchanged) session facts.
		s.handle = nil
		var le *guard.LimitError
		if errors.As(err, &le) {
			return fmt.Sprintf("error: %v\n  progress: %s\n  (update aborted; session facts unchanged)", le, le.Usage)
		}
		return "error: " + err.Error()
	}
	for _, a := range atoms {
		if retract {
			s.retractFact(a)
		} else if err := s.facts.AddAtom(a); err != nil {
			s.handle = nil
			return "error: " + err.Error()
		}
	}
	fmt.Fprintf(&b, "%s", us)
	return b.String()
}

// retractFact removes one ground fact from the session's fact store.
func (s *session) retractFact(a ast.Atom) {
	rel := s.facts.Lookup(a.Pred)
	if rel == nil {
		return
	}
	row := make(database.Row, 0, len(a.Args))
	for _, t := range a.Args {
		row = append(row, database.Intern(t.Name))
	}
	id := rel.RowID(row)
	if id < 0 {
		return
	}
	rel.DeleteRowsMarked([]int32{id})
}

// buildQuery compiles a query body into a fresh query rule whose head
// carries the body's variables, appended to a clone of the session
// program.
func (s *session) buildQuery(body string) (*ast.Program, string, []string, error) {
	atoms, err := parser.AtomList(body)
	if err != nil {
		return nil, "", nil, err
	}
	if len(atoms) == 0 {
		return nil, "", nil, errors.New("empty query")
	}
	s.qn++
	headPred := fmt.Sprintf("˂query%d", s.qn)
	vars := ast.VarsOfAtoms(atoms)
	args := make([]ast.Term, len(vars))
	for i, v := range vars {
		args[i] = ast.V(v)
	}
	q := cq.CQ{Head: ast.Atom{Pred: headPred, Args: args}, Body: atoms}
	prog := s.prog.Clone()
	prog.Rules = append(prog.Rules, ast.Rule{Head: q.Head, Body: q.Body})
	return prog, headPred, vars, nil
}

// plan evaluates a query with plan instrumentation and renders the
// join tree the cost-based planner chose for every rule the query
// touched — access paths, estimated vs actual rows, plan-cache totals
// — instead of the answers.
func (s *session) plan(body string) string {
	prog, headPred, _, err := s.buildQuery(body)
	if err != nil {
		return "error: " + err.Error()
	}
	out, _, report, err := eval.EvalExplain(prog, s.facts, eval.Options{Budget: s.budget})
	if err != nil {
		var le *guard.LimitError
		if !errors.As(err, &le) {
			return "error: " + err.Error()
		}
		// A budget trip still produced plans worth showing.
	}
	msg := strings.TrimRight(report.String(), "\n")
	if rel := out.Lookup(headPred); rel != nil {
		msg += fmt.Sprintf("\n%d answers", rel.Len())
	}
	return msg
}

// query evaluates "?- body" by compiling the body into a fresh query
// rule whose head carries the body's variables.
func (s *session) query(body string) string {
	prog, headPred, vars, err := s.buildQuery(body)
	if err != nil {
		return "error: " + err.Error()
	}
	rel, _, err := eval.Goal(prog, s.facts, headPred, eval.Options{Budget: s.budget})
	if err != nil {
		var le *guard.LimitError
		if errors.As(err, &le) {
			return fmt.Sprintf("error: %v\n  progress: %s\n  (query aborted; session preserved)", le, le.Usage)
		}
		var pe *guard.PanicError
		if errors.As(err, &pe) {
			return fmt.Sprintf("error: internal panic during evaluation: %v (session preserved)", pe.Value)
		}
		return "error: " + err.Error()
	}
	if len(vars) == 0 {
		if rel.Len() > 0 {
			return "true"
		}
		return "false"
	}
	if rel.Len() == 0 {
		return "no answers"
	}
	var lines []string
	var row database.Row
	for r := 0; r < rel.Len(); r++ {
		row = rel.AppendRowAt(row[:0], r)
		parts := make([]string, len(vars))
		for i, v := range vars {
			parts[i] = fmt.Sprintf("%s = %s", v, database.Symbol(row[i]))
		}
		lines = append(lines, "  "+strings.Join(parts, ", "))
	}
	sort.Strings(lines)
	return fmt.Sprintf("%d answers:\n%s", rel.Len(), strings.Join(lines, "\n"))
}
