// Command datalog is a Datalog workbench: it evaluates programs over
// fact files, unfolds nonrecursive programs into unions of conjunctive
// queries, classifies programs, and renders expansion trees.
//
// Usage:
//
//	datalog eval -program tc.dl -db graph.dl -goal p [-naive] [-workers 4] [-explain] [-no-planner] [-max-facts N] [-max-steps N] [-timeout 30s]
//	datalog eval -program tc.dl -goal p -data ./store [-watch] [-checkpoint] [-snapshot-bytes N] [-max-bytes N]
//	datalog unfold -program nonrec.dl -goal q [-minimize]
//	datalog classify -program prog.dl
//	datalog check prog.dl [-goal p] [-json] [-max-states N]
//	datalog trees -program tc.dl -goal p -depth 3 [-count 5]
//	datalog recover -data ./store [-program tc.dl] [-verify]
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"datalogeq/internal/ast"
	"datalogeq/internal/database"
	"datalogeq/internal/eval"
	"datalogeq/internal/expansion"
	"datalogeq/internal/guard"
	"datalogeq/internal/nonrec"
	"datalogeq/internal/opt"
	"datalogeq/internal/parser"
	"datalogeq/internal/ucq"

	_ "datalogeq/internal/ivm" // registers the incremental maintainer behind eval.Maintain
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "eval":
		err = cmdEval(os.Args[2:])
	case "unfold":
		err = cmdUnfold(os.Args[2:])
	case "classify":
		err = cmdClassify(os.Args[2:])
	case "check":
		err = cmdCheck(os.Args[2:])
	case "opt":
		err = cmdOpt(os.Args[2:])
	case "trees":
		err = cmdTrees(os.Args[2:])
	case "repl":
		err = cmdRepl(os.Args[2:])
	case "recover":
		err = cmdRecover(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "datalog:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: datalog <eval|unfold|classify|check|opt|trees|repl|recover|serve> [flags]
  eval     -program FILE -db FILE -goal PRED [-naive] [-workers N] [-explain] [-optimize] [-no-planner] [-max-facts N] [-max-steps N] [-timeout D]
           [-data DIR] [-watch] [-checkpoint] [-snapshot-bytes N] [-max-bytes N]
  unfold   -program FILE -goal PRED [-minimize]
  classify -program FILE
  check    FILE... [-goal PRED] [-json] [-no-info] [-passes] [-max-states N]
  opt      FILE... [-goal PRED] [-json] [-verify] [-passes] [-depth N] [-max-states N] [-no-unfold]
  trees    -program FILE -goal PRED [-depth N] [-count N] [-dot]
  repl     interactive session
  recover  -data DIR [-program FILE] [-verify]
  serve    -program FILE [-data DIR] [-http ADDR] [-line ADDR] [-max-inflight N] [-queue-depth N]
           [-deadline D] [-max-deadline D] [-max-facts N] [-max-steps N] [-max-wall D] [-max-maintained N]`)
	os.Exit(2)
}

func loadProgram(path string) (*ast.Program, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parser.Program(string(src))
}

func cmdEval(args []string) error {
	fs := flag.NewFlagSet("eval", flag.ExitOnError)
	progPath := fs.String("program", "", "program file")
	dbPath := fs.String("db", "", "facts file")
	goal := fs.String("goal", "", "goal predicate")
	naive := fs.Bool("naive", false, "use naive instead of semi-naive evaluation")
	workers := fs.Int("workers", 0, "worker goroutines per evaluation round (0 = all cores); results are identical for every value")
	explain := fs.Bool("explain", false, "print each rule's chosen join tree (access paths, estimated vs actual rows) to stderr")
	noPlanner := fs.Bool("no-planner", false, "disable cost-based join ordering and keep the textual atom order; results are identical either way")
	optimize := fs.Bool("optimize", false, "run the static optimizer on the program before evaluating or maintaining it (goal-directed, so non-goal relations may be pruned); with -explain, print its rewrite report")
	maxFacts := fs.Int64("max-facts", 0, "budget: abort after deriving this many facts (0 = unlimited); a trip prints the partial result")
	maxSteps := fs.Int64("max-steps", 0, "budget: abort after this many rule firings (0 = unlimited); a trip prints the partial result")
	timeout := fs.Duration("timeout", 0, "budget: abort evaluation after this duration (0 = no limit)")
	watch := fs.Bool("watch", false, "after the initial fixpoint, maintain it incrementally: read '+fact.'/'-fact.' update lines from stdin, print per-update stats, and print the goal relation at EOF")
	dataDir := fs.String("data", "", "durable store directory: recover state from its snapshot and WAL, and commit every update durably (crash-safe)")
	checkpoint := fs.Bool("checkpoint", false, "with -data: write a snapshot and truncate the WAL before exiting, so the next open recovers without replay")
	snapBytes := fs.Int64("snapshot-bytes", 0, "with -data: WAL size that triggers an automatic snapshot (0 = 1 MiB default, negative = only on -checkpoint)")
	maxBytes := fs.Int64("max-bytes", 0, "with -data: budget: refuse commits after this many bytes written to disk (0 = unlimited)")
	fs.Parse(args)
	if *progPath == "" || *goal == "" || (*dbPath == "" && *dataDir == "") {
		return fmt.Errorf("eval needs -program, -goal, and -db or -data")
	}
	prog, err := loadProgram(*progPath)
	if err != nil {
		return err
	}
	db := database.New()
	if *dbPath != "" {
		src, err := os.ReadFile(*dbPath)
		if err != nil {
			return err
		}
		db, err = database.Parse(string(src))
		if err != nil {
			return err
		}
	}
	opts := eval.Options{
		Naive:     *naive,
		Workers:   *workers,
		NoPlanner: *noPlanner,
		Budget:    guard.Budget{MaxFacts: *maxFacts, MaxSteps: *maxSteps, MaxWall: *timeout},
	}
	if prog.GoalArity(*goal) < 0 {
		return fmt.Errorf("eval: goal predicate %q does not occur in program", *goal)
	}
	if *optimize {
		optimized, rep, err := opt.Optimize(prog, opt.Options{Goal: *goal})
		if err != nil {
			return err
		}
		if *explain {
			fmt.Fprintf(os.Stderr, "%% optimizer:\n%s", rep)
		}
		prog = optimized
	}
	if *dataDir != "" {
		return evalDurable(prog, db, *goal, opts, *dataDir, *snapBytes, *maxBytes, *watch, *checkpoint)
	}
	if *watch {
		h, stats, err := eval.Maintain(prog, db, opts)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "%% materialized: %d facts derived, %d rule firings; watching stdin for +fact./-fact. updates\n",
			stats.Derived, stats.Firings)
		return evalWatch(h, *goal, os.Stdin, os.Stdout)
	}
	// Eval (not Goal) so a budget trip still yields the partial database.
	var out *database.DB
	var stats eval.Stats
	var report *eval.Explain
	if *explain {
		out, stats, report, err = eval.EvalExplain(prog, db, opts)
	} else {
		out, stats, err = eval.Eval(prog, db, opts)
	}
	var limit *guard.LimitError
	if err != nil && !errors.As(err, &limit) {
		return err
	}
	lines := goalFactLines(out, *goal)
	for _, l := range lines {
		fmt.Println(l)
	}
	if report != nil {
		fmt.Fprintf(os.Stderr, "%% query plans:\n%s", report)
	}
	fmt.Fprintf(os.Stderr, "%% %d tuples, %d iterations, %d facts derived, %d rule firings\n",
		len(lines), stats.Iterations, stats.Derived, stats.Firings)
	fmt.Fprintf(os.Stderr, "%% plan cache: %d hits, %d misses, %d replans\n",
		stats.PlanCacheHits, stats.PlanCacheMisses, stats.PlanReplans)
	if stats.Budget != (guard.Usage{}) {
		fmt.Fprintf(os.Stderr, "%% budget consumed: %s\n", stats.Budget)
	}
	if limit != nil {
		fmt.Fprintf(os.Stderr, "%% INCOMPLETE — budget exhausted: %v\n", limit)
		fmt.Fprintf(os.Stderr, "%% the tuples above are a sound underapproximation of the fixpoint\n")
	}
	return nil
}

// goalFactLines renders the goal relation as sorted fact lines.
func goalFactLines(db *database.DB, goal string) []string {
	rel := db.Lookup(goal)
	if rel == nil {
		return nil
	}
	lines := make([]string, 0, rel.LiveLen())
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
		lines = append(lines, ast.Atom{Pred: goal, Args: args}.String()+".")
	}
	sort.Strings(lines)
	return lines
}

// evalDurable is eval's persistent mode: the handle is recovered from
// (or freshly bound to) the durable store in dir, a -db file seeds a
// fresh store as its first committed batch, and -watch updates are
// committed through the WAL — each acknowledged update survives a
// crash. -checkpoint folds the WAL into a snapshot before exit.
func evalDurable(prog *ast.Program, db *database.DB, goal string, opts eval.Options, dir string, snapBytes, maxBytes int64, watch, checkpoint bool) error {
	d, err := database.Open(dir, database.OpenOptions{
		Budget:        guard.Budget{MaxBytes: maxBytes},
		SnapshotBytes: snapBytes,
	})
	if err != nil {
		return err
	}
	fresh := d.Fresh()
	if !fresh {
		fmt.Fprintf(os.Stderr, "%% recovering %s: generation %d, %d committed batches (%d replayed from WAL, %d torn bytes discarded)\n",
			dir, d.Gen(), d.Seq(), len(d.Tail()), d.TornBytes())
	}
	h, stats, err := eval.MaintainDurable(prog, d, opts)
	if err != nil {
		return err
	}
	defer h.Close()
	if fresh {
		if facts := dbAtoms(db); len(facts) > 0 {
			us, err := h.Insert(facts)
			if err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "%% seeded fresh store with %d base facts: %s\n", len(facts), us)
		}
	} else if len(db.Preds()) > 0 {
		fmt.Fprintf(os.Stderr, "%% note: store already holds state; -db file ignored (state comes from %s)\n", dir)
	}
	if fresh && stats != (eval.Stats{}) {
		fmt.Fprintf(os.Stderr, "%% materialized: %d facts derived, %d rule firings\n", stats.Derived, stats.Firings)
	}
	if watch {
		fmt.Fprintf(os.Stderr, "%% watching stdin for +fact./-fact. updates; each update is committed durably\n")
		if err := evalWatch(h, goal, os.Stdin, os.Stdout); err != nil {
			return err
		}
	} else {
		for _, l := range goalFactLines(h.DB(), goal) {
			fmt.Println(l)
		}
	}
	if checkpoint {
		if err := h.Checkpoint(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "%% checkpoint written: %d batches folded into the snapshot\n", h.Seq())
	}
	return nil
}

// dbAtoms renders every tuple of db as a ground atom, in sorted
// predicate order — the batch that seeds a fresh durable store from a
// -db facts file.
func dbAtoms(db *database.DB) []ast.Atom {
	var atoms []ast.Atom
	var row database.Row
	for _, pred := range db.Preds() {
		rel := db.Lookup(pred)
		for i := 0; i < rel.Len(); i++ {
			if rel.Dead(i) {
				continue
			}
			row = rel.AppendRowAt(row[:0], i)
			args := make([]ast.Term, len(row))
			for j, id := range row {
				args[j] = ast.C(database.Symbol(id))
			}
			atoms = append(atoms, ast.Atom{Pred: pred, Args: args})
		}
	}
	return atoms
}

// evalWatch is eval's incremental mode: a stream of update lines from
// in — "+fact." (or a bare "fact.") inserts, "-fact." retracts; several
// comma-separated facts per line form one batch; '%' comments and blank
// lines are skipped. Each update prints its UpdateStats; at EOF the
// goal relation is printed like a normal eval run. A budget trip aborts
// the stream — the materialization is no longer consistent.
func evalWatch(h *eval.Handle, goal string, in io.Reader, out io.Writer) error {
	scanner := bufio.NewScanner(in)
	scanner.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineNo := 0
	for scanner.Scan() {
		lineNo++
		line := strings.TrimSpace(scanner.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		retract := false
		switch line[0] {
		case '-':
			retract = true
			line = line[1:]
		case '+':
			line = line[1:]
		}
		atoms, err := parser.AtomList(strings.TrimSuffix(strings.TrimSpace(line), "."))
		if err != nil {
			fmt.Fprintf(os.Stderr, "%% line %d: %v (skipped)\n", lineNo, err)
			continue
		}
		var us eval.UpdateStats
		if retract {
			us, err = h.Retract(atoms)
		} else {
			us, err = h.Insert(atoms)
		}
		if err != nil {
			return fmt.Errorf("line %d: %w", lineNo, err)
		}
		verb := "insert"
		if retract {
			verb = "retract"
		}
		fmt.Fprintf(out, "%% %s: %s\n", verb, us)
	}
	if err := scanner.Err(); err != nil {
		return err
	}
	for _, l := range goalFactLines(h.DB(), goal) {
		fmt.Fprintln(out, l)
	}
	return nil
}

func cmdUnfold(args []string) error {
	fs := flag.NewFlagSet("unfold", flag.ExitOnError)
	progPath := fs.String("program", "", "program file")
	goal := fs.String("goal", "", "goal predicate")
	minimize := fs.Bool("minimize", false, "minimize the resulting union")
	fs.Parse(args)
	if *progPath == "" || *goal == "" {
		return fmt.Errorf("unfold needs -program and -goal")
	}
	prog, err := loadProgram(*progPath)
	if err != nil {
		return err
	}
	u, err := nonrec.Unfold(prog, *goal)
	if err != nil {
		return err
	}
	if *minimize {
		u = ucq.Minimize(u)
	}
	fmt.Print(u)
	fmt.Fprintf(os.Stderr, "%% %d disjuncts, %d atoms total\n", u.Size(), u.TotalAtoms())
	return nil
}

func cmdClassify(args []string) error {
	fs := flag.NewFlagSet("classify", flag.ExitOnError)
	progPath := fs.String("program", "", "program file")
	fs.Parse(args)
	if *progPath == "" {
		return fmt.Errorf("classify needs -program")
	}
	prog, err := loadProgram(*progPath)
	if err != nil {
		return err
	}
	fmt.Printf("rules:         %d\n", len(prog.Rules))
	fmt.Printf("recursive:     %v\n", prog.IsRecursive())
	fmt.Printf("linear:        %v\n", prog.IsLinear())
	fmt.Printf("path-linear:   %v\n", prog.IsPathLinear())
	fmt.Printf("max rule vars: %d\n", prog.MaxRuleVars())
	fmt.Printf("varnum:        %d\n", prog.VarNum())
	var idb, edb []string
	for s := range prog.IDBPreds() {
		idb = append(idb, s.String())
	}
	for s := range prog.EDBPreds() {
		edb = append(edb, s.String())
	}
	sort.Strings(idb)
	sort.Strings(edb)
	fmt.Printf("IDB:           %v\n", idb)
	fmt.Printf("EDB:           %v\n", edb)
	return nil
}

func cmdTrees(args []string) error {
	fs := flag.NewFlagSet("trees", flag.ExitOnError)
	progPath := fs.String("program", "", "program file")
	goal := fs.String("goal", "", "goal predicate")
	depth := fs.Int("depth", 3, "maximum tree height")
	count := fs.Int("count", 5, "maximum number of trees (0 = all)")
	dot := fs.Bool("dot", false, "emit Graphviz DOT instead of ASCII")
	fs.Parse(args)
	if *progPath == "" || *goal == "" {
		return fmt.Errorf("trees needs -program and -goal")
	}
	prog, err := loadProgram(*progPath)
	if err != nil {
		return err
	}
	trees := expansion.Unfoldings(prog, *goal, *depth, *count)
	for i, tr := range trees {
		if *dot {
			fmt.Print(tr.DOT(fmt.Sprintf("tree%d", i+1)))
			continue
		}
		fmt.Printf("%% unfolding expansion tree %d (height %d)\n", i+1, tr.Depth())
		fmt.Print(tr)
		fmt.Printf("%% expansion: %s\n\n", tr.Query())
	}
	fmt.Fprintf(os.Stderr, "%% %d trees up to height %d\n", len(trees), *depth)
	return nil
}

// cmdRecover inspects a durable store directory: what generation and
// WAL it holds, how many batches are committed, and whether a crash
// left torn bytes behind. With -program the full engine state is
// recovered; with -verify the recovered materialization must match a
// from-scratch re-evaluation of the program over the recovered base,
// bit for bit — the recovery half of the determinism contract, checked
// on a live store.
func cmdRecover(args []string) error {
	fs := flag.NewFlagSet("recover", flag.ExitOnError)
	dataDir := fs.String("data", "", "durable store directory")
	progPath := fs.String("program", "", "program file: recover the full materialization, not just the on-disk inventory")
	verify := fs.Bool("verify", false, "with -program: re-evaluate from scratch over the recovered base and require identical state")
	fs.Parse(args)
	if *dataDir == "" {
		return fmt.Errorf("recover needs -data")
	}
	if *verify && *progPath == "" {
		return fmt.Errorf("recover: -verify needs -program")
	}
	d, err := database.Open(*dataDir, database.OpenOptions{SnapshotBytes: -1})
	if err != nil {
		return err
	}
	fmt.Printf("generation:        %d\n", d.Gen())
	fmt.Printf("snapshot:          %v\n", d.SnapshotState() != nil)
	fmt.Printf("committed batches: %d\n", d.Seq())
	fmt.Printf("wal tail:          %d batches, %d bytes\n", len(d.Tail()), d.WALSize())
	fmt.Printf("torn bytes:        %d\n", d.TornBytes())
	if *progPath == "" {
		return d.Close()
	}
	prog, err := loadProgram(*progPath)
	if err != nil {
		d.Close()
		return err
	}
	h, _, err := eval.MaintainDurable(prog, d, eval.Options{})
	if err != nil {
		return err
	}
	defer h.Close()
	for _, pred := range h.DB().Preds() {
		fmt.Printf("relation:          %s: %d rows (%d base)\n",
			pred, h.DB().Lookup(pred).LiveLen(), baseLen(h.Base(), pred))
	}
	if !*verify {
		return nil
	}
	fresh, _, err := eval.Maintain(prog, h.Base().Clone(), eval.Options{})
	if err != nil {
		return fmt.Errorf("recover: from-scratch re-evaluation: %w", err)
	}
	if got, want := h.DB().String(), fresh.DB().String(); got != want {
		return fmt.Errorf("recover: VERIFY FAILED — recovered state differs from re-evaluation:\n%s\nwant:\n%s", got, want)
	}
	if got, want := h.DB().StatsEpoch(), fresh.DB().StatsEpoch(); got != want {
		return fmt.Errorf("recover: VERIFY FAILED — StatsEpoch %d, re-evaluation %d", got, want)
	}
	fmt.Printf("verify:            ok — recovered state matches from-scratch evaluation\n")
	return nil
}

// baseLen returns the base relation's row count, 0 when absent.
func baseLen(base *database.DB, pred string) int {
	if r := base.Lookup(pred); r != nil {
		return r.LiveLen()
	}
	return 0
}
