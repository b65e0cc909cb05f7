package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"

	"datalogeq/internal/ast"
	"datalogeq/internal/database"
	"datalogeq/internal/eval"
	"datalogeq/internal/gen"
	"datalogeq/internal/guard"
	"datalogeq/internal/opt"
)

// cmdOpt runs the whole-program static optimizer over one or more
// program files: the optimized program is printed to stdout and the
// per-pass report (rule counts, applied rewrites, stratified schedule,
// notes) to stderr, or both as one JSON object per file with -json.
// -verify additionally evaluates each original/optimized pair on
// deterministic synthetic databases and fails if they disagree.
func cmdOpt(args []string) error {
	fs := flag.NewFlagSet("opt", flag.ExitOnError)
	progPath := fs.String("program", "", "program file (may also be given as positional arguments)")
	goal := fs.String("goal", "", "goal predicate: enables goal-directed passes (dead-code, const-prop, recursion elimination)")
	jsonOut := fs.Bool("json", false, "emit {file, program, report} JSON objects instead of text")
	verify := fs.Bool("verify", false, "differentially test original vs optimized on synthetic databases; nonzero exit on mismatch")
	listPasses := fs.Bool("passes", false, "list the pipeline passes and exit")
	depth := fs.Int("depth", 0, "maximum expansion height for recursion elimination (0 = default)")
	maxStates := fs.Int64("max-states", 0, "budget for the recursion-elimination proof search: automaton states (0 = default)")
	noUnfold := fs.Bool("no-unfold", false, "skip recursion elimination, the only super-polynomial pass")
	fs.Parse(args)
	if *listPasses {
		for _, p := range opt.PassNames() {
			fmt.Println(p)
		}
		return nil
	}
	var files []string
	if *progPath != "" {
		files = append(files, *progPath)
	}
	files = append(files, fs.Args()...)
	if len(files) == 0 {
		return fmt.Errorf("opt needs -program or at least one file argument")
	}

	opts := opt.Options{
		Goal:          *goal,
		BoundedDepth:  *depth,
		DisableUnfold: *noUnfold,
	}
	if *maxStates > 0 {
		opts.Budget = guard.Budget{MaxStates: *maxStates}
	}

	failed := 0
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	for _, file := range files {
		prog, err := loadProgram(file)
		if err != nil {
			return err
		}
		optimized, rep, err := opt.Optimize(prog, opts)
		if err != nil {
			return err
		}
		if *jsonOut {
			out := struct {
				File    string      `json:"file"`
				Program string      `json:"program"`
				Report  *opt.Report `json:"report"`
			}{file, optimized.String(), rep}
			if err := enc.Encode(out); err != nil {
				return err
			}
		} else {
			if len(files) > 1 {
				fmt.Printf("%% %s\n", file)
			}
			fmt.Print(optimized.String())
			fmt.Fprintf(os.Stderr, "%% %s:\n%s", file, rep)
		}
		if *verify {
			if err := verifyOptimized(prog, optimized, *goal); err != nil {
				fmt.Fprintf(os.Stderr, "%% VERIFY FAILED %s: %v\n", file, err)
				failed++
			} else {
				fmt.Fprintf(os.Stderr, "%% verify ok: %s\n", file)
			}
		}
	}
	if failed > 0 {
		return fmt.Errorf("opt: verification failed for %d file(s)", failed)
	}
	return nil
}

// verifyOptimized evaluates both programs over deterministic synthetic
// databases (three seeds of random facts over the original program's
// EDB predicates) and reports the first disagreement. With a goal it
// compares the goal relation — goal-directed rewrites may legitimately
// drop everything else — otherwise the entire fixpoint.
func verifyOptimized(orig, optimized *ast.Program, goal string) error {
	preds := make(map[string]int)
	for s := range orig.EDBPreds() {
		preds[s.Name] = s.Arity
	}
	for seed := int64(0); seed < 3; seed++ {
		edb := gen.RandomDB(rand.New(rand.NewSource(seed)), preds, 5, 12)
		a, _, err := eval.Eval(orig, edb, eval.Options{})
		if err != nil {
			return fmt.Errorf("seed %d: original: %w", seed, err)
		}
		b, _, err := eval.Eval(optimized, edb, eval.Options{})
		if err != nil {
			return fmt.Errorf("seed %d: optimized: %w", seed, err)
		}
		if goal != "" {
			if !relEqual(a.Lookup(goal), b.Lookup(goal)) {
				return fmt.Errorf("seed %d: goal relation %s differs", seed, goal)
			}
			continue
		}
		if !a.Equal(b) {
			return fmt.Errorf("seed %d: fixpoints differ", seed)
		}
	}
	return nil
}

// relEqual compares two possibly-nil relations; nil means empty.
func relEqual(a, b *database.Relation) bool {
	if a == nil || b == nil {
		return (a == nil || a.LiveLen() == 0) && (b == nil || b.LiveLen() == 0)
	}
	return a.Equal(b)
}
