package core

import (
	"math/rand"
	"testing"

	"datalogeq/internal/expansion"
	"datalogeq/internal/gen"
	"datalogeq/internal/guard"
	"datalogeq/internal/ucq"
)

// Random linear programs vs random unions: the tree-automaton procedure,
// the word-automaton procedure, and (for refutations within reach) the
// brute-force proof-tree oracle must agree, and every witness must
// verify.
func TestRandomLinearCrossValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized cross-validation is slow")
	}
	rng := rand.New(rand.NewSource(20260705))
	trials := 60
	for trial := 0; trial < trials; trial++ {
		prog := gen.RandomLinearProgram(rng, 2, 2)
		// Union of 1..3 random queries with matching head.
		nd := 1 + rng.Intn(3)
		var q ucq.UCQ
		for i := 0; i < nd; i++ {
			d := gen.RandomCQ(rng, "p", 1+rng.Intn(3), 3, 3)
			// RandomCQ uses e1..e3; add b atoms sometimes so that
			// containment is occasionally true.
			if rng.Intn(2) == 0 {
				d.Body[len(d.Body)-1].Pred = "b"
			}
			q.Disjuncts = append(q.Disjuncts, d)
		}
		tree, err := ContainsUCQ(prog, "p", q, Options{Budget: guard.Budget{MaxStates: 200000}})
		if err != nil {
			t.Fatalf("trial %d: tree: %v\n%s%s", trial, err, prog, q)
		}
		word, err := ContainsUCQLinear(prog, "p", q, Options{Budget: guard.Budget{MaxStates: 200000}})
		if err != nil {
			t.Fatalf("trial %d: word: %v", trial, err)
		}
		if tree.Contained != word.Contained {
			t.Fatalf("trial %d: tree=%v word=%v\nprogram:\n%squery:\n%s",
				trial, tree.Contained, word.Contained, prog, q)
		}
		if !tree.Contained {
			verifyWitness(t, prog, "p", q, tree.Witness)
			verifyWitness(t, prog, "p", q, word.Witness)
		} else {
			// The oracle must find no counterexample at small depth.
			if witness, ok := expansion.ContainedInUCQByTrees(prog, "p", q.Disjuncts, 3); !ok {
				t.Fatalf("trial %d: automata say contained, oracle refutes:\n%s\nprogram:\n%squery:\n%s",
					trial, witness, prog, q)
			}
		}
	}
}

// The tree procedure on nonlinear random programs agrees with the
// bounded oracle on refutations.
func TestRandomNonlinearAgainstOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized cross-validation is slow")
	}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 25; trial++ {
		// Small nonlinear program: p :- e(X,Z), p, p variants.
		prog := gen.TransitiveClosure()
		if rng.Intn(2) == 0 {
			prog = gen.Example11Knows()
		}
		goal := prog.Rules[0].Head.Pred
		var q ucq.UCQ
		for i := 0; i < 1+rng.Intn(2); i++ {
			preds := []string{"e", "b", "likes", "knows", "trendy"}
			d := gen.RandomCQ(rng, goal, 1+rng.Intn(2), 3, 1)
			for j := range d.Body {
				p := preds[rng.Intn(len(preds))]
				if p == "trendy" {
					d.Body[j].Args = d.Body[j].Args[:1]
				}
				d.Body[j].Pred = p
			}
			q.Disjuncts = append(q.Disjuncts, d)
		}
		res, err := ContainsUCQ(prog, goal, q, Options{Budget: guard.Budget{MaxStates: 200000}})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !res.Contained {
			verifyWitness(t, prog, goal, q, res.Witness)
		} else if w, ok := expansion.ContainedInUCQByTrees(prog, goal, q.Disjuncts, 3); !ok {
			t.Fatalf("trial %d: oracle refutes claimed containment:\n%s\nquery:\n%s", trial, w, q)
		}
	}
}
