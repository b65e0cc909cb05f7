package ivm_test

import (
	"fmt"
	"testing"

	"datalogeq/internal/ast"
	"datalogeq/internal/eval"
	"datalogeq/internal/gen"
	"datalogeq/internal/parser"
)

// tombstoneSeeds are FuzzTombstones' seed scripts: tip toggles, a cut
// and its reinsert, and a run of cuts across chains.
var tombstoneSeeds = [][]byte{
	{0x00, 0x10, 0x00, 0x85, 0x85, 0x20},
	{0x83, 0x93, 0xa3, 0x00, 0x83, 0x10, 0x93},
	{0x8f, 0x80, 0x70, 0xf7, 0x70, 0x8f},
}

// runTombstoneScript applies script to a maintained tc over forest8x16
// (128 edges, 1,088 tc rows) and checks the handle against a
// from-scratch fixpoint after every update. Each byte is one update of
// chain (b>>4)&7: with bit 7 clear it toggles the chain's tip edge,
// with bit 7 set it cuts, or reinserts, the edge at position b&15.
// Both relations are far past the size at which every deletion
// compacts, so retracted rows stay in the slab as tombstones that
// probes, scans, reinserts and the phase tables must skip. It reports
// whether tc held a tombstone after some update.
func runTombstoneScript(t *testing.T, script []byte) (tombstoned bool) {
	const chains, length = 8, 16
	prog := parser.MustProgram(tcSrc + "reach(Y) :- tc(c0n0, Y).\n")
	shadow := gen.ForestGraph(chains, length)
	h := mustMaintain(t, prog, shadow, eval.Options{})
	for _, b := range script {
		c, j := int(b>>4)&7, length-1
		if b&0x80 != 0 {
			j = int(b) & 15
		}
		fact := parser.MustAtom(fmt.Sprintf("e(c%dn%d, c%dn%d)", c, j, c, j+1))
		facts := []ast.Atom{fact}
		insert := !shadow.Contains(fact.Pred, atomTuple(fact))
		applyOp(shadow, insert, facts)
		var err error
		if insert {
			_, err = h.Insert(facts)
		} else {
			_, err = h.Retract(facts)
		}
		if err != nil {
			t.Fatalf("update %02x (insert=%v): %v", b, insert, err)
		}
		if got, want := h.DB().String(), fromScratch(t, prog, shadow); got != want {
			t.Fatalf("diverged after %02x (insert=%v):\n got:\n%s\nwant:\n%s", b, insert, got, want)
		}
		tombstoned = tombstoned || h.DB().Lookup("tc").HasDead()
	}
	return tombstoned
}

// FuzzTombstones searches update schedules over a forest large enough
// that deletions leave tombstones (see runTombstoneScript).
func FuzzTombstones(f *testing.F) {
	for _, s := range tombstoneSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 24 {
			script = script[:24]
		}
		runTombstoneScript(t, script)
	})
}

// TestTombstoneSeedsMeetTombstones keeps FuzzTombstones' seeds honest:
// each of them must leave tc holding tombstones at some point.
func TestTombstoneSeedsMeetTombstones(t *testing.T) {
	for _, s := range tombstoneSeeds {
		if !runTombstoneScript(t, s) {
			t.Errorf("seed %x never left a tombstone in tc", s)
		}
	}
}
