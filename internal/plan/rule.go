package plan

import (
	"datalogeq/internal/ast"
	"datalogeq/internal/database"
)

// Rule compilation: before evaluation or maintenance every rule is
// lowered to a form that runs entirely on interned IDs. Variables
// become dense slots in a per-rule environment array and constants are
// interned once. Bodies compile to slot-form Atoms — pure structure,
// with no join order baked in — which the planner orders, probes, and
// filters per task. Heads compile to a template the caller instantiates
// per match under the slot environment.

// HeadOp classifies a compiled head argument position.
type HeadOp uint8

const (
	// HeadConst: the position is an interned constant.
	HeadConst HeadOp = iota
	// HeadBound: the position is a variable bound by the body; Slot is
	// its env slot.
	HeadBound
	// HeadUnbound: a head variable the body does not bind; Slot is the
	// index of the unbound-variable group the position belongs to.
	HeadUnbound
)

// HeadArg is one compiled head argument position.
type HeadArg struct {
	Op   HeadOp
	ID   uint32 // HeadConst: interned constant
	Slot int    // HeadBound: env slot; HeadUnbound: group index
}

// Rule is a rule compiled to slot form: the unit eval fires and ivm
// maintains, and the planner's input.
type Rule struct {
	Src ast.Rule
	// HeadPred and Head are the head predicate and its argument template.
	HeadPred string
	Head     []HeadArg
	// UnboundGroups lists, per distinct head variable not bound by the
	// body, the head positions it occupies. Such variables range over
	// the active domain (Example 6.2 semantics).
	UnboundGroups [][]int
	// Body is the slot-form conjunction handed to the planner.
	Body []Atom
	// IDBBody lists body positions with intensional predicates — the
	// delta positions of semi-naive evaluation.
	IDBBody []int
	// HeadSlots lists the env slots the head reads (with duplicates for
	// repeated head variables); the planner keeps them live end-to-end.
	HeadSlots []int
	// NumSlots is the rule's environment size.
	NumSlots int
	// Names maps env slots back to source variable names, for explain
	// output.
	Names []string
}

// CompileRules lowers every rule of prog and returns the compiled rules
// plus the largest environment size among them.
func CompileRules(prog *ast.Program) ([]Rule, int) {
	idb := prog.IDBPreds()
	rules := make([]Rule, len(prog.Rules))
	maxSlots := 0
	for i, r := range prog.Rules {
		rules[i] = compileRule(r, idb)
		maxSlots = max(maxSlots, rules[i].NumSlots)
	}
	return rules, maxSlots
}

func compileRule(r ast.Rule, idb map[ast.PredSym]bool) Rule {
	cr := Rule{Src: r, HeadPred: r.Head.Pred}
	slots := make(map[string]int)
	slotOf := func(name string) int {
		s, ok := slots[name]
		if !ok {
			s = len(slots)
			slots[name] = s
			cr.Names = append(cr.Names, name)
		}
		return s
	}
	for bi, a := range r.Body {
		pa := Atom{Pred: a.Pred, Args: make([]Arg, 0, len(a.Args))}
		for _, t := range a.Args {
			if t.Kind == ast.Const {
				pa.Args = append(pa.Args, Arg{Const: true, ID: database.Intern(t.Name)})
			} else {
				pa.Args = append(pa.Args, Arg{Slot: slotOf(t.Name)})
			}
		}
		if idb[a.Sym()] {
			cr.IDBBody = append(cr.IDBBody, bi)
		}
		cr.Body = append(cr.Body, pa)
	}

	groups := make(map[string]int)
	for i, t := range r.Head.Args {
		switch t.Kind {
		case ast.Const:
			cr.Head = append(cr.Head, HeadArg{Op: HeadConst, ID: database.Intern(t.Name)})
		case ast.Var:
			if s, ok := slots[t.Name]; ok {
				cr.Head = append(cr.Head, HeadArg{Op: HeadBound, Slot: s})
				cr.HeadSlots = append(cr.HeadSlots, s)
				continue
			}
			g, ok := groups[t.Name]
			if !ok {
				g = len(cr.UnboundGroups)
				groups[t.Name] = g
				cr.UnboundGroups = append(cr.UnboundGroups, nil)
			}
			cr.UnboundGroups[g] = append(cr.UnboundGroups[g], i)
			cr.Head = append(cr.Head, HeadArg{Op: HeadUnbound, Slot: g})
		}
	}
	cr.NumSlots = len(slots)
	return cr
}

// AppendHead instantiates the head under env, appending to dst. An
// unbound position gets a 0 placeholder, which the caller overwrites
// with each active-domain constant the position ranges over.
func (r *Rule) AppendHead(dst database.Row, env []uint32) database.Row {
	for _, a := range r.Head {
		switch a.Op {
		case HeadConst:
			dst = append(dst, a.ID)
		case HeadBound:
			dst = append(dst, env[a.Slot])
		default:
			dst = append(dst, 0)
		}
	}
	return dst
}
