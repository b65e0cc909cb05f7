package expansion

import (
	"fmt"

	"datalogeq/internal/ast"
	"datalogeq/internal/cq"
)

// ClassID identifies a connectedness equivalence class of variable
// occurrences in a tree (Definition 5.2). Two occurrences of the same
// variable v at nodes x1, x2 are connected when the goal of every node
// on the simple path between them, except possibly their lowest common
// ancestor, contains v. All occurrences of v within a single node's rule
// instance are trivially connected, so a class is determined by the set
// of (variable, node) pairs it spans.
type ClassID int

// Connectivity holds the connectedness analysis of a tree.
type Connectivity struct {
	tree *Tree
	// class maps (node, variable) to its class.
	class map[occKey]ClassID
	// distinguished[c] is true when class c contains an occurrence of
	// its variable in the atom labelling the root.
	distinguished map[ClassID]bool
	// varOf maps each class to the (shared) variable name of its
	// occurrences.
	varOf map[ClassID]string
	// rootArgClass[i] is the class of the i-th argument of the root
	// atom when that argument is a variable, else -1.
	rootArgClass []ClassID
	next         ClassID
}

type occKey struct {
	node *Node
	v    string
}

// Connect computes the connectedness classes of a tree.
func Connect(t *Tree) *Connectivity {
	c := &Connectivity{
		tree:          t,
		class:         make(map[occKey]ClassID),
		distinguished: make(map[ClassID]bool),
		varOf:         make(map[ClassID]string),
	}
	// Union-find over (node, var) pairs.
	parent := make(map[occKey]occKey)
	var find func(k occKey) occKey
	find = func(k occKey) occKey {
		p, ok := parent[k]
		if !ok || p == k {
			parent[k] = k
			return k
		}
		r := find(p)
		parent[k] = r
		return r
	}
	union := func(a, b occKey) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	// Register every variable occurring in each node's rule instance,
	// then union parent/child pairs when the variable occurs in the
	// child's goal atom.
	var walk func(n *Node)
	walk = func(n *Node) {
		for _, v := range n.Rule.Vars() {
			find(occKey{n, v})
		}
		for _, child := range n.Children {
			for _, v := range child.Atom().Vars(nil) {
				union(occKey{n, v}, occKey{child, v})
			}
			walk(child)
		}
	}
	walk(t.Root)
	// Assign dense class ids.
	ids := make(map[occKey]ClassID)
	for k := range parent {
		r := find(k)
		id, ok := ids[r]
		if !ok {
			id = c.next
			c.next++
			ids[r] = id
			c.varOf[id] = r.v
		}
		c.class[k] = id
	}
	// Distinguished classes: variables of the root atom, at the root.
	root := t.Root
	for _, v := range root.Atom().Vars(nil) {
		c.distinguished[c.class[occKey{root, v}]] = true
	}
	c.rootArgClass = make([]ClassID, len(root.Atom().Args))
	for i, arg := range root.Atom().Args {
		if arg.Kind == ast.Var {
			c.rootArgClass[i] = c.class[occKey{root, arg.Name}]
		} else {
			c.rootArgClass[i] = -1
		}
	}
	return c
}

// Class returns the class of variable v at node n, and whether v occurs
// in n's rule instance at all.
func (c *Connectivity) Class(n *Node, v string) (ClassID, bool) {
	id, ok := c.class[occKey{n, v}]
	return id, ok
}

// Distinguished reports whether occurrences in class id are
// distinguished (connected to an occurrence in the root atom).
func (c *Connectivity) Distinguished(id ClassID) bool { return c.distinguished[id] }

// RootArgClass returns the class of the i-th root-atom argument, or -1
// if that argument is a constant.
func (c *Connectivity) RootArgClass(i int) ClassID { return c.rootArgClass[i] }

// ClassVarName returns a variable name for class id that is unique per
// class, formed from the class's shared variable name.
func (c *Connectivity) ClassVarName(id ClassID) string {
	return fmt.Sprintf("%s_c%d", c.varOf[id], id)
}

// ToExpansion renames the tree so that each connectedness class becomes
// a distinct variable, yielding a genuine expansion tree whose query is
// the expansion the proof tree represents (the renaming Δ in the proof
// of Proposition 5.5). Distinguished classes keep names aligned with the
// root atom. The original tree is not modified.
func (c *Connectivity) ToExpansion() *Tree {
	var rec func(n *Node) *Node
	rec = func(n *Node) *Node {
		sub := ast.Substitution{}
		for _, v := range n.Rule.Vars() {
			id := c.class[occKey{n, v}]
			sub[v] = ast.V(c.ClassVarName(id))
		}
		out := &Node{
			Rule:     n.Rule.Apply(sub),
			Children: make([]*Node, len(n.Children)),
			ChildPos: append([]int(nil), n.ChildPos...),
		}
		for i, child := range n.Children {
			out.Children[i] = rec(child)
		}
		return out
	}
	return &Tree{Prog: c.tree.Prog, Root: rec(c.tree.Root)}
}

// ExpansionQuery returns the conjunctive query of the expansion the tree
// represents: the tree is first renamed per connectedness class (so that
// reused variables become distinct) and then flattened. For unfolding
// expansion trees this coincides with Query up to variable renaming; for
// proof trees it is the semantically correct reading (Proposition 5.5).
func (t *Tree) ExpansionQuery() cq.CQ {
	return Connect(t).ToExpansion().Query()
}
