package main

// Workloads, their generated data, their op streams and the oracles that
// check every answer.
//
// All four workloads serve the paper's running example, transitive
// closure (Example 2.5), plus a goal `hub` that reads one chain of it.
// The ad-hoc queries are recursive programs of the kind the paper's
// decision procedures reason about: a transitive-closure lookup and
// same-generation.

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"

	"datalogeq/internal/ast"
	"datalogeq/internal/database"
	"datalogeq/internal/eval"
	_ "datalogeq/internal/ivm" // registers the maintainer behind eval.Maintain
	"datalogeq/internal/parser"
)

// servedProg is the program every workload's server maintains.
var servedProg = parser.MustProgram(`tc(X, Y) :- e(X, Y).
tc(X, Y) :- e(X, Z), tc(Z, Y).
hub(Y) :- tc(c0n0, Y).`)

// sgRules is the same-generation program the analytic queries send.
const sgRules = "sg(X, Y) :- e(P, X), e(P, Y). sg(X, Y) :- e(P, X), sg(P, Q), e(Q, Y)."

// snapshotBytes is the WAL size at which serve-durable's store, and the
// layers pass's stores, take a snapshot.
const snapshotBytes = 256 << 10

// mix is a workload's operation mix.
type mix int

const (
	mixLookup   mix = iota // 90% tc lookups, 10% hub reads
	mixAnalytic            // 100% same-generation queries
	mixUpdate              // 75% tip toggles and mid-chain cuts, 25% hub reads
)

// workloadSpec names a workload and records why it is in the benchmark.
type workloadSpec struct {
	name    string
	why     string
	mix     mix
	durable bool
}

var workloadSpecs = []workloadSpec{
	{"serve-lookup", "tiny tc answers over a 115k-row live DB: each query pays O(|DB|) in clone, active domain and index builds", mixLookup, false},
	{"serve-analytic", "full same-generation fixpoint per query over a small DB: the eval driver, planner and merge dominate", mixAnalytic, false},
	{"serve-update", "75% single-edge inserts and retracts: IVM dominates the writes, which hold the handle lock the hub reads take too", mixUpdate, false},
	{"serve-durable", "serve-update on a durable store: WAL append, fsync and snapshots run under the handle lock", mixUpdate, true},
}

// size fixes the generated data sets: a forest of chains for the tc
// workloads and a random graph for the analytic one.
type size struct {
	chains, length int // forest: chains of length edges each
	nodes, edges   int // random graph
}

// fullSize is forest500x20 (10k edges, 105k tc rows) and random200x300.
var fullSize = size{chains: 500, length: 20, nodes: 200, edges: 300}

// tinySize is forest20x5 and random30x45, for the smoke tests.
var tinySize = size{chains: 20, length: 5, nodes: 30, edges: 45}

// workload is one workload instantiated on its data.
type workload struct {
	workloadSpec
	size
	seed int64
	base []ast.Atom // base facts, loaded as one batch at setup

	// Analytic workload only.
	graphNodes []string            // node names in index order
	withParent []string            // nodes with at least one in-edge
	answers    map[string][]string // sorted r(X) answers for each sg(c, X)
}

func findSpec(name string) (workloadSpec, bool) {
	for _, s := range workloadSpecs {
		if s.name == name {
			return s, true
		}
	}
	return workloadSpec{}, false
}

// newWorkload generates the named workload's data for seed.
func newWorkload(name string, sz size, seed int64) (*workload, error) {
	spec, ok := findSpec(name)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	w := &workload{workloadSpec: spec, size: sz, seed: seed}
	if spec.mix != mixAnalytic {
		for k := 0; k < sz.chains; k++ {
			for i := 0; i < sz.length; i++ {
				w.base = append(w.base, edge(chainNode(k, i), chainNode(k, i+1)))
			}
		}
		return w, nil
	}
	w.randomGraph()
	if err := w.computeAnswers(); err != nil {
		return nil, err
	}
	return w, nil
}

// randomGraph builds random<nodes>x<edges>. Its shape is drawn from a
// fixed source and the seed only relabels the nodes and reorders the
// edges: every seed then presents a different but isomorphic graph, so
// the same-generation fixpoint does the same work under every seed.
// Drawing the shape from the seed makes the sg fixpoint vary about 2x
// between seeds (10.1k to 20.8k rows over seeds 1 to 12 at 200x300),
// which would swamp the benchmark's bounds.
func (w *workload) randomGraph() {
	shape := rand.New(rand.NewSource(1))
	type pair struct{ u, v int }
	seen := make(map[pair]bool)
	var pairs []pair
	for len(pairs) < w.edges {
		p := pair{shape.Intn(w.nodes), shape.Intn(w.nodes)}
		if !seen[p] {
			seen[p] = true
			pairs = append(pairs, p)
		}
	}
	rng := rand.New(rand.NewSource(w.seed))
	perm := rng.Perm(w.nodes)
	rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	w.graphNodes = make([]string, w.nodes)
	for i := range w.graphNodes {
		w.graphNodes[i] = "v" + strconv.Itoa(perm[i])
	}
	hasParent := make([]bool, w.nodes)
	for _, p := range pairs {
		w.base = append(w.base, edge(w.graphNodes[p.u], w.graphNodes[p.v]))
		hasParent[p.v] = true
	}
	for i, ok := range hasParent {
		if ok {
			w.withParent = append(w.withParent, w.graphNodes[i])
		}
	}
}

// computeAnswers evaluates same-generation once on the base data, off
// the clock, and indexes the answer of every analytic query by its
// constant.
func (w *workload) computeAnswers() error {
	db := database.New()
	for _, f := range w.base {
		if err := db.AddAtom(f); err != nil {
			return err
		}
	}
	sg, _, err := eval.Goal(parser.MustProgram(sgRules), db, "sg", eval.Options{})
	if err != nil {
		return fmt.Errorf("analytic oracle: %w", err)
	}
	w.answers = make(map[string][]string)
	for i := 0; i < sg.Len(); i++ {
		row := sg.RowAt(i)
		x := database.Symbol(row[0])
		w.answers[x] = append(w.answers[x], fact("r", database.Symbol(row[1])))
	}
	for _, a := range w.answers {
		sort.Strings(a)
	}
	return nil
}

func chainNode(k, i int) string { return "c" + strconv.Itoa(k) + "n" + strconv.Itoa(i) }
func tipNode(k int) string      { return "x" + strconv.Itoa(k) }

func edge(a, b string) ast.Atom { return ast.NewAtom("e", ast.C(a), ast.C(b)) }

// fact renders a unary fact the way the server renders answer tuples.
func fact(pred, c string) string { return ast.NewAtom(pred, ast.C(c)).String() + "." }

// forestState is the part of a forest the update workloads change. Each
// client mutates only its own chains (k%2 == client); chain 0's state
// reaches the other client's checks only through a hubLog.
type forestState struct {
	tip []bool // tip edge e(cKnL, xK) present
	cut []int  // index i of a retracted edge e(cKni, cKn(i+1)), or -1
}

func (w *workload) newForestState() *forestState {
	st := &forestState{tip: make([]bool, w.chains), cut: make([]int, w.chains)}
	for k := range st.cut {
		st.cut[k] = -1
	}
	return st
}

// reach returns the sorted answers of `goal(Y) :- tc(cKni, Y)` on st.
func (w *workload) reach(st *forestState, goal string, k, i int) []string {
	var out []string
	j := i
	for ; j < w.length && st.cut[k] != j; j++ {
		out = append(out, fact(goal, chainNode(k, j+1)))
	}
	if j == w.length && st.tip[k] {
		out = append(out, fact(goal, tipNode(k)))
	}
	sort.Strings(out)
	return out
}

// baseFacts returns the base relation st implies, for the durable
// recovery check.
func (w *workload) baseFacts(st *forestState) *database.DB {
	db := database.New()
	for k := 0; k < w.chains; k++ {
		for i := 0; i < w.length; i++ {
			if st.cut[k] != i {
				db.Add("e", database.Tuple{chainNode(k, i), chainNode(k, i+1)})
			}
		}
		if st.tip[k] {
			db.Add("e", database.Tuple{chainNode(k, w.length), tipNode(k)})
		}
	}
	return db
}

type opKind uint8

const (
	opEval opKind = iota
	opHub
	opInsert
	opRetract
)

// op is one client request with what a correct reply must hold.
type op struct {
	kind    opKind
	goal    string // opEval
	program string // opEval
	facts   string // opInsert, opRetract
	seq     uint64 // idempotency sequence of a mutation
	want    []string
	// chain0 marks a mutation of chain 0; hubNext is the hub relation
	// once it applies (empty after a cut of chain 0's first edge).
	chain0  bool
	hubNext []string
}

func (o *op) read() bool { return o.kind == opEval || o.kind == opHub }

// hubLog is the history of the served hub relation. Only client 0
// mutates chain 0, so the history is a single-writer register: a hub
// read is correct when it equals some state between the last one
// acknowledged before the read was sent and the newest one begun before
// its reply arrived. With one request in flight that is the newest
// state, unless a mutation of chain 0 failed and left it unknown.
type hubLog struct {
	states  [][]string
	applied int
}

func newHubLog(initial []string) *hubLog { return &hubLog{states: [][]string{initial}} }

// lo returns the version a read sent now must not predate.
func (h *hubLog) lo() int { return h.applied }

func (h *hubLog) begin(next []string) { h.states = append(h.states, next) }

func (h *hubLog) ack() { h.applied = len(h.states) - 1 }

func (h *hubLog) match(lo int, got []string) bool {
	for v := lo; v < len(h.states); v++ {
		if equalStrings(h.states[v], got) {
			return true
		}
	}
	return false
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// stream is one client's infinite, seeded op sequence.
type stream struct {
	w      *workload
	client int
	rng    *rand.Rand
	st     *forestState
	hub    *hubLog
	seq    uint64
	// reinsert is the mid-chain edge a cut must restore next: chain and
	// edge index, or chain -1.
	reinsertK, reinsertI int
}

// newStreams returns the two clients' streams over shared chain state.
func (w *workload) newStreams() [2]*stream {
	var st *forestState
	var hub *hubLog
	if w.mix != mixAnalytic {
		st = w.newForestState()
		hub = newHubLog(w.reach(st, "hub", 0, 0))
	}
	var out [2]*stream
	for c := range out {
		out[c] = &stream{w: w, client: c, rng: rand.New(rand.NewSource(w.seed*7919 + int64(c))), st: st, hub: hub, reinsertK: -1}
	}
	return out
}

func (s *stream) next() op {
	switch s.w.mix {
	case mixLookup:
		if s.rng.Intn(10) == 0 {
			return op{kind: opHub, goal: "hub"}
		}
		return s.lookup()
	case mixAnalytic:
		return s.analytic()
	default:
		if s.reinsertK >= 0 {
			return s.restore()
		}
		if s.rng.Intn(4) == 0 {
			return op{kind: opHub, goal: "hub"}
		}
		return s.mutation()
	}
}

func (s *stream) lookup() op {
	k, i := s.rng.Intn(s.w.chains), s.rng.Intn(s.w.length)
	return op{
		kind:    opEval,
		goal:    "q",
		program: "q(Y) :- tc(" + chainNode(k, i) + ", Y).",
		want:    s.w.reach(s.st, "q", k, i),
	}
}

func (s *stream) analytic() op {
	c := s.w.graphNodes[s.rng.Intn(s.w.nodes)]
	return op{
		kind:    opEval,
		goal:    "r",
		program: sgRules + " r(X) :- sg(" + c + ", X).",
		want:    s.w.answers[c],
	}
}

// mutation toggles the tip edge of one of the client's chains, or one
// time in ten cuts a mid-chain edge that the next op restores: a DRed
// overdelete followed by a reinsertion.
func (s *stream) mutation() op {
	k := s.client + 2*s.rng.Intn((s.w.chains-s.client+1)/2)
	if s.rng.Intn(10) == 0 {
		i := s.rng.Intn(s.w.length)
		s.st.cut[k] = i
		s.reinsertK, s.reinsertI = k, i
		return s.mutate(opRetract, k, edge(chainNode(k, i), chainNode(k, i+1)))
	}
	s.st.tip[k] = !s.st.tip[k]
	kind := opRetract
	if s.st.tip[k] {
		kind = opInsert
	}
	return s.mutate(kind, k, edge(chainNode(k, s.w.length), tipNode(k)))
}

func (s *stream) restore() op {
	k, i := s.reinsertK, s.reinsertI
	s.reinsertK = -1
	s.st.cut[k] = -1
	return s.mutate(opInsert, k, edge(chainNode(k, i), chainNode(k, i+1)))
}

func (s *stream) mutate(kind opKind, k int, f ast.Atom) op {
	s.seq++
	o := op{kind: kind, facts: f.String() + ".", seq: s.seq, chain0: k == 0}
	if o.chain0 {
		o.hubNext = s.w.reach(s.st, "hub", 0, 0)
	}
	return o
}

// prober supplies the layers pass with the op kind a workload's own
// stream lacks, so every layer is measured on every workload: lookups
// for the update workloads, and for the read-only workloads toggles of
// an edge from a fresh source node into a node that already has a
// parent. Such an edge changes no answer the read-only workloads check:
// no lookup, hub or same-generation query reaches a fresh source.
type prober struct {
	w       *workload
	rng     *rand.Rand
	st      *forestState
	targets []string
	present []bool
	seq     uint64
}

func (w *workload) newProber(st *forestState) *prober {
	p := &prober{w: w, rng: rand.New(rand.NewSource(w.seed*7919 + 2)), st: st}
	if w.mix == mixUpdate {
		return p
	}
	for j := 0; j < 16; j++ {
		if w.mix == mixAnalytic {
			p.targets = append(p.targets, w.withParent[p.rng.Intn(len(w.withParent))])
		} else {
			p.targets = append(p.targets, chainNode(p.rng.Intn(w.chains), 1+p.rng.Intn(w.length)))
		}
	}
	p.present = make([]bool, len(p.targets))
	return p
}

func (p *prober) next() op {
	if p.w.mix == mixUpdate {
		k, i := p.rng.Intn(p.w.chains), p.rng.Intn(p.w.length)
		return op{
			kind:    opEval,
			goal:    "q",
			program: "q(Y) :- tc(" + chainNode(k, i) + ", Y).",
			want:    p.w.reach(p.st, "q", k, i),
		}
	}
	j := p.rng.Intn(len(p.targets))
	p.present[j] = !p.present[j]
	kind := opRetract
	if p.present[j] {
		kind = opInsert
	}
	p.seq++
	return op{kind: kind, facts: edge("s"+strconv.Itoa(j), p.targets[j]).String() + ".", seq: p.seq}
}

// firstRead is the read whose correct answer ends set-up.
func (w *workload) firstRead() op {
	if w.mix == mixAnalytic {
		c := w.graphNodes[0]
		return op{kind: opEval, goal: "r", program: sgRules + " r(X) :- sg(" + c + ", X).", want: w.answers[c]}
	}
	return op{kind: opHub, goal: "hub", want: w.reach(w.newForestState(), "hub", 0, 0)}
}
