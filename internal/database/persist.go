package database

// Snapshot and mutation-batch serialization: the storage half of the
// durable backend (durable.go). A snapshot captures the shared interner
// table plus the full engine state of a set of databases — columnar
// slabs, count columns, and (relation, column-mask) index posting lists
// — byte-exactly enough that decoding reproduces the same slab order,
// the same posting lists, and the same StatsEpoch inputs as the process
// that wrote it. A batch is one logical mutation (insert or retract of
// a fact list) framed for the write-ahead log.
//
// Interner remapping: the snapshot stores the entire shared symbol
// table in ID order. Decoding interns those symbols in the same order,
// which in a fresh process assigns the identical dense IDs (recovery is
// bit-exact), and in a process whose interner has drifted yields a
// remap table through which every stored ID is translated. Either way
// the decoded rows are correct; in the fresh-process case they are
// bit-identical.
//
// Decoding is defensive: every length is bounds-checked against the
// remaining input and every row ID validated, so a corrupt payload
// yields an error, never a panic or a wild allocation.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"sort"

	"datalogeq/internal/ast"
)

// snapMagic versions the snapshot payload format.
var snapMagic = []byte("DLDB1\x00")

// Mutation-batch opcodes, the first byte of a WAL batch payload.
const (
	// OpInsert is a committed ivm.Handle.Insert (or base-fact load).
	OpInsert = byte(1)
	// OpRetract is a committed ivm.Handle.Retract.
	OpRetract = byte(2)
	// opTagged flags a batch payload carrying a client idempotency tag
	// (client ID string plus client-assigned sequence number) ahead of
	// the fact body. The tag is how a serving front end makes retried
	// mutations exactly-once across severed connections and crashes.
	opTagged = byte(0x80)
)

// IndexMasks returns the column bitmasks of the relation's persistent
// indexes, sorted ascending.
func (r *Relation) IndexMasks() []uint64 {
	out := make([]uint64, 0, len(r.indexes))
	for m := range r.indexes {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// EncodeSnapshot serializes the shared interner table and the complete
// engine state of dbs. Nil entries are preserved as nil on decode, so a
// caller can snapshot a fixed-shape slice of stores some of which are
// absent. Every relation with tombstones is compacted first, in place,
// so a snapshot never holds a dead row and the decoded store equals the
// writer's from this point on; call it only from a write phase.
func EncodeSnapshot(dbs []*DB) []byte {
	buf := append([]byte(nil), snapMagic...)
	syms := *shared.syms.Load()
	buf = binary.AppendUvarint(buf, uint64(len(syms)))
	for _, s := range syms {
		buf = appendString(buf, s)
	}
	buf = binary.AppendUvarint(buf, uint64(len(dbs)))
	for _, d := range dbs {
		if d == nil {
			buf = append(buf, 0)
			continue
		}
		buf = append(buf, 1)
		preds := d.Preds()
		buf = binary.AppendUvarint(buf, uint64(len(preds)))
		for _, p := range preds {
			r := d.relations[p]
			r.compact(true)
			buf = appendString(buf, p)
			buf = appendRelation(buf, r)
		}
	}
	return buf
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func appendRelation(buf []byte, r *Relation) []byte {
	buf = binary.AppendUvarint(buf, uint64(r.arity))
	buf = binary.AppendUvarint(buf, uint64(r.n))
	if r.counts != nil {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	for c := 0; c < r.arity; c++ {
		for _, id := range r.cols[c] {
			buf = binary.LittleEndian.AppendUint32(buf, id)
		}
	}
	if r.counts != nil {
		for _, n := range r.counts {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(n))
		}
	}
	masks := r.IndexMasks()
	buf = binary.AppendUvarint(buf, uint64(len(masks)))
	for _, m := range masks {
		buf = binary.AppendUvarint(buf, m)
		idx := r.indexes[m]
		buf = binary.AppendUvarint(buf, uint64(len(idx.entries)))
		for _, e := range idx.entries {
			buf = binary.AppendUvarint(buf, uint64(len(e.rows)))
			for _, id := range e.rows {
				buf = binary.AppendUvarint(buf, uint64(id))
			}
		}
	}
	return buf
}

// DecodeSnapshot reconstructs the databases of a snapshot payload,
// interning the stored symbol table (see the remapping note above). The
// dedup sets are rebuilt from the slabs in row order and index key
// hashes recomputed from the slab, so the result is exactly the state
// an uncrashed process would hold.
func DecodeSnapshot(data []byte) ([]*DB, error) {
	rd := &sreader{data: data}
	magic := rd.take(len(snapMagic))
	if rd.err == nil && string(magic) != string(snapMagic) {
		return nil, errors.New("database: snapshot payload has wrong magic")
	}
	nsyms := rd.count(1)
	remap := make([]uint32, nsyms)
	identity := true
	for i := range remap {
		remap[i] = Intern(rd.str())
		if remap[i] != uint32(i) {
			identity = false
		}
	}
	if rd.err != nil {
		return nil, rd.err
	}
	ndbs := rd.count(1)
	dbs := make([]*DB, 0, ndbs)
	for i := 0; i < ndbs && rd.err == nil; i++ {
		if rd.byte() == 0 {
			dbs = append(dbs, nil)
			continue
		}
		d := New()
		nrels := rd.count(1)
		for j := 0; j < nrels && rd.err == nil; j++ {
			pred := rd.str()
			r, err := rd.relation(remap, identity)
			if err != nil {
				return nil, err
			}
			d.relations[pred] = r
		}
		dbs = append(dbs, d)
	}
	if rd.err != nil {
		return nil, rd.err
	}
	if rd.off != len(rd.data) {
		return nil, fmt.Errorf("database: snapshot payload has %d trailing bytes", len(rd.data)-rd.off)
	}
	return dbs, nil
}

// EncodeBatch frames one committed mutation for the WAL: the opcode
// followed by the facts as predicate/constant strings. Facts are stored
// as strings, not IDs, because a WAL batch must replay correctly after
// a snapshot whose interner assignment it has never seen.
func EncodeBatch(op byte, facts []ast.Atom) []byte {
	return appendBatchBody([]byte{op}, facts)
}

// EncodeBatchTagged frames one committed mutation together with its
// client idempotency tag: the (client, clientSeq) pair a serving front
// end uses to recognize a retried batch after a severed connection or a
// crash. An empty client encodes the plain untagged form.
func EncodeBatchTagged(op byte, facts []ast.Atom, client string, clientSeq uint64) []byte {
	if client == "" {
		return EncodeBatch(op, facts)
	}
	buf := []byte{op | opTagged}
	buf = appendString(buf, client)
	buf = binary.AppendUvarint(buf, clientSeq)
	return appendBatchBody(buf, facts)
}

// appendBatchBody appends the fact list as predicate/constant strings.
func appendBatchBody(buf []byte, facts []ast.Atom) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(facts)))
	for _, f := range facts {
		buf = appendString(buf, f.Pred)
		buf = binary.AppendUvarint(buf, uint64(len(f.Args)))
		for _, a := range f.Args {
			buf = appendString(buf, a.Name)
		}
	}
	return buf
}

// DecodeBatch parses a WAL batch payload back into its opcode and
// ground facts, dropping any idempotency tag.
func DecodeBatch(data []byte) (op byte, facts []ast.Atom, err error) {
	op, facts, _, _, err = DecodeBatchTagged(data)
	return op, facts, err
}

// DecodeBatchTagged parses a WAL batch payload in either form: the
// untagged opcode+facts layout, or the tagged layout carrying the
// (client, clientSeq) idempotency pair. Untagged batches return an
// empty client.
func DecodeBatchTagged(data []byte) (op byte, facts []ast.Atom, client string, clientSeq uint64, err error) {
	rd := &sreader{data: data}
	op = rd.byte()
	if op&opTagged != 0 {
		op &^= opTagged
		client = rd.str()
		clientSeq = rd.uvarint()
		if rd.err == nil && client == "" {
			return 0, nil, "", 0, fmt.Errorf("database: tagged batch has an empty client ID")
		}
	}
	if rd.err == nil && op != OpInsert && op != OpRetract {
		return 0, nil, "", 0, fmt.Errorf("database: batch has unknown opcode %d", op)
	}
	nfacts := rd.count(2)
	facts = make([]ast.Atom, 0, nfacts)
	for i := 0; i < nfacts && rd.err == nil; i++ {
		pred := rd.str()
		nargs := rd.count(1)
		args := make([]ast.Term, 0, nargs)
		for j := 0; j < nargs; j++ {
			args = append(args, ast.C(rd.str()))
		}
		facts = append(facts, ast.Atom{Pred: pred, Args: args})
	}
	if rd.err != nil {
		return 0, nil, "", 0, rd.err
	}
	if rd.off != len(rd.data) {
		return 0, nil, "", 0, fmt.Errorf("database: batch payload has %d trailing bytes", len(rd.data)-rd.off)
	}
	return op, facts, client, clientSeq, nil
}

var errTruncated = errors.New("database: truncated snapshot payload")

// sreader is a bounds-checked decoder. The first malformed read sets
// err and every later read returns a zero value, so decode loops check
// the error once per structure instead of at every field.
type sreader struct {
	data []byte
	off  int
	err  error
}

func (rd *sreader) fail(err error) {
	if rd.err == nil {
		rd.err = err
	}
}

func (rd *sreader) take(n int) []byte {
	if rd.err != nil {
		return nil
	}
	if n < 0 || n > len(rd.data)-rd.off {
		rd.fail(errTruncated)
		return nil
	}
	b := rd.data[rd.off : rd.off+n]
	rd.off += n
	return b
}

func (rd *sreader) byte() byte {
	b := rd.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (rd *sreader) uvarint() uint64 {
	if rd.err != nil {
		return 0
	}
	v, n := binary.Uvarint(rd.data[rd.off:])
	if n <= 0 {
		rd.fail(errTruncated)
		return 0
	}
	rd.off += n
	return v
}

// count reads a uvarint element count for elements of at least unit
// encoded bytes each and bounds it by the remaining input, so a corrupt
// count cannot drive a huge allocation.
func (rd *sreader) count(unit int) int {
	v := rd.uvarint()
	if rd.err != nil {
		return 0
	}
	if v > uint64(len(rd.data)-rd.off)/uint64(unit) {
		rd.fail(fmt.Errorf("database: count %d exceeds remaining payload", v))
		return 0
	}
	return int(v)
}

func (rd *sreader) str() string {
	n := rd.count(1)
	return string(rd.take(n))
}

func (rd *sreader) relation(remap []uint32, identity bool) (*Relation, error) {
	arity := rd.count(1)
	n := int(rd.uvarint())
	hasCounts := rd.byte()
	if rd.err != nil {
		return nil, rd.err
	}
	if arity > 64 {
		return nil, fmt.Errorf("database: snapshot relation arity %d exceeds 64", arity)
	}
	if need := uint64(n) * uint64(arity) * 4; uint64(n) > uint64(len(rd.data)) || need > uint64(len(rd.data)-rd.off) {
		return nil, fmt.Errorf("database: snapshot relation of %d rows exceeds remaining payload", n)
	}
	r := NewRelation(arity)
	r.n = n
	for c := 0; c < arity; c++ {
		raw := rd.take(4 * n)
		col := make([]uint32, n)
		for i := range col {
			id := binary.LittleEndian.Uint32(raw[4*i:])
			if !identity {
				if int(id) >= len(remap) {
					return nil, fmt.Errorf("database: snapshot row ID %d outside the stored symbol table", id)
				}
				id = remap[id]
			} else if int(id) >= len(remap) {
				return nil, fmt.Errorf("database: snapshot row ID %d outside the stored symbol table", id)
			}
			col[i] = id
		}
		r.cols[c] = col
	}
	if hasCounts != 0 {
		raw := rd.take(4 * n)
		if rd.err != nil {
			return nil, rd.err
		}
		r.counts = make([]int32, n)
		for i := range r.counts {
			r.counts[i] = int32(binary.LittleEndian.Uint32(raw[4*i:]))
		}
	}
	if rd.err != nil {
		return nil, rd.err
	}
	// Rebuild the dedup set in row order — the same insertion order the
	// writing process used, so the table layout matches a live store.
	row := make(Row, 0, arity)
	for i := 0; i < n; i++ {
		row = r.AppendRowAt(row[:0], i)
		h := hashRow(row)
		if r.set.lookup(r, row, h) >= 0 {
			return nil, fmt.Errorf("database: snapshot relation holds duplicate row %d", i)
		}
		r.set.insert(r, int32(i), h)
	}
	nidx := rd.count(1)
	for k := 0; k < nidx; k++ {
		mask := rd.uvarint()
		if rd.err != nil {
			return nil, rd.err
		}
		if mask == 0 || bits.Len64(mask) > arity {
			return nil, fmt.Errorf("database: snapshot index mask %#x invalid for arity %d", mask, arity)
		}
		idx, err := rd.index(r, mask)
		if err != nil {
			return nil, err
		}
		if r.indexes == nil {
			r.indexes = make(map[uint64]*relIndex)
		}
		if _, dup := r.indexes[mask]; dup {
			return nil, fmt.Errorf("database: snapshot holds duplicate index mask %#x", mask)
		}
		r.indexes[mask] = idx
		r.stats.IndexBuilds++
	}
	return r, rd.err
}

// index decodes one persistent index: the stored posting lists are
// trusted for order (validated ascending) and the key hashes recomputed
// from the slab, since a remapped interner changes every hash.
func (rd *sreader) index(r *Relation, mask uint64) (*relIndex, error) {
	cols := make([]int, 0, r.arity)
	for c := 0; c < r.arity; c++ {
		if mask&(1<<uint(c)) != 0 {
			cols = append(cols, c)
		}
	}
	idx := &relIndex{cols: cols}
	nentries := rd.count(1)
	idx.presize(nentries)
	var scratch Row
	for e := 0; e < nentries; e++ {
		nrows := rd.count(1)
		if rd.err != nil {
			return nil, rd.err
		}
		if nrows == 0 {
			return nil, errors.New("database: snapshot index entry has empty posting list")
		}
		rows := make([]int32, nrows)
		prev := int64(-1)
		for i := range rows {
			v := rd.uvarint()
			if rd.err != nil {
				return nil, rd.err
			}
			if v >= uint64(r.n) || int64(v) <= prev {
				return nil, fmt.Errorf("database: snapshot index posting list not ascending in [0, %d)", r.n)
			}
			prev = int64(v)
			rows[i] = int32(v)
		}
		scratch = idx.project(r, int(rows[0]), scratch[:0])
		idx.entries = append(idx.entries, idxEntry{hash: hashRow(scratch), rows: rows})
		idx.place(int32(e), idx.entries[e].hash)
	}
	return idx, rd.err
}
