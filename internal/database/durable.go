package database

// Durable is the persistent mode of the store: a directory holding one
// snapshot generation plus a write-ahead log of the mutation batches
// committed since that snapshot.
//
// The WAL is a command log, not a page log. The engine's determinism
// contract (same state + same committed operations ⇒ same slab order,
// same counts, same indexes, bit for bit) means replaying the logical
// operations reproduces the physical state exactly, so the log stores
// each committed batch as its opcode and facts — a few dozen bytes —
// instead of the slab pages it touched. The protocol is
// apply-then-log: a batch is offered to the in-memory engine first, and
// only a successfully applied batch is appended and fsynced. A batch
// refused by validation or a budget trip is never logged, so recovery
// reconstructs the history in which failed updates never happened —
// exactly the uncrashed semantics.
//
// Generations: snap-<g> is a full state snapshot (snapshot package),
// wal-<g> the batches committed after it. Generation g=0 is the empty
// store (snap-0 never exists). Taking a snapshot writes snap-<g+1>,
// starts the empty wal-<g+1>, and removes generation g; each step is
// individually crash-safe, and Open repairs any intermediate state by
// choosing the newest decodable snapshot and discarding the rest.

import (
	"encoding/binary"
	"fmt"
	"os"
	"sort"

	"datalogeq/internal/ast"
	"datalogeq/internal/crashpoint"
	"datalogeq/internal/guard"
	"datalogeq/internal/snapshot"
	"datalogeq/internal/wal"
)

// DefaultSnapshotBytes is the WAL size at which ShouldSnapshot starts
// reporting true when OpenOptions.SnapshotBytes is zero.
const DefaultSnapshotBytes = 1 << 20

// OpenOptions configures a durable store.
type OpenOptions struct {
	// Budget bounds the store's I/O: MaxBytes covers WAL frames plus
	// snapshot files over the store's lifetime. A trip refuses the
	// commit (or snapshot) before writing, and is sticky.
	Budget guard.Budget
	// SnapshotBytes is the WAL size at which ShouldSnapshot reports
	// true. 0 means DefaultSnapshotBytes; negative disables the
	// suggestion (snapshots only when explicitly requested).
	SnapshotBytes int64
}

// Batch is one committed mutation recovered from the WAL tail.
type Batch struct {
	Op    byte // OpInsert or OpRetract
	Facts []ast.Atom
	// Client and ClientSeq are the idempotency tag the batch was
	// committed with (CommitTagged); empty/zero for untagged batches.
	Client    string
	ClientSeq uint64
}

// Durable is an open durable store. It owns the directory's WAL and
// snapshot files; the in-memory engine state lives with the caller
// (the maintenance layer), which commits each applied batch and
// periodically hands back full state for a snapshot. Single-writer:
// Commit, Snapshot, and Close must be serialized by the caller.
type Durable struct {
	dir   string
	opts  OpenOptions
	meter *guard.Meter

	gen       uint64
	log       *wal.Log
	torn      int64
	snapState []*DB
	snapSeq   uint64
	tail      []Batch
	seq       uint64

	// clients is the idempotency table: per client ID, the highest
	// client sequence number ever committed under that ID. It rides the
	// durability protocol — folded into each snapshot payload, advanced
	// by each CommitTagged, and rebuilt at Open from the snapshot table
	// plus the WAL tail's tags — so a serving front end recovering after
	// kill -9 still recognizes every acknowledged (client, seq) pair and
	// never double-applies a retried mutation.
	clients map[string]uint64

	// snapIdentity is the identity recorded with the snapshot Open
	// loaded ("" for none); identity is the one later snapshots record.
	snapIdentity, identity string
}

// identityMagic marks a snapshot payload that records an identity
// string right after its sequence number. Payloads written before
// identities existed lack it and decode with the empty identity.
var identityMagic = []byte("DLID1\x00")

// Open opens (creating if needed) the durable store in dir and
// recovers its on-disk state: the newest decodable snapshot is loaded,
// stale and corrupt generations are cleaned away, the generation's WAL
// is scanned with any torn tail truncated, and the committed batches
// after the snapshot are decoded. The caller reconstructs the live
// engine state from SnapshotState plus Tail before committing anything
// new.
func Open(dir string, opts OpenOptions) (*Durable, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	d := &Durable{dir: dir, opts: opts, meter: opts.Budget.Started().Meter(), clients: make(map[string]uint64)}

	// Choose the newest generation that both validates (checksum) and
	// decodes; anything newer is a torn or corrupt snapshot attempt.
	gens, err := snapshot.List(dir)
	if err != nil {
		return nil, err
	}
	for i := len(gens) - 1; i >= 0; i-- {
		payload, rerr := snapshot.Read(snapshot.Path(dir, gens[i]))
		if rerr != nil {
			continue
		}
		seq, n := binary.Uvarint(payload)
		if n <= 0 {
			continue
		}
		identity, rest, ierr := decodeIdentity(payload[n:])
		if ierr != nil {
			continue
		}
		clients, rest, cerr := decodeClientTable(rest)
		if cerr != nil {
			continue
		}
		dbs, derr := DecodeSnapshot(rest)
		if derr != nil {
			continue
		}
		d.gen, d.snapSeq, d.snapState, d.snapIdentity = gens[i], seq, dbs, identity
		for c, s := range clients {
			d.clients[c] = s
		}
		break
	}
	if err := snapshot.Clean(dir, d.gen); err != nil {
		return nil, err
	}

	walPath := snapshot.WALPath(dir, d.gen)
	var rawSize int64
	if fi, serr := os.Stat(walPath); serr == nil {
		rawSize = fi.Size()
	}
	log, payloads, err := wal.Open(walPath)
	if err != nil {
		return nil, err
	}
	d.log = log
	d.torn = rawSize - log.Size()
	for i, p := range payloads {
		op, facts, client, cseq, derr := DecodeBatchTagged(p)
		if derr != nil {
			// The frame passed its checksum, so this is not a torn tail
			// but a real corruption (or version skew) of committed data:
			// refuse to open rather than silently drop history.
			log.Close()
			return nil, fmt.Errorf("database: wal-%016x frame %d: %w", d.gen, i, derr)
		}
		d.tail = append(d.tail, Batch{Op: op, Facts: facts, Client: client, ClientSeq: cseq})
		if client != "" && cseq > d.clients[client] {
			d.clients[client] = cseq
		}
	}
	d.seq = d.snapSeq + uint64(len(d.tail))
	return d, nil
}

// Fresh reports whether the store held no state at Open: no snapshot
// and an empty WAL.
func (d *Durable) Fresh() bool { return d.snapState == nil && len(d.tail) == 0 }

// SnapshotState returns the databases decoded from the generation
// snapshot at Open, or nil for a store with no snapshot yet. The
// caller takes ownership.
func (d *Durable) SnapshotState() []*DB { return d.snapState }

// SnapshotIdentity returns the identity recorded with the snapshot
// loaded at Open: what the writer passed to SetIdentity, or "" for a
// store with no snapshot or a snapshot written without one.
func (d *Durable) SnapshotIdentity() string { return d.snapIdentity }

// SetIdentity sets the identity every later snapshot records. The store
// treats it as opaque; the maintenance layer records which program the
// snapshot's derived state belongs to, so that reopening under another
// program can tell the state does not fit.
func (d *Durable) SetIdentity(id string) { d.identity = id }

// Tail returns the committed batches recovered from the WAL at Open,
// in commit order; the caller replays them on top of SnapshotState.
func (d *Durable) Tail() []Batch { return d.tail }

// Seq returns the number of batches ever committed to the store: the
// snapshot's sequence number plus the recovered tail at Open, advanced
// by each Commit. A crashed writer's acknowledged batches are exactly
// those below Seq, which is what crash tests compare against.
func (d *Durable) Seq() uint64 { return d.seq }

// Gen returns the current snapshot generation.
func (d *Durable) Gen() uint64 { return d.gen }

// TornBytes returns how many trailing WAL bytes were discarded as torn
// at Open — crash debris past the last complete frame.
func (d *Durable) TornBytes() int64 { return d.torn }

// WALSize returns the current generation WAL's size in bytes.
func (d *Durable) WALSize() int64 { return d.log.Size() }

// Usage snapshots the store's I/O consumption.
func (d *Durable) Usage() guard.Usage { return d.meter.Usage() }

// Commit makes one applied batch durable: the encoded frame is charged
// against the Bytes budget (refusing before any write on a trip),
// appended, and fsynced. When Commit returns nil the batch survives
// any crash.
func (d *Durable) Commit(op byte, facts []ast.Atom) error {
	return d.CommitTagged(op, facts, "", 0)
}

// CommitTagged commits one applied batch together with its client
// idempotency tag. The tag is durable with the batch — recorded in the
// WAL frame and folded into every later snapshot — so after any crash
// ClientSeq still reports the pair and a retry of the same (client,
// clientSeq) can be recognized instead of re-applied. An empty client
// commits untagged.
func (d *Durable) CommitTagged(op byte, facts []ast.Atom, client string, clientSeq uint64) error {
	payload := EncodeBatchTagged(op, facts, client, clientSeq)
	if err := d.meter.Charge("durable/commit", guard.Bytes, int64(len(payload))+wal.FrameOverhead); err != nil {
		return err
	}
	if err := d.log.Commit(payload); err != nil {
		return err
	}
	d.seq++
	if client != "" && clientSeq > d.clients[client] {
		d.clients[client] = clientSeq
	}
	return nil
}

// ClientSeq returns the highest client sequence number ever committed
// under the client ID, and whether the client has committed at all. A
// serving front end treats an incoming (client, seq) with seq at or
// below the returned value as a retry of an already-acknowledged batch.
func (d *Durable) ClientSeq(client string) (uint64, bool) {
	s, ok := d.clients[client]
	return s, ok
}

// Clients returns a copy of the idempotency table: every client ID the
// store has committed tagged batches for, with its highest sequence.
func (d *Durable) Clients() map[string]uint64 {
	out := make(map[string]uint64, len(d.clients))
	for c, s := range d.clients {
		out[c] = s
	}
	return out
}

// ShouldSnapshot reports whether the WAL has outgrown the configured
// threshold and the caller should hand back full state via Snapshot.
func (d *Durable) ShouldSnapshot() bool {
	t := d.opts.SnapshotBytes
	if t < 0 {
		return false
	}
	if t == 0 {
		t = DefaultSnapshotBytes
	}
	return d.log.Size() >= t
}

// Snapshot writes the caller's full engine state as the next
// generation and truncates the log: snap-<g+1> lands atomically, the
// empty wal-<g+1> is started, and generation g is removed. A crash
// between any two steps leaves a state Open repairs. dbs must reflect
// every batch committed so far (it is stamped with Seq, and with the
// identity last passed to SetIdentity).
func (d *Durable) Snapshot(dbs []*DB) error {
	payload := binary.AppendUvarint(nil, d.seq)
	payload = append(payload, identityMagic...)
	payload = appendString(payload, d.identity)
	payload = appendClientTable(payload, d.clients)
	payload = append(payload, EncodeSnapshot(dbs)...)
	if err := d.meter.Charge("durable/snapshot", guard.Bytes, int64(len(payload))); err != nil {
		return err
	}
	if err := snapshot.Write(d.dir, d.gen+1, payload); err != nil {
		return err
	}
	next, replay, err := wal.Open(snapshot.WALPath(d.dir, d.gen+1))
	if err != nil {
		return err
	}
	if len(replay) != 0 {
		next.Close()
		return fmt.Errorf("database: new wal-%016x is not empty", d.gen+1)
	}
	crashpoint.Hit("durable/wal-switched")
	old := d.log
	d.log = next
	oldGen := d.gen
	d.gen++
	old.Close()
	if err := snapshot.Remove(d.dir, oldGen); err != nil {
		return err
	}
	crashpoint.Hit("durable/truncated")
	return nil
}

// Close closes the WAL without syncing (every acknowledged Commit has
// already been fsynced). The store must not be used afterwards.
func (d *Durable) Close() error { return d.log.Close() }

// appendClientTable serializes the idempotency table in sorted client
// order (determinism: the same committed history always produces the
// same snapshot bytes).
func appendClientTable(buf []byte, clients map[string]uint64) []byte {
	names := make([]string, 0, len(clients))
	for c := range clients {
		names = append(names, c)
	}
	sort.Strings(names)
	buf = binary.AppendUvarint(buf, uint64(len(names)))
	for _, c := range names {
		buf = appendString(buf, c)
		buf = binary.AppendUvarint(buf, clients[c])
	}
	return buf
}

// decodeIdentity parses the identity from the head of a snapshot
// payload (after the sequence number) and returns the rest. Payloads
// written before identities existed decode as the empty identity.
func decodeIdentity(data []byte) (string, []byte, error) {
	if len(data) < len(identityMagic) || string(data[:len(identityMagic)]) != string(identityMagic) {
		return "", data, nil
	}
	rd := &sreader{data: data, off: len(identityMagic)}
	id := rd.str()
	if rd.err != nil {
		return "", nil, fmt.Errorf("database: snapshot identity: %w", rd.err)
	}
	return id, data[rd.off:], nil
}

// decodeClientTable parses the idempotency table from the head of a
// snapshot payload (after the sequence number) and returns the
// remaining snapshot body. Payloads written before the table existed
// start directly with the snapshot magic; they decode as an empty
// table, so old stores open cleanly.
func decodeClientTable(data []byte) (map[string]uint64, []byte, error) {
	if len(data) >= len(snapMagic) && string(data[:len(snapMagic)]) == string(snapMagic) {
		return nil, data, nil
	}
	rd := &sreader{data: data}
	n := rd.count(2)
	clients := make(map[string]uint64, n)
	for i := 0; i < n && rd.err == nil; i++ {
		c := rd.str()
		s := rd.uvarint()
		if rd.err == nil {
			clients[c] = s
		}
	}
	if rd.err != nil {
		return nil, nil, fmt.Errorf("database: snapshot client table: %w", rd.err)
	}
	return clients, data[rd.off:], nil
}
