package server

// Kill-under-load: the crashtest harness re-execs this test binary as a
// child that runs `datalog serve`'s engine (a durable Server with a
// line listener) armed to SIGKILL itself at a named durability protocol
// point. The parent drives concurrent clients against the child over
// real TCP, records exactly which batches were acknowledged, and after
// the kill recovers the store and checks the two halves of the serving
// durability contract:
//
//   - No acknowledged batch is lost: every (client, seq) the parent saw
//     acknowledged is in the recovered idempotency table, and its facts
//     are in the recovered base.
//   - No batch is double-applied: per client, commits are exactly
//     1..ClientSeq once each, so the store's batch count equals the sum
//     of the per-client high-water marks; and a post-recovery retry of
//     an acknowledged batch reads as a duplicate.
//
// The kill points are deterministic protocol crossings (k-th WAL
// append, k-th fsync, snapshot rename), so every failure reproduces
// from its table entry alone.

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"datalogeq/internal/ast"
	"datalogeq/internal/crashtest"
	"datalogeq/internal/database"
	"datalogeq/internal/parser"
)

const crashClients = 3
const crashMaxSeq = 200

// crashFact is the unique base fact client i commits as its seq-th
// batch; uniqueness makes presence checks per-batch exact.
func crashFact(client, seq int) ast.Atom {
	return ast.Atom{Pred: "e", Args: []ast.Term{
		ast.C(fmt.Sprintf("c%ds%d", client, seq)), ast.C("t"),
	}}
}

// TestServeCrashChild is the re-execed child: it serves the durable
// store handed down by the parent on an ephemeral port (published via
// an addr file), arms the SIGKILL, and waits to die under the parent's
// client load.
func TestServeCrashChild(t *testing.T) {
	if !crashtest.IsChild() {
		t.Skip("crashtest child only")
	}
	if err := crashtest.Arm(); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Program:       parser.MustProgram(tcSrc),
		DataDir:       crashtest.Dir(),
		SnapshotBytes: int64(crashtest.EnvInt("CRASHTEST_SNAPBYTES", 0)),
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.ServeLine(ln)
	// Publish the address atomically: the parent polls for this file.
	tmp := filepath.Join(crashtest.Dir(), "addr.tmp")
	if err := os.WriteFile(tmp, []byte(ln.Addr().String()), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, filepath.Join(crashtest.Dir(), "addr")); err != nil {
		t.Fatal(err)
	}
	// Serve until the armed kill fires. The timeout is a safety net for
	// a scenario whose point never triggers; completing cleanly makes
	// the parent fail the scenario loudly instead of hanging.
	time.Sleep(20 * time.Second)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	s.Shutdown(ctx)
}

func TestServeKillUnderLoad(t *testing.T) {
	if crashtest.IsChild() {
		t.Skip("parent only")
	}
	if testing.Short() {
		t.Skip("re-exec crash harness is not -short")
	}
	scenarios := []struct {
		point string
		hit   int
		env   []string
	}{
		{"wal/appended", 3, nil},
		{"wal/synced", 5, nil},
		{"wal/mid-frame", 4, nil},
		// A tiny snapshot threshold forces generation switches under
		// load, so the kill lands in the snapshot protocol.
		{"snapshot/written", 1, []string{"CRASHTEST_SNAPBYTES=192"}},
		{"durable/wal-switched", 1, []string{"CRASHTEST_SNAPBYTES=192"}},
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(fmt.Sprintf("%s@%d", strings.ReplaceAll(sc.point, "/", "_"), sc.hit), func(t *testing.T) {
			runKillUnderLoad(t, sc.point, sc.hit, sc.env)
		})
	}
}

func runKillUnderLoad(t *testing.T, point string, hit int, env []string) {
	dir := t.TempDir()

	// Child server, armed.
	childDone := make(chan crashtest.Result, 1)
	go func() {
		res, err := crashtest.Run(crashtest.Config{
			Test:  "TestServeCrashChild",
			Dir:   dir,
			Point: point,
			Hit:   hit,
			Env:   env,
		})
		if err != nil {
			res.Output = err.Error()
		}
		childDone <- res
	}()

	// Wait for the child to publish its address.
	var addr string
	waitFor(t, func() bool {
		b, err := os.ReadFile(filepath.Join(dir, "addr"))
		if err == nil {
			addr = string(b)
		}
		return addr != ""
	})

	// Concurrent clients: each commits batches seq=1,2,... with at most
	// one in flight, retrying a batch until acknowledged before moving
	// on — so each client's acknowledged set is an exact prefix and the
	// recovered table must dominate it.
	acked := make([]int, crashClients)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < crashClients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			runCrashClient(addr, i, &acked[i], stop)
		}(i)
	}

	res := <-childDone
	close(stop)
	wg.Wait()
	if !res.Killed {
		t.Fatalf("child did not die by the armed SIGKILL (point %s@%d):\n%s", point, hit, res.Output)
	}

	// Recover in-process and verify the contract.
	s, err := New(Config{Program: parser.MustProgram(tcSrc), DataDir: dir})
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()
	base := make(map[string]bool)
	for _, line := range factLines(s.h.Base().Lookup("e"), "e") {
		base[line] = true
	}
	var sumSeqs uint64
	for i := 0; i < crashClients; i++ {
		name := fmt.Sprintf("c%d", i)
		got, _ := s.h.ClientSeq(name)
		sumSeqs += got
		if got < uint64(acked[i]) {
			t.Errorf("client %s: recovered seq %d < acknowledged %d — acked batch lost", name, got, acked[i])
		}
		for seq := 1; seq <= acked[i]; seq++ {
			if f := crashFact(i, seq).String() + "."; !base[f] {
				t.Errorf("client %s: acknowledged fact %s missing after recovery", name, f)
			}
		}
	}
	// The kill must have landed mid-load: every scenario's point sits
	// past at least one committed batch, so a zero-batch recovery means
	// the harness raced the clients and verified nothing.
	if s.Seq() == 0 {
		t.Errorf("recovered store has no committed batches — the kill landed before any load")
	}
	// Exactly-once: per client the committed batches are 1..ClientSeq,
	// each once, so the store's batch count is their sum.
	if s.Seq() != sumSeqs {
		t.Errorf("store seq %d != sum of client seqs %d — a batch was double-applied or mis-tagged", s.Seq(), sumSeqs)
	}
	// A post-recovery retry of the last acknowledged batch must read as
	// a duplicate, not re-apply.
	for i := 0; i < crashClients; i++ {
		if acked[i] == 0 {
			continue
		}
		res, err := s.Apply(context.Background(), "", database.OpInsert,
			[]ast.Atom{crashFact(i, acked[i])}, fmt.Sprintf("c%d", i), uint64(acked[i]), 0)
		if err != nil || !res.Duplicate {
			t.Errorf("client c%d: retry of acked seq %d: res=%+v err=%v, want duplicate", i, acked[i], res, err)
		}
	}
	if t.Failed() {
		t.Logf("child output:\n%s", res.Output)
	}
}

// runCrashClient drives one client against the child server, recording
// its acknowledged high-water mark in *acked (only read after wg.Wait,
// so no atomics needed).
func runCrashClient(addr string, id int, acked *int, stop <-chan struct{}) {
	name := fmt.Sprintf("c%d", id)
	seq := 0
	for seq < crashMaxSeq {
		select {
		case <-stop:
			return
		default:
		}
		conn, err := net.DialTimeout("tcp", addr, time.Second)
		if err != nil {
			time.Sleep(5 * time.Millisecond)
			continue
		}
		c := &lineClient{conn: conn, rd: bufio.NewReader(conn)}
		resp, err := c.try("hello " + name)
		if err != nil || len(resp) == 0 {
			conn.Close()
			continue
		}
		// Resume from the server's acknowledged high-water mark: it can
		// be ahead of ours when an ack was lost in a kill race.
		fmt.Sscanf(resp[0], "ok hello "+name+" acked=%d", &seq)
		if seq > *acked {
			*acked = seq
		}
		for seq < crashMaxSeq {
			next := seq + 1
			resp, err := c.try(fmt.Sprintf("insert %d %s.", next, crashFact(id, next)))
			if err != nil {
				break // connection died; reconnect and retry the same seq
			}
			if len(resp) == 0 {
				continue
			}
			switch {
			case strings.HasPrefix(resp[0], "ok applied"), strings.HasPrefix(resp[0], "ok duplicate"):
				seq = next
				*acked = seq
			case strings.HasPrefix(resp[0], "shed"), strings.HasPrefix(resp[0], "unknown"):
				time.Sleep(2 * time.Millisecond) // backoff, retry same seq
			default:
				return // draining or protocol error: give up
			}
			select {
			case <-stop:
				conn.Close()
				return
			default:
			}
		}
		conn.Close()
	}
}
