package server

// Newline-delimited line protocol: one command per line in, one
// response block out. Telnet-friendly, trivially scriptable, and the
// substrate the network chaos harness drives (a byte-oriented protocol
// makes truncation and mid-request severing meaningful).
//
// Commands:
//
//	hello <client-id> [tenant=<t>]      register for idempotent mutations
//	query <goal> [t=<dur>]              dump the maintained goal relation
//	eval <goal> <program> [t=<dur>]     evaluate an ad-hoc program
//	insert <seq> <facts>.               idempotent insert (requires hello)
//	retract <seq> <facts>.              idempotent retract (requires hello)
//	stats                               one-line counters
//	quit                                close the connection
//
// Responses:
//
//	ok ...                              success; queries follow with
//	                                    "ok n=<N>" then N fact lines
//	unknown retry-after=<s> <reason>    degraded (budget trip/deadline);
//	                                    queries still list partial facts
//	shed retry-after=<s>                admission queue full
//	draining                            server shutting down
//	err <message>                       client mistake
//
// Every response block ends with a blank line, so clients can stream.

import (
	"bufio"
	"fmt"
	"net"
	"strconv"
	"strings"
	"time"

	"datalogeq/internal/database"
)

// ServeLine accepts line-protocol connections on ln until the listener
// closes (Shutdown does this). Each connection gets one goroutine; the
// per-request admission queue, not the connection count, bounds the
// work in flight.
func (s *Server) ServeLine(ln net.Listener) error {
	// Registration and Shutdown's listener sweep serialize on cmu: either
	// this listener lands in the sweep (Shutdown closes it), or the
	// draining flag is already visible here and it never starts.
	s.cmu.Lock()
	if s.draining.Load() {
		s.cmu.Unlock()
		ln.Close()
		return nil
	}
	s.listeners = append(s.listeners, ln)
	s.cmu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.draining.Load() {
				return nil
			}
			return err
		}
		s.cmu.Lock()
		if s.draining.Load() {
			s.cmu.Unlock()
			fmt.Fprintf(conn, "draining\n\n")
			conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.lineWG.Add(1)
		s.cmu.Unlock()
		go s.serveConn(conn) //repolint:allow goroutine — one goroutine per connection, joined by Shutdown via lineWG; not round-engine work.
	}
}

// session is one line-protocol connection's state.
type session struct {
	client string // set by hello; required for mutations
	tenant string
}

func (s *Server) serveConn(conn net.Conn) {
	defer func() {
		s.cmu.Lock()
		delete(s.conns, conn)
		s.cmu.Unlock()
		conn.Close()
		s.lineWG.Done()
	}()
	rd := bufio.NewReaderSize(conn, 64<<10)
	wr := bufio.NewWriter(conn)
	sess := &session{}
	for {
		// The idle timeout is the slow-client bound: a peer that stops
		// talking (or a severed link that never RSTs) frees its goroutine.
		conn.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
		line, err := readLine(rd)
		if err != nil {
			// Only newline-terminated commands execute. A connection
			// severed mid-line leaves a prefix that may itself parse (a
			// truncated fact list is often still a valid shorter one);
			// executing it would corrupt the idempotency contract — the
			// retry of the full command would read as a duplicate of the
			// truncated apply. Discard the partial line.
			if err == errLineTooLong {
				fmt.Fprintf(wr, "err line too long\n\n")
				wr.Flush()
			}
			return
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		quit := s.dispatchLine(wr, sess, line)
		wr.WriteByte('\n')
		if err := wr.Flush(); err != nil || quit {
			return
		}
	}
}

// dispatchLine runs one command and writes its response block (without
// the trailing blank line). Returns true when the connection should
// close.
func (s *Server) dispatchLine(wr *bufio.Writer, sess *session, line string) (quit bool) {
	cmd, rest, _ := strings.Cut(line, " ")
	switch cmd {
	case "hello":
		return s.lineHello(wr, sess, rest)
	case "query", "eval":
		return s.lineQuery(wr, sess, cmd, rest)
	case "insert":
		return s.lineMutate(wr, sess, database.OpInsert, rest)
	case "retract":
		return s.lineMutate(wr, sess, database.OpRetract, rest)
	case "stats":
		st := s.Stats()
		fmt.Fprintf(wr, "ok served=%d shed=%d unknown=%d duplicates=%d panics=%d rebuilds=%d inflight=%d queued=%d seq=%d draining=%v\n",
			st.Served, st.Shed, st.Unknown, st.Duplicates, st.Panics, st.Rebuilds,
			st.Inflight, st.Queued, st.Seq, st.Draining)
		return false
	case "quit":
		fmt.Fprintf(wr, "ok bye\n")
		return true
	default:
		fmt.Fprintf(wr, "err unknown command %q\n", cmd)
		return false
	}
}

func (s *Server) lineHello(wr *bufio.Writer, sess *session, rest string) bool {
	fields := strings.Fields(rest)
	if len(fields) == 0 || fields[0] == "" {
		fmt.Fprintf(wr, "err hello requires a client id\n")
		return false
	}
	sess.client = fields[0]
	for _, f := range fields[1:] {
		if t, ok := strings.CutPrefix(f, "tenant="); ok {
			sess.tenant = t
		}
	}
	// Report the highest acknowledged sequence so a reconnecting client
	// knows where to resume.
	s.hmu.RLock()
	acked := s.clientSeqs[sess.client]
	s.hmu.RUnlock()
	fmt.Fprintf(wr, "ok hello %s acked=%d\n", sess.client, acked)
	return false
}

func (s *Server) lineQuery(wr *bufio.Writer, sess *session, cmd, rest string) bool {
	goal, tail, _ := strings.Cut(strings.TrimSpace(rest), " ")
	if goal == "" {
		fmt.Fprintf(wr, "err %s requires a goal predicate\n", cmd)
		return false
	}
	var prog string
	deadline := time.Duration(0)
	tail = strings.TrimSpace(tail)
	if cmd == "eval" {
		prog = tail
	} else if tail != "" {
		var ok bool
		if deadline, ok = cutDeadline(&tail); !ok || strings.TrimSpace(tail) != "" {
			fmt.Fprintf(wr, "err query takes only an optional t=<duration>\n")
			return false
		}
	}
	if cmd == "eval" {
		if d, ok := cutDeadline(&prog); ok {
			deadline = d
		}
		if strings.TrimSpace(prog) == "" {
			fmt.Fprintf(wr, "err eval requires a program\n")
			return false
		}
	}
	res, err := s.Query(s.baseCtx, sess.tenant, goal, prog, deadline)
	if err != nil {
		writeLineError(wr, s, err)
		return false
	}
	status := "ok"
	if res.Verdict == "unknown" {
		fmt.Fprintf(wr, "unknown n=%d retry-after=%d %s\n", len(res.Tuples), res.RetryAfter, res.Reason)
	} else {
		fmt.Fprintf(wr, "%s n=%d\n", status, len(res.Tuples))
	}
	for _, t := range res.Tuples {
		wr.WriteString(t)
		wr.WriteByte('\n')
	}
	return false
}

func (s *Server) lineMutate(wr *bufio.Writer, sess *session, op byte, rest string) bool {
	if sess.client == "" {
		fmt.Fprintf(wr, "err mutations require hello first\n")
		return false
	}
	seqStr, factsSrc, ok := strings.Cut(strings.TrimSpace(rest), " ")
	if !ok {
		fmt.Fprintf(wr, "err usage: insert|retract <seq> <facts>.\n")
		return false
	}
	seq, err := strconv.ParseUint(seqStr, 10, 64)
	if err != nil || seq == 0 {
		fmt.Fprintf(wr, "err sequence must be a positive integer: %q\n", seqStr)
		return false
	}
	deadline := time.Duration(0)
	if d, ok := cutDeadline(&factsSrc); ok {
		deadline = d
	}
	facts, err := parseFacts(factsSrc)
	if err != nil {
		fmt.Fprintf(wr, "err facts: %v\n", err)
		return false
	}
	res, err := s.Apply(s.baseCtx, sess.tenant, op, facts, sess.client, seq, deadline)
	if err != nil {
		writeLineError(wr, s, err)
		return false
	}
	switch res.Verdict {
	case "duplicate":
		fmt.Fprintf(wr, "ok duplicate seq=%d\n", res.Seq)
	case "unknown":
		fmt.Fprintf(wr, "unknown retry-after=%d %s\n", res.RetryAfter, res.Reason)
	default:
		fmt.Fprintf(wr, "ok applied seq=%d\n", res.Seq)
	}
	return false
}

// errLineTooLong aborts connections sending an unbounded line.
var errLineTooLong = fmt.Errorf("line exceeds %d bytes", maxLineBytes)

const maxLineBytes = 1 << 20

// readLine reads one newline-terminated line, accumulating across
// buffer refills but capping total length — a client streaming bytes
// with no newline cannot grow memory without bound.
func readLine(rd *bufio.Reader) (string, error) {
	var buf []byte
	for {
		chunk, err := rd.ReadSlice('\n')
		buf = append(buf, chunk...)
		if len(buf) > maxLineBytes {
			return "", errLineTooLong
		}
		switch err {
		case nil:
			return string(buf), nil
		case bufio.ErrBufferFull:
			continue
		default:
			return "", err
		}
	}
}

// cutDeadline extracts a trailing "t=<duration>" token from *src,
// returning the parsed duration. ok is false when no such token exists.
func cutDeadline(src *string) (time.Duration, bool) {
	fields := strings.Fields(*src)
	for i, f := range fields {
		if v, found := strings.CutPrefix(f, "t="); found {
			if d, err := time.ParseDuration(v); err == nil {
				*src = strings.Join(append(fields[:i:i], fields[i+1:]...), " ")
				return d, true
			}
		}
	}
	return 0, false
}

// writeLineError maps typed errors to line responses; mirrors
// (*Server).writeError for HTTP.
func writeLineError(wr *bufio.Writer, s *Server, err error) {
	retry := int64(s.cfg.RetryAfter / time.Second)
	var bad *badRequestError
	switch {
	case err == errShed:
		fmt.Fprintf(wr, "shed retry-after=%d\n", retry)
	case err == errDraining:
		fmt.Fprintf(wr, "draining\n")
	case asBadRequest(err, &bad):
		fmt.Fprintf(wr, "err %s\n", bad.Error())
	default:
		fmt.Fprintf(wr, "err internal: %v\n", err)
	}
}

func asBadRequest(err error, dst **badRequestError) bool {
	b, ok := err.(*badRequestError)
	if ok {
		*dst = b
	}
	return ok
}
