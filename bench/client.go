package main

// The served system under test and the three ways the benchmark calls
// it: the line protocol, HTTP/JSON, and in-process Server calls.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"datalogeq/internal/database"
	"datalogeq/internal/parser"
	"datalogeq/internal/server"
)

// reply is a server's answer to one op. status is "complete" or
// "applied" on success; anything else ("unknown", "shed", "duplicate",
// "err") is a failed op.
type reply struct {
	status string
	tuples []string
	seq    uint64
}

// conn sends ops to the server. A non-nil error means the connection
// itself failed; the run cannot continue on it.
type conn interface {
	do(o *op) (reply, error)
}

// served is a running server with a line listener and an HTTP server
// on loopback.
type served struct {
	srv      *server.Server
	hs       *http.Server
	lineAddr string
	httpURL  string
	dataDir  string // the durable store, for serve-durable
	wg       sync.WaitGroup
}

// shutdown drains srv, giving in-flight requests a minute.
func shutdown(srv *server.Server) error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	return srv.Shutdown(ctx)
}

// setup starts a server for w and loads the base facts as one batch. It
// returns once a first read is answered correctly; the time that takes
// is the benchmark's setup_s.
func setup(w *workload, dataDir string) (*server.Server, time.Duration, error) {
	t0 := time.Now()
	cfg := server.Config{Program: servedProg}
	if w.durable {
		cfg.DataDir, cfg.SnapshotBytes = dataDir, snapshotBytes
	}
	srv, err := server.New(cfg)
	if err != nil {
		return nil, 0, err
	}
	res, err := srv.Apply(context.Background(), "", database.OpInsert, w.base, "", 0, time.Minute)
	if err == nil && res.Verdict != "applied" {
		err = fmt.Errorf("verdict %q: %s", res.Verdict, res.Reason)
	}
	if err != nil {
		shutdown(srv)
		return nil, 0, fmt.Errorf("loading base facts: %w", err)
	}
	first := w.firstRead()
	r, err := serverConn{srv: srv}.do(&first)
	if err == nil && (r.status != "complete" || !equalStrings(r.tuples, first.want)) {
		err = fmt.Errorf("first read answered %s %q, want %q", r.status, r.tuples, first.want)
	}
	if err != nil {
		shutdown(srv)
		return nil, 0, err
	}
	return srv, time.Since(t0), nil
}

// listen attaches the line and HTTP listeners to srv.
func listen(srv *server.Server) (*served, error) {
	lineLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	httpLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		lineLn.Close()
		return nil, err
	}
	s := &served{
		srv:      srv,
		hs:       &http.Server{Handler: srv.Handler()},
		lineAddr: lineLn.Addr().String(),
		httpURL:  "http://" + httpLn.Addr().String(),
	}
	s.wg.Add(2)
	go func() { //repolint:allow goroutine — line accept loop; returns when stop closes the listener, and stop waits for it.
		defer s.wg.Done()
		s.srv.ServeLine(lineLn)
	}()
	go func() { //repolint:allow goroutine — HTTP accept loop; returns when stop shuts the http.Server down, and stop waits for it.
		defer s.wg.Done()
		s.hs.Serve(httpLn)
	}()
	return s, nil
}

// stop drains both front ends and the server, and waits for the accept
// loops to return.
func (s *served) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	herr := s.hs.Shutdown(ctx)
	serr := shutdown(s.srv)
	s.wg.Wait()
	return errors.Join(herr, serr)
}

// lineConn is a line-protocol session.
type lineConn struct {
	c  net.Conn
	rd *bufio.Reader
	wr *bufio.Writer
}

func dialLine(addr, client string) (*lineConn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	lc := &lineConn{c: c, rd: bufio.NewReaderSize(c, 64<<10), wr: bufio.NewWriter(c)}
	lines, err := lc.roundTrip("hello " + client)
	if err == nil && !strings.HasPrefix(lines[0], "ok hello") {
		err = fmt.Errorf("hello answered %q", lines[0])
	}
	if err != nil {
		c.Close()
		return nil, err
	}
	return lc, nil
}

func (c *lineConn) close() error { return c.c.Close() }

// roundTrip sends one command and reads its response block up to the
// terminating blank line.
func (c *lineConn) roundTrip(cmd string) ([]string, error) {
	c.wr.WriteString(cmd)
	c.wr.WriteByte('\n')
	if err := c.wr.Flush(); err != nil {
		return nil, err
	}
	var lines []string
	for {
		line, err := c.rd.ReadString('\n')
		if err != nil {
			return nil, err
		}
		line = strings.TrimSuffix(line, "\n")
		if line == "" {
			break
		}
		lines = append(lines, line)
	}
	if len(lines) == 0 {
		return nil, fmt.Errorf("empty response block to %q", cmd)
	}
	return lines, nil
}

func (c *lineConn) do(o *op) (reply, error) {
	var cmd string
	switch o.kind {
	case opEval:
		cmd = "eval " + o.goal + " " + o.program
	case opHub:
		cmd = "query " + o.goal
	case opInsert:
		cmd = "insert " + strconv.FormatUint(o.seq, 10) + " " + o.facts
	case opRetract:
		cmd = "retract " + strconv.FormatUint(o.seq, 10) + " " + o.facts
	}
	lines, err := c.roundTrip(cmd)
	if err != nil {
		return reply{}, err
	}
	head := lines[0]
	verb, rest, _ := strings.Cut(head, " ")
	if verb != "ok" {
		return reply{status: verb}, nil
	}
	if o.read() {
		n, err := strconv.Atoi(strings.TrimPrefix(rest, "n="))
		if err != nil || n != len(lines)-1 {
			return reply{}, fmt.Errorf("malformed query response %q with %d lines", head, len(lines)-1)
		}
		return reply{status: "complete", tuples: lines[1:]}, nil
	}
	if s, ok := strings.CutPrefix(rest, "applied seq="); ok {
		seq, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return reply{}, fmt.Errorf("malformed mutation response %q", head)
		}
		return reply{status: "applied", seq: seq}, nil
	}
	return reply{status: strings.Fields(rest)[0]}, nil
}

// httpConn is an HTTP/JSON client holding one keep-alive connection.
type httpConn struct {
	c      *http.Client
	url    string
	client string
}

func newHTTPConn(url, client string) *httpConn {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &httpConn{c: &http.Client{Transport: tr}, url: url, client: client}
}

func (c *httpConn) close() { c.c.CloseIdleConnections() }

type queryBody struct {
	Goal    string `json:"goal"`
	Program string `json:"program,omitempty"`
}

type mutateBody struct {
	Facts  string `json:"facts"`
	Client string `json:"client"`
	Seq    uint64 `json:"seq"`
}

func (c *httpConn) do(o *op) (reply, error) {
	path, body := "/v1/query", any(queryBody{Goal: o.goal, Program: o.program})
	switch o.kind {
	case opInsert:
		path, body = "/v1/insert", mutateBody{Facts: o.facts, Client: c.client, Seq: o.seq}
	case opRetract:
		path, body = "/v1/retract", mutateBody{Facts: o.facts, Client: c.client, Seq: o.seq}
	}
	b, err := json.Marshal(body)
	if err != nil {
		return reply{}, err
	}
	resp, err := c.c.Post(c.url+path, "application/json", bytes.NewReader(b))
	if err != nil {
		return reply{}, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return reply{}, err
	}
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusTooManyRequests:
		return reply{status: "shed"}, nil
	default:
		return reply{status: "err"}, nil
	}
	if o.read() {
		var qr server.QueryResult
		if err := json.Unmarshal(data, &qr); err != nil {
			return reply{}, fmt.Errorf("query response: %w", err)
		}
		return reply{status: qr.Verdict, tuples: qr.Tuples}, nil
	}
	var mr server.MutationResult
	if err := json.Unmarshal(data, &mr); err != nil {
		return reply{}, fmt.Errorf("mutation response: %w", err)
	}
	return reply{status: mr.Verdict, seq: mr.Seq}, nil
}

// serverConn calls the server in process, skipping both wire protocols.
// A mutation's facts are parsed here, as the protocol handlers do.
type serverConn struct {
	srv    *server.Server
	client string
}

func (c serverConn) do(o *op) (reply, error) {
	ctx := context.Background()
	if o.read() {
		res, err := c.srv.Query(ctx, "", o.goal, o.program, 0)
		if err != nil {
			return reply{status: "err"}, nil
		}
		return reply{status: res.Verdict, tuples: res.Tuples}, nil
	}
	facts, err := parser.FactList(o.facts)
	if err != nil {
		return reply{}, err
	}
	opcode := database.OpInsert
	if o.kind == opRetract {
		opcode = database.OpRetract
	}
	res, err := c.srv.Apply(ctx, "", opcode, facts, c.client, o.seq, 0)
	if err != nil {
		return reply{status: "err"}, nil
	}
	return reply{status: res.Verdict, seq: res.Seq}, nil
}
