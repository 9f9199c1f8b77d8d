package serve

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strings"
	"time"

	"pmdebugger/internal/rules"
	"pmdebugger/internal/trace"
)

// Options parameterizes a client session.
type Options struct {
	// Tenant names this client for the server's per-tenant metrics
	// ("default" when empty).
	Tenant string
	// Model is the persistency model of the streamed trace.
	Model rules.Model
	// Drain selects the server-side drain discipline (DrainEager default).
	Drain string
	// Shards > 1 requests a sharded detector session.
	Shards int
	// DialTimeout bounds the TCP connect + handshake (0 = 10s).
	DialTimeout time.Duration
}

func (o Options) hello() Hello {
	h := Hello{Tenant: o.Tenant, Model: o.Model, Drain: o.Drain, Shards: o.Shards}
	if h.Tenant == "" {
		h.Tenant = "default"
	}
	if h.Drain == "" {
		h.Drain = DrainEager
	}
	return h
}

// Session is a live client connection to a pmserved instance. It implements
// trace.Handler and trace.BatchHandler, so it attaches to an instrumented
// pmem.Pool (or any replay path) exactly like an in-process detector —
// events are encoded through a trace.Writer straight onto the socket.
// Write errors are sticky (the Writer's discipline) and surface from
// Report/Close.
type Session struct {
	conn net.Conn
	br   *bufio.Reader
	tw   *trace.Writer
	id   string
	done bool
}

// Dial connects to a server's trace address, performs the handshake and
// returns the streaming session.
func Dial(addr string, opt Options) (*Session, error) {
	timeout := opt.DialTimeout
	if timeout == 0 {
		timeout = 10 * time.Second
	}
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("serve: dial %s: %w", addr, err)
	}
	conn.SetDeadline(time.Now().Add(timeout))
	if _, err := fmt.Fprintf(conn, "%s\n", opt.hello().encode()); err != nil {
		conn.Close()
		return nil, fmt.Errorf("serve: handshake write: %w", err)
	}
	br := bufio.NewReader(conn)
	line, err := br.ReadString('\n')
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("serve: handshake read: %w", err)
	}
	line = trimEOL(line)
	var id string
	if _, err := fmt.Sscanf(line, "OK session=%s", &id); err != nil {
		conn.Close()
		return nil, fmt.Errorf("serve: server refused session: %s", line)
	}
	conn.SetDeadline(time.Time{})
	tw, err := trace.NewWriter(conn)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return &Session{conn: conn, br: br, tw: tw, id: id}, nil
}

func trimEOL(s string) string {
	for len(s) > 0 && (s[len(s)-1] == '\n' || s[len(s)-1] == '\r') {
		s = s[:len(s)-1]
	}
	return s
}

// ID returns the server-assigned session id (also the /report/<id> key).
func (s *Session) ID() string { return s.id }

// HandleEvent implements trace.Handler: the event is encoded onto the
// socket (errors are sticky; see Err).
func (s *Session) HandleEvent(ev trace.Event) { s.tw.HandleEvent(ev) }

// HandleBatch implements trace.BatchHandler.
func (s *Session) HandleBatch(evs []trace.Event) { s.tw.HandleBatch(evs) }

// Err returns the sticky stream-write error, or nil.
func (s *Session) Err() error { return s.tw.Err() }

// closeWrite half-closes the connection's write side, signalling clean end
// of stream to the server while keeping the read side open for the report
// frame. TCP connections support this; other transports get a full-close
// fallback (the server still finalizes, but the report is then only
// pullable over HTTP).
func (s *Session) closeWrite() error {
	type closeWriter interface{ CloseWrite() error }
	if cw, ok := s.conn.(closeWriter); ok {
		return cw.CloseWrite()
	}
	return nil
}

// Report finishes the stream (flushing staged records and half-closing the
// connection) and returns the server's final report summary. A non-nil
// error with a non-empty summary means the server finalized the session as
// failed — the summary then carries the failure entries.
func (s *Session) Report() (string, error) {
	if s.done {
		return "", fmt.Errorf("serve: session already closed")
	}
	s.done = true
	defer s.conn.Close()
	if err := s.tw.Flush(); err != nil {
		return "", err
	}
	if err := s.closeWrite(); err != nil {
		return "", fmt.Errorf("serve: close write: %w", err)
	}
	line, err := s.br.ReadString('\n')
	if err != nil {
		return "", fmt.Errorf("serve: report frame read: %w", err)
	}
	status, size, err := parseReportFrame(line)
	if err != nil {
		return "", err
	}
	// The length is the server's word, so memory follows the bytes that
	// arrive rather than the length it announced.
	var body strings.Builder
	if _, err := io.CopyN(&body, s.br, int64(size)); err != nil {
		return "", fmt.Errorf("serve: report body read: %w", err)
	}
	if status != "ok" {
		return body.String(), fmt.Errorf("serve: session %s finalized as %s", s.id, status)
	}
	return body.String(), nil
}

// Close abandons the session without waiting for a report: staged records
// are flushed if possible and the connection closes. The server finalizes
// the session on its own; the report remains pullable over HTTP.
func (s *Session) Close() error {
	if s.done {
		return nil
	}
	s.done = true
	err := s.tw.Flush()
	s.conn.Close()
	return err
}

var _ trace.BatchHandler = (*Session)(nil)
