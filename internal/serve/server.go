package serve

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"pmdebugger/internal/baselines"
	"pmdebugger/internal/core"
	"pmdebugger/internal/report"
	"pmdebugger/internal/rules"
	"pmdebugger/internal/trace"
)

// Config parameterizes a Server.
type Config struct {
	// Addr is the trace listener address ("127.0.0.1:0" picks a free port).
	Addr string
	// HTTPAddr is the operational HTTP listener address ("" disables it).
	HTTPAddr string
	// MaxShards caps a client's requested shard count (0 = 16). Requests
	// above the cap are clamped, not rejected: shard count never changes
	// the report, only how many consumer goroutines drain it.
	MaxShards int
	// HandshakeTimeout bounds how long a connection may sit before
	// completing its handshake line (0 = 10s).
	HandshakeTimeout time.Duration
	// Logf receives operational log lines (nil discards them).
	Logf func(format string, args ...any)
	// DetectorFactory overrides session detector construction — a test
	// hook for fault injection. nil means the core engines (core.New, or
	// core.NewSharded for sharded sessions).
	DetectorFactory func(model rules.Model) baselines.Detector
}

func (c *Config) fill() {
	if c.MaxShards == 0 {
		c.MaxShards = 16
	}
	if c.HandshakeTimeout == 0 {
		c.HandshakeTimeout = 10 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
}

// Server is a multi-tenant detection server: one detector session per
// accepted trace connection, plus the HTTP operational surface.
type Server struct {
	cfg Config

	ln     net.Listener
	httpLn net.Listener
	httpS  *http.Server
	start  time.Time

	mu       sync.Mutex
	sessions map[string]*session
	tenants  map[string]*tenantStats
	live     map[*session]struct{} // registered, not yet finished
	conns    map[net.Conn]struct{}
	nextID   uint64
	closing  bool

	wg sync.WaitGroup // accept loop + session handlers

	// Fleet-wide counters (atomics: bumped from session goroutines, read
	// by /metrics without the lock).
	events       atomic.Uint64
	bytes        atomic.Uint64
	decodeErrs   atomic.Uint64
	panics       atomic.Uint64
	active       atomic.Int64
	totalSess    atomic.Uint64
	stageNanos   atomic.Int64 // time spent handing decoded batches to pipelines (ring backpressure)
	drainedClean atomic.Uint64
}

// session is the server-side state of one tenant connection.
type session struct {
	id     string
	seq    uint64 // the server's session counter at creation, in id too
	tenant string
	hello  Hello

	shards   int    // engines actually running (1 when degraded)
	fallback string // why a requested sharded session degraded ("" if not)

	events atomic.Uint64

	mu       sync.Mutex
	state    string // "active", "done", "failed"
	summary  string
	failErr  string
	bugs     int
	failures int
}

func (ss *session) snapshotState() (state, summary, failErr string) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.state, ss.summary, ss.failErr
}

// tenantStats aggregates sessions of one tenant for /metrics.
type tenantStats struct {
	sessions int
	active   int
	events   uint64
	bugs     int
	failures int
}

// New returns an unstarted server.
func New(cfg Config) *Server {
	cfg.fill()
	return &Server{
		cfg:      cfg,
		sessions: map[string]*session{},
		tenants:  map[string]*tenantStats{},
		live:     map[*session]struct{}{},
		conns:    map[net.Conn]struct{}{},
	}
}

// Start binds the trace (and, when configured, HTTP) listeners and begins
// accepting sessions. Use Addr/HTTPAddr for the bound addresses.
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return fmt.Errorf("serve: listen %s: %w", s.cfg.Addr, err)
	}
	s.ln = ln
	s.start = time.Now()
	if s.cfg.HTTPAddr != "" {
		hln, err := net.Listen("tcp", s.cfg.HTTPAddr)
		if err != nil {
			ln.Close()
			return fmt.Errorf("serve: listen http %s: %w", s.cfg.HTTPAddr, err)
		}
		s.httpLn = hln
		s.httpS = &http.Server{Handler: s.httpMux()}
		go s.httpS.Serve(hln)
	}
	s.wg.Add(1)
	go s.acceptLoop()
	s.cfg.Logf("pmserved: accepting traces on %s (http %s)", s.Addr(), s.HTTPAddr())
	return nil
}

// Addr returns the bound trace listener address.
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// HTTPAddr returns the bound HTTP listener address ("" when disabled).
func (s *Server) HTTPAddr() string {
	if s.httpLn == nil {
		return ""
	}
	return s.httpLn.Addr().String()
}

// Shutdown drains the server: it stops accepting new sessions, waits for
// active sessions to finish, and — when ctx expires first (the hard
// deadline) — force-closes the remaining connections, which poisons their
// sessions with a stream failure rather than leaving them wedged. The
// HTTP listener closes last, so reports stay pullable through the drain.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	alreadyClosing := s.closing
	s.closing = true
	s.mu.Unlock()
	if !alreadyClosing && s.ln != nil {
		s.ln.Close()
	}

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		s.cfg.Logf("pmserved: drain deadline hit, force-closing %d connection(s)", len(s.snapshotConns()))
		for _, c := range s.snapshotConns() {
			c.Close()
		}
		<-done // sessions unwind promptly once their conns error out
	}
	if s.httpS != nil {
		s.httpS.Close()
	}
	return err
}

func (s *Server) snapshotConns() []net.Conn {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		out = append(out, c)
	}
	return out
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed: shutting down
		}
		s.mu.Lock()
		if s.closing {
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.handleConn(conn)
	}
}

func (s *Server) forget(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	conn.Close()
}

// countingReader counts raw stream bytes into the server's byte counter.
type countingReader struct {
	r io.Reader
	n *atomic.Uint64
}

func (cr *countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.n.Add(uint64(n))
	return n, err
}

// meteredSink hands decoded batches to the session's pipeline, counting
// events and the time spent staging them (which includes any blocking on a
// full slab ring — the backpressure signal /metrics exposes).
type meteredSink struct {
	c    *trace.Pipeline
	sess *session
	srv  *Server
}

func (m *meteredSink) HandleEvent(ev trace.Event) {
	start := time.Now()
	m.c.HandleEvent(ev)
	m.srv.stageNanos.Add(time.Since(start).Nanoseconds())
	m.srv.events.Add(1)
	m.sess.events.Add(1)
}

func (m *meteredSink) HandleBatch(evs []trace.Event) {
	start := time.Now()
	m.c.HandleBatch(evs)
	m.srv.stageNanos.Add(time.Since(start).Nanoseconds())
	m.srv.events.Add(uint64(len(evs)))
	m.sess.events.Add(uint64(len(evs)))
}

// maxHandshakeLine bounds the handshake line, newline included. The line
// Dial sends is under 150 bytes. The session reader's buffer is this
// size, so a longer line is refused as soon as it fills the buffer
// instead of growing server memory until the handshake deadline.
const maxHandshakeLine = 4096

// handleConn runs one session: handshake, stream, finalize, report frame.
func (s *Server) handleConn(conn net.Conn) {
	defer s.wg.Done()
	defer s.forget(conn)

	conn.SetReadDeadline(time.Now().Add(s.cfg.HandshakeTimeout))
	cr := &countingReader{r: conn, n: &s.bytes}
	br := bufio.NewReaderSize(cr, maxHandshakeLine)
	line, err := br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		fmt.Fprintf(conn, "ERR handshake line exceeds %d bytes\n", maxHandshakeLine)
		return
	}
	if err != nil {
		fmt.Fprintf(conn, "ERR handshake read: %v\n", err)
		return
	}
	hs, err := parseHello(string(line))
	if err != nil {
		fmt.Fprintf(conn, "ERR %v\n", err)
		return
	}
	conn.SetReadDeadline(time.Time{})
	if hs.Shards > s.cfg.MaxShards {
		hs.Shards = s.cfg.MaxShards
	}

	eng := buildEngine(hs, s.cfg.DetectorFactory)
	sess := s.register(hs, eng)
	if eng.fallback != "" {
		s.cfg.Logf("pmserved: session %s requested %d shards but degraded to a single engine: %s",
			sess.id, hs.Shards, eng.fallback)
	}
	if _, err := fmt.Fprintf(conn, "OK session=%s\n", sess.id); err != nil {
		// Close the pipeline, or its consumer goroutines stay parked on
		// their rings for good.
		rep, _ := eng.finalize(nil)
		s.finish(sess, rep, fmt.Errorf("handshake reply: %w", err))
		return
	}

	n, streamErr := trace.StreamTrace(br, &meteredSink{c: eng.pipe, sess: sess, srv: s})
	rep, failed := eng.finalize(streamErr)
	if streamErr != nil {
		s.decodeErrs.Add(1)
	}
	if eng.pipe.Err() != nil {
		s.panics.Add(1)
	}
	var sessErr error
	if failed {
		sessErr = fmt.Errorf("session failed (see report failures)")
		if streamErr != nil {
			sessErr = streamErr
		}
	} else {
		s.drainedClean.Add(1)
	}
	sum := s.finish(sess, rep, sessErr)
	s.cfg.Logf("pmserved: session %s: %d events, %d bug(s), %d failure(s)",
		sess.id, n, rep.Len(), len(rep.Failures))

	status := "ok"
	if failed {
		status = "failed"
	}
	// The peer may already be gone (mid-slab disconnects); the report is
	// still retained for /report pull, so write errors are non-events.
	if _, err := fmt.Fprintf(conn, "REPORT %s %d\n", status, len(sum)); err == nil {
		io.WriteString(conn, sum)
	}
}

// register creates the session record and bumps tenant/fleet counters.
func (s *Server) register(hs Hello, eng engine) *session {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	sess := &session{
		id:       fmt.Sprintf("%s-%d", hs.Tenant, s.nextID),
		seq:      s.nextID,
		tenant:   hs.Tenant,
		hello:    hs,
		shards:   eng.pipe.Shards(),
		fallback: eng.fallback,
		state:    "active",
	}
	s.sessions[sess.id] = sess
	s.live[sess] = struct{}{}
	ts := s.tenants[hs.Tenant]
	if ts == nil {
		ts = &tenantStats{}
		s.tenants[hs.Tenant] = ts
	}
	ts.sessions++
	ts.active++
	s.active.Add(1)
	s.totalSess.Add(1)
	return sess
}

// finish finalizes the session record with its report (or failure) and
// returns the report's rendered summary.
func (s *Server) finish(sess *session, rep *report.Report, err error) string {
	sum := rep.Summary()
	sess.mu.Lock()
	sess.summary = sum
	sess.bugs = rep.Len()
	sess.failures = len(rep.Failures)
	if err != nil {
		sess.state = "failed"
		sess.failErr = err.Error()
	} else {
		sess.state = "done"
	}
	sess.mu.Unlock()

	s.mu.Lock()
	delete(s.live, sess)
	ts := s.tenants[sess.tenant]
	ts.active--
	ts.events += sess.events.Load()
	ts.bugs += rep.Len()
	ts.failures += len(rep.Failures)
	s.mu.Unlock()
	s.active.Add(-1)
	return sum
}

// engine bundles a session's detector with its delivery pipeline.
type engine struct {
	det      baselines.Detector
	pipe     *trace.Pipeline
	fallback string // why a sharded request degraded ("" when it did not)
}

// buildEngine constructs the detector + pipeline a handshake asks for: a
// core.NewSharded detector behind a strand-routed pipeline when the client
// requested shards (one ring when the configuration does not shard), a
// single engine behind a one-ring pipeline otherwise. The drain discipline
// (eager/lazy) applies to every ring, and every ring holds
// trace.DefaultPipelineDepth slabs. Offline uses the same constructor, which
// is what makes served reports comparable byte for byte with offline
// replays.
func buildEngine(hs Hello, factory func(rules.Model) baselines.Detector) engine {
	popts := trace.PipelineOptions{Lazy: hs.Drain == DrainLazy}
	var det baselines.Detector
	var fallback string
	switch {
	case factory != nil:
		det = factory(hs.Model)
	case hs.Shards > 1:
		sd := core.NewSharded(core.Config{Model: hs.Model}, hs.Shards)
		det, fallback, popts.Shards = sd, sd.FallbackReason(), sd.ShardHandlers()
	default:
		det = core.New(core.Config{Model: hs.Model})
	}
	return engine{det: det, pipe: trace.NewPipeline(det, popts), fallback: fallback}
}

// finalize closes the pipeline and produces the session's report. A handler
// panic caught by the pipeline poisons the session: the detector's state is
// unknown, so its report is replaced by a report.Failure. A stream error
// (truncated/corrupt trace, disconnect) keeps the partial report but marks
// it failed with a failure entry.
func (e engine) finalize(streamErr error) (rep *report.Report, failed bool) {
	e.pipe.Close()
	if perr := e.pipe.Err(); perr != nil {
		rep = report.New(e.det.Name())
		rep.AddFailure(fmt.Sprintf("session poisoned: %v", perr))
		if streamErr != nil {
			rep.AddFailure(fmt.Sprintf("trace stream: %v", streamErr))
		}
		return rep, true
	}
	func() {
		defer func() {
			if r := recover(); r != nil {
				rep = report.New(e.det.Name())
				rep.AddFailure(fmt.Sprintf("detector finalization panicked: %v", r))
				failed = true
			}
		}()
		rep = e.det.Report()
	}()
	if failed {
		return rep, true
	}
	if streamErr != nil {
		rep.AddFailure(fmt.Sprintf("trace stream: %v", streamErr))
		return rep, true
	}
	return rep, false
}

// Offline replays an encoded trace from r through the exact engine and
// delivery path the server would run for a session with opt's handshake,
// returning the final report. It is the reference for the soak's
// byte-identity requirement: a served session's pulled report must equal
// Offline's summary of the same recorded trace.
func Offline(r io.Reader, opt Options) (*report.Report, error) {
	eng := buildEngine(opt.hello(), nil)
	_, streamErr := trace.StreamTrace(r, eng.pipe)
	rep, failed := eng.finalize(streamErr)
	if streamErr != nil {
		return rep, streamErr
	}
	if failed {
		return rep, fmt.Errorf("serve: offline replay failed (see report failures)")
	}
	return rep, nil
}
