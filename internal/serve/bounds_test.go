package serve

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"pmdebugger/internal/report"
	"pmdebugger/internal/rules"
)

// TestReportLengthFromPeer: a peer that announces an impossible report
// length and then hangs up makes Report fail, instead of panicking or
// allocating the announced length before a byte arrives.
func TestReportLengthFromPeer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	served := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			served <- err
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		if _, err := br.ReadString('\n'); err != nil {
			served <- err
			return
		}
		io.WriteString(conn, "OK session=fake-1\n")
		// Take the whole stream, up to the client's half-close, as a
		// server does before it answers.
		if _, err := io.Copy(io.Discard, br); err != nil {
			served <- err
			return
		}
		_, err = io.WriteString(conn, "REPORT ok 9223372036854775807\n")
		served <- err
	}()

	sess, err := Dial(ln.Addr().String(), Options{Tenant: "victim"})
	if err != nil {
		t.Fatal(err)
	}
	got, err := sess.Report()
	if err == nil {
		t.Fatalf("Report accepted a truncated %d-byte body: %q", len(got), got)
	}
	if err := <-served; err != nil {
		t.Fatalf("fake server: %v", err)
	}
}

// TestSessionsCreationOrder: /sessions lists sessions in the order they
// were created, whatever their tenants and however many digits their ids
// carry.
func TestSessionsCreationOrder(t *testing.T) {
	srv := startServer(t, Config{})
	var want []string
	for i := 0; i < 11; i++ {
		tenant := []string{"zeta", "alpha"}[i%2]
		sess, err := Dial(srv.Addr(), Options{Tenant: tenant})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Report(); err != nil {
			t.Fatal(err)
		}
		want = append(want, sess.ID())
	}
	var got []string
	for _, info := range srv.Sessions() {
		got = append(got, info.ID)
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("Sessions() lists\n  %v\nwant creation order\n  %v", got, want)
	}
}

// TestIdleShardedSessionsMemory: sessions that complete a 16-shard
// handshake and then send nothing cost the server their engines, not a
// ring of event slabs per shard.
func TestIdleShardedSessionsMemory(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation totals vary under the race detector")
	}
	const sessions, shards, limit = 10, 16, 10 << 20
	srv := startServer(t, Config{})
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < sessions; i++ {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		fmt.Fprintf(conn, "%s tenant=idle model=strand shards=%d\n", ProtocolVersion, shards)
		// The server builds the session's engine before it answers.
		if line, err := readLine(conn); err != nil || !strings.HasPrefix(line, "OK session=") {
			t.Fatalf("handshake: %q %v", line, err)
		}
	}
	runtime.ReadMemStats(&after)
	for _, info := range srv.Sessions() {
		if info.State != "active" || info.Shards != shards {
			t.Fatalf("session %s: state %s, %d shards; want active with %d", info.ID, info.State, info.Shards, shards)
		}
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d idle %d-shard sessions allocated %.1f MB", sessions, shards, float64(alloc)/1e6)
	if alloc > limit {
		t.Fatalf("%d idle %d-shard sessions allocated %d bytes, want at most %d", sessions, shards, alloc, limit)
	}
}

// hungUpConn serves one handshake line and then fails every write, like a
// client that hangs up between its hello and the server's reply. Only the
// methods handleConn calls on that path are implemented.
type hungUpConn struct {
	net.Conn
	hello io.Reader
}

func (c *hungUpConn) Read(p []byte) (int, error)      { return c.hello.Read(p) }
func (c *hungUpConn) Write([]byte) (int, error)       { return 0, errors.New("peer hung up") }
func (c *hungUpConn) Close() error                    { return nil }
func (c *hungUpConn) SetReadDeadline(time.Time) error { return nil }

// TestHandshakeReplyFailureClosesPipeline: a session whose "OK session="
// reply cannot be written still closes its pipeline, so the consumer
// goroutines of its 16 shards exit instead of parking on their rings.
func TestHandshakeReplyFailureClosesPipeline(t *testing.T) {
	srv := New(Config{})
	before := runtime.NumGoroutine()
	hello := fmt.Sprintf("%s tenant=gone model=strand shards=16\n", ProtocolVersion)
	srv.wg.Add(1)
	srv.handleConn(&hungUpConn{hello: strings.NewReader(hello)})

	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the session, %d before it: its pipeline was left open",
				runtime.NumGoroutine(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
	infos := srv.Sessions()
	if len(infos) != 1 || infos[0].State != "failed" || infos[0].Shards != 16 ||
		!strings.Contains(infos[0].Error, "handshake reply") {
		t.Fatalf("sessions = %+v, want one failed 16-shard session with a handshake reply error", infos)
	}
}

// TestMetricsFoldLiveSessions: a tenant's event count includes what its
// unfinished sessions have streamed so far, and counts each finished
// session's events once.
func TestMetricsFoldLiveSessions(t *testing.T) {
	srv := New(Config{})
	eng := buildEngine(Hello{Model: rules.Strict}, nil)
	defer eng.pipe.Close()
	a := srv.register(Hello{Tenant: "acme"}, eng)
	b := srv.register(Hello{Tenant: "acme"}, eng)
	srv.register(Hello{Tenant: "zeta"}, eng)
	a.events.Add(100)
	b.events.Add(20)
	if got := srv.MetricsSnapshot().Tenants["acme"]; got.Events != 120 || got.Active != 2 {
		t.Fatalf("in flight: acme = %+v, want 120 events over 2 active sessions", got)
	}
	srv.finish(a, report.New("pmdebugger"), nil)
	b.events.Add(3)
	m := srv.MetricsSnapshot()
	if got := m.Tenants["acme"]; got.Events != 123 || got.Active != 1 || got.Sessions != 2 {
		t.Fatalf("one finished: acme = %+v, want 123 events, 1 active of 2 sessions", got)
	}
	if got := m.Tenants["zeta"]; got.Events != 0 || got.Active != 1 {
		t.Fatalf("zeta = %+v, want 0 events over 1 active session", got)
	}
}

// metricsSink keeps BenchmarkMetricsSnapshot's calls from being optimized
// away.
var metricsSink Metrics

// BenchmarkMetricsSnapshot times one /metrics snapshot on a server that
// has finished 1,000 or 20,000 sessions over 50 tenants, with one session
// per tenant still streaming.
func BenchmarkMetricsSnapshot(b *testing.B) {
	const tenants = 50
	for _, finished := range []int{1_000, 20_000} {
		b.Run(fmt.Sprintf("finished=%d", finished), func(b *testing.B) {
			srv := New(Config{})
			eng := buildEngine(Hello{Model: rules.Strict}, nil)
			defer eng.pipe.Close()
			for i := 0; i < finished+tenants; i++ {
				sess := srv.register(Hello{Tenant: fmt.Sprintf("t%d", i%tenants)}, eng)
				if i < finished {
					srv.finish(sess, report.New("pmdebugger"), nil)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				metricsSink = srv.MetricsSnapshot()
			}
		})
	}
}
