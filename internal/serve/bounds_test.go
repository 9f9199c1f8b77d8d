package serve

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
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
