package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"pmdebugger/internal/baselines"
	"pmdebugger/internal/memcached"
	"pmdebugger/internal/memslap"
	"pmdebugger/internal/report"
	"pmdebugger/internal/rules"
	"pmdebugger/internal/trace"
)

// startServer boots a server on ephemeral ports and registers shutdown.
func startServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	if cfg.HTTPAddr == "" {
		cfg.HTTPAddr = "127.0.0.1:0"
	}
	srv := New(cfg)
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv
}

// recordTrace drives a memcached instance and returns the encoded trace.
func recordTrace(t testing.TB, buggy, strands bool, ops int) ([]byte, rules.Model) {
	t.Helper()
	cache, err := memcached.New(memcached.Config{
		PoolSize:    16 << 20,
		HashBuckets: 1024,
		UseCAS:      true,
		Bugs:        buggy,
		Strands:     strands,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder(ops * 8)
	cache.PM().Attach(rec)
	if buggy {
		if err := memslap.ExerciseAll(cache); err != nil {
			t.Fatal(err)
		}
	}
	if err := memslap.Run(cache, memslap.Config{Ops: ops, Threads: 2, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	cache.PM().Detach(rec)
	var buf bytes.Buffer
	if err := trace.WriteTrace(&buf, rec.Events); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), cache.Model()
}

// streamRaw sends pre-encoded trace bytes through a session.
func streamRaw(t testing.TB, sess *Session, raw []byte) {
	t.Helper()
	evs, err := trace.ReadTrace(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	sess.HandleBatch(evs)
}

func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

// waitSessionState polls until the named session leaves "active".
func waitSessionState(t *testing.T, srv *Server, id string) SessionInfo {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		for _, info := range srv.Sessions() {
			if info.ID == id && info.State != "active" {
				return info
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("session %s never finished", id)
	return SessionInfo{}
}

// TestSessionRoundTrip: a buggy memcached trace streamed to the server must
// produce exactly the report an offline replay produces, and every HTTP
// surface must agree.
func TestSessionRoundTrip(t *testing.T) {
	raw, model := recordTrace(t, true, false, 500)
	srv := startServer(t, Config{})

	opt := Options{Tenant: "acme", Model: model}
	want, err := Offline(bytes.NewReader(raw), opt)
	if err != nil {
		t.Fatal(err)
	}
	if want.Len() == 0 {
		t.Fatal("offline replay of the buggy port found no bugs; test is vacuous")
	}

	sess, err := Dial(srv.Addr(), opt)
	if err != nil {
		t.Fatal(err)
	}
	streamRaw(t, sess, raw)
	got, err := sess.Report()
	if err != nil {
		t.Fatal(err)
	}
	if got != want.Summary() {
		t.Fatalf("served report differs from offline replay:\n--- served ---\n%s\n--- offline ---\n%s", got, want.Summary())
	}

	// /healthz
	resp, err := http.Get("http://" + srv.HTTPAddr() + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", resp.Status, err)
	}
	resp.Body.Close()

	// /metrics: events flowed, the tenant aggregated, bugs counted.
	var m Metrics
	getJSON(t, "http://"+srv.HTTPAddr()+"/metrics", &m)
	if m.EventsTotal == 0 || m.EventsPerSec <= 0 || m.BytesTotal == 0 {
		t.Fatalf("metrics did not move: %+v", m)
	}
	if m.DecodeErrors != 0 || m.HandlerPanics != 0 {
		t.Fatalf("clean session bumped error counters: %+v", m)
	}
	tm, ok := m.Tenants["acme"]
	if !ok || tm.Bugs != want.Len() || tm.Sessions != 1 || tm.Failures != 0 {
		t.Fatalf("tenant metrics wrong: %+v (want %d bugs)", tm, want.Len())
	}

	// /report/<id> serves the identical summary.
	resp, err = http.Get("http://" + srv.HTTPAddr() + "/report/" + sess.ID())
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != want.Summary() {
		t.Fatalf("/report: %s, body differs=%v", resp.Status, string(body) != want.Summary())
	}
	if st := resp.Header.Get("X-Session-State"); st != "done" {
		t.Fatalf("/report state = %q, want done", st)
	}

	// /sessions lists it as done.
	var infos []SessionInfo
	getJSON(t, "http://"+srv.HTTPAddr()+"/sessions", &infos)
	if len(infos) != 1 || infos[0].State != "done" || infos[0].Bugs != want.Len() {
		t.Fatalf("sessions listing wrong: %+v", infos)
	}
}

// TestShardedSession: a strand-mode trace with shards requested runs the
// sharded engine and still matches the (equally sharded) offline replay.
func TestShardedSession(t *testing.T) {
	raw, model := recordTrace(t, true, true, 500)
	if model != rules.Strand {
		t.Fatalf("strand cache reports model %v", model)
	}
	srv := startServer(t, Config{})

	opt := Options{Tenant: "sharded", Model: model, Shards: 4, Drain: DrainLazy}
	want, err := Offline(bytes.NewReader(raw), opt)
	if err != nil {
		t.Fatal(err)
	}

	sess, err := Dial(srv.Addr(), opt)
	if err != nil {
		t.Fatal(err)
	}
	streamRaw(t, sess, raw)
	got, err := sess.Report()
	if err != nil {
		t.Fatal(err)
	}
	if got != want.Summary() {
		t.Fatalf("sharded served report differs from offline replay:\n%s\nvs\n%s", got, want.Summary())
	}
	info := waitSessionState(t, srv, sess.ID())
	if info.Shards < 2 || info.Fallback != "" {
		t.Fatalf("session did not shard: %+v", info)
	}
}

// BenchmarkServedSession times one served strand-memcached session, from
// Dial to the REPORT frame, with one engine (shards=0) and with two strand
// shards, under each drain discipline. Every configuration's served report
// must equal its Offline replay before anything is timed. Run it at -cpu 2
// or more: at one P the shards take turns.
func BenchmarkServedSession(b *testing.B) {
	raw, model := recordTrace(b, true, true, 20000)
	evs, err := trace.ReadTrace(bytes.NewReader(raw))
	if err != nil {
		b.Fatal(err)
	}
	srv := startServer(b, Config{})
	session := func(tb testing.TB, opt Options) string {
		sess, err := Dial(srv.Addr(), opt)
		if err != nil {
			tb.Fatal(err)
		}
		sess.HandleBatch(evs)
		sum, err := sess.Report()
		if err != nil {
			tb.Fatal(err)
		}
		return sum
	}
	var opts []Options
	for _, drain := range []string{DrainEager, DrainLazy} {
		for _, shards := range []int{0, 2} {
			opt := Options{Tenant: "bench", Model: model, Drain: drain, Shards: shards}
			want, err := Offline(bytes.NewReader(raw), opt)
			if err != nil {
				b.Fatal(err)
			}
			if got := session(b, opt); got != want.Summary() {
				b.Fatalf("%s shards=%d: served report differs from offline replay:\n%s\nvs\n%s",
					drain, shards, got, want.Summary())
			}
			opts = append(opts, opt)
		}
	}
	b.Logf("%d events per session", len(evs))
	for _, opt := range opts {
		b.Run(fmt.Sprintf("%s/shards=%d", opt.Drain, opt.Shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				session(b, opt)
			}
		})
	}
}

// TestShardedFallback: requesting shards under a non-partition-safe model
// degrades loudly to a single engine instead of failing the session.
func TestShardedFallback(t *testing.T) {
	raw, model := recordTrace(t, false, false, 200) // strict model
	srv := startServer(t, Config{})

	opt := Options{Tenant: "fallback", Model: model, Shards: 4}
	want, err := Offline(bytes.NewReader(raw), opt)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := Dial(srv.Addr(), opt)
	if err != nil {
		t.Fatal(err)
	}
	streamRaw(t, sess, raw)
	got, err := sess.Report()
	if err != nil {
		t.Fatal(err)
	}
	if got != want.Summary() {
		t.Fatal("degraded session report differs from offline replay")
	}
	info := waitSessionState(t, srv, sess.ID())
	if info.Shards != 1 || info.Fallback == "" {
		t.Fatalf("expected loud single-engine fallback, got %+v", info)
	}
}

// TestCorruptStream: garbage after the handshake fails the session with a
// failed report frame and bumps decode_errors — the server itself stays up.
func TestCorruptStream(t *testing.T) {
	srv := startServer(t, Config{})

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "%s tenant=corrupt model=strict\n", ProtocolVersion)
	line, err := readLine(conn)
	if err != nil || !strings.HasPrefix(line, "OK session=") {
		t.Fatalf("handshake: %q %v", line, err)
	}
	conn.Write([]byte("NOTTRACEATALL"))
	conn.(*net.TCPConn).CloseWrite()

	line, err = readLine(conn)
	if err != nil {
		t.Fatal(err)
	}
	status, size, err := parseReportFrame(line)
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, size)
	if _, err := io.ReadFull(conn, body); err != nil {
		t.Fatal(err)
	}
	if status != "failed" || !strings.Contains(string(body), "detection failure") {
		t.Fatalf("status=%s body=%q, want failed with a failure entry", status, body)
	}

	var m Metrics
	getJSON(t, "http://"+srv.HTTPAddr()+"/metrics", &m)
	if m.DecodeErrors != 1 {
		t.Fatalf("decode_errors = %d, want 1", m.DecodeErrors)
	}
	tm := m.Tenants["corrupt"]
	if tm.Failures == 0 {
		t.Fatalf("tenant failure not counted: %+v", tm)
	}

	// The server still accepts and serves a healthy session afterwards.
	raw, model := recordTrace(t, false, false, 100)
	sess, err := Dial(srv.Addr(), Options{Tenant: "after", Model: model})
	if err != nil {
		t.Fatal(err)
	}
	streamRaw(t, sess, raw)
	if _, err := sess.Report(); err != nil {
		t.Fatalf("session after corrupt stream: %v", err)
	}
}

// TestImpossibleRecordFailsOnlyItsSession: one record whose range wraps
// past 2^64 — which a detector would index as about 2^64 cache lines —
// fails its own session with a decode error before any detector sees it,
// while a tenant streaming concurrently still gets the offline report byte
// for byte.
func TestImpossibleRecordFailsOnlyItsSession(t *testing.T) {
	raw, model := recordTrace(t, true, false, 300)
	opt := Options{Tenant: "good", Model: model}
	want, err := Offline(bytes.NewReader(raw), opt)
	if err != nil {
		t.Fatal(err)
	}
	evs, err := trace.ReadTrace(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	srv := startServer(t, Config{})

	good, err := Dial(srv.Addr(), opt)
	if err != nil {
		t.Fatal(err)
	}
	evil, err := Dial(srv.Addr(), Options{Tenant: "evil", Model: model})
	if err != nil {
		t.Fatal(err)
	}
	half := len(evs) / 2
	good.HandleBatch(evs[:half])
	evil.HandleBatch(evs[:10])
	evil.HandleEvent(trace.Event{Seq: 1 << 40, Kind: trace.KindStore, Addr: 1<<64 - 8, Size: 16})
	body, err := evil.Report()
	if err == nil || !strings.Contains(body, "wraps past 2^64") {
		t.Fatalf("evil session: err %v, report %q; want a failed session naming the wrapping record", err, body)
	}
	good.HandleBatch(evs[half:])
	got, err := good.Report()
	if err != nil {
		t.Fatal(err)
	}
	if got != want.Summary() {
		t.Fatalf("concurrent tenant's report differs from offline replay:\n%s\nvs\n%s", got, want.Summary())
	}
	if m := srv.MetricsSnapshot(); m.DecodeErrors != 1 {
		t.Fatalf("decode_errors = %d, want 1", m.DecodeErrors)
	}
}

// readLine reads one LF-terminated line without buffering past it.
func readLine(r io.Reader) (string, error) {
	var sb strings.Builder
	buf := make([]byte, 1)
	for {
		if _, err := r.Read(buf); err != nil {
			return sb.String(), err
		}
		if buf[0] == '\n' {
			return sb.String(), nil
		}
		sb.WriteByte(buf[0])
	}
}

// TestDisconnectMidSlab: a client that dies mid-record leaves a failed
// session whose report is still pullable over HTTP.
func TestDisconnectMidSlab(t *testing.T) {
	raw, _ := recordTrace(t, false, false, 200)
	srv := startServer(t, Config{})

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(conn, "%s tenant=flaky model=strict\n", ProtocolVersion)
	line, err := readLine(conn)
	if err != nil || !strings.HasPrefix(line, "OK session=") {
		t.Fatalf("handshake: %q %v", line, err)
	}
	id := strings.TrimPrefix(line, "OK session=")
	conn.Write(raw[:len(raw)-17]) // cut mid-record
	conn.Close()                  // abrupt disconnect

	info := waitSessionState(t, srv, id)
	if info.State != "failed" || info.Failures == 0 {
		t.Fatalf("disconnected session not failed: %+v", info)
	}
	if info.Events == 0 {
		t.Fatal("no events delivered before the cut")
	}

	resp, err := http.Get("http://" + srv.HTTPAddr() + "/report/" + id)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.Header.Get("X-Session-State") != "failed" || !strings.Contains(string(body), "detection failure") {
		t.Fatalf("failed session report not pullable: state=%s body=%q",
			resp.Header.Get("X-Session-State"), body)
	}
}

// panicDetector blows up after a fixed number of events.
type panicDetector struct {
	n     int
	after int
}

func (p *panicDetector) Name() string { return "panicky" }
func (p *panicDetector) HandleEvent(trace.Event) {
	p.n++
	if p.n > p.after {
		panic("injected detector fault")
	}
}
func (p *panicDetector) Report() *report.Report { return report.New(p.Name()) }

// TestHandlerPanic: a detector panic mid-stream poisons that session only —
// the client gets a failed report frame, the panic counter bumps, and the
// server keeps serving.
func TestHandlerPanic(t *testing.T) {
	raw, model := recordTrace(t, false, false, 200)
	srv := startServer(t, Config{
		DetectorFactory: func(rules.Model) baselines.Detector {
			return &panicDetector{after: 10}
		},
	})

	sess, err := Dial(srv.Addr(), Options{Tenant: "boom", Model: model})
	if err != nil {
		t.Fatal(err)
	}
	streamRaw(t, sess, raw)
	got, err := sess.Report()
	if err == nil {
		t.Fatal("panicked session reported ok")
	}
	if !strings.Contains(got, "poisoned") {
		t.Fatalf("poisoned report missing failure entry: %q", got)
	}

	var m Metrics
	getJSON(t, "http://"+srv.HTTPAddr()+"/metrics", &m)
	if m.HandlerPanics != 1 {
		t.Fatalf("handler_panics = %d, want 1", m.HandlerPanics)
	}
	info := waitSessionState(t, srv, sess.ID())
	if info.State != "failed" {
		t.Fatalf("panicked session state = %s", info.State)
	}
}

// TestShutdownHardDeadline: Shutdown force-closes wedged sessions when the
// context expires, poisoning them rather than hanging forever.
func TestShutdownHardDeadline(t *testing.T) {
	srv := New(Config{Addr: "127.0.0.1:0", HTTPAddr: "127.0.0.1:0"})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "%s tenant=wedged model=strict\n", ProtocolVersion)
	line, err := readLine(conn)
	if err != nil || !strings.HasPrefix(line, "OK session=") {
		t.Fatalf("handshake: %q %v", line, err)
	}
	id := strings.TrimPrefix(line, "OK session=")
	// Stream the header and one whole record, then go silent: the session
	// is now wedged in a blocking read.
	raw, _ := recordTrace(t, false, false, 100)
	conn.Write(raw[:8+38])

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = srv.Shutdown(ctx)
	if err == nil {
		t.Fatal("Shutdown returned nil despite a wedged session")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("Shutdown took %v after the hard deadline", elapsed)
	}
	// The wedged session was finalized as failed on the way down.
	for _, info := range srv.Sessions() {
		if info.ID == id && info.State != "failed" {
			t.Fatalf("wedged session state = %s, want failed", info.State)
		}
	}
}

// badHandshakes are malformed handshake lines the server must refuse.
var badHandshakes = []string{
	"HELLO?\n",
	ProtocolVersion + " tenant=bad/slash model=strict\n",
	ProtocolVersion + " model=quantum\n",
	ProtocolVersion + " drain=sometimes\n",
	ProtocolVersion + " shards=minustwo\n",
}

// TestHandshakeErrors: malformed handshakes get an ERR line and no session.
func TestHandshakeErrors(t *testing.T) {
	srv := startServer(t, Config{})
	for _, hs := range badHandshakes {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		io.WriteString(conn, hs)
		line, _ := readLine(conn)
		conn.Close()
		if !strings.HasPrefix(line, "ERR ") {
			t.Fatalf("handshake %q: got %q, want ERR", strings.TrimSpace(hs), line)
		}
	}

	// A handshake line with no newline in sight is refused once it
	// outgrows the limit, long before the handshake deadline; the client
	// is still writing when the reply arrives.
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	wrote := make(chan struct{})
	go func() {
		defer close(wrote)
		// The write fails once the server hangs up; only the reply matters.
		conn.Write([]byte(ProtocolVersion + " tenant=" + strings.Repeat("a", 1<<20)))
	}()
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	line, err := readLine(conn)
	conn.Close()
	<-wrote
	if !strings.HasPrefix(line, "ERR ") || !strings.Contains(line, fmt.Sprint(maxHandshakeLine)) {
		t.Fatalf("oversized handshake: got %q (%v), want an ERR naming the %d-byte limit",
			line, err, maxHandshakeLine)
	}

	if n := len(srv.Sessions()); n != 0 {
		t.Fatalf("%d sessions registered from bad handshakes", n)
	}

	// Dial surfaces the refusal as an error.
	if _, err := Dial(srv.Addr(), Options{Tenant: "no/pe"}); err == nil {
		t.Fatal("Dial accepted a tenant the server must reject")
	}
}

// TestMaxShardsClamp: shard requests above the cap are clamped, not refused.
func TestMaxShardsClamp(t *testing.T) {
	raw, model := recordTrace(t, false, true, 200) // strand model
	srv := startServer(t, Config{MaxShards: 2})

	opt := Options{Tenant: "greedy", Model: model, Shards: 64}
	sess, err := Dial(srv.Addr(), opt)
	if err != nil {
		t.Fatal(err)
	}
	streamRaw(t, sess, raw)
	if _, err := sess.Report(); err != nil {
		t.Fatal(err)
	}
	info := waitSessionState(t, srv, sess.ID())
	if info.Shards > 2 {
		t.Fatalf("shards = %d, cap was 2", info.Shards)
	}
}
