package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"pmdebugger/internal/memcached"
	"pmdebugger/internal/memslap"
	"pmdebugger/internal/trace"
)

// TestSoakManyClients is the acceptance soak: 8 concurrent clients, each a
// separate tenant streaming its own buggy strand-mode memcached trace into
// sharded lazy-drain sessions, every pulled report byte-identical to an
// offline replay, and /metrics agreeing with what was streamed. Run under
// -race in CI.
func TestSoakManyClients(t *testing.T) {
	srv := startServer(t, Config{})

	cfg := soakConfig{
		Clients:  8,
		Ops:      1500,
		Threads:  4,
		Buggy:    true,
		Strands:  true,
		Drain:    DrainLazy,
		Shards:   4,
		Verify:   true,
		HTTPAddr: srv.HTTPAddr(),
	}
	res, err := soak(srv.Addr(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Clients != 8 || len(res.Tenants) != 8 {
		t.Fatalf("soak covered %d clients / %d tenants, want 8", res.Clients, len(res.Tenants))
	}
	if res.Events == 0 || res.EventsPerSec <= 0 {
		t.Fatalf("soak moved no events: %+v", res)
	}
	t.Logf("soak: %d clients, %d events in %v (%.0f events/sec)",
		res.Clients, res.Events, res.Elapsed, res.EventsPerSec)
}

// TestSoakEagerUnsharded covers the other drain/topology corner with a
// smaller fleet.
func TestSoakEagerUnsharded(t *testing.T) {
	srv := startServer(t, Config{})
	_, err := soak(srv.Addr(), soakConfig{
		Clients:  3,
		Ops:      500,
		Buggy:    true,
		Drain:    DrainEager,
		Verify:   true,
		HTTPAddr: srv.HTTPAddr(),
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSoakSurvivesShutdownAfter ensures a soaked server still drains
// cleanly: Shutdown after the soak returns promptly with no error.
func TestSoakSurvivesShutdownAfter(t *testing.T) {
	srv := New(Config{Addr: "127.0.0.1:0", HTTPAddr: "127.0.0.1:0"})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := soak(srv.Addr(), soakConfig{Clients: 2, Ops: 300}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("post-soak shutdown: %v", err)
	}
	m := srv.MetricsSnapshot()
	if m.ActiveSessions != 0 || m.TotalSessions != 2 || m.CleanSessions != 2 {
		t.Fatalf("post-soak metrics wrong: %+v", m)
	}
}

// soakConfig parameterizes a many-client soak against a running server:
// each client records its own memslap-driven memcached trace, streams it as
// a separate tenant, and (optionally) checks the pulled report against an
// offline replay of the identical engine.
type soakConfig struct {
	// Clients is the number of concurrent streaming clients.
	Clients int
	// Ops is memslap's per-client operation count.
	Ops int
	// Threads is memslap's thread count per client (default 4).
	Threads int
	// Buggy enables the faithful buggy memcached port and walks every
	// command path, so each tenant's report carries real bugs.
	Buggy bool
	// Strands runs the caches in strand mode, making sessions shardable.
	Strands bool
	// Drain is the session drain discipline (DrainEager default).
	Drain string
	// Shards requests sharded sessions (needs Strands to take effect).
	Shards int
	// Verify checks every client's pulled report byte-for-byte against an
	// offline StreamTrace replay through an identically built engine.
	Verify bool
	// HTTPAddr, when set, is the server's HTTP address: the soak then also
	// cross-checks /metrics per-tenant event and bug counts.
	HTTPAddr string
}

func (c *soakConfig) fill() {
	if c.Threads == 0 {
		c.Threads = 4
	}
	if c.Drain == "" {
		c.Drain = DrainEager
	}
}

// soakResult summarizes a soak run.
type soakResult struct {
	Clients      int
	Events       int // total events streamed across all clients
	Elapsed      time.Duration
	EventsPerSec float64
	Tenants      []string
}

// soakClient is one prepared client: its recorded trace and expectations.
type soakClient struct {
	tenant  string
	opt     Options
	raw     []byte // encoded trace stream
	events  int
	expect  string // offline report summary (when verifying)
	expBugs int
}

// prepareSoakClients records one memcached trace per client and computes
// the offline expectation. Recording happens up front so the timed phase
// measures the server, not the workload generator.
func prepareSoakClients(cfg soakConfig) ([]*soakClient, error) {
	clients := make([]*soakClient, cfg.Clients)
	for i := range clients {
		cache, err := memcached.New(memcached.Config{
			PoolSize:    16 << 20,
			HashBuckets: 4096,
			UseCAS:      true,
			Bugs:        cfg.Buggy,
			Strands:     cfg.Strands,
		})
		if err != nil {
			return nil, fmt.Errorf("soak client %d: %w", i, err)
		}
		rec := trace.NewRecorder(cfg.Ops * 8)
		cache.PM().Attach(rec)
		if cfg.Buggy {
			if err := memslap.ExerciseAll(cache); err != nil {
				return nil, fmt.Errorf("soak client %d exercise: %w", i, err)
			}
		}
		if err := memslap.Run(cache, memslap.Config{
			Ops:     cfg.Ops,
			Threads: cfg.Threads,
			Seed:    int64(1000 + i),
		}); err != nil {
			return nil, fmt.Errorf("soak client %d memslap: %w", i, err)
		}
		cache.PM().Detach(rec)

		var buf bytes.Buffer
		if err := trace.WriteTrace(&buf, rec.Events); err != nil {
			return nil, fmt.Errorf("soak client %d encode: %w", i, err)
		}
		sc := &soakClient{
			tenant: fmt.Sprintf("tenant%d", i),
			opt: Options{
				Tenant: fmt.Sprintf("tenant%d", i),
				Model:  cache.Model(),
				Drain:  cfg.Drain,
				Shards: cfg.Shards,
			},
			raw:    buf.Bytes(),
			events: rec.Len(),
		}
		if cfg.Verify {
			rep, err := Offline(bytes.NewReader(sc.raw), sc.opt)
			if err != nil {
				return nil, fmt.Errorf("soak client %d offline replay: %w", i, err)
			}
			sc.expect = rep.Summary()
			sc.expBugs = rep.Len()
		}
		clients[i] = sc
	}
	return clients, nil
}

// soak runs the many-client soak against the server listening at addr.
// Every client streams its full recorded trace concurrently; with
// cfg.Verify each pulled report must be byte-identical to the offline
// replay, and with cfg.HTTPAddr the /metrics per-tenant counters must
// match what was streamed.
func soak(addr string, cfg soakConfig) (soakResult, error) {
	cfg.fill()
	clients, err := prepareSoakClients(cfg)
	if err != nil {
		return soakResult{}, err
	}
	var wg sync.WaitGroup
	errs := make([]error, len(clients))
	start := time.Now()
	for i, sc := range clients {
		wg.Add(1)
		go func(i int, sc *soakClient) {
			defer wg.Done()
			errs[i] = sc.stream(addr)
		}(i, sc)
	}
	wg.Wait()
	elapsed := time.Since(start)

	res := soakResult{Clients: len(clients), Elapsed: elapsed}
	for i, sc := range clients {
		if errs[i] != nil {
			return res, fmt.Errorf("soak client %d: %w", i, errs[i])
		}
		res.Events += sc.events
		res.Tenants = append(res.Tenants, sc.tenant)
	}
	res.EventsPerSec = float64(res.Events) / elapsed.Seconds()

	if cfg.HTTPAddr != "" {
		if err := checkSoakMetrics(cfg.HTTPAddr, cfg, clients); err != nil {
			return res, err
		}
	}
	return res, nil
}

// stream sends the client's recorded trace and verifies the pulled report.
func (sc *soakClient) stream(addr string) error {
	sess, err := Dial(addr, sc.opt)
	if err != nil {
		return err
	}
	// Replay through the handler interface in slab-sized batches, the same
	// shape a live pmem.Pool attachment produces.
	evs, err := trace.ReadTrace(bytes.NewReader(sc.raw))
	if err != nil {
		sess.Close()
		return fmt.Errorf("re-decode recorded trace: %w", err)
	}
	for off := 0; off < len(evs); off += trace.StreamBatchSize {
		end := off + trace.StreamBatchSize
		if end > len(evs) {
			end = len(evs)
		}
		sess.HandleBatch(evs[off:end])
	}
	got, err := sess.Report()
	if err != nil {
		return err
	}
	if sc.expect != "" && got != sc.expect {
		return fmt.Errorf("tenant %s report differs from offline replay:\n--- server ---\n%s\n--- offline ---\n%s",
			sc.tenant, got, sc.expect)
	}
	return nil
}

// checkSoakMetrics pulls /metrics and cross-checks the per-tenant counters
// against what each client streamed.
func checkSoakMetrics(httpAddr string, cfg soakConfig, clients []*soakClient) error {
	resp, err := http.Get("http://" + httpAddr + "/metrics")
	if err != nil {
		return fmt.Errorf("soak metrics pull: %w", err)
	}
	defer resp.Body.Close()
	var m Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return fmt.Errorf("soak metrics decode: %w", err)
	}
	if m.DecodeErrors != 0 {
		return fmt.Errorf("soak: server reports %d decode errors", m.DecodeErrors)
	}
	if m.EventsPerSec <= 0 {
		return fmt.Errorf("soak: /metrics events_per_sec = %v, want > 0", m.EventsPerSec)
	}
	for _, sc := range clients {
		tm, ok := m.Tenants[sc.tenant]
		if !ok {
			return fmt.Errorf("soak: tenant %s missing from /metrics", sc.tenant)
		}
		if tm.Events != uint64(sc.events) {
			return fmt.Errorf("soak: tenant %s events = %d, want %d", sc.tenant, tm.Events, sc.events)
		}
		if cfg.Verify && tm.Bugs != sc.expBugs {
			return fmt.Errorf("soak: tenant %s bugs = %d, offline replay found %d", sc.tenant, tm.Bugs, sc.expBugs)
		}
		if tm.Failures != 0 {
			return fmt.Errorf("soak: tenant %s has %d failures on a clean stream", sc.tenant, tm.Failures)
		}
	}
	return nil
}
