package main

import (
	"context"
	"strings"
	"testing"
	"time"

	"pmdebugger/internal/baselines"
	"pmdebugger/internal/pmem"
	"pmdebugger/internal/report"
	"pmdebugger/internal/serve"
	"pmdebugger/internal/trace"
)

func TestRunWorkloads(t *testing.T) {
	for _, w := range []string{"b_tree", "hashmap_atomic", "memcached", "redis"} {
		if err := run(runOpts{workload: w, n: 200, detector: "pmdebugger", threads: 1}); err != nil {
			t.Errorf("%s: %v", w, err)
		}
	}
}

func TestRunBuggyMemcached(t *testing.T) {
	if err := run(runOpts{workload: "memcached", n: 200, detector: "pmdebugger", buggy: true, threads: 1}); err != nil {
		t.Fatal(err)
	}
}

func TestRunAllDetectors(t *testing.T) {
	for _, d := range []string{"pmemcheck", "pmtest", "xfdetector", "nulgrind"} {
		if err := run(runOpts{workload: "c_tree", n: 100, detector: d, threads: 1}); err != nil {
			t.Errorf("%s: %v", d, err)
		}
	}
}

func TestRunAsync(t *testing.T) {
	// Every workload path under the asynchronous pipeline, including the
	// multi-threaded memcached case the pipeline exists for.
	for _, w := range []string{"b_tree", "memcached", "redis"} {
		if err := run(runOpts{workload: w, n: 200, detector: "pmdebugger", threads: 4, async: true}); err != nil {
			t.Errorf("%s async: %v", w, err)
		}
	}
	if err := run(runOpts{workload: "memcached", n: 200, detector: "pmemcheck", threads: 2, async: true}); err != nil {
		t.Errorf("pmemcheck async: %v", err)
	}
}

func TestRunSharded(t *testing.T) {
	// Genuine fan-out: strand-section memcached and the synthetic strand
	// workload both qualify for sharding.
	for _, o := range []runOpts{
		{workload: "memcached", n: 200, detector: "pmdebugger", threads: 4, strands: true, shards: 4},
		{workload: "synth_strand", n: 200, detector: "pmdebugger", threads: 1, shards: 4},
		// Loud fallback: strict memcached is not shardable but must still run
		// and report correctly through the single-consumer degradation.
		{workload: "memcached", n: 200, detector: "pmdebugger", threads: 2, shards: 4},
	} {
		if err := run(o); err != nil {
			t.Errorf("%+v: %v", o, err)
		}
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(runOpts{workload: "nope", n: 10, detector: "pmdebugger", threads: 1}); err == nil {
		t.Error("unknown workload accepted")
	}
	if err := run(runOpts{workload: "b_tree", n: 10, detector: "nope", threads: 1}); err == nil {
		t.Error("unknown detector accepted")
	}
	if err := run(runOpts{workload: "b_tree", n: 10, detector: "pmdebugger", threads: 1, ordersFile: "/nonexistent/orders"}); err == nil {
		t.Error("missing orders file accepted")
	}
	// -shards with a non-pmdebugger detector must be rejected, not silently
	// ignored.
	if err := run(runOpts{workload: "b_tree", n: 10, detector: "pmemcheck", threads: 1, shards: 4}); err == nil {
		t.Error("-shards with pmemcheck accepted")
	}
}

// TestRunServe streams workloads to an in-process pmserved instead of
// detecting locally, including a sharded strand-mode session.
func TestRunServe(t *testing.T) {
	srv := serve.New(serve.Config{Addr: "127.0.0.1:0"})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()

	for _, o := range []runOpts{
		{workload: "b_tree", n: 200, detector: "pmdebugger", threads: 1, serveAddr: srv.Addr(), tenant: "cli"},
		{workload: "memcached", n: 200, detector: "pmdebugger", buggy: true, threads: 2, serveAddr: srv.Addr(), tenant: "cli"},
		{workload: "memcached", n: 200, detector: "pmdebugger", threads: 2, strands: true,
			shards: 4, drain: "lazy", serveAddr: srv.Addr(), tenant: "cli"},
	} {
		if err := run(o); err != nil {
			t.Errorf("%+v: %v", o, err)
		}
	}
}

func TestRunServeErrors(t *testing.T) {
	// -serve composes only with the pmdebugger detector and no order specs.
	if err := run(runOpts{workload: "b_tree", n: 10, detector: "pmemcheck", threads: 1, serveAddr: "127.0.0.1:1"}); err == nil {
		t.Error("-serve with pmemcheck accepted")
	}
	if err := run(runOpts{workload: "b_tree", n: 10, detector: "pmdebugger", threads: 1,
		serveAddr: "127.0.0.1:1", ordersFile: "orders.conf"}); err == nil {
		t.Error("-serve with -orders accepted")
	}
	if err := run(runOpts{workload: "b_tree", n: 10, detector: "pmdebugger", threads: 1,
		serveAddr: "127.0.0.1:1", async: true}); err == nil {
		t.Error("-serve with -async accepted")
	}
	// -drain picks a served session's discipline; in process it would be
	// silently ignored.
	if err := run(runOpts{workload: "b_tree", n: 200, detector: "pmdebugger", threads: 1,
		async: true, drain: "bogus"}); err == nil {
		t.Error("-drain without -serve accepted")
	}
	// Unreachable server: the dial failure must surface.
	if err := run(runOpts{workload: "b_tree", n: 10, detector: "pmdebugger", threads: 1,
		serveAddr: "127.0.0.1:1", tenant: "x"}); err == nil {
		t.Error("unreachable server accepted")
	}
}

// panicOnStore is a detector with a bug: it panics on the first store it
// is handed, on whichever goroutine delivers it. It notes whether anyone
// asked for its report.
type panicOnStore struct{ reported bool }

func (d *panicOnStore) Name() string { return "panicky" }
func (d *panicOnStore) Report() *report.Report {
	d.reported = true
	return report.New("panicky")
}
func (d *panicOnStore) HandleEvent(ev trace.Event) {
	if ev.Kind == trace.KindStore {
		panic("detector bug")
	}
}

// brokenShard splits into two shard handlers, a healthy one and one that
// panics on its first store, as a broken shard engine would.
type brokenShard struct{ panicOnStore }

func (d *brokenShard) ShardHandlers() []trace.Handler {
	return []trace.Handler{trace.MultiHandler{}, &d.panicOnStore}
}

// TestDetectFailsWhenDetectionFails requires the attach-run-report tail
// to return an error, and to print no truncated report, when the detector
// or one of its shard engines panicked on a pipeline consumer goroutine.
func TestDetectFailsWhenDetectionFails(t *testing.T) {
	whole := func() (baselines.Detector, *panicOnStore) {
		d := &panicOnStore{}
		return d, d
	}
	sharded := func() (baselines.Detector, *panicOnStore) {
		d := &brokenShard{}
		return d, &d.panicOnStore
	}
	for _, tc := range []struct {
		name string
		o    runOpts
		mk   func() (baselines.Detector, *panicOnStore)
		want string
	}{
		{"async", runOpts{async: true}, whole, "handler panicked"},
		{"shards fallback", runOpts{shards: 2}, whole, "handler panicked"},
		{"shard engine", runOpts{shards: 2}, sharded, "shard 1 handler panicked"},
	} {
		pm := pmem.New(1 << 20)
		work := func() error {
			ctx := pm.Ctx()
			for i := uint64(0); i < 8; i++ {
				st := ctx.StrandBegin()
				st.Store64(pm.Base()+i*64, i)
				st.Persist(pm.Base()+i*64, 8)
				st.StrandEnd()
			}
			return nil
		}
		det, panicky := tc.mk()
		err := detect(tc.o, pm, det, work)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: detect = %v, want an error naming %q", tc.name, err, tc.want)
		}
		if panicky.reported {
			t.Errorf("%s: detect asked for a report after detection failed", tc.name)
		}
	}
}
