package harness

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"pmdebugger/internal/baselines"
	"pmdebugger/internal/core"
	"pmdebugger/internal/memcached"
	"pmdebugger/internal/memslap"
	"pmdebugger/internal/pmem"
	"pmdebugger/internal/redis"
	"pmdebugger/internal/rules"
	"pmdebugger/internal/trace"
	"pmdebugger/internal/workloads"
)

// differentialConfigs are the three detector configurations the
// differential suites sweep (the same set index_test.go uses): one per
// persistency model.
func differentialConfigs() []struct {
	name     string
	workload string
	cfg      core.Config
} {
	return []struct {
		name     string
		workload string
		cfg      core.Config
	}{
		{"strict", "b_tree", core.Config{Model: rules.Strict}},
		{"epoch", "hashmap_tx", core.Config{Model: rules.Epoch}},
		{"strand", "synth_strand", core.Config{Model: rules.Strand}},
	}
}

// buildAttached builds the detector for a delivery mode and attaches it:
// inline synchronously, eager through a single-consumer pipeline, and
// sharded across shards engines through AttachOptions.Shards (which
// degrades to a single consumer when cfg is not core.Shardable — that
// fallback path is part of the differential).
func buildAttached(pm *pmem.Pool, cfg core.Config, mode string, shards int) baselines.Detector {
	switch mode {
	case "inline":
		d := core.New(cfg)
		pm.Attach(d)
		return d
	case "eager":
		d := core.New(cfg)
		pm.AttachAsync(d)
		return d
	case "sharded":
		sd := core.NewSharded(cfg, shards)
		pm.AttachWith(sd, pmem.AttachOptions{Async: true, Shards: shards})
		return sd
	default:
		panic("unknown attach mode " + mode)
	}
}

// runWorkloadWith runs the deterministic workload once with the detector
// attached in the requested mode and returns the report summary.
func runWorkloadWith(t *testing.T, workload string, cfg core.Config, n int, mode string) string {
	t.Helper()
	f, err := workloads.Lookup(workload)
	if err != nil {
		t.Fatal(err)
	}
	app, pm, err := workloads.Build(f, n)
	if err != nil {
		t.Fatal(err)
	}
	det := buildAttached(pm, cfg, mode, 4)
	if err := workloads.RunInserts(app, n, 42); err != nil {
		t.Fatal(err)
	}
	if err := app.Close(); err != nil {
		t.Fatal(err)
	}
	pm.End()
	return det.Report().Summary()
}

// TestPipelineDifferentialModels proves inline, eager-pipelined and
// sharded delivery produce byte-identical reports across all three detector
// configurations on deterministic single-threaded workloads. The strand
// configuration exercises the genuine fan-out; the others exercise the
// sharded attach's fallback.
func TestPipelineDifferentialModels(t *testing.T) {
	const n = 800
	for _, tc := range differentialConfigs() {
		inline := runWorkloadWith(t, tc.workload, tc.cfg, n, "inline")
		for _, mode := range []string{"eager", "sharded"} {
			async := runWorkloadWith(t, tc.workload, tc.cfg, n, mode)
			if inline != async {
				t.Errorf("%s (%s): reports differ between delivery modes\n--- inline ---\n%s--- %s ---\n%s",
					tc.name, tc.workload, inline, mode, async)
			}
		}
	}
}

// runTrappedWorkload runs the workload with a crash trap armed and returns
// the detector's report summary at the moment of the trap, plus whether
// the trap fired.
func runTrappedWorkload(t *testing.T, cfg core.Config, trap uint64, mode string) (summary string, trapped bool) {
	t.Helper()
	f, err := workloads.Lookup("b_tree")
	if err != nil {
		t.Fatal(err)
	}
	app, pm, err := workloads.Build(f, 200)
	if err != nil {
		t.Fatal(err)
	}
	det := buildAttached(pm, cfg, mode, 4)
	pm.SetCrashTrap(trap)
	func() {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(pmem.CrashTrap); !ok {
					panic(r)
				}
				trapped = true
			}
		}()
		if err := workloads.RunInserts(app, 200, 42); err != nil {
			t.Fatal(err)
		}
		_ = app.Close()
		pm.End()
	}()
	return det.Report().Summary(), trapped
}

// TestPipelineDifferentialCrashTrap fires crash traps mid-stream and
// requires every asynchronously attached detector to have consumed the
// identical prefix as the inline one when the trap unwinds.
func TestPipelineDifferentialCrashTrap(t *testing.T) {
	cfg := core.Config{Model: rules.Strict}
	for _, trap := range []uint64{5, 97, 1203} {
		inline, okInline := runTrappedWorkload(t, cfg, trap, "inline")
		if !okInline {
			t.Fatalf("trap %d did not fire", trap)
		}
		for _, mode := range []string{"eager", "sharded"} {
			async, okAsync := runTrappedWorkload(t, cfg, trap, mode)
			if okInline != okAsync {
				t.Fatalf("trap %d fired inline=%v %s=%v", trap, okInline, mode, okAsync)
			}
			if inline != async {
				t.Errorf("trap %d: detector state differs at the trap\n--- inline ---\n%s--- %s ---\n%s",
					trap, inline, mode, async)
			}
		}
	}
}

// TestPipelineDifferentialCrashTrapStrand repeats the crash-trap prefix
// check on a strand workload where sharding genuinely fans out, so the
// drain-before-trap barrier is proven across real shards, not only the
// fallback pipeline.
func TestPipelineDifferentialCrashTrapStrand(t *testing.T) {
	cfg := core.Config{Model: rules.Strand}
	runStrand := func(trap uint64, mode string) (string, bool) {
		t.Helper()
		f, err := workloads.Lookup("synth_strand")
		if err != nil {
			t.Fatal(err)
		}
		app, pm, err := workloads.Build(f, 200)
		if err != nil {
			t.Fatal(err)
		}
		det := buildAttached(pm, cfg, mode, 4)
		if mode == "sharded" {
			if sd := det.(*core.ShardedDetector); sd.Fallback() {
				t.Fatalf("strand workload unexpectedly fell back: %s", sd.FallbackReason())
			}
		}
		pm.SetCrashTrap(trap)
		trapped := false
		func() {
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(pmem.CrashTrap); !ok {
						panic(r)
					}
					trapped = true
				}
			}()
			if err := workloads.RunInserts(app, 200, 42); err != nil {
				t.Fatal(err)
			}
			_ = app.Close()
			pm.End()
		}()
		return det.Report().Summary(), trapped
	}
	for _, trap := range []uint64{7, 113, 997} {
		inline, okInline := runStrand(trap, "inline")
		if !okInline {
			t.Fatalf("trap %d did not fire", trap)
		}
		sharded, okSharded := runStrand(trap, "sharded")
		if !okSharded {
			t.Fatalf("trap %d did not fire under sharded delivery", trap)
		}
		if inline != sharded {
			t.Errorf("trap %d: detector state differs at the trap\n--- inline ---\n%s--- sharded ---\n%s",
				trap, inline, sharded)
		}
	}
}

// deliveryShards is the detector shard count of the sharded delivery mode,
// the one the pmledger memcached-async workload attaches.
const deliveryShards = 2

// deliveryWorkload is one live run: setup builds a fresh pool and returns
// the workload body, which drives it without finalizing it.
type deliveryWorkload struct {
	name  string
	model rules.Model
	setup func() (*pmem.Pool, func() error, error)
}

// deliveryWorkloads are the three workloads whose delivery modes are
// compared: all-set memcached on four client threads under the strict
// model and with every operation in its own strand section (the cache's
// global lock serializes operations, so each op is an independent persist
// path and the configuration is core.Shardable), and the single-threaded
// epoch-model redis LRU test. Sets are memcached's instrumented path (a
// get emits no events), so an all-set mix is the densest detector load per
// operation.
func deliveryWorkloads(memOps, redisKeys int) []deliveryWorkload {
	memcachedSetup := func(strands bool) func() (*pmem.Pool, func() error, error) {
		return func() (*pmem.Pool, func() error, error) {
			cache, err := memcached.New(memcached.Config{
				PoolSize: memcachedPoolSize(memOps), HashBuckets: 1 << 14, UseCAS: true,
				Strands: strands,
			})
			if err != nil {
				return nil, nil, err
			}
			return cache.PM(), func() error {
				return memslap.Run(cache, memslap.Config{
					Ops: memOps, SetRatio: 1, Threads: 4, ValueSize: 16, Seed: 42,
				})
			}, nil
		}
	}
	return []deliveryWorkload{
		{"memcached", rules.Strict, memcachedSetup(false)},
		{"memcached-strand", rules.Strand, memcachedSetup(true)},
		{"redis", rules.Epoch, func() (*pmem.Pool, func() error, error) {
			srv, err := redis.New(redis.Config{
				PoolSize: memcachedPoolSize(redisKeys), MaxKeys: redisKeys / 2, Seed: 42,
			})
			if err != nil {
				return nil, nil, err
			}
			return srv.PM(), func() error { return srv.RunLRUTest(redisKeys, 42) }, nil
		}},
	}
}

// verifyDelivery records one live run of the workload and replays the
// identical stream into an inline detector, an eager ring, a lazy ring and
// a deliveryShards-way sharded pipeline, requiring byte-identical reports
// and no pipeline error from all of them. Multi-threaded runs are not
// deterministic across executions, so the modes are compared on one
// recorded stream rather than across live runs. It returns the sharded
// pipeline's ring count: deliveryShards when the configuration shards, 1
// when it falls back.
func verifyDelivery(w deliveryWorkload) (rings int, err error) {
	pm, live, err := w.setup()
	if err != nil {
		return 0, err
	}
	rec := trace.NewRecorder(0)
	pm.Attach(rec)
	if err := live(); err != nil {
		return 0, err
	}
	pm.End()

	cfg := core.Config{Model: w.model}
	inline := core.New(cfg)
	rec.Replay(inline)
	want := inline.Report().Summary()

	replay := func(mode string, det baselines.Detector, opts trace.PipelineOptions) (*trace.Pipeline, error) {
		pipe := trace.NewPipeline(det, opts)
		for _, ev := range rec.Events {
			pipe.HandleEvent(ev)
		}
		pipe.Close()
		if err := pipe.Err(); err != nil {
			return nil, fmt.Errorf("%s: %s delivery failed: %w", w.name, mode, err)
		}
		if got := det.Report().Summary(); got != want {
			return nil, fmt.Errorf("%s: %s delivery disagrees with inline on the identical stream\n--- inline ---\n%s--- %s ---\n%s",
				w.name, mode, want, mode, got)
		}
		return pipe, nil
	}
	if _, err := replay("eager", core.New(cfg), trace.PipelineOptions{}); err != nil {
		return 0, err
	}
	if _, err := replay("lazy", core.New(cfg), trace.PipelineOptions{Lazy: true}); err != nil {
		return 0, err
	}
	// Through the strand router when the configuration shards, through one
	// ring otherwise; either way the report must match inline.
	sd := core.NewSharded(cfg, deliveryShards)
	pipe, err := replay("sharded", sd, trace.PipelineOptions{Shards: sd.ShardHandlers()})
	if err != nil {
		return 0, err
	}
	return pipe.Shards(), nil
}

// TestDeliveryModesAgree runs the identity check BenchmarkDelivery makes
// before timing on small runs, and pins which workloads genuinely shard:
// strict memcached and epoch redis are not core.Shardable and fall back to
// one ring, strand-section memcached routes across every shard.
func TestDeliveryModesAgree(t *testing.T) {
	wantRings := map[string]int{"memcached": 1, "memcached-strand": deliveryShards, "redis": 1}
	for _, w := range deliveryWorkloads(500, 500) {
		rings, err := verifyDelivery(w)
		if err != nil {
			t.Fatal(err)
		}
		if rings != wantRings[w.name] {
			t.Errorf("%s: sharded delivery ran %d rings, want %d", w.name, rings, wantRings[w.name])
		}
	}
}

// timeDelivery builds a fresh pool, attaches PMDebugger in the given
// delivery mode (buildAttached; "native" attaches nothing) and times one
// run from the workload's first operation until Pool.End returns, so the
// drain of an asynchronous attach is included. Every ring has the default
// depth.
func timeDelivery(b *testing.B, w deliveryWorkload, mode string) time.Duration {
	pm, live, err := w.setup()
	if err != nil {
		b.Fatal(err)
	}
	var det baselines.Detector
	if mode != "native" {
		det = buildAttached(pm, core.Config{Model: w.model}, mode, deliveryShards)
	}
	runtime.GC()
	start := time.Now()
	if err := live(); err != nil {
		b.Fatal(err)
	}
	pm.End()
	elapsed := time.Since(start)
	if det != nil {
		pm.Detach(det)
	}
	return elapsed
}

// BenchmarkDelivery times each workload end to end natively, with
// PMDebugger inline, behind one eager ring, and behind a
// deliveryShards-way sharded attach (timeDelivery). Before any timing it
// requires byte-identical reports from inline, eager, lazy and sharded
// rings (verifyDelivery). Every row but native reports slowdown-x over
// native and, for the asynchronous rows, speedup-x over inline; every
// iteration times the native and inline references right after the row's
// own run, so drift in the machine's speed lands on both sides of each
// ratio. Run it with -cpu 1,2 to see whether a spare core pays for the
// handoff. A sharded row whose configuration is not shardable measures the
// one-ring fallback and is named sharded-fallback.
func BenchmarkDelivery(b *testing.B) {
	for _, w := range deliveryWorkloads(20000, 10000) {
		b.Run(w.name, func(b *testing.B) {
			rings, err := verifyDelivery(w)
			if err != nil {
				b.Fatal(err)
			}
			for _, mode := range []string{"native", "inline", "eager", "sharded"} {
				name := mode
				if mode == "sharded" && rings == 1 {
					name = "sharded-fallback"
				}
				b.Run(name, func(b *testing.B) {
					var own, native, inline time.Duration
					for i := 0; i < b.N; i++ {
						own += timeDelivery(b, w, mode)
						if mode != "native" {
							native += timeDelivery(b, w, "native")
						}
						if mode != "native" && mode != "inline" {
							inline += timeDelivery(b, w, "inline")
						}
					}
					b.ReportMetric(float64(own.Nanoseconds())/float64(b.N), "ns/op")
					if native > 0 {
						b.ReportMetric(float64(own)/float64(native), "slowdown-x")
					}
					if inline > 0 {
						b.ReportMetric(float64(inline)/float64(own), "speedup-x")
					}
				})
			}
		})
	}
}
