package harness

import (
	"fmt"
	"runtime"
	"time"

	"pmdebugger/internal/core"
	"pmdebugger/internal/memcached"
	"pmdebugger/internal/memslap"
	"pmdebugger/internal/pmem"
	"pmdebugger/internal/redis"
	"pmdebugger/internal/rules"
	"pmdebugger/internal/trace"
)

// This file measures the asynchronous detection pipeline: the same live
// workload with PMDebugger attached inline (detection under the pool lock,
// on the application threads), attached through a one-ring
// trace.Pipeline (emission stages a slab entry; detection is deferred to
// drain points), and attached through a strand-routed trace.Pipeline (the
// staged events fan out to one detector engine per strand shard, so the
// deferred analysis runs on several cores). The paper's headline metric is live
// instrumentation slowdown, so each run is split into two timed phases:
//
//   - live: the workload exercises the cache/server. Inline, every
//     instrumented instruction runs the detector's bookkeeping here;
//     pipelined and sharded, it only appends 40 bytes to a slab.
//   - drain: Pool.End — the deferred analysis runs to completion. Inline
//     this is near-zero; pipelined it carries the detection work the live
//     phase no longer pays for; sharded it divides that work across shard
//     consumers (the paper-motivating scaling, visible only with spare
//     cores — this container pins everything to one CPU, CI has more).
//
// Both phases are reported (plus their sum) so the artifact shows exactly
// where the work went. The pipelined and sharded runs use the lazy drain
// discipline with rings deep enough to hold the whole run, so on a machine
// without a spare core the consumers do not time-slice against the
// application mid-run.
//
// Sharding requires a core.Shardable configuration. The strict-model
// memcached row and the epoch-model redis row therefore measure the
// fallback single-consumer path (flagged in PipelineResult.Fallback, never
// silently); the memcached-strand row — every cache operation in its own
// strand section, the globally-locked cache serializing them — is the
// genuinely sharded measurement.

// PipelineModes names the three delivery modes, inline first.
func PipelineModes() [3]string { return [3]string{"inline", "pipelined", "sharded"} }

// Memcached row configuration: an all-set, small-value mix. Sets are the
// instrumented path (a get emits no events), so this maximizes the density
// of detector bookkeeping per operation — the cost the pipeline removes
// from the live phase.
const (
	pipelineSetRatio  = 1.0
	pipelineValueSize = 16
)

// PipelineResult is one (workload, mode) live-run measurement.
type PipelineResult struct {
	Workload   string  `json:"workload"`
	Mode       string  `json:"mode"` // "inline", "pipelined" or "sharded"
	Threads    int     `json:"threads"`
	Ops        int     `json:"ops"`
	Events     uint64  `json:"events"`
	LiveNanos  int64   `json:"live_nanos"`  // workload execution
	DrainNanos int64   `json:"drain_nanos"` // Pool.End: deferred analysis
	Nanos      int64   `json:"nanos"`       // live + drain
	OpsPerSec  float64 `json:"ops_per_sec"` // over the live phase
	// Shards is the number of detector engines behind the sharded mode's
	// delivery (1 when the configuration forced the single-consumer
	// fallback); zero for the other modes.
	Shards int `json:"shards,omitempty"`
	// Fallback marks a sharded-mode row that actually measured the
	// single-consumer fallback because the workload's detector
	// configuration is not core.Shardable. Such a row must not be read as
	// a sharded-scaling data point.
	Fallback bool `json:"fallback,omitempty"`
}

// pipelineWorkload builds a live run: live drives the workload (without
// finalizing the pool); the harness then times Pool.End separately as the
// drain phase.
type pipelineWorkload struct {
	model rules.Model
	setup func() (*pmem.Pool, func() error, error)
}

func pipelineWorkloadFor(name string, ops, threads int) (pipelineWorkload, error) {
	memcachedSetup := func(strands bool) func() (*pmem.Pool, func() error, error) {
		return func() (*pmem.Pool, func() error, error) {
			cache, err := memcached.New(memcached.Config{
				PoolSize: memcachedPoolSize(ops), HashBuckets: 1 << 14, UseCAS: true,
				Strands: strands,
			})
			if err != nil {
				return nil, nil, err
			}
			return cache.PM(), func() error {
				return memslap.Run(cache, memslap.Config{
					Ops: ops, SetRatio: pipelineSetRatio, Threads: threads,
					ValueSize: pipelineValueSize, Seed: 42,
				})
			}, nil
		}
	}
	switch name {
	case "memcached":
		return pipelineWorkload{model: rules.Strict, setup: memcachedSetup(false)}, nil
	case "memcached-strand":
		// Every cache operation in its own strand section: the cache's
		// global lock serializes operations, so each op's persists form an
		// independent persist path and the configuration is core.Shardable.
		return pipelineWorkload{model: rules.Strand, setup: memcachedSetup(true)}, nil
	case "redis":
		return pipelineWorkload{
			model: rules.Epoch,
			setup: func() (*pmem.Pool, func() error, error) {
				srv, err := redis.New(redis.Config{
					PoolSize: memcachedPoolSize(ops), MaxKeys: ops / 2, Seed: 42,
				})
				if err != nil {
					return nil, nil, err
				}
				return srv.PM(), func() error {
					return srv.RunLRUTest(ops, 42)
				}, nil
			},
		}, nil
	default:
		return pipelineWorkload{}, fmt.Errorf("pipeline: unknown workload %q", name)
	}
}

// pipelineShards is the shard count for a thread count: one shard per
// application thread, minimum two (a single shard is just the pipelined
// mode again).
func pipelineShards(threads int) int {
	if threads < 2 {
		return 2
	}
	return threads
}

// verifyPipelineDelivery records one live run of the workload and replays
// the identical stream into an inline detector, an eager pipeline, a lazy
// pipeline and a sharded pipeline, requiring byte-identical reports from
// all four. Multi-threaded runs are not deterministic across executions,
// so the equivalence proof compares the delivery modes on one recorded
// stream rather than across live runs. Returns the recorded event count,
// which also sizes the measurement ring.
func verifyPipelineDelivery(w pipelineWorkload, ops, shards int) (uint64, error) {
	pm, live, err := w.setup()
	if err != nil {
		return 0, err
	}
	rec := trace.NewRecorder(ops * 8)
	pm.Attach(rec)
	if err := live(); err != nil {
		return 0, err
	}
	pm.End()

	inline := core.New(core.Config{Model: w.model})
	rec.Replay(inline)
	want := inline.Report().Summary()

	for _, lazy := range []bool{false, true} {
		det := core.New(core.Config{Model: w.model})
		pipe := trace.NewPipeline(det, trace.PipelineOptions{Lazy: lazy})
		for _, ev := range rec.Events {
			pipe.HandleEvent(ev)
		}
		pipe.Close()
		if got := det.Report().Summary(); got != want {
			mode := "eager"
			if lazy {
				mode = "lazy"
			}
			return 0, fmt.Errorf("pipeline: %s delivery disagrees with inline on the identical stream\n--- inline ---\n%s--- pipelined ---\n%s",
				mode, want, got)
		}
	}

	// Sharded delivery — through the strand router when the configuration
	// shards, through one ring otherwise. Either way the report must match
	// inline byte for byte.
	sd := core.NewSharded(core.Config{Model: w.model}, shards)
	pipe := trace.NewPipeline(sd, trace.PipelineOptions{Lazy: true, Shards: sd.ShardHandlers()})
	for _, ev := range rec.Events {
		pipe.HandleEvent(ev)
	}
	pipe.Close()
	if err := pipe.Err(); err != nil {
		return 0, fmt.Errorf("pipeline: sharded delivery failed: %w", err)
	}
	if got := sd.Report().Summary(); got != want {
		return 0, fmt.Errorf("pipeline: sharded delivery (shards=%d, fallback=%v) disagrees with inline on the identical stream\n--- inline ---\n%s--- sharded ---\n%s",
			sd.Shards(), sd.Fallback(), want, got)
	}
	return uint64(rec.Len()), nil
}

// MeasurePipeline measures the live workload under PMDebugger with inline,
// single-consumer pipelined and sharded delivery (best live phase of
// Repeats each, inline first), after proving all delivery modes produce
// byte-identical reports on an identical recorded stream.
func MeasurePipeline(workload string, ops, threads int) ([]PipelineResult, error) {
	w, err := pipelineWorkloadFor(workload, ops, threads)
	if err != nil {
		return nil, err
	}
	shards := pipelineShards(threads)
	streamLen, err := verifyPipelineDelivery(w, ops, shards)
	if err != nil {
		return nil, err
	}
	// Ring deep enough for the whole recorded stream plus slack, so the
	// lazy consumers never have to run mid-measurement. Sharded rings get
	// the same depth each: a skewed strand distribution may fill one shard
	// with nearly the whole stream.
	depth := int(streamLen/trace.DefaultBatchSize) + threads + 8

	modes := PipelineModes()
	var bestLive, bestDrain [3]time.Duration
	var events [3]uint64
	var shardsUsed [3]int
	var fellBack [3]bool
	// Repeats are interleaved (inline, pipelined, sharded, inline, ...)
	// rather than run as contiguous blocks, so a drift in the machine's
	// speed across the measurement lands on every mode instead of skewing
	// their ratios.
	for r := 0; r < Repeats; r++ {
		for i, mode := range modes {
			pm, live, err := w.setup()
			if err != nil {
				return nil, err
			}
			cfg := core.Config{Model: w.model}
			var h trace.Handler
			switch mode {
			case "inline":
				d := core.New(cfg)
				pm.Attach(d)
				h = d
			case "pipelined":
				d := core.New(cfg)
				pm.AttachWith(d, pmem.AttachOptions{
					Async: true, Lazy: true, PipelineDepth: depth,
				})
				h = d
			case "sharded":
				sd := core.NewSharded(cfg, shards)
				pm.AttachWith(sd, pmem.AttachOptions{
					Async: true, Lazy: true, PipelineDepth: depth, Shards: shards,
				})
				h = sd
				shardsUsed[i], fellBack[i] = sd.Shards(), sd.Fallback()
			}
			// Start every repeat from a collected heap — after the ring
			// allocation, so GC debt from a previous run (or the
			// verification replay) cannot land in this one's timed phases.
			runtime.GC()
			start := time.Now()
			if err := live(); err != nil {
				return nil, err
			}
			liveElapsed := time.Since(start)
			drainStart := time.Now()
			pm.End()
			drainElapsed := time.Since(drainStart)
			if bestLive[i] == 0 || liveElapsed < bestLive[i] {
				bestLive[i], bestDrain[i] = liveElapsed, drainElapsed
			}
			events[i] = pm.EventCount()
			pm.Detach(h)
		}
	}
	out := make([]PipelineResult, len(modes))
	for i, mode := range modes {
		out[i] = PipelineResult{
			Workload:   workload,
			Mode:       mode,
			Threads:    threads,
			Ops:        ops,
			Events:     events[i],
			LiveNanos:  bestLive[i].Nanoseconds(),
			DrainNanos: bestDrain[i].Nanoseconds(),
			Nanos:      (bestLive[i] + bestDrain[i]).Nanoseconds(),
			OpsPerSec:  float64(ops) / bestLive[i].Seconds(),
			Shards:     shardsUsed[i],
			Fallback:   fellBack[i],
		}
	}
	return out, nil
}
