package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"pmdebugger/internal/harness"
)

// pipelineArtifact is the BENCH_pipeline.json schema: the phase-split
// measurements of all three delivery modes per workload plus per-workload
// and aggregate speedups, so successive CI runs form a perf trajectory for
// the asynchronous detection pipeline.
//
// Speedups compare the live phase — the workload's execution time with the
// detector attached, the part an application's clients observe. The drain
// phase (the deferred analysis at Pool.End) is reported alongside in every
// result and in total_speedups, so nothing is hidden: on a machine with
// spare cores the drain overlaps the live phase; on a single-CPU container
// it runs after it.
//
// Sharded scaling is a drain-phase metric: live is pure slab staging in
// both asynchronous modes, and the fan-out divides the deferred analysis
// across shard consumers. sharded_drain_scaling is therefore the
// single-consumer drain time over the sharded drain time, recorded only
// for rows that genuinely sharded (fallback rows carry no scaling entry —
// they measured the same single consumer twice). On a single-CPU host the
// expected value is ~1x (the shards time-slice); the scaling shows on
// multi-core CI.
type pipelineArtifact struct {
	Experiment          string                   `json:"experiment"`
	Timestamp           string                   `json:"timestamp"`
	CPUs                int                      `json:"cpus"`
	Threads             int                      `json:"threads"`
	Repeats             int                      `json:"repeats"`
	MemcachedSetRatio   float64                  `json:"memcached_set_ratio"`
	MemcachedValueSize  int                      `json:"memcached_value_size"`
	Results             []harness.PipelineResult `json:"results"`
	Speedups            map[string]float64       `json:"speedups"`         // pipelined live over inline live
	TotalSpeedups       map[string]float64       `json:"total_speedups"`   // pipelined, live + drain
	ShardedSpeedups     map[string]float64       `json:"sharded_speedups"` // sharded live over inline live
	ShardedDrainScaling map[string]float64       `json:"sharded_drain_scaling,omitempty"`
	ShardedFallbacks    map[string]string        `json:"sharded_fallbacks,omitempty"` // workload -> why not sharded
	GeomeanSpeedup      float64                  `json:"geomean_speedup"`
	GeomeanTotalSpeedup float64                  `json:"geomean_total_speedup"`
	// GeomeanShardScaling aggregates sharded_drain_scaling over the rows
	// that genuinely sharded (0 when none did).
	GeomeanShardScaling float64 `json:"geomean_shard_scaling,omitempty"`
}

// pipelineExp measures live-run throughput with PMDebugger attached
// inline, through a one-ring trace.Pipeline, and through a strand-routed
// trace.Pipeline with one ring per shard, on the multi-threaded
// memcached workload (strict and strand-section variants) and the redis
// LRU test. Delivery equivalence (byte-identical reports on an identical
// recorded stream, all modes) is verified by the harness before any
// timing — a mismatch is a hard error regardless of gates. Optionally
// writes the JSON artifact and enforces the minimum live-speedup and
// shard-scaling gates.
func pipelineExp(opts pipelineOpts, memOps, redisKeys int) error {
	fmt.Println("\n=== Async pipeline: inline vs pipelined vs sharded detection (live runs, PMDebugger) ===")
	fmt.Printf("%-18s %-10s %7s %7s %12s %12s %12s %12s %9s %s\n",
		"workload", "mode", "threads", "ops", "live", "drain", "total", "live ops/s", "speedup", "shards")

	art := pipelineArtifact{
		Experiment:          "pipeline",
		Timestamp:           time.Now().UTC().Format(time.RFC3339),
		CPUs:                runtime.NumCPU(),
		Threads:             opts.threads,
		Repeats:             harness.Repeats,
		MemcachedSetRatio:   1.0,
		MemcachedValueSize:  16,
		Speedups:            map[string]float64{},
		TotalSpeedups:       map[string]float64{},
		ShardedSpeedups:     map[string]float64{},
		ShardedDrainScaling: map[string]float64{},
		ShardedFallbacks:    map[string]string{},
	}
	rows := []struct {
		workload string
		ops      int
		threads  int
	}{
		{"memcached", memOps, opts.threads},
		{"memcached-strand", memOps, opts.threads},
		{"redis", redisKeys, 1},
	}
	logSum, logSumTotal := 0.0, 0.0
	logSumScale, scaleRows := 0.0, 0
	for _, row := range rows {
		results, err := harness.MeasurePipeline(row.workload, row.ops, row.threads)
		if err != nil {
			return err
		}
		inline, piped, sharded := results[0], results[1], results[2]
		speedup := float64(inline.LiveNanos) / float64(piped.LiveNanos)
		totalSpeedup := float64(inline.Nanos) / float64(piped.Nanos)
		shardedSpeedup := float64(inline.LiveNanos) / float64(sharded.LiveNanos)
		art.Results = append(art.Results, results...)
		art.Speedups[row.workload] = speedup
		art.TotalSpeedups[row.workload] = totalSpeedup
		art.ShardedSpeedups[row.workload] = shardedSpeedup
		logSum += math.Log(speedup)
		logSumTotal += math.Log(totalSpeedup)
		if sharded.Fallback {
			art.ShardedFallbacks[row.workload] = "configuration not shardable; sharded row measured the single-consumer fallback"
		} else if sharded.DrainNanos > 0 {
			scale := float64(piped.DrainNanos) / float64(sharded.DrainNanos)
			art.ShardedDrainScaling[row.workload] = scale
			logSumScale += math.Log(scale)
			scaleRows++
		}
		for _, r := range results {
			mark, shardsCol := "", ""
			switch r.Mode {
			case "pipelined":
				mark = fmt.Sprintf("%8.2fx", speedup)
			case "sharded":
				mark = fmt.Sprintf("%8.2fx", shardedSpeedup)
				shardsCol = fmt.Sprintf("%d", r.Shards)
				if r.Fallback {
					shardsCol += " (FALLBACK: not shardable)"
				}
			}
			fmt.Printf("%-18s %-10s %7d %7d %12s %12s %12s %12.0f %9s %s\n",
				r.Workload, r.Mode, r.Threads, r.Ops,
				time.Duration(r.LiveNanos).Round(time.Microsecond),
				time.Duration(r.DrainNanos).Round(time.Microsecond),
				time.Duration(r.Nanos).Round(time.Microsecond), r.OpsPerSec, mark, shardsCol)
		}
	}
	art.GeomeanSpeedup = math.Exp(logSum / float64(len(rows)))
	art.GeomeanTotalSpeedup = math.Exp(logSumTotal / float64(len(rows)))
	if scaleRows > 0 {
		art.GeomeanShardScaling = math.Exp(logSumScale / float64(scaleRows))
	}
	fmt.Printf("geomean live speedup (pipelined over inline): %.2fx  (live+drain: %.2fx, cpus: %d)\n",
		art.GeomeanSpeedup, art.GeomeanTotalSpeedup, art.CPUs)
	if scaleRows > 0 {
		fmt.Printf("geomean sharded drain scaling (single consumer over %d-shard fan-out): %.2fx\n",
			opts.threads, art.GeomeanShardScaling)
	} else {
		fmt.Println("no workload row genuinely sharded; shard-scaling gate not applicable")
	}
	for w, why := range art.ShardedFallbacks {
		fmt.Printf("note: %s sharded row fell back — %s\n", w, why)
	}

	if opts.json {
		out := opts.out
		if out == "" {
			out = "BENCH_pipeline.json"
		}
		data, err := json.MarshalIndent(art, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", out)
	}
	if opts.minSpeedup > 0 && art.GeomeanSpeedup < opts.minSpeedup {
		return fmt.Errorf("pipeline: geomean live speedup %.2fx below required %.2fx",
			art.GeomeanSpeedup, opts.minSpeedup)
	}
	if opts.minShardScale > 0 {
		if scaleRows == 0 {
			return fmt.Errorf("pipeline: -minshardscale set but no workload row genuinely sharded")
		}
		if art.GeomeanShardScaling < opts.minShardScale {
			return fmt.Errorf("pipeline: geomean sharded drain scaling %.2fx below required %.2fx (cpus: %d)",
				art.GeomeanShardScaling, opts.minShardScale, art.CPUs)
		}
	}
	return nil
}
