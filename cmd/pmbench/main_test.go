package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestRunExperiments(t *testing.T) {
	pl := pipelineOpts{threads: 2}
	for _, exp := range []string{"table1", "table5", "fig11", "reorg"} {
		if err := run(exp, 200, 200, 200, pl); err != nil {
			t.Errorf("%s: %v", exp, err)
		}
	}
	// Names outside the list are errors, including the engine measurements
	// that the pmledger benchmark and the go test benchmarks own.
	for _, exp := range []string{"nope", "hotpath", "parallel", "crash", "serve"} {
		if err := run(exp, 10, 10, 10, pl); err == nil {
			t.Errorf("unknown experiment %q accepted", exp)
		}
	}
}

func TestPipelineArtifact(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_pipeline.json")
	pl := pipelineOpts{json: true, out: out, threads: 4}
	if err := run("pipeline", 0, 500, 500, pl); err != nil {
		t.Fatalf("pipeline: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("artifact not written: %v", err)
	}
	var art pipelineArtifact
	if err := json.Unmarshal(data, &art); err != nil {
		t.Fatalf("artifact is not valid JSON: %v", err)
	}
	// Three rows (inline, pipelined, sharded) per workload, and a sharded
	// speedup entry alongside every pipelined one.
	if len(art.Results) != 3*len(art.Speedups) || art.GeomeanSpeedup <= 0 {
		t.Fatalf("artifact incomplete: %+v", art)
	}
	if len(art.ShardedSpeedups) != len(art.Speedups) {
		t.Fatalf("sharded speedups missing: %+v", art.ShardedSpeedups)
	}
	if art.Threads != 4 {
		t.Fatalf("artifact threads = %d, want 4", art.Threads)
	}
	for _, r := range art.Results {
		if r.Workload == "memcached" && r.Threads != 4 {
			t.Fatalf("memcached measured with %d threads", r.Threads)
		}
	}
	// The strand-section memcached row genuinely shards; strict memcached
	// and epoch redis must be flagged as fallbacks with a scaling entry
	// only for the genuine row.
	if _, ok := art.ShardedDrainScaling["memcached-strand"]; !ok {
		t.Fatalf("memcached-strand should carry a drain-scaling entry: %+v", art.ShardedDrainScaling)
	}
	for _, w := range []string{"memcached", "redis"} {
		if _, ok := art.ShardedFallbacks[w]; !ok {
			t.Fatalf("%s sharded row should be recorded as a fallback: %+v", w, art.ShardedFallbacks)
		}
		if _, ok := art.ShardedDrainScaling[w]; ok {
			t.Fatalf("%s fell back and must not claim drain scaling", w)
		}
	}
	if art.GeomeanShardScaling <= 0 {
		t.Fatalf("geomean shard scaling missing: %+v", art.GeomeanShardScaling)
	}
}
