package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestRunExperiments(t *testing.T) {
	hp := hotpathOpts{rounds: 2}
	pl := pipelineOpts{threads: 2}
	cr := crashOpts{ops: 3, stride: 5, workers: 2, workloads: []string{"txpair"}}
	for _, exp := range []string{"table1", "table5", "fig11", "reorg"} {
		if err := run(exp, 200, 200, 200, hp, pl, cr, serveOpts{}); err != nil {
			t.Errorf("%s: %v", exp, err)
		}
	}
	if err := run("nope", 10, 10, 10, hp, pl, cr, serveOpts{}); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestCrashArtifact(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_crash.json")
	cr := crashOpts{json: true, out: out, ops: 4, stride: 5, workers: 2,
		workloads:     []string{"b_tree", "txpair"},
		sweepSizesMiB: []int{1, 2, 4}, sweepPoints: 3,
		segCounts: []int{1, 2, 4}, segGate: 4}
	if err := run("crash", 0, 0, 0, hotpathOpts{}, pipelineOpts{}, cr, serveOpts{}); err != nil {
		t.Fatalf("crash: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("artifact not written: %v", err)
	}
	var art crashArtifact
	if err := json.Unmarshal(data, &art); err != nil {
		t.Fatalf("artifact is not valid JSON: %v", err)
	}
	if len(art.Results) != 4*len(art.ParallelSpeedups) ||
		art.GeomeanParallelSpeedup <= 0 || art.GeomeanReducedSpeedup <= 0 {
		t.Fatalf("artifact incomplete: %+v", art)
	}
	for _, r := range art.Results {
		if r.Engine == "parallel+reducers" && r.PrunedPoints == 0 && r.DedupImages == 0 {
			t.Fatalf("%s reducers engine reduced nothing: %+v", r.Workload, r)
		}
		if r.Engine == "segmented+reducers" {
			if r.Segments != cr.workers {
				t.Fatalf("%s segmented row has segments=%d, want %d: %+v", r.Workload, r.Segments, cr.workers, r)
			}
			if r.RecordNanos <= 0 || r.SnapshotNanos <= 0 || r.CheckNanos <= 0 {
				t.Fatalf("%s segmented row missing phase counters: %+v", r.Workload, r)
			}
		}
		if r.Engine == "serial" && (r.RecordNanos != 0 || r.ReplayNanos != 0) {
			t.Fatalf("%s serial row reports record-once phases: %+v", r.Workload, r)
		}
	}
	// The sweep section: one row per size per workload, with the decay
	// gate's geomean populated.
	if art.Scaling == nil {
		t.Fatal("crash_image_scaling section missing")
	}
	if want := len(cr.sweepSizesMiB) * len(cr.workloads); len(art.Scaling.Results) != want {
		t.Fatalf("scaling rows = %d, want %d", len(art.Scaling.Results), want)
	}
	if art.Scaling.GeomeanSnapDecay <= 0 || len(art.Scaling.SnapDecay) != len(cr.workloads) {
		t.Fatalf("scaling summary incomplete: %+v", art.Scaling)
	}
	// The segment sweep: one row per (workload, segment count), counters
	// invariant in the segment count, the gate geomean populated.
	if art.SegmentScaling == nil {
		t.Fatal("segment_scaling section missing")
	}
	if len(art.SegmentScaling.Results) != len(cr.segCounts)*len(cr.workloads) {
		t.Fatalf("segment rows = %d, want %d", len(art.SegmentScaling.Results),
			len(cr.segCounts)*len(cr.workloads))
	}
	images := map[string]int{}
	for _, r := range art.SegmentScaling.Results {
		if prev, ok := images[r.Workload]; ok && prev != r.Images {
			t.Fatalf("%s images vary with segment count: %d vs %d", r.Workload, prev, r.Images)
		}
		images[r.Workload] = r.Images
		if r.ImagesPerSec <= 0 {
			t.Fatalf("segment row missing rate: %+v", r)
		}
	}
	if art.SegmentScaling.GateSegments != 4 || art.SegmentScaling.GeomeanSegSpeedup <= 0 ||
		len(art.SegmentScaling.SegSpeedups) != len(cr.workloads) {
		t.Fatalf("segment gate summary incomplete: %+v", art.SegmentScaling)
	}
}

func TestServeArtifact(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_serve.json")
	sv := serveOpts{json: true, out: out, opsPerClient: 300, clients: []int{1, 2},
		drain: "lazy", shards: 2}
	if err := run("serve", 0, 0, 0, hotpathOpts{}, pipelineOpts{}, crashOpts{}, sv); err != nil {
		t.Fatalf("serve: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("artifact not written: %v", err)
	}
	var art serveArtifact
	if err := json.Unmarshal(data, &art); err != nil {
		t.Fatalf("artifact is not valid JSON: %v", err)
	}
	if len(art.Results) != 2 || art.BestEventsPerSec <= 0 {
		t.Fatalf("artifact incomplete: %+v", art)
	}
	for _, r := range art.Results {
		if !r.Verified {
			t.Fatalf("row not verified against offline replay: %+v", r)
		}
		if r.Events == 0 || r.EventsPerSec <= 0 {
			t.Fatalf("row did not move events: %+v", r)
		}
	}
	// An unreachable throughput gate must fail the experiment.
	sv.minEventRate = 1e18
	if err := run("serve", 0, 0, 0, hotpathOpts{}, pipelineOpts{}, crashOpts{}, sv); err == nil {
		t.Fatal("impossible -mineventrate accepted")
	}
}

func TestHotpathArtifact(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_hotpath.json")
	hp := hotpathOpts{json: true, out: out, rounds: 2}
	if err := run("hotpath", 0, 0, 0, hp, pipelineOpts{}, crashOpts{}, serveOpts{}); err != nil {
		t.Fatalf("hotpath: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("artifact not written: %v", err)
	}
	var art hotpathArtifact
	if err := json.Unmarshal(data, &art); err != nil {
		t.Fatalf("artifact is not valid JSON: %v", err)
	}
	if len(art.Results) != 2*len(art.Speedups) || art.GeomeanSpeedup <= 0 {
		t.Fatalf("artifact incomplete: %+v", art)
	}
}

func TestPipelineArtifact(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_pipeline.json")
	pl := pipelineOpts{json: true, out: out, threads: 4}
	if err := run("pipeline", 0, 500, 500, hotpathOpts{}, pl, crashOpts{}, serveOpts{}); err != nil {
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
