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

// crashOpts carries the crash experiment's flags.
type crashOpts struct {
	json       bool
	out        string
	minSpeedup float64
	ops        int
	stride     int
	workers    int
	// maxSnapDecay, when > 0, fails the experiment if the geomean snapshot
	// decay — COW points/sec at the smallest sweep size over points/sec at
	// the largest — exceeds the bound. With chunk-shared page tables the
	// per-image cost is O(dirty) in table slots too, so points/sec should
	// decay sublinearly with pool size (the bound is far below the size
	// ratio); CI runs it as a soft gate.
	maxSnapDecay float64
	// minSegScale, when > 0, fails the experiment unless the geomean
	// images/sec speedup of the fork-parallel explorer at segGate segments
	// over one segment reaches the bound. Only meaningful on multi-core
	// hosts — at one CPU the segments time-slice and the expected value is
	// ~1x — so CI runs it as a soft gate on a multi-core runner.
	minSegScale float64
	// segCounts are the segment counts of the fork-parallel sweep; segGate
	// is the count the -minsegscale gate is evaluated at.
	segCounts []int
	segGate   int
	// sweepSizesMiB are the pool sizes of the crash-image scaling sweep;
	// sweepPoints caps crash points per sweep cell so the op count, not the
	// point count, stays fixed across sizes.
	sweepSizesMiB []int
	sweepPoints   int
	workloads     []string
}

// crashArtifact is the BENCH_crash.json schema: per-engine wall-clock and
// images-checked for each workload, plus per-workload and aggregate speedups
// of the record-once engines over exhaustive re-execution, so successive CI
// runs form a perf trajectory for the crash-space explorer.
type crashArtifact struct {
	Experiment             string                `json:"experiment"`
	Timestamp              string                `json:"timestamp"`
	CPUs                   int                   `json:"cpus"`
	Workers                int                   `json:"workers"`
	Repeats                int                   `json:"repeats"`
	Ops                    int                   `json:"ops"`
	Stride                 int                   `json:"stride"`
	Results                []harness.CrashResult `json:"results"`
	ParallelSpeedups       map[string]float64    `json:"parallel_speedups"`
	ReducedSpeedups        map[string]float64    `json:"reduced_speedups"`
	GeomeanParallelSpeedup float64               `json:"geomean_parallel_speedup"`
	GeomeanReducedSpeedup  float64               `json:"geomean_reduced_speedup"`
	Scaling                *crashScaling         `json:"crash_image_scaling,omitempty"`
	SegmentScaling         *crashSegScaling      `json:"segment_scaling,omitempty"`
}

// crashScaling is the pool-size sweep section of the artifact: image
// materialization at growing pool sizes with the op count fixed, plus the
// flatness summaries the -maxsnapdecay gate reads.
type crashScaling struct {
	SizesMiB  []int                       `json:"sizes_mib"`
	MaxPoints int                         `json:"max_points"`
	Results   []harness.CrashScalingPoint `json:"results"`
	// CowFlatness maps workload to points/sec at the largest size over
	// points/sec at the smallest: 1.0 is perfectly flat scaling.
	CowFlatness map[string]float64 `json:"cow_flatness"`
	// SnapDecay maps workload to the inverse of CowFlatness — points/sec at
	// the smallest size over the largest, the number -maxsnapdecay bounds.
	SnapDecay map[string]float64 `json:"snap_decay"`
	// GeomeanSnapDecay aggregates SnapDecay across workloads.
	GeomeanSnapDecay float64 `json:"geomean_snap_decay"`
}

// crashSegScaling is the fork-parallel segment sweep section of the artifact:
// the reducer engine re-run at each segment count with everything else fixed,
// plus the per-workload and geomean images/sec speedups at GateSegments
// segments over one — the number -minsegscale bounds (CI soft-gates it: on a
// single CPU the segments time-slice and the expected speedup is ~1x).
type crashSegScaling struct {
	Segments     []int                       `json:"segments"`
	GateSegments int                         `json:"gate_segments"`
	Results      []harness.CrashSegmentPoint `json:"results"`
	// SegSpeedups maps workload to images/sec at GateSegments segments over
	// images/sec at the first swept count (one segment).
	SegSpeedups map[string]float64 `json:"seg_speedups"`
	// GeomeanSegSpeedup aggregates SegSpeedups across workloads.
	GeomeanSegSpeedup float64 `json:"geomean_seg_speedup"`
}

// crashExp measures crash-space exploration four ways per workload —
// exhaustive serial re-execution, the record-once engine with a checker
// worker pool, the same engine with pruning and deduplication, and the
// fork-parallel segmented dispatcher — after the harness has verified all
// four report the identical failure set. The sanity gates are structural: the
// reduced engine must check strictly fewer images than the exhaustive
// reference on every workload, the segmented engine's reducer counters must
// equal the single-segment engine's, and -minspeedup (when set) bounds the
// geomean parallel speedup.
func crashExp(opts crashOpts) error {
	fmt.Println("\n=== Crash-space exploration: serial vs record-once parallel vs +reducers ===")
	fmt.Printf("%-12s %-18s %8s %8s %8s %8s %8s %12s %10s\n",
		"workload", "engine", "events", "points", "images", "pruned", "dedup", "time", "speedup")

	art := crashArtifact{
		Experiment:       "crash",
		Timestamp:        time.Now().UTC().Format(time.RFC3339),
		CPUs:             runtime.NumCPU(),
		Workers:          opts.workers,
		Repeats:          harness.Repeats,
		Ops:              opts.ops,
		Stride:           opts.stride,
		ParallelSpeedups: map[string]float64{},
		ReducedSpeedups:  map[string]float64{},
	}
	logPar, logRed := 0.0, 0.0
	for _, workload := range opts.workloads {
		rs, err := harness.MeasureCrash(workload, opts.ops, opts.stride, opts.workers)
		if err != nil {
			return err
		}
		serial, parallel, reduced, segmented := rs[0], rs[1], rs[2], rs[3]
		if reduced.ImagesChecked >= serial.ImagesChecked {
			return fmt.Errorf("crash %s: reducers checked %d images, not below the exhaustive %d",
				workload, reduced.ImagesChecked, serial.ImagesChecked)
		}
		if segmented.ImagesChecked != reduced.ImagesChecked || segmented.PrunedPoints != reduced.PrunedPoints ||
			segmented.DedupImages != reduced.DedupImages {
			return fmt.Errorf("crash %s: segmented counters (%d images, %d pruned, %d deduped) != single-segment (%d, %d, %d)",
				workload, segmented.ImagesChecked, segmented.PrunedPoints, segmented.DedupImages,
				reduced.ImagesChecked, reduced.PrunedPoints, reduced.DedupImages)
		}
		parSpeed := float64(serial.Nanos) / float64(parallel.Nanos)
		redSpeed := float64(serial.Nanos) / float64(reduced.Nanos)
		segSpeed := float64(serial.Nanos) / float64(segmented.Nanos)
		art.Results = append(art.Results, rs...)
		art.ParallelSpeedups[workload] = parSpeed
		art.ReducedSpeedups[workload] = redSpeed
		logPar += math.Log(parSpeed)
		logRed += math.Log(redSpeed)
		for _, r := range rs {
			mark := ""
			switch r.Engine {
			case "parallel":
				mark = fmt.Sprintf("%9.2fx", parSpeed)
			case "parallel+reducers":
				mark = fmt.Sprintf("%9.2fx", redSpeed)
			case "segmented+reducers":
				mark = fmt.Sprintf("%9.2fx", segSpeed)
			}
			fmt.Printf("%-12s %-18s %8d %8d %8d %8d %8d %12s %10s\n",
				r.Workload, r.Engine, r.Events, r.Points, r.ImagesChecked,
				r.PrunedPoints, r.DedupImages, time.Duration(r.Nanos).Round(time.Microsecond), mark)
		}
	}
	art.GeomeanParallelSpeedup = math.Exp(logPar / float64(len(opts.workloads)))
	art.GeomeanReducedSpeedup = math.Exp(logRed / float64(len(opts.workloads)))
	fmt.Printf("geomean speedup over exhaustive: parallel %.2fx, +reducers %.2fx (cpus: %d, workers: %d)\n",
		art.GeomeanParallelSpeedup, art.GeomeanReducedSpeedup, art.CPUs, art.Workers)

	// Pool-size sweep: op count and crash-point cap fixed, only the pool
	// size growing. Images cost O(dirty pages), so points/sec should be
	// near-flat.
	if len(opts.sweepSizesMiB) > 0 {
		sc, err := crashScalingSweep(opts)
		if err != nil {
			return err
		}
		art.Scaling = sc
	}

	// Segment sweep: the same reducer exploration dispatched over 1..N forked
	// segments. Counters are segment-count-invariant by construction (the
	// harness re-verifies), so the sweep isolates pure dispatch parallelism.
	if len(opts.segCounts) > 0 {
		ss, err := crashSegmentSweep(opts)
		if err != nil {
			return err
		}
		art.SegmentScaling = ss
	}

	if opts.json {
		out := opts.out
		if out == "" {
			out = "BENCH_crash.json"
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
	if opts.minSpeedup > 0 && art.GeomeanParallelSpeedup < opts.minSpeedup {
		return fmt.Errorf("crash: geomean parallel speedup %.2fx below required %.2fx",
			art.GeomeanParallelSpeedup, opts.minSpeedup)
	}
	if opts.maxSnapDecay > 0 && art.Scaling != nil {
		if art.Scaling.GeomeanSnapDecay > opts.maxSnapDecay {
			return fmt.Errorf("crash: geomean snapshot decay %.2fx across %d->%dMiB above allowed %.2fx",
				art.Scaling.GeomeanSnapDecay, opts.sweepSizesMiB[0],
				opts.sweepSizesMiB[len(opts.sweepSizesMiB)-1], opts.maxSnapDecay)
		}
	}
	if opts.minSegScale > 0 && art.SegmentScaling != nil {
		if art.SegmentScaling.GeomeanSegSpeedup < opts.minSegScale {
			return fmt.Errorf("crash: geomean segment speedup %.2fx at %d segments below required %.2fx",
				art.SegmentScaling.GeomeanSegSpeedup, art.SegmentScaling.GateSegments, opts.minSegScale)
		}
	}
	return nil
}

// crashSegmentSweep runs and prints the fork-parallel segment sweep,
// returning the artifact section the -minsegscale gate reads.
func crashSegmentSweep(opts crashOpts) (*crashSegScaling, error) {
	fmt.Println("\n--- Segment scaling: fork-parallel dispatch at 1..N segments ---")
	fmt.Printf("%-12s %9s %8s %8s %8s %12s %12s %10s\n",
		"workload", "segments", "images", "pruned", "dedup", "time", "images/s", "scaling")
	gate := opts.segCounts[len(opts.segCounts)-1]
	for _, s := range opts.segCounts {
		if s == opts.segGate {
			gate = s
		}
	}
	ss := &crashSegScaling{
		Segments:     opts.segCounts,
		GateSegments: gate,
		SegSpeedups:  map[string]float64{},
	}
	logSpeed := 0.0
	for _, workload := range opts.workloads {
		pts, err := harness.MeasureCrashSegments(workload, opts.ops, opts.stride,
			opts.workers, opts.segCounts)
		if err != nil {
			return nil, err
		}
		ss.Results = append(ss.Results, pts...)
		baseRate, gateRate := 0.0, 0.0
		for i, r := range pts {
			if i == 0 {
				baseRate = r.ImagesPerSec
			}
			if r.Segments == gate {
				gateRate = r.ImagesPerSec
			}
			scaling := ""
			if baseRate > 0 {
				scaling = fmt.Sprintf("%9.2fx", r.ImagesPerSec/baseRate)
			}
			fmt.Printf("%-12s %9d %8d %8d %8d %12s %12.0f %10s\n",
				r.Workload, r.Segments, r.Images, r.PrunedPoints, r.DedupImages,
				time.Duration(r.Nanos).Round(time.Microsecond), r.ImagesPerSec, scaling)
		}
		speed := gateRate / baseRate
		ss.SegSpeedups[workload] = speed
		logSpeed += math.Log(speed)
	}
	ss.GeomeanSegSpeedup = math.Exp(logSpeed / float64(len(opts.workloads)))
	fmt.Printf("geomean images/sec speedup at %d segments over 1: %.2fx (cpus: %d)\n",
		gate, ss.GeomeanSegSpeedup, runtime.NumCPU())
	return ss, nil
}

// crashScalingSweep runs and prints the pool-size sweep, returning the
// artifact section the -maxsnapdecay gate reads.
func crashScalingSweep(opts crashOpts) (*crashScaling, error) {
	fmt.Println("\n--- Crash-image scaling across pool sizes ---")
	fmt.Printf("%-12s %8s %8s %12s %12s %14s\n",
		"workload", "pool", "images", "time", "points/s", "pages z/s/p")
	sc := &crashScaling{
		SizesMiB:    opts.sweepSizesMiB,
		MaxPoints:   opts.sweepPoints,
		CowFlatness: map[string]float64{},
		SnapDecay:   map[string]float64{},
	}
	logDecay := 0.0
	for _, workload := range opts.workloads {
		pts, err := harness.MeasureCrashScaling(workload, opts.ops, opts.stride,
			opts.workers, opts.sweepPoints, opts.sweepSizesMiB)
		if err != nil {
			return nil, err
		}
		sc.Results = append(sc.Results, pts...)
		for _, r := range pts {
			fmt.Printf("%-12s %5dMiB %8d %12s %12.1f %14s\n",
				r.Workload, r.PoolMiB, r.Images,
				time.Duration(r.Nanos).Round(time.Microsecond), r.PointsPerSec,
				fmt.Sprintf("%d/%d/%d", r.ZeroPages, r.SharedPages, r.PrivatePages))
		}
		first, last := pts[0], pts[len(pts)-1]
		sc.CowFlatness[workload] = last.PointsPerSec / first.PointsPerSec
		sc.SnapDecay[workload] = first.PointsPerSec / last.PointsPerSec
		logDecay += math.Log(sc.SnapDecay[workload])
	}
	sc.GeomeanSnapDecay = math.Exp(logDecay / float64(len(opts.workloads)))
	largest := opts.sweepSizesMiB[len(opts.sweepSizesMiB)-1]
	fmt.Printf("geomean snapshot decay %d->%dMiB: %.2fx\n", opts.sweepSizesMiB[0], largest, sc.GeomeanSnapDecay)
	for _, workload := range opts.workloads {
		fmt.Printf("  %s flatness (%d->%dMiB points/sec ratio): %.2f\n",
			workload, opts.sweepSizesMiB[0], largest, sc.CowFlatness[workload])
	}
	return sc, nil
}
