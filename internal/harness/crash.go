package harness

import (
	"fmt"
	"reflect"
	"time"

	"pmdebugger/internal/crashtest"
	"pmdebugger/internal/crashtest/scenarios"
)

// CrashResult is one crash-space exploration measurement, JSON-shaped for
// the BENCH_crash.json artifact.
type CrashResult struct {
	Workload      string  `json:"workload"`
	Engine        string  `json:"engine"`
	Workers       int     `json:"workers"`
	Segments      int     `json:"segments,omitempty"`
	Nanos         int64   `json:"nanos"`
	Events        uint64  `json:"events"`
	Points        int     `json:"points"`
	ImagesChecked int     `json:"images_checked"`
	PrunedPoints  int     `json:"pruned_points"`
	DedupImages   int     `json:"dedup_images"`
	Failures      int     `json:"failures"`
	PointsPerSec  float64 `json:"points_per_sec"`
	ZeroPages     uint64  `json:"zero_pages"`
	SharedPages   uint64  `json:"shared_pages"`
	PrivatePages  uint64  `json:"private_pages"`
	// Per-phase time, summed across goroutines (the sum can exceed Nanos on
	// parallel runs). Zero for the serial reference, which re-executes the
	// program instead of replaying a recorded journal.
	RecordNanos      int64 `json:"record_nanos,omitempty"`
	ReplayNanos      int64 `json:"replay_nanos,omitempty"`
	SnapshotNanos    int64 `json:"snapshot_nanos,omitempty"`
	FingerprintNanos int64 `json:"fingerprint_nanos,omitempty"`
	CheckNanos       int64 `json:"check_nanos,omitempty"`
}

// crashEngines are the measured configurations: the exhaustive re-execution
// reference, the record-once engine with a worker pool, the same engine with
// both reducers on, and the reducer engine with fork-parallel segment
// dispatch. New rows must be appended at the end: cmd/pmbench indexes the
// returned slice positionally.
func crashEngines(workers int) []struct {
	name string
	cfg  func(crashtest.Config) crashtest.Config
	run  func(crashtest.Program, crashtest.Checker, crashtest.Config) (*crashtest.Result, error)
} {
	return []struct {
		name string
		cfg  func(crashtest.Config) crashtest.Config
		run  func(crashtest.Program, crashtest.Checker, crashtest.Config) (*crashtest.Result, error)
	}{
		{"serial", func(c crashtest.Config) crashtest.Config { return c }, crashtest.RunSerial},
		{"parallel", func(c crashtest.Config) crashtest.Config {
			c.Workers = workers
			return c
		}, crashtest.Run},
		{"parallel+reducers", func(c crashtest.Config) crashtest.Config {
			c.Workers = workers
			c.Prune = true
			c.Dedup = true
			return c
		}, crashtest.Run},
		{"segmented+reducers", func(c crashtest.Config) crashtest.Config {
			c.Workers = workers
			c.Prune = true
			c.Dedup = true
			c.Segments = workers
			return c
		}, crashtest.Run},
	}
}

// MeasureCrash explores the named scenario's crash space under every engine
// configuration, verifying that each reports the identical failure set
// before timing anything (min of Repeats runs, as the other harness
// measurements do).
func MeasureCrash(workload string, n, stride, workers int) ([]CrashResult, error) {
	prog, check, err := scenarios.Build(workload, n, false)
	if err != nil {
		return nil, err
	}
	base := crashtest.Config{PoolSize: 1 << 21, Stride: stride}
	engines := crashEngines(workers)

	// Correctness before speed: every engine must report the serial
	// reference's exact failure set.
	results := make([]*crashtest.Result, len(engines))
	for i, eng := range engines {
		res, err := eng.run(prog, check, eng.cfg(base))
		if err != nil {
			return nil, fmt.Errorf("crash %s/%s: %w", workload, eng.name, err)
		}
		results[i] = res
	}
	for i := 1; i < len(engines); i++ {
		if !reflect.DeepEqual(results[i].FailureKeys(), results[0].FailureKeys()) {
			return nil, fmt.Errorf("crash %s: %s failure set diverges from serial\n %s: %v\n serial: %v",
				workload, engines[i].name, engines[i].name, results[i].FailureKeys(), results[0].FailureKeys())
		}
		if results[i].Points != results[0].Points || results[i].TotalEvents != results[0].TotalEvents {
			return nil, fmt.Errorf("crash %s: %s explored %d points of %d events, serial %d of %d",
				workload, engines[i].name, results[i].Points, results[i].TotalEvents,
				results[0].Points, results[0].TotalEvents)
		}
	}

	out := make([]CrashResult, len(engines))
	for i, eng := range engines {
		cfg := eng.cfg(base)
		best := time.Duration(0)
		for r := 0; r < Repeats; r++ {
			start := time.Now()
			if _, err := eng.run(prog, check, cfg); err != nil {
				return nil, err
			}
			if d := time.Since(start); best == 0 || d < best {
				best = d
			}
		}
		res := results[i]
		out[i] = CrashResult{
			Workload:         workload,
			Engine:           eng.name,
			Workers:          cfg.Workers,
			Segments:         cfg.Segments,
			Nanos:            best.Nanoseconds(),
			Events:           res.TotalEvents,
			Points:           res.Points,
			ImagesChecked:    res.Images,
			PrunedPoints:     res.PrunedPoints,
			DedupImages:      res.DedupImages,
			Failures:         len(res.Failures),
			PointsPerSec:     float64(res.Points) / best.Seconds(),
			ZeroPages:        res.ZeroPages,
			SharedPages:      res.SharedPages,
			PrivatePages:     res.PrivatePages,
			RecordNanos:      res.RecordNanos,
			ReplayNanos:      res.ReplayNanos,
			SnapshotNanos:    res.SnapshotNanos,
			FingerprintNanos: res.FingerprintNanos,
			CheckNanos:       res.CheckNanos,
		}
	}
	return out, nil
}

// CrashScalingPoint is one pool-size cell of the crash-image scaling sweep:
// the same workload, op count and crash points explored at a growing pool
// size. Image cost is O(dirty) in both bytes and table slots, so points/sec
// should stay near-flat across the sweep.
type CrashScalingPoint struct {
	Workload     string  `json:"workload"`
	PoolMiB      int     `json:"pool_mib"`
	Nanos        int64   `json:"nanos"`
	Points       int     `json:"points"`
	Images       int     `json:"images_checked"`
	PointsPerSec float64 `json:"points_per_sec"`
	ZeroPages    uint64  `json:"zero_pages"`
	SharedPages  uint64  `json:"shared_pages"`
	PrivatePages uint64  `json:"private_pages"`
}

// MeasureCrashScaling runs the pool-size sweep for one workload: for each
// size it first verifies that the record-once engine (reducers on, the
// benchmark configuration) and the exhaustive serial reference agree on the
// failure set, then times the record-once engine (min of Repeats). The op
// count and crash-point cap are fixed across sizes, so the only variable is
// how much pool each image spans.
func MeasureCrashScaling(workload string, n, stride, workers, maxPoints int, sizesMiB []int) ([]CrashScalingPoint, error) {
	prog, check, err := scenarios.Build(workload, n, false)
	if err != nil {
		return nil, err
	}
	var out []CrashScalingPoint
	for _, mib := range sizesMiB {
		cfg := crashtest.Config{
			PoolSize: uint64(mib) << 20, Stride: stride, MaxPoints: maxPoints,
			Workers: workers, Prune: true, Dedup: true,
		}
		serial, err := crashtest.RunSerial(prog, check, cfg)
		if err != nil {
			return nil, fmt.Errorf("crash scaling %s/%dMiB serial: %w", workload, mib, err)
		}
		res, err := crashtest.Run(prog, check, cfg)
		if err != nil {
			return nil, fmt.Errorf("crash scaling %s/%dMiB: %w", workload, mib, err)
		}
		if !reflect.DeepEqual(res.FailureKeys(), serial.FailureKeys()) {
			return nil, fmt.Errorf("crash scaling %s/%dMiB: failure set diverges from serial\n got: %v\n serial: %v",
				workload, mib, res.FailureKeys(), serial.FailureKeys())
		}
		best := time.Duration(0)
		for r := 0; r < Repeats; r++ {
			start := time.Now()
			if _, err := crashtest.Run(prog, check, cfg); err != nil {
				return nil, err
			}
			if d := time.Since(start); best == 0 || d < best {
				best = d
			}
		}
		out = append(out, CrashScalingPoint{
			Workload:     workload,
			PoolMiB:      mib,
			Nanos:        best.Nanoseconds(),
			Points:       res.Points,
			Images:       res.Images,
			PointsPerSec: float64(res.Points) / best.Seconds(),
			ZeroPages:    res.ZeroPages,
			SharedPages:  res.SharedPages,
			PrivatePages: res.PrivatePages,
		})
	}
	return out, nil
}

// CrashSegmentPoint is one (workload, segment count) cell of the fork-parallel
// segment sweep: the same exploration — workers, reducers and journal fixed —
// dispatched over a growing number of forked segments. Counters must be
// invariant in the segment count (cross-segment duplicates are reclassified at
// merge time), so the only thing that moves is wall clock.
type CrashSegmentPoint struct {
	Workload     string  `json:"workload"`
	Segments     int     `json:"segments"`
	Nanos        int64   `json:"nanos"`
	Points       int     `json:"points"`
	Images       int     `json:"images_checked"`
	PrunedPoints int     `json:"pruned_points"`
	DedupImages  int     `json:"dedup_images"`
	ImagesPerSec float64 `json:"images_per_sec"`
	// Per-phase time, summed across goroutines; on multi-core hosts the sum
	// exceeds Nanos, which is exactly the headroom segmenting exploits.
	ReplayNanos      int64 `json:"replay_nanos"`
	SnapshotNanos    int64 `json:"snapshot_nanos"`
	FingerprintNanos int64 `json:"fingerprint_nanos"`
	CheckNanos       int64 `json:"check_nanos"`
}

// MeasureCrashSegments runs the segment sweep for one workload: the reducer
// engine at every segment count in segCounts, each first verified against the
// exhaustive serial reference (failure set) and against the first segment
// count (every reducer counter — splitting the boundary list must be
// unobservable), then timed as min of Repeats.
func MeasureCrashSegments(workload string, n, stride, workers int, segCounts []int) ([]CrashSegmentPoint, error) {
	prog, check, err := scenarios.Build(workload, n, false)
	if err != nil {
		return nil, err
	}
	base := crashtest.Config{
		PoolSize: 1 << 21, Stride: stride,
		Workers: workers, Prune: true, Dedup: true,
	}
	serial, err := crashtest.RunSerial(prog, check, base)
	if err != nil {
		return nil, fmt.Errorf("crash segments %s serial: %w", workload, err)
	}
	var out []CrashSegmentPoint
	var first *crashtest.Result
	for _, segs := range segCounts {
		cfg := base
		cfg.Segments = segs
		res, err := crashtest.Run(prog, check, cfg)
		if err != nil {
			return nil, fmt.Errorf("crash segments %s/%d: %w", workload, segs, err)
		}
		if !reflect.DeepEqual(res.FailureKeys(), serial.FailureKeys()) {
			return nil, fmt.Errorf("crash segments %s/%d: failure set diverges from serial\n got: %v\n serial: %v",
				workload, segs, res.FailureKeys(), serial.FailureKeys())
		}
		if first == nil {
			first = res
		} else if res.Points != first.Points || res.PrunedPoints != first.PrunedPoints ||
			res.Images != first.Images || res.DedupImages != first.DedupImages {
			return nil, fmt.Errorf("crash segments %s/%d: counters (%d,%d,%d,%d) != segments=%d (%d,%d,%d,%d)",
				workload, segs, res.Points, res.PrunedPoints, res.Images, res.DedupImages,
				segCounts[0], first.Points, first.PrunedPoints, first.Images, first.DedupImages)
		}
		best := time.Duration(0)
		for r := 0; r < Repeats; r++ {
			start := time.Now()
			if _, err := crashtest.Run(prog, check, cfg); err != nil {
				return nil, err
			}
			if d := time.Since(start); best == 0 || d < best {
				best = d
			}
		}
		out = append(out, CrashSegmentPoint{
			Workload:         workload,
			Segments:         segs,
			Nanos:            best.Nanoseconds(),
			Points:           res.Points,
			Images:           res.Images,
			PrunedPoints:     res.PrunedPoints,
			DedupImages:      res.DedupImages,
			ImagesPerSec:     float64(res.Images) / best.Seconds(),
			ReplayNanos:      res.ReplayNanos,
			SnapshotNanos:    res.SnapshotNanos,
			FingerprintNanos: res.FingerprintNanos,
			CheckNanos:       res.CheckNanos,
		})
	}
	return out, nil
}
