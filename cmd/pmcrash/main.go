// Command pmcrash runs Yat/Agamotto-style systematic crash testing
// (package crashtest) against the registered scenarios: it crashes the
// program at instruction boundaries, materializes each post-crash
// persistent image, runs recovery, and validates the recovered structure.
//
// By default it uses the record-once explorer (one program execution, a
// shadow-replay pool, and a bounded checker worker pool); -parallel 0
// selects the exhaustive re-execution reference engine. -segments N splits
// the crash-point list into N contiguous windows, each dispatched by its own
// goroutine from a forked copy-on-write replay pool — the failure set and
// every reducer counter are identical at any segment count.
//
// Usage:
//
//	pmcrash -workload b_tree -n 25 -stride 13 -parallel 4 -prune -dedup
//	pmcrash -workload redis -n 10 -stride 7 -policy random -seeds 5
//	pmcrash -workload memcached -n 8 -stride 9 -parallel 2 -segments 4
//	pmcrash -workload txpair -strictlog -policy random -parallel 0
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"pmdebugger/internal/crashtest"
	"pmdebugger/internal/crashtest/scenarios"
	"pmdebugger/internal/pmem"
)

func main() {
	var (
		workload  = flag.String("workload", "b_tree", "scenario: b_tree, queue, txpair, redis, or memcached")
		n         = flag.Int("n", 25, "operations in the crashed program")
		stride    = flag.Int("stride", 1, "test every Nth event boundary (1 = exhaustive)")
		maxPoints = flag.Int("max", 0, "cap on crash points (0 = unlimited)")
		policy    = flag.String("policy", "drop", "line persistence at the crash: drop, apply, random")
		seeds     = flag.Int("seeds", 3, "seeds per crash point for -policy random (at least 1)")
		strictLog = flag.Bool("strictlog", false, "use the strict (drain-per-snapshot) undo log")
		parallel  = flag.Int("parallel", 1, "checker workers for the record-once engine (0 = serial re-execution reference)")
		prune     = flag.Bool("prune", false, "prune persistency-irrelevant crash points (record-once engine)")
		dedup     = flag.Bool("dedup", false, "deduplicate identical crash images by content hash (record-once engine)")
		segments  = flag.Int("segments", 1, "fork-parallel dispatch segments for the record-once engine")
	)
	flag.Parse()
	if err := run(*workload, *n, *stride, *maxPoints, *policy, *seeds, *strictLog, *parallel, *prune, *dedup, *segments); err != nil {
		fmt.Fprintln(os.Stderr, "pmcrash:", err)
		os.Exit(1)
	}
}

func run(workload string, n, stride, maxPoints int, policyName string, nseeds int, strictLog bool, parallel int, prune, dedup bool, segments int) error {
	cfg := crashtest.Config{PoolSize: 1 << 21, Stride: stride, MaxPoints: maxPoints}
	switch policyName {
	case "drop":
		cfg.Policy = pmem.CrashDropPending
	case "apply":
		cfg.Policy = pmem.CrashApplyPending
	case "random":
		cfg.Policy = pmem.CrashRandomPending
		if nseeds < 1 {
			return fmt.Errorf("-seeds %d: -policy random needs at least one seed", nseeds)
		}
		for s := 1; s <= nseeds; s++ {
			cfg.Seeds = append(cfg.Seeds, int64(s*7))
		}
	default:
		return fmt.Errorf("unknown policy %q", policyName)
	}

	prog, check, err := scenarios.Build(workload, n, strictLog)
	if err != nil {
		return err
	}

	var res *crashtest.Result
	start := time.Now()
	if parallel <= 0 {
		if prune || dedup {
			return fmt.Errorf("-prune and -dedup require the record-once engine (-parallel >= 1)")
		}
		if segments > 1 {
			return fmt.Errorf("-segments requires the record-once engine (-parallel >= 1)")
		}
		res, err = crashtest.RunSerial(prog, check, cfg)
	} else {
		cfg.Workers = parallel
		cfg.Prune = prune
		cfg.Dedup = dedup
		cfg.Segments = segments
		res, err = crashtest.Run(prog, check, cfg)
	}
	elapsed := time.Since(start)
	if err != nil {
		return err
	}
	fmt.Printf("%s: %d events, %d crash points, %d images checked\n",
		workload, res.TotalEvents, res.Points, res.Images)
	fmt.Printf("%s elapsed, %.1f images/sec\n",
		elapsed.Round(time.Microsecond), float64(res.Images)/elapsed.Seconds())
	if res.PrunedPoints > 0 || res.DedupImages > 0 {
		fmt.Printf("reducers: %d points pruned, %d images deduplicated\n",
			res.PrunedPoints, res.DedupImages)
	}
	if res.RecordNanos > 0 {
		// Phase times are summed across goroutines, so with -parallel or
		// -segments > 1 they can legitimately exceed the wall clock.
		fmt.Printf("phases: record %s, replay %s, snapshot %s, fingerprint %s, check %s\n",
			time.Duration(res.RecordNanos).Round(time.Microsecond),
			time.Duration(res.ReplayNanos).Round(time.Microsecond),
			time.Duration(res.SnapshotNanos).Round(time.Microsecond),
			time.Duration(res.FingerprintNanos).Round(time.Microsecond),
			time.Duration(res.CheckNanos).Round(time.Microsecond))
	}
	if total := res.ZeroPages + res.SharedPages + res.PrivatePages; total > 0 {
		fmt.Printf("image pages: %d zero, %d shared, %d private\n",
			res.ZeroPages, res.SharedPages, res.PrivatePages)
	}
	if len(res.Failures) == 0 {
		fmt.Println("all recoveries consistent")
		return nil
	}
	fmt.Printf("%d INCONSISTENT recoveries:\n", len(res.Failures))
	for i, f := range res.Failures {
		if i >= 10 {
			fmt.Printf("  ... %d more\n", len(res.Failures)-i)
			break
		}
		fmt.Printf("  %s\n", f)
	}
	return nil
}
