// Package crashtest is a systematic crash-consistency testing framework in
// the style of Yat [33] and Agamotto [43], the exhaustive-testing relatives
// the paper compares against: it explores the crash-state space of a
// deterministic PM program, materializes the post-crash persistent image at
// successive instruction boundaries under a chosen line-persistence policy,
// and runs a recovery checker on every image.
//
// Two engines share the same Config and report format:
//
//   - Run is the record-once explorer: the program executes a single time
//     with a payload journal attached (pmem.Pool.RecordJournal), a shadow
//     pool replays the journal forward event by event, and each boundary's
//     crash image is dispatched to a bounded pool of checker workers. Total
//     work is O(events) replay plus embarrassingly parallel checking, with
//     two optional reducers: persistency-relevant crash-point pruning and
//     content-hash image deduplication (see explore.go).
//
//   - RunSerial is the exhaustive reference: it re-executes the program from
//     scratch for every crash point with an armed crash trap — O(events²)
//     execution, as Yat does it — and exists as the ground truth the
//     explorer is differentially tested against.
//
// Where PMDebugger reasons about the instruction stream online, crashtest
// actually explores the crash-state space — which is why the paper calls
// the approach "extremely" expensive. The framework doubles as the
// correctness harness for this repository's own crash-consistent substrates
// (the pmdk undo log, the workloads, and the redis/memcached ports).
package crashtest

import (
	"fmt"
	"sort"

	"pmdebugger/internal/pmem"
)

// Program is a deterministic PM program: given a fresh pool it performs its
// setup and workload. It must behave identically on every invocation (no
// wall-clock, no global randomness) — determinism is what makes crash-point
// enumeration meaningful for RunSerial and what makes the recorded journal
// representative for Run.
type Program func(pm *pmem.Pool) error

// Checker validates a post-crash persistent image: it runs recovery against
// the image and returns an error when the recovered state is inconsistent.
// The record-once engine invokes the checker from multiple worker
// goroutines on distinct images, so checkers must not share mutable state
// across invocations.
type Checker func(img *pmem.Pool) error

// Config parameterizes an exploration.
type Config struct {
	// PoolSize is the pool given to the program (default 1 MiB).
	PoolSize uint64
	// Policy decides the fate of flushed-but-unfenced lines in each image
	// (default CrashDropPending, the adversarial choice).
	Policy pmem.CrashPolicy
	// Seeds are the per-crash-point seeds explored under
	// CrashRandomPending; ignored for the deterministic policies.
	Seeds []int64
	// Stride tests every Stride-th event boundary (default 1: exhaustive,
	// as Yat; larger values trade coverage for time, as XFDetector's
	// restricted failure points do).
	Stride int
	// MaxPoints caps the number of crash points (0 = unlimited).
	MaxPoints int

	// Workers bounds the checker worker pool of the record-once engine
	// (default 1). RunSerial ignores it.
	Workers int
	// Segments splits the record-once engine's replay-and-dispatch loop
	// across this many concurrent segment dispatchers (default 1). Pass 1
	// replays the journal once, dropping a pmem.Pool.Fork at each segment's
	// first boundary; pass 2 replays the segments concurrently, each fork
	// materializing/pruning/deduplicating its own slice of the boundary
	// list, with cross-segment deduplication resolved at merge time. The
	// reported failure set and every counter are identical at any segment
	// count. RunSerial ignores it.
	Segments int
	// Prune enables persistency-relevant crash-point pruning in the
	// record-once engine: boundaries whose crash images provably equal the
	// previous boundary's (no fence committed new bytes, and — for the
	// pending-aware policies — no flush changed the pending set) inherit
	// its verdicts instead of materializing and checking images. The
	// reported failure set is identical to the exhaustive one.
	Prune bool
	// Dedup enables content-hash image deduplication in the record-once
	// engine: an image whose fingerprint was already checked reuses that
	// verdict instead of running the checker again, and an image whose
	// crash outcome key (pmem.CrashOutcome.Key) was already seen reuses it
	// without being built. The reported failure set is identical to the
	// exhaustive one.
	Dedup bool
}

func (c *Config) fill() {
	if c.PoolSize == 0 {
		c.PoolSize = 1 << 20
	}
	if c.Stride <= 0 {
		c.Stride = 1
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.Segments <= 0 {
		c.Segments = 1
	}
	if c.Policy == pmem.CrashRandomPending && len(c.Seeds) == 0 {
		c.Seeds = []int64{1, 2, 3}
	}
}

// effectiveSeeds returns the per-point seed list after policy defaults.
func (c *Config) effectiveSeeds() []int64 {
	if c.Policy != pmem.CrashRandomPending {
		return []int64{0}
	}
	return c.Seeds
}

// Failure is one crash point whose recovered state failed the checker.
type Failure struct {
	// AfterEvents is the number of instrumented events executed before the
	// crash.
	AfterEvents uint64
	// Seed is the line-persistence seed (0 for deterministic policies).
	Seed int64
	// Err is the checker's verdict.
	Err error
}

func (f Failure) String() string {
	return fmt.Sprintf("crash after event %d (seed %d): %v", f.AfterEvents, f.Seed, f.Err)
}

// Result summarizes an exploration.
type Result struct {
	// TotalEvents is the program's full event count.
	TotalEvents uint64
	// Points is the number of crash points explored — boundaries whose
	// images were checked or (under pruning) inherited a checked verdict.
	Points int
	// Images is the number of checker invocations: materialized images that
	// actually ran recovery.
	Images int
	// PrunedPoints counts boundaries that inherited the previous boundary's
	// verdicts because no intervening event could change the crash image
	// (record-once engine with Prune).
	PrunedPoints int
	// DedupImages counts materialized images whose fingerprint had already
	// been checked and whose verdict was reused (record-once engine with
	// Dedup).
	DedupImages int
	// ZeroPages/SharedPages/PrivatePages aggregate pmem.Pool.PageStats
	// over every materialized image (record-once engine): how much of the
	// image space was never written, aliased copy-on-write from the shadow
	// pool, or privately copied. A healthy COW run is dominated by zero
	// and shared pages.
	ZeroPages    uint64
	SharedPages  uint64
	PrivatePages uint64
	// RecordNanos through CheckNanos split the record-once engine's work
	// into phases so dispatcher-vs-checker balance is visible per workload:
	// recording the journal (the single full program execution), replaying
	// journal events into shadow pools (both passes), materializing crash
	// images, fingerprinting for deduplication, and running the checker.
	// Replay, snapshot, fingerprint and check times are summed across
	// concurrent dispatchers and workers, so they can exceed wall-clock
	// time. RunSerial leaves them zero.
	RecordNanos      int64
	ReplayNanos      int64
	SnapshotNanos    int64
	FingerprintNanos int64
	CheckNanos       int64
	// Failures lists every inconsistent recovery, ordered by crash point
	// then seed position.
	Failures []Failure
}

// FailureKeys returns the failure set as sorted strings, one per failure,
// for cross-engine set comparison (the differential suite and the CI
// sanity gate).
func (r *Result) FailureKeys() []string {
	keys := make([]string, 0, len(r.Failures))
	for _, f := range r.Failures {
		keys = append(keys, f.String())
	}
	sort.Strings(keys)
	return keys
}

// safeCheck runs the checker, converting a checker panic (a recovery pass
// chasing a wild pointer out of the pool, say) into an error verdict so one
// bad image aborts neither the exploration nor the process.
func safeCheck(check Checker, img *pmem.Pool) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("checker panic: %v", r)
		}
	}()
	return check(img)
}

// RunSerial explores the program's crash space exhaustively by
// re-execution: the program is first executed to completion to count events
// and verify the final state passes the checker, then re-executed once per
// crash point with an armed crash trap. It is the ground-truth reference
// the record-once engine (Run) is differentially tested against.
func RunSerial(prog Program, check Checker, cfg Config) (*Result, error) {
	cfg.fill()
	res := &Result{}

	// Full run: count events, sanity-check the checker on the final image.
	full := pmem.New(cfg.PoolSize)
	if err := prog(full); err != nil {
		return nil, fmt.Errorf("crashtest: program failed without crashes: %w", err)
	}
	res.TotalEvents = full.EventCount()
	final := full.Crash(cfg.Policy, 0)
	ferr := safeCheck(check, final)
	final.Release()
	full.Release()
	if ferr != nil {
		return nil, fmt.Errorf("crashtest: checker rejects the completed program: %w", ferr)
	}

	seeds := cfg.effectiveSeeds()
	for point := uint64(cfg.Stride); point <= res.TotalEvents; point += uint64(cfg.Stride) {
		if cfg.MaxPoints > 0 && res.Points >= cfg.MaxPoints {
			break
		}
		pool, trapped, err := runTrapped(prog, &cfg, point)
		if err != nil {
			return nil, fmt.Errorf("crashtest: program failed at point %d: %w", point, err)
		}
		if !trapped {
			// The program finished before the trap (points past its end):
			// no image was produced, so the point does not count.
			pool.Release()
			break
		}
		res.Points++
		for _, seed := range seeds {
			res.Images++
			img := pool.Crash(cfg.Policy, seed)
			if cerr := safeCheck(check, img); cerr != nil {
				res.Failures = append(res.Failures, Failure{
					AfterEvents: point, Seed: seed, Err: cerr,
				})
			}
			img.Release()
		}
		pool.Release()
	}
	return res, nil
}

// runTrapped executes the program with a crash trap after n events,
// reporting whether the trap fired.
func runTrapped(prog Program, cfg *Config, n uint64) (pool *pmem.Pool, trapped bool, err error) {
	pool = pmem.New(cfg.PoolSize)
	pool.SetCrashTrap(n)
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(pmem.CrashTrap); ok {
				trapped = true
				err = nil
				return
			}
			panic(r)
		}
	}()
	err = prog(pool)
	return pool, false, err
}
