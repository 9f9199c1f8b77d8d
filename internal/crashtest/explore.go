package crashtest

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pmdebugger/internal/pmem"
	"pmdebugger/internal/trace"
)

// pointRef attributes one (crash point, seed) coordinate to a checked
// image's verdict. seedIdx preserves the Config.Seeds order so failure
// lists come out in the same order RunSerial produces them.
type pointRef struct {
	point   uint64
	seedIdx int
}

// imageJob is one materialized crash image scheduled for checking, plus
// every coordinate whose image it stands for (the dispatch coordinate, any
// pruned boundaries that inherited it, and any deduplicated duplicates).
// The worker writes err and drops the image; refs are appended only by the
// owning segment's dispatcher and read only after the worker pool has
// drained, so the two sides never touch the same field concurrently.
type imageJob struct {
	img *pmem.Pool
	err error
	fp  [32]byte // content hash under Dedup: the cross-segment merge key
	// zero/shared/private snapshot pmem.Pool.PageStats at dispatch time,
	// while the dispatcher still owns the image; the merge aggregates them
	// only for images that survive cross-segment deduplication.
	zero, shared, private int
	refs                  []pointRef
}

// segment is one contiguous slice of the boundary list, dispatched by its
// own goroutine from its own pool fork. All fields besides the shared jobs
// channel are segment-private; the merge reads them after every dispatcher
// has returned.
type segment struct {
	fork *pmem.Pool
	// startIdx/endIdx delimit the segment's boundaries in the points list.
	startIdx, endIdx int
	// carried is the segment's initial "image-relevant change since the
	// previous materialized boundary" flag, computed by pass 1 over the
	// window leading into the segment's first boundary (true for segment 0:
	// the run's first boundary always materializes).
	carried bool

	jobs []*imageJob // images this segment materialized, in dispatch order
	// orphans are boundaries pruned before the segment materialized its
	// first image; their verdicts live at the tail of the previous segment
	// and are attached at merge time.
	orphans []uint64
	// last tracks, per seed index, the job holding the segment's current
	// verdict; after dispatch it is the verdict the *next* segment's
	// orphans inherit.
	last   []*imageJob
	pruned int
	dedup  int

	replayNanos, snapNanos, fpNanos int64
}

// Run explores the program's crash space with the record-once engine: the
// program executes a single time filling a payload journal, shadow pools
// replay the journal forward, and each selected boundary's crash image is
// dispatched to a bounded worker pool for checking. Compared with RunSerial
// this executes the program once instead of once per crash point; the
// reported failure set is identical (every boundary's verdict is attributed,
// including boundaries served by the Prune and Dedup reducers).
//
// With Config.Segments > 1 the explorer is two-pass segment-parallel: pass 1
// replays the journal once — no snapshots, no hashing — dropping one
// pmem.Pool.Fork plus a carried change flag at each segment's first
// boundary; pass 2 runs the segment dispatchers concurrently, each replaying
// only its own slice of the journal and doing its own materialize/prune/
// dedup/dispatch. Cross-segment duplicates (a fingerprint first checked in
// an earlier segment) are resolved at merge time, first occurrence wins:
// the duplicate's redundant check is discarded, its verdict inherited, and
// it is counted as a deduplicated image — so Points, PrunedPoints, Images,
// DedupImages and the failure set are all invariant in the segment count.
func Run(prog Program, check Checker, cfg Config) (*Result, error) {
	cfg.fill()
	res := &Result{}

	// Record phase: a single full execution with the journal attached. The
	// journal's sequence numbers match an unobserved run (RecordJournal
	// emits no Register event), so boundary N below is exactly the state a
	// trapped re-execution would reach with SetCrashTrap(N).
	recStart := time.Now()
	full := pmem.New(cfg.PoolSize)
	journal := full.RecordJournal()
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
	if int(res.TotalEvents) != journal.Len() {
		return nil, fmt.Errorf("crashtest: journal recorded %d of %d events", journal.Len(), res.TotalEvents)
	}
	res.RecordNanos = time.Since(recStart).Nanoseconds()

	seeds := cfg.effectiveSeeds()

	// The boundary list is fixed up front so it can be split into
	// contiguous segments: every Stride-th event boundary, capped by
	// MaxPoints.
	var points []uint64
	for point := uint64(cfg.Stride); point <= res.TotalEvents; point += uint64(cfg.Stride) {
		if cfg.MaxPoints > 0 && len(points) >= cfg.MaxPoints {
			break
		}
		points = append(points, point)
	}
	res.Points = len(points)
	if len(points) == 0 {
		return res, nil
	}
	nseg := cfg.Segments
	if nseg > len(points) {
		nseg = len(points)
	}

	// Pass 1: replay the journal once — no snapshots, no hashing — and drop
	// one fork at each segment's first boundary, together with the change
	// flag accumulated over the window leading into it. The fork carries the
	// replayer's full volatile state (line states, pending set, Merkle
	// caches), so pass 2 resumes each segment exactly where a serial replay
	// would have stood.
	segs := make([]*segment, nseg)
	{
		start := time.Now()
		rep := pmem.New(cfg.PoolSize)
		next := 0
		for k := 0; k < nseg; k++ {
			lo := k * len(points) / nseg
			hi := (k + 1) * len(points) / nseg
			// Events up to the previous segment's last boundary carry no
			// flag the previous segments have not already accounted for.
			prev := 0
			if lo > 0 {
				prev = int(points[lo-1])
			}
			for next < prev {
				rep.ApplyRecorded(journal.Events[next], journal.Payload(next))
				next++
			}
			carried := k == 0 // the run's first boundary always materializes
			for next < int(points[lo]) {
				persistCh, pendingCh := rep.ApplyRecorded(journal.Events[next], journal.Payload(next))
				if persistCh || (cfg.Policy != pmem.CrashDropPending && pendingCh) {
					carried = true
				}
				next++
			}
			segs[k] = &segment{fork: rep.Fork(), startIdx: lo, endIdx: hi, carried: carried}
		}
		rep.Release()
		res.ReplayNanos += time.Since(start).Nanoseconds()
	}

	// Checker worker pool, shared by all segments. The channel bound
	// doubles as backpressure on the dispatchers, so at most
	// ~Workers+Segments images are alive at once.
	jobs := make(chan *imageJob, cfg.Workers)
	var checkNanos int64
	var wwg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wwg.Add(1)
		go func() {
			defer wwg.Done()
			var local int64
			for jb := range jobs {
				start := time.Now()
				jb.err = safeCheck(check, jb.img)
				local += time.Since(start).Nanoseconds()
				// The verdict is all that is kept: recycle the image's pages
				// through the shared page pools instead of leaving them to
				// the garbage collector.
				jb.img.Release()
				jb.img = nil
			}
			atomic.AddInt64(&checkNanos, local)
		}()
	}

	// Pass 2: dispatch every segment concurrently.
	var dwg sync.WaitGroup
	for _, s := range segs {
		dwg.Add(1)
		go func(s *segment) {
			defer dwg.Done()
			s.dispatch(&cfg, journal, points, seeds, jobs)
		}(s)
	}
	dwg.Wait()
	close(jobs)
	wwg.Wait()
	res.CheckNanos = checkNanos

	// Merge, in segment order: attach each segment's orphaned leading prune
	// run to the previous segments' verdict holders, then fold its images
	// in. Under Dedup a fingerprint already seen in an earlier segment is a
	// cross-segment duplicate the segment-local map could not catch: its
	// redundant check is discarded, the first occurrence's verdict
	// inherited, and the image counted as deduplicated — which keeps every
	// counter equal to a single-segment run's.
	var all []*imageJob
	var union map[[32]byte]*imageJob
	if cfg.Dedup {
		union = make(map[[32]byte]*imageJob)
	}
	carried := make([]*imageJob, len(seeds))
	for _, s := range segs {
		res.PrunedPoints += s.pruned
		res.DedupImages += s.dedup
		for _, point := range s.orphans {
			for si := range seeds {
				carried[si].refs = append(carried[si].refs, pointRef{point: point, seedIdx: si})
			}
		}
		for _, jb := range s.jobs {
			if cfg.Dedup {
				if first, ok := union[jb.fp]; ok {
					jb.err = first.err
					res.DedupImages++
					all = append(all, jb)
					continue
				}
				union[jb.fp] = jb
			}
			res.Images++
			res.ZeroPages += uint64(jb.zero)
			res.SharedPages += uint64(jb.shared)
			res.PrivatePages += uint64(jb.private)
			all = append(all, jb)
		}
		for si, jb := range s.last {
			if jb != nil {
				carried[si] = jb
			}
		}
		res.ReplayNanos += s.replayNanos
		res.SnapshotNanos += s.snapNanos
		res.FingerprintNanos += s.fpNanos
	}

	// Assemble failures in (point, seed position) order — the order the
	// serial reference reports them in.
	type flatFailure struct {
		ref pointRef
		err error
	}
	var flat []flatFailure
	for _, jb := range all {
		if jb.err == nil {
			continue
		}
		for _, ref := range jb.refs {
			flat = append(flat, flatFailure{ref: ref, err: jb.err})
		}
	}
	sort.Slice(flat, func(i, j int) bool {
		if flat[i].ref.point != flat[j].ref.point {
			return flat[i].ref.point < flat[j].ref.point
		}
		return flat[i].ref.seedIdx < flat[j].ref.seedIdx
	})
	for _, f := range flat {
		res.Failures = append(res.Failures, Failure{
			AfterEvents: f.ref.point, Seed: seeds[f.ref.seedIdx], Err: f.err,
		})
	}
	return res, nil
}

// dispatch replays the segment's slice of the journal from its fork and
// materializes, prunes, deduplicates and schedules its boundaries' images.
// It makes the same per-boundary decisions a serial dispatcher would: the
// prune signal is carried across the segment boundary by pass 1, and a
// leading prune run whose verdict holder lives in an earlier segment is
// recorded as orphans for the merge to attach.
func (s *segment) dispatch(cfg *Config, journal *trace.Journal, points []uint64, seeds []int64, jobs chan<- *imageJob) {
	shadow := s.fork
	// Under Dedup an image is looked up twice. Before it is built, by its
	// outcome key in memo: the shadow's fingerprint plus the lines the
	// policy applies determine the image exactly (pmem.CrashOutcome.Key),
	// so a repeated key inherits its verdict without materializing
	// anything. An image that is built is then looked up by content
	// fingerprint in hashes, which catches equal images reached through
	// different outcomes. memo[key] is always the job hashes resolved that
	// key's image to, so both lookups make the same per-coordinate decisions
	// fingerprinting every image would.
	var hashes, memo map[[32]byte]*imageJob
	if cfg.Dedup {
		hashes = make(map[[32]byte]*imageJob)
		memo = make(map[[32]byte]*imageJob)
	}
	// One coin sequence and one outcome per seed for the whole segment:
	// every image is SelectCrash followed by CrashWith, so no boundary
	// reseeds a source, and each outcome's buffers are reused.
	coins := make([]*pmem.CrashCoins, len(seeds))
	for si, seed := range seeds {
		coins[si] = pmem.NewCrashCoins(seed)
	}
	outcomes := make([]pmem.CrashOutcome, len(seeds))
	keys := make([][32]byte, len(seeds))
	reuse := func(jb *imageJob, point uint64, si int) {
		s.dedup++
		jb.refs = append(jb.refs, pointRef{point: point, seedIdx: si})
		s.last[si] = jb
	}
	s.last = make([]*imageJob, len(seeds))
	haveLast := false
	next := int(points[s.startIdx]) // pass 1 positioned the fork here
	changed := s.carried
	for idx := s.startIdx; idx < s.endIdx; idx++ {
		point := points[idx]
		if idx > s.startIdx {
			start := time.Now()
			for next < int(point) {
				persistCh, pendingCh := shadow.ApplyRecorded(journal.Events[next], journal.Payload(next))
				if persistCh || (cfg.Policy != pmem.CrashDropPending && pendingCh) {
					changed = true
				}
				next++
			}
			s.replayNanos += time.Since(start).Nanoseconds()
		}
		if cfg.Prune && !changed && (haveLast || s.startIdx > 0) {
			// No event since the last materialized boundary could alter a
			// crash image, so this boundary's image equals the previous
			// one's for every seed: inherit those verdicts. Before the
			// segment's first materialization the holder lives in an earlier
			// segment — record the boundary for the merge to attach.
			s.pruned++
			if haveLast {
				for si := range seeds {
					s.last[si].refs = append(s.last[si].refs, pointRef{point: point, seedIdx: si})
				}
			} else {
				s.orphans = append(s.orphans, point)
			}
			continue
		}
		changed = false
		haveLast = true
		var shadowFP [32]byte
		if cfg.Dedup {
			// The shadow's fingerprint is the base of every outcome key at
			// this boundary. Computing it also refreshes the hashes cached
			// on the fork's chunks and pages and on the fork itself, so
			// every snapshot inherits them warm: each image's Fingerprint
			// then rehashes only the path above the lines its outcome
			// wrote, instead of everything dirtied since the segment began.
			start := time.Now()
			shadowFP = shadow.Fingerprint()
			s.fpNanos += time.Since(start).Nanoseconds()
		}
		// Select every seed's outcome, then key them all. Selection is
		// part of building an image, so it counts as snapshot time with or
		// without Dedup; the keys count as fingerprint time. Timing each
		// batch once keeps clock reads off the per-seed memo hits.
		start := time.Now()
		for si := range seeds {
			shadow.SelectCrash(cfg.Policy, coins[si], &outcomes[si])
		}
		selected := time.Since(start)
		s.snapNanos += selected.Nanoseconds()
		if cfg.Dedup {
			for si := range seeds {
				keys[si] = outcomes[si].Key(shadowFP)
			}
			s.fpNanos += (time.Since(start) - selected).Nanoseconds()
		}
		for si := range seeds {
			key := keys[si]
			if cfg.Dedup {
				if jb, ok := memo[key]; ok {
					reuse(jb, point, si)
					continue
				}
			}
			start := time.Now()
			img := shadow.CrashWith(&outcomes[si])
			s.snapNanos += time.Since(start).Nanoseconds()
			var fp [32]byte
			if cfg.Dedup {
				start := time.Now()
				fp = img.Fingerprint()
				s.fpNanos += time.Since(start).Nanoseconds()
				if jb, ok := hashes[fp]; ok {
					memo[key] = jb
					reuse(jb, point, si)
					img.Release() // duplicate image: verdict reused, pages recycled
					continue
				}
			}
			// Page-table composition is read before the image is handed to a
			// worker (which releases it), while the dispatcher still owns it.
			zero, sharedPg, private := img.PageStats()
			jb := &imageJob{
				img: img, fp: fp,
				zero: zero, shared: sharedPg, private: private,
				refs: []pointRef{{point: point, seedIdx: si}},
			}
			if cfg.Dedup {
				hashes[fp] = jb
				memo[key] = jb
			}
			s.jobs = append(s.jobs, jb)
			s.last[si] = jb
			jobs <- jb
		}
	}
	// Exploration over: recycle the fork's private pages, chunks and muts
	// through the shared pools instead of leaving them to the collector.
	shadow.Release()
}
