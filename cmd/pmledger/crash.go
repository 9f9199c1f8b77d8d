package main

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"time"

	"pmdebugger/internal/crashtest"
	"pmdebugger/internal/crashtest/scenarios"
	"pmdebugger/internal/pmem"
	"pmdebugger/internal/trace"
)

// crashScenarios are the explored programs: three transactional pmdk
// structures and the two server ports' restart recovery.
var crashScenarios = []string{"b_tree", "queue", "txpair", "redis", "memcached"}

const (
	// crashSeeds is the number of line-persistence seeds explored per crash
	// point. The seeds come from the run seed, and the number of distinct
	// images they produce sets the exploration's work: with two seeds it
	// moved by a fifth between run seeds, with eight by a tenth, with
	// sixteen by a few percent.
	crashSeeds = 16
	// nativeReps is how many back-to-back executions one native job times.
	// One execution takes under a hundred microseconds, and its time moved
	// by half between processes; the mean of 64 moves by a few percent.
	// Each pool is released as soon as its execution is timed, so the next
	// one reuses its pages instead of faulting in fresh memory.
	nativeReps = 64
)

// crash explores every scenario's crash space with the record-once explorer
// (two checker workers, two fork segments, pruning and deduplication) under
// random persistence of pending lines, and again with the exhaustive
// re-execution explorer, RunSerial, the baseline of slowdown. The pmdk
// scenarios run the lazy undo log, which this policy can break, so their
// failure sets are not empty.
//
// The baseline is RunSerial rather than a native run of the program: a
// native run is a hot loop of under a hundred microseconds, and when a
// shared machine slowed down it slowed by 1.6x where the explorers slowed
// by 1.15-1.25x, so Run ÷ native moved by a quarter; Run ÷ RunSerial, two
// explorers of the same images and checkers, moved by 5-9%.
type crash struct {
	o     options
	cfg   crashtest.Config
	scens []*crashScenario
}

type crashScenario struct {
	name  string
	prog  crashtest.Program
	check crashtest.Checker
	ref   *crashtest.Result // RunSerial, the exhaustive reference
}

func newCrash(o options) workload { return &crash{o: o} }

func (c *crash) setup(l *ledger) error {
	n := 20 // the queue scenario keeps about 2n/3 items in a ring of 16
	if c.o.tiny {
		n = 3
	}
	seeds := make([]int64, crashSeeds)
	for i := range seeds {
		seeds[i] = subSeed(c.o.seed, 100+i)
	}
	c.cfg = crashtest.Config{
		PoolSize: 1 << 21,
		Policy:   pmem.CrashRandomPending,
		Seeds:    seeds,
		Stride:   1,
		Workers:  2,
		Segments: 2,
		Prune:    true,
		Dedup:    true,
	}
	var refs []string
	for _, name := range crashScenarios {
		prog, check, err := scenarios.Build(name, n, false)
		if err != nil {
			return err
		}
		runtime.GC() // each reference starts from a collected heap, like each job
		ref, err := crashtest.RunSerial(prog, check, c.cfg)
		if err != nil {
			return fmt.Errorf("%s reference: %w", name, err)
		}
		c.scens = append(c.scens, &crashScenario{name: name, prog: prog, check: check, ref: ref})
		refs = append(refs, name, fmt.Sprint(ref.TotalEvents, ref.Points), fmt.Sprint(ref.FailureKeys()))
	}
	l.checkDigest(refs)

	// The codec is timed on a recording of the first scenario's program.
	rec := trace.NewRecorder(0)
	pm := pmem.New(c.cfg.PoolSize)
	pm.Attach(rec)
	if err := c.scens[0].prog(pm); err != nil {
		return err
	}
	enc, dec, _, _, err := codecTimes(rec.Events)
	if err != nil {
		return err
	}
	l.set("trace.encode_ns_per_event", enc, rec.Len())
	l.set("trace.decode_ns_per_event", dec, rec.Len())
	return nil
}

func (c *crash) tamper() {
	for _, s := range c.scens {
		s.ref.TotalEvents++
	}
}

// sameExploration checks an exploration against the RunSerial reference.
func sameExploration(got, ref *crashtest.Result) error {
	var errs []error
	if got.TotalEvents != ref.TotalEvents {
		errs = append(errs, fmt.Errorf("%d events, reference %d", got.TotalEvents, ref.TotalEvents))
	}
	if got.Points != ref.Points {
		errs = append(errs, fmt.Errorf("%d points, reference %d", got.Points, ref.Points))
	}
	if !reflect.DeepEqual(got.FailureKeys(), ref.FailureKeys()) {
		errs = append(errs, fmt.Errorf("failure set %v, reference %v", got.FailureKeys(), ref.FailureKeys()))
	}
	return errors.Join(errs...)
}

// crashSeries holds one scenario's samples, in seconds.
type crashSeries struct {
	native, serial, run, traced     []float64
	record, replay, snap, fp, check []float64
	ratio                           []float64 // Run ÷ RunSerial of the same round
	last                            *crashtest.Result
}

// checkerTimes collects the traced checker calls from the worker goroutines.
type checkerTimes struct {
	mu   sync.Mutex
	durs []float64
}

// tracedRun explores the scenario with the program and the checker wrapped
// in spans: the recording run of the program on the calling goroutine, and
// every checker call on the workers.
func (c *crash) tracedRun(tr *tracer, s *crashScenario, ct *checkerTimes) (*crashtest.Result, time.Duration, error) {
	job, run := tr.newID(), tr.newID()
	prog := func(pm *pmem.Pool) error {
		start := time.Now()
		err := s.prog(pm)
		tr.child(job, run, "app.program", start, time.Now())
		return err
	}
	check := func(img *pmem.Pool) error {
		start := time.Now()
		err := s.check(img)
		end := time.Now()
		tr.add(span{ID: tr.newID(), Parent: run, Job: job, Name: "checker",
			Start: tr.at(start), End: tr.at(end), Async: true})
		ct.mu.Lock()
		ct.durs = append(ct.durs, end.Sub(start).Seconds())
		ct.mu.Unlock()
		return err
	}
	start := time.Now()
	res, err := crashtest.Run(prog, check, c.cfg)
	end := time.Now()
	tr.add(span{ID: job, Job: job, Name: "job", Start: tr.at(start), End: tr.at(end)})
	tr.add(span{ID: run, Parent: job, Job: job, Name: "crashtest.run", Start: tr.at(start), End: tr.at(end)})
	return res, end.Sub(start), err
}

func (c *crash) measure(l *ledger, until time.Time) error {
	kinds := []jobKind{kindNative, kindSerial, kindDetected}
	if l.tr != nil {
		kinds = append(kinds, kindTraced)
	}
	series := make([]crashSeries, len(c.scens))
	var ct checkerTimes
	var stats pmem.Stats
	var roundSums []float64
	var events, phaseNs, wallNs float64
	for round := 0; round < minRounds || time.Now().Before(until); round++ {
		order := kinds
		if round%2 == 1 {
			order = reversed(kinds)
		}
		roundSum, roundOK := 0.0, true
		stats = pmem.Stats{}
		for i, s := range c.scens {
			ser := &series[i]
			var serial, run float64
			for _, k := range order {
				l.jobs++
				if k == kindNative {
					pools := make([]*pmem.Pool, nativeReps)
					for j := range pools {
						pools[j] = pmem.New(c.cfg.PoolSize)
					}
					runtime.GC()
					var d time.Duration
					for j, pm := range pools {
						start := time.Now()
						if err := s.prog(pm); err != nil {
							return fmt.Errorf("%s: %w", s.name, err)
						}
						d += time.Since(start)
						if j == 0 {
							stats = addStats(stats, pm.Stats())
						}
						pm.Release() // untimed; the next execution reuses its pages
					}
					ser.native = append(ser.native, d.Seconds()/nativeReps)
					continue
				}
				runtime.GC()
				var res *crashtest.Result
				var wall time.Duration
				var err error
				switch k {
				case kindTraced:
					res, wall, err = c.tracedRun(l.tr, s, &ct)
				case kindSerial:
					start := time.Now()
					res, err = crashtest.RunSerial(s.prog, s.check, c.cfg)
					wall = time.Since(start)
				default:
					start := time.Now()
					res, err = crashtest.Run(s.prog, s.check, c.cfg)
					wall = time.Since(start)
				}
				if err != nil {
					return fmt.Errorf("%s: %w", s.name, err)
				}
				if !l.verify(s.name+" "+k.String()+" exploration", sameExploration(res, s.ref)) {
					roundOK = false
					continue
				}
				switch k {
				case kindTraced:
					ser.traced = append(ser.traced, wall.Seconds())
					continue
				case kindSerial:
					serial = wall.Seconds()
					ser.serial = append(ser.serial, serial)
					continue
				}
				ser.last = res
				run = wall.Seconds()
				ser.run = append(ser.run, run)
				ser.record = append(ser.record, float64(res.RecordNanos)/1e9)
				ser.replay = append(ser.replay, float64(res.ReplayNanos)/1e9)
				ser.snap = append(ser.snap, float64(res.SnapshotNanos)/1e9)
				ser.fp = append(ser.fp, float64(res.FingerprintNanos)/1e9)
				ser.check = append(ser.check, float64(res.CheckNanos)/1e9)
				phaseNs += float64(res.RecordNanos + res.ReplayNanos + res.SnapshotNanos + res.FingerprintNanos + res.CheckNanos)
				wallNs += float64(wall.Nanoseconds())
				roundSum += wall.Seconds()
				events += float64(res.TotalEvents)
			}
			if run > 0 && serial > 0 {
				ser.ratio = append(ser.ratio, run/serial)
			}
		}
		if roundOK {
			roundSums = append(roundSums, roundSum)
		}
		if l.tr != nil {
			l.tr.units(1)
		}
	}

	var verdict, native, serial, traced, record, replay, snap, fp, check float64
	var slowdowns []float64
	var totalEvents uint64
	var points, images, pruned, dedup, failures int
	for i := range c.scens {
		ser := &series[i]
		verdict += median(ser.run)
		native += median(ser.native)
		serial += median(ser.serial)
		slowdowns = append(slowdowns, median(ser.ratio))
		traced += median(ser.traced)
		record += median(ser.record)
		replay += median(ser.replay)
		snap += median(ser.snap)
		fp += median(ser.fp)
		check += median(ser.check)
		if res := ser.last; res != nil {
			totalEvents += res.TotalEvents
			points += res.Points
			failures += len(res.Failures)
			images += res.Images
			pruned += res.PrunedPoints
			dedup += res.DedupImages
		}
	}
	rounds := len(roundSums)
	l.set("slowdown", geomean(slowdowns), rounds)
	l.set("total.verdict_s", verdict, rounds)
	l.set("total.tail_s", quantile(roundSums, 0.9), rounds)
	l.set("total.events_per_s", events/(wallNs/1e9), rounds)
	l.set("app.native_s", native, rounds)
	setPoolStats(l, stats, int(totalEvents))
	l.set("crashtest.serial_s", serial, rounds)
	l.set("crashtest.record_s", record, rounds)
	l.set("crashtest.replay_s", replay, rounds)
	l.set("crashtest.snapshot_s", snap, rounds)
	l.set("crashtest.fingerprint_s", fp, rounds)
	l.set("crashtest.check_s", check, rounds)
	l.set("crashtest.concurrency", phaseNs/wallNs, rounds)
	l.set("crashtest.points", float64(points), 1)
	l.set("crashtest.images", float64(images), 1)
	l.set("crashtest.pruned", float64(pruned), 1)
	l.set("crashtest.dedup", float64(dedup), 1)
	l.set("crashtest.failures", float64(failures), 1)
	l.set("crashtest.images_per_point", float64(images)/float64(points), 1)
	if l.tr != nil {
		units := len(series[0].traced)
		l.set("checker.calls", float64(len(ct.durs))/float64(units), units)
		l.set("checker.p50_s", median(ct.durs), len(ct.durs))
		l.set("ledger.trace_overhead", traced/verdict, units)
	}
	return nil
}

func (c *crash) close() {}
