package main

import (
	"runtime"
	"time"

	"pmdebugger/internal/memcached"
	"pmdebugger/internal/memslap"
	"pmdebugger/internal/pmem"
	"pmdebugger/internal/redis"
	"pmdebugger/internal/report"
	"pmdebugger/internal/rules"
	"pmdebugger/internal/workloads"
)

// fig8 is the paper's headline: the Fig. 8 micro-benchmarks plus memcached
// (5% sets, one client thread, strict model) and redis (LRU test, epoch
// model), each run natively and with PMDebugger attached inline.
type fig8 struct {
	o     options
	progs []*program
}

func newFig8(o options) workload { return &fig8{o: o} }

// fig8Sizes are the paper-shaped sizes: 10K inserts, 100K memslap
// operations and 10K redis keys, about a second per round on two CPUs.
func fig8Sizes(tiny bool) (inserts, ops, keys int) {
	if tiny {
		return 200, 2000, 200
	}
	return 10_000, 100_000, 10_000
}

// fig8Program builds the named benchmark with its own seed.
func fig8Program(name string, inserts, ops, keys int, seed int64) (*program, error) {
	switch name {
	case "memcached":
		return &program{name: name, model: rules.Strict, build: func() (*pmem.Pool, func() error, error) {
			cache, err := memcached.New(memcached.Config{PoolSize: serverPoolSize(ops), HashBuckets: 1 << 14, UseCAS: true})
			if err != nil {
				return nil, nil, err
			}
			return cache.PM(), func() error {
				return memslap.Run(cache, memslap.Config{Ops: ops, Threads: 1, Seed: seed})
			}, nil
		}}, nil
	case "redis":
		return &program{name: name, model: rules.Epoch, build: func() (*pmem.Pool, func() error, error) {
			srv, err := redis.New(redis.Config{PoolSize: serverPoolSize(keys), MaxKeys: keys / 2, Seed: seed})
			if err != nil {
				return nil, nil, err
			}
			return srv.PM(), func() error { return srv.RunLRUTest(keys, seed) }, nil
		}}, nil
	}
	f, err := workloads.Lookup(name)
	if err != nil {
		return nil, err
	}
	return &program{name: name, model: f.Model, build: func() (*pmem.Pool, func() error, error) {
		app, pm, err := workloads.Build(f, inserts)
		if err != nil {
			return nil, nil, err
		}
		return pm, func() error {
			if err := workloads.RunInserts(app, inserts, seed); err != nil {
				return err
			}
			return app.Close()
		}, nil
	}}, nil
}

func (f *fig8) setup(l *ledger) error {
	if err := table6(l); err != nil {
		return err
	}
	inserts, ops, keys := fig8Sizes(f.o.tiny)
	var refs []string
	for i, name := range fig8Names {
		p, err := fig8Program(name, inserts, ops, keys, subSeed(f.o.seed, i))
		if err != nil {
			return err
		}
		runtime.GC() // each reference starts from a collected heap, like each job
		if err := p.reference(); err != nil {
			return err
		}
		f.progs = append(f.progs, p)
		refs = append(refs, name, p.want)
	}
	l.checkDigest(refs)
	return setCodecAndOffline(l, f.progs[5]) // hashmap_atomic: a mid-sized stream
}

func (f *fig8) tamper() {
	for _, p := range f.progs {
		p.want += "tampered\n"
	}
}

// fig8Series holds one benchmark's samples, in seconds.
type fig8Series struct {
	native, nulgrind, detected, traced  []float64
	live, drain, report, render, coreNs []float64
	// ratio holds detected ÷ native of the same round.
	ratio []float64
}

func (f *fig8) measure(l *ledger, until time.Time) error {
	kinds := []jobKind{kindNative, kindDetected}
	if l.tr != nil {
		kinds = []jobKind{kindNative, kindNulgrind, kindDetected, kindTraced}
	}
	series := make([]fig8Series, len(f.progs))
	var stats pmem.Stats
	var counters report.Counters
	var bugs int
	var roundSums []float64
	var events, detectedSecs float64
	for round := 0; round < minRounds || time.Now().Before(until); round++ {
		order := kinds
		if round%2 == 1 {
			order = reversed(kinds)
		}
		roundSum, roundOK := 0.0, true
		stats, counters, bugs = pmem.Stats{}, report.Counters{}, 0
		for i, p := range f.progs {
			s := &series[i]
			var native, detected float64
			for _, k := range order {
				r, err := runJob(p, inlineAttachment(k, p.model))
				if err != nil {
					return err
				}
				l.jobs++
				switch k {
				case kindNative:
					native = r.total()
					s.native = append(s.native, native)
					continue
				case kindNulgrind:
					s.nulgrind = append(s.nulgrind, r.total())
					continue
				}
				if !l.verify(p.name+" "+k.String()+" report", sameText(r.summary, p.want)) {
					roundOK = false
					continue
				}
				if k == kindTraced {
					s.traced = append(s.traced, r.total())
					s.coreNs = append(s.coreNs, float64(r.coreNs())/1e9)
					recordJobSpans(l.tr, l.tr.newID(), &r, "report.build")
					continue
				}
				detected = r.total()
				s.detected = append(s.detected, detected)
				s.live = append(s.live, r.live())
				s.drain = append(s.drain, r.drain())
				s.report = append(s.report, r.report())
				s.render = append(s.render, r.render())
				roundSum += r.total()
				events += float64(p.events)
				detectedSecs += r.total()
				stats = addStats(stats, r.stats)
				counters.Merge(r.counters)
				bugs += r.bugs
			}
			if detected > 0 {
				s.ratio = append(s.ratio, detected/native)
			}
		}
		if roundOK {
			roundSums = append(roundSums, roundSum)
		}
		if l.tr != nil {
			l.tr.units(1)
		}
	}

	var verdict, native, live, drain, rep, render, emit, traced, busy float64
	var slowdowns []float64
	allEvents := 0
	for i, p := range f.progs {
		s := &series[i]
		d, n := median(s.detected), median(s.native)
		verdict += d
		native += n
		slowdowns = append(slowdowns, median(s.ratio))
		l.set("workloads.slowdown."+p.name, median(s.ratio), len(s.ratio))
		live += median(s.live)
		drain += median(s.drain)
		rep += median(s.report)
		render += median(s.render)
		emit += median(s.nulgrind) - n
		traced += median(s.traced)
		busy += median(s.coreNs)
		allEvents += p.events
	}
	rounds := len(roundSums)
	l.set("slowdown", geomean(slowdowns), rounds)
	l.set("total.verdict_s", verdict, rounds)
	l.set("total.tail_s", quantile(roundSums, 0.9), rounds)
	l.set("total.events_per_s", events/detectedSecs, rounds)
	l.set("app.native_s", native, rounds)
	l.set("app.live_s", live, rounds)
	l.set("trace.drain_s", drain, rounds)
	l.set("report.build_s", rep, rounds)
	l.set("report.render_s", render, rounds)
	setPoolStats(l, stats, allEvents)
	setCoreCounters(l, counters, bugs)
	l.set("core.shards", 1, 1)
	if l.tr != nil {
		n := len(series[0].traced)
		l.set("pmem.emit_s", emit, n)
		l.set("core.busy_s", busy, n)
		l.set("core.ns_per_event", busy*1e9/float64(allEvents), n)
		l.set("core.shard_skew", 1, n)
		l.set("ledger.trace_overhead", traced/verdict, n)
	}
	return nil
}

func (f *fig8) close() {}
