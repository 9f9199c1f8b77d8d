package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"pmdebugger/internal/baselines"
	"pmdebugger/internal/core"
	"pmdebugger/internal/memcached"
	"pmdebugger/internal/memslap"
	"pmdebugger/internal/pmem"
	"pmdebugger/internal/rules"
)

// asyncShards is the shard count of the memcached-async detector: one per
// CPU of the two-CPU reference box.
const asyncShards = 2

// async is memcached's strand port (every operation in its own strand
// section) driven by one memslap client with 50% sets, with the detector
// sharded over asyncShards pipeline consumers that drain eagerly. One
// client thread keeps the job deterministic, so every report can be
// checked byte for byte.
type async struct {
	o    options
	prog *program
}

func newAsync(o options) workload { return &async{o: o} }

// strandMemcached builds the strand-port memcached program.
func strandMemcached(ops int, seed int64) *program {
	return &program{name: "memcached-strand", model: rules.Strand, build: func() (*pmem.Pool, func() error, error) {
		cache, err := memcached.New(memcached.Config{
			PoolSize: serverPoolSize(ops), HashBuckets: 1 << 14, UseCAS: true, Strands: true,
		})
		if err != nil {
			return nil, nil, err
		}
		return cache.PM(), func() error {
			return memslap.Run(cache, memslap.Config{Ops: ops, SetRatio: 0.5, Threads: 1, Seed: seed})
		}, nil
	}}
}

func (a *async) setup(l *ledger) error {
	ops := 100_000
	if a.o.tiny {
		ops = 2000
	}
	a.prog = strandMemcached(ops, subSeed(a.o.seed, 0))
	if err := a.prog.reference(); err != nil {
		return err
	}
	l.checkDigest([]string{a.prog.want})
	// The codec is timed on a tenth of the job: its cost per event does
	// not depend on the stream length, and the recording stays small.
	return setCodecAndOffline(l, strandMemcached(ops/10, subSeed(a.o.seed, 1)))
}

func (a *async) tamper() { a.prog.want += "tampered\n" }

func (a *async) measure(l *ledger, until time.Time) error {
	kinds := []jobKind{kindNative, kindDetected}
	if l.tr != nil {
		kinds = []jobKind{kindNative, kindNulgrind, kindDetected, kindTraced}
	}
	// ratio holds detected ÷ native of the same round.
	var native, nulgrind, detected, traced, live, drain, merge, render, busy, skew, ratio []float64
	var events, totalSecs float64
	var last jobResult
	var job atomic.Int64 // the traced job the shard spans belong to
	for round := 0; round < minRounds || time.Now().Before(until); round++ {
		order := kinds
		if round%2 == 1 {
			order = reversed(kinds)
		}
		var nativeSecs, detectedSecs float64
		for _, k := range order {
			var att attachment
			var sd *core.ShardedDetector
			var ts *timedSharder
			switch k {
			case kindNulgrind:
				att = attachment{h: baselines.NewNulgrind(), opts: pmem.AttachOptions{Async: true}}
			case kindDetected, kindTraced:
				sd = core.NewSharded(core.Config{Model: a.prog.model}, asyncShards)
				att = attachment{h: sd, opts: pmem.AttachOptions{Async: true, Shards: asyncShards}, rep: sd.Report}
				if k == kindTraced {
					ts = newTimedSharder(sd, l.tr, &job)
					att.h = ts
					job.Store(l.tr.newID())
				}
			}
			r, err := runJob(a.prog, att)
			if err != nil {
				return err
			}
			l.jobs++
			switch k {
			case kindNative:
				nativeSecs = r.total()
				native = append(native, nativeSecs)
				continue
			case kindNulgrind:
				nulgrind = append(nulgrind, r.total())
				continue
			}
			err = sameText(r.summary, a.prog.want)
			if err == nil && (sd.Shards() != asyncShards || sd.Fallback() || r.stats.ShardedFallbacks != 0) {
				err = fmt.Errorf("sharded detection degraded: %d shards, fallback %q, %d pool fallbacks",
					sd.Shards(), sd.FallbackReason(), r.stats.ShardedFallbacks)
			}
			if !l.verify("memcached-async "+k.String()+" report", err) {
				continue
			}
			if k == kindTraced {
				traced = append(traced, r.total())
				shardNs := ts.busy()
				var tot, peak float64
				for _, ns := range shardNs {
					tot += float64(ns)
					peak = max(peak, float64(ns))
				}
				busy = append(busy, tot/1e9)
				skew = append(skew, peak/(tot/float64(len(shardNs))))
				recordJobSpans(l.tr, job.Load(), &r, "report.merge")
				l.tr.units(1)
				continue
			}
			detectedSecs = r.total()
			detected = append(detected, detectedSecs)
			live = append(live, r.live())
			drain = append(drain, r.drain())
			merge = append(merge, r.report())
			render = append(render, r.render())
			events += float64(a.prog.events)
			totalSecs += detectedSecs
			last = r
		}
		if detectedSecs > 0 {
			ratio = append(ratio, detectedSecs/nativeSecs)
		}
	}

	n := len(detected)
	d := median(detected)
	l.set("slowdown", median(ratio), len(ratio))
	l.set("total.verdict_s", d, n)
	l.set("total.tail_s", quantile(detected, 0.9), n)
	l.set("total.events_per_s", events/totalSecs, n)
	l.set("app.native_s", median(native), len(native))
	l.set("app.live_s", median(live), n)
	l.set("trace.stage_s", median(live)-median(native), n)
	l.set("trace.drain_s", median(drain), n)
	l.set("report.merge_s", median(merge), n)
	l.set("report.render_s", median(render), n)
	setPoolStats(l, last.stats, a.prog.events)
	setCoreCounters(l, last.counters, last.bugs)
	l.set("core.shards", asyncShards, 1)
	if l.tr != nil {
		m := len(traced)
		l.set("pmem.emit_s", median(nulgrind)-median(native), len(nulgrind))
		l.set("core.busy_s", median(busy), m)
		l.set("core.ns_per_event", median(busy)*1e9/float64(a.prog.events), m)
		l.set("core.shard_skew", median(skew), m)
		l.set("ledger.trace_overhead", median(traced)/d, m)
	}
	return nil
}

func (a *async) close() {}
