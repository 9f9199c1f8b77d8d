package main

import (
	"sync/atomic"
	"time"

	"pmdebugger/internal/baselines"
	"pmdebugger/internal/core"
	"pmdebugger/internal/report"
	"pmdebugger/internal/trace"
)

// The wrappers in this file time the detector's public entry points from
// outside: they sit between the pool (or a pipeline consumer, or the
// server) and the detector, and change nothing the detector sees.

// timedHandler times every inline HandleEvent call. Inline delivery runs
// under the pool's lock on the application thread, so the counters need no
// synchronization.
type timedHandler struct {
	h         trace.Handler
	calls, ns int64
}

func (t *timedHandler) HandleEvent(ev trace.Event) {
	start := time.Now()
	t.h.HandleEvent(ev)
	t.ns += time.Since(start).Nanoseconds()
	t.calls++
}

// take returns the calls and time accumulated since the previous take.
func (t *timedHandler) take() (calls, ns int64) {
	calls, ns = t.calls, t.ns
	t.calls, t.ns = 0, 0
	return calls, ns
}

// timedSharder wraps a sharded detector so the pool's sharded pipeline
// drives timed shard handlers; everything else is the detector's own.
type timedSharder struct {
	*core.ShardedDetector
	shards []*timedShard
}

func newTimedSharder(sd *core.ShardedDetector, tr *tracer, job *atomic.Int64) *timedSharder {
	ts := &timedSharder{ShardedDetector: sd}
	for _, h := range sd.ShardHandlers() {
		ts.shards = append(ts.shards, &timedShard{h: h.(trace.BatchHandler), tr: tr, job: job})
	}
	return ts
}

// ShardHandlers implements trace.Sharder with the timed shard handlers.
func (ts *timedSharder) ShardHandlers() []trace.Handler {
	hs := make([]trace.Handler, len(ts.shards))
	for i, s := range ts.shards {
		hs[i] = s
	}
	return hs
}

// busy returns each shard's accumulated handler time and resets it.
func (ts *timedSharder) busy() []int64 {
	out := make([]int64, len(ts.shards))
	for i, s := range ts.shards {
		out[i] = s.ns.Swap(0)
	}
	return out
}

// timedShard times one shard consumer's calls. Batches (at most one per
// 4096-event slab) become async spans of the current job.
type timedShard struct {
	h   trace.BatchHandler
	tr  *tracer
	job *atomic.Int64
	ns  atomic.Int64
}

func (s *timedShard) HandleEvent(ev trace.Event) {
	start := time.Now()
	s.h.HandleEvent(ev)
	s.ns.Add(time.Since(start).Nanoseconds())
}

func (s *timedShard) HandleBatch(evs []trace.Event) {
	start := time.Now()
	s.h.HandleBatch(evs)
	end := time.Now()
	s.ns.Add(end.Sub(start).Nanoseconds())
	job := s.job.Load()
	s.tr.add(span{ID: s.tr.newID(), Parent: job, Job: job, Name: "core.shard_batch",
		Start: s.tr.at(start), End: s.tr.at(end), Async: true})
}

// timedDetector wraps a served session's detector: the server drives it
// from the session's pipeline consumer and finalizes it with Report.
type timedDetector struct {
	d              *core.Detector
	busy, reportNs *atomic.Int64
}

var _ baselines.Detector = (*timedDetector)(nil)

func (t *timedDetector) Name() string { return t.d.Name() }

func (t *timedDetector) HandleEvent(ev trace.Event) {
	start := time.Now()
	t.d.HandleEvent(ev)
	t.busy.Add(time.Since(start).Nanoseconds())
}

func (t *timedDetector) HandleBatch(evs []trace.Event) {
	start := time.Now()
	t.d.HandleBatch(evs)
	t.busy.Add(time.Since(start).Nanoseconds())
}

func (t *timedDetector) Report() *report.Report {
	start := time.Now()
	rep := t.d.Report()
	t.reportNs.Add(time.Since(start).Nanoseconds())
	return rep
}
