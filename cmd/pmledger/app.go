package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"time"

	"pmdebugger/internal/baselines"
	"pmdebugger/internal/bugsuite"
	"pmdebugger/internal/core"
	"pmdebugger/internal/pmem"
	"pmdebugger/internal/report"
	"pmdebugger/internal/rules"
	"pmdebugger/internal/trace"
)

// program is one deterministic application run: a Fig. 8 benchmark or the
// memcached strand port.
type program struct {
	name  string
	model rules.Model
	// build makes a fresh instance, untimed: its pool and its live phase,
	// every workload operation up to but not including Pool.End.
	build func() (*pmem.Pool, func() error, error)
	// want is the reference report summary; events counts the events the
	// reference detector consumed.
	want   string
	events int
}

// reference records one run of the program through the trace codec and
// replays the decoded stream, batched, into a fresh detector. This offline
// path shares no delivery code with the inline and pipelined jobs it checks.
func (p *program) reference() error {
	pm, live, err := p.build()
	if err != nil {
		return err
	}
	pr, pw := io.Pipe()
	det := core.New(core.Config{Model: p.model})
	replayed := make(chan error, 1)
	var n int
	go func() {
		var err error
		n, err = trace.StreamTrace(pr, det)
		pr.CloseWithError(err) // a failed replay must not leave the writer blocked
		replayed <- err
	}()
	tw, err := trace.NewWriter(pw)
	if err != nil {
		pw.CloseWithError(err)
		<-replayed
		return err
	}
	pm.Attach(tw)
	liveErr := live()
	pm.End()
	flushErr := tw.Flush()
	pw.Close()
	if err := errors.Join(liveErr, flushErr, <-replayed); err != nil {
		return fmt.Errorf("%s reference: %w", p.name, err)
	}
	p.want = det.Report().Summary()
	p.events = n
	return nil
}

// jobKind is how a job runs the program.
type jobKind int

const (
	kindNative   jobKind = iota // no handler attached
	kindNulgrind                // the instrumentation-only tool
	kindDetected                // PMDebugger
	kindTraced                  // PMDebugger behind the timing wrappers
	kindSerial                  // crash-explore's exhaustive baseline, RunSerial
)

func (k jobKind) String() string {
	return [...]string{"native", "nulgrind", "detected", "traced", "serial"}[k]
}

// attachment is how a job connects its handler to the program's pool.
type attachment struct {
	h    trace.Handler // nil: native
	opts pmem.AttachOptions
	rep  func() *report.Report // nil: no report
	// inline, for traced inline jobs, is the wrapper whose per-event
	// counters are split at the phase boundaries.
	inline *timedHandler
}

// jobResult is one timed job. t holds its phase boundaries: the first
// workload operation, the end of the live phase, Pool.End returned, Report
// returned (the end of the job) and Summary rendered.
type jobResult struct {
	t        [5]time.Time
	summary  string
	bugs     int
	counters report.Counters
	stats    pmem.Stats
	// calls holds the inline wrapper's (calls, ns) during the live phase
	// and during Pool.End.
	calls [2][2]int64
}

func (r *jobResult) total() float64  { return r.t[3].Sub(r.t[0]).Seconds() }
func (r *jobResult) live() float64   { return r.t[1].Sub(r.t[0]).Seconds() }
func (r *jobResult) drain() float64  { return r.t[2].Sub(r.t[1]).Seconds() }
func (r *jobResult) report() float64 { return r.t[3].Sub(r.t[2]).Seconds() }
func (r *jobResult) render() float64 { return r.t[4].Sub(r.t[3]).Seconds() }
func (r *jobResult) coreNs() int64   { return r.calls[0][1] + r.calls[1][1] }

// runJob runs one instance of the program with the attachment, timed from
// its first workload operation until Report returns, so the drain at
// Pool.End is included.
func runJob(p *program, a attachment) (jobResult, error) {
	var r jobResult
	pm, live, err := p.build()
	if err != nil {
		return r, err
	}
	if a.h != nil {
		pm.AttachWith(a.h, a.opts)
	}
	runtime.GC()
	r.t[0] = time.Now()
	if err := live(); err != nil {
		return r, fmt.Errorf("%s: %w", p.name, err)
	}
	r.t[1] = time.Now()
	if a.inline != nil {
		r.calls[0][0], r.calls[0][1] = a.inline.take()
	}
	pm.End()
	r.t[2] = time.Now()
	if a.inline != nil {
		r.calls[1][0], r.calls[1][1] = a.inline.take()
	}
	var rep *report.Report
	if a.rep != nil {
		rep = a.rep()
	}
	r.t[3] = time.Now()
	if rep != nil {
		r.summary = rep.Summary()
		r.bugs = rep.Len()
		r.counters = rep.Counters
	}
	r.t[4] = time.Now()
	r.stats = pm.Stats()
	if a.h != nil {
		pm.Detach(a.h) // stops an async attachment's consumers
	}
	return r, nil
}

// inlineAttachment attaches the job's handler synchronously.
func inlineAttachment(k jobKind, model rules.Model) attachment {
	switch k {
	case kindNulgrind:
		return attachment{h: baselines.NewNulgrind()}
	case kindDetected:
		d := core.New(core.Config{Model: model})
		return attachment{h: d, rep: d.Report}
	case kindTraced:
		d := core.New(core.Config{Model: model})
		th := &timedHandler{h: d}
		return attachment{h: th, rep: d.Report, inline: th}
	}
	return attachment{}
}

// recordJobSpans records a traced job as a root span over [first op, Report
// returned] with its live, drain and report phases as children; inline
// per-event detector calls are summed onto the phase they ran in.
func recordJobSpans(tr *tracer, job int64, r *jobResult, reportName string) {
	tr.add(span{ID: job, Job: job, Name: "job", Start: tr.at(r.t[0]), End: tr.at(r.t[3])})
	phases := []struct {
		name  string
		from  int
		calls [2]int64
	}{
		{"app.run", 0, r.calls[0]},
		{"trace.drain", 1, r.calls[1]},
		{reportName, 2, [2]int64{}},
	}
	for _, ph := range phases {
		s := span{ID: tr.newID(), Parent: job, Job: job, Name: ph.name,
			Start: tr.at(r.t[ph.from]), End: tr.at(r.t[ph.from+1])}
		if ph.calls[0] > 0 {
			s.Calls, s.CallNs, s.CallLayer = ph.calls[0], ph.calls[1], "core"
		}
		tr.add(s)
	}
}

// reversed returns the kinds in reverse order: job order alternates every
// round so drift in machine speed lands on both sides of each ratio.
func reversed(ks []jobKind) []jobKind {
	out := make([]jobKind, len(ks))
	for i, k := range ks {
		out[len(ks)-1-i] = k
	}
	return out
}

// setCoreCounters records the detector's bookkeeping counters summed over
// the workload's unit of work.
func setCoreCounters(l *ledger, c report.Counters, bugs int) {
	l.set("core.tree_reorgs", float64(c.TreeReorgs), 1)
	l.set("core.avg_tree_nodes", c.AvgTreeNodes(), 1)
	l.set("core.bugs", float64(bugs), 1)
	if probes := c.IndexLineHits + c.IndexLineMisses; probes > 0 {
		l.set("core.index_hit_ratio", float64(c.IndexLineHits)/float64(probes), 1)
	}
	if stores := c.ArrayAppends + c.ArraySpills; stores > 0 {
		l.set("core.array_spill_ratio", float64(c.ArraySpills)/float64(stores), 1)
	}
}

// setPoolStats records the simulated hardware's counters summed over the
// workload's unit of work.
func setPoolStats(l *ledger, s pmem.Stats, events int) {
	l.set("pmem.events", float64(events), 1)
	l.set("pmem.stores", float64(s.Stores), 1)
	l.set("pmem.flushes", float64(s.Flushes), 1)
	l.set("pmem.fences", float64(s.Fences), 1)
	l.set("pmem.bytes_stored", float64(s.BytesStored), 1)
	l.set("pmem.sharded_fallbacks", float64(s.ShardedFallbacks), 1)
}

func addStats(a, b pmem.Stats) pmem.Stats {
	a.Stores += b.Stores
	a.Flushes += b.Flushes
	a.Fences += b.Fences
	a.BytesStored += b.BytesStored
	a.LinesCommitted += b.LinesCommitted
	a.ShardedAttaches += b.ShardedAttaches
	a.ShardedFallbacks += b.ShardedFallbacks
	return a
}

// codecTimes times the trace codec on a recording: WriteTrace and
// ReadTrace, in nanoseconds per event. It also returns the decoded events
// and the encoded stream.
func codecTimes(evs []trace.Event) (encNs, decNs float64, decoded []trace.Event, raw []byte, err error) {
	var buf bytes.Buffer
	start := time.Now()
	if err := trace.WriteTrace(&buf, evs); err != nil {
		return 0, 0, nil, nil, err
	}
	enc := time.Since(start)
	start = time.Now()
	decoded, err = trace.ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return 0, 0, nil, nil, err
	}
	dec := time.Since(start)
	n := float64(len(evs))
	return float64(enc.Nanoseconds()) / n, float64(dec.Nanoseconds()) / n, decoded, buf.Bytes(), nil
}

// setCodecAndOffline records one run of p, times the codec on it, and
// times a batched offline replay of the decoded stream into a fresh
// detector (core.offline_ns_per_event).
func setCodecAndOffline(l *ledger, p *program) error {
	pm, live, err := p.build()
	if err != nil {
		return err
	}
	rec := trace.NewRecorder(0)
	pm.Attach(rec)
	if err := live(); err != nil {
		return err
	}
	pm.End()
	enc, dec, evs, _, err := codecTimes(rec.Events)
	if err != nil {
		return fmt.Errorf("%s codec: %w", p.name, err)
	}
	det := core.New(core.Config{Model: p.model})
	start := time.Now()
	trace.ReplayEvents(evs, det)
	det.Report()
	off := time.Since(start)
	l.set("trace.encode_ns_per_event", enc, len(evs))
	l.set("trace.decode_ns_per_event", dec, len(evs))
	l.set("core.offline_ns_per_event", float64(off.Nanoseconds())/float64(len(evs)), len(evs))
	return nil
}

// table6 checks the paper's Table 6 ground truth: PMDebugger detects every
// one of the 78 planted bugs and reports nothing on the correct twins.
func table6(l *ledger) error {
	cases := bugsuite.Cases()
	var missed, noisy []string
	for _, c := range cases {
		found, err := bugsuite.Detects(bugsuite.PMDebugger, c)
		if err != nil {
			return err
		}
		if !found {
			missed = append(missed, c.ID)
		}
	}
	for _, c := range bugsuite.CorrectTwins() {
		rep, err := bugsuite.RunCase(bugsuite.PMDebugger, c)
		if err != nil {
			return err
		}
		if rep.Len() > 0 {
			noisy = append(noisy, c.ID)
		}
	}
	var err error
	if len(cases) != 78 || len(missed) > 0 || len(noisy) > 0 {
		err = fmt.Errorf("%d cases, missed %v, reports on correct twins %v", len(cases), missed, noisy)
	}
	l.verify("table 6 ground truth", err)
	return nil
}

// serverPoolSize sizes the memcached and redis pools for an operation
// count, as the repository's harness does.
func serverPoolSize(ops int) uint64 {
	return min(uint64(ops)*256+(8<<20), 256<<20)
}
