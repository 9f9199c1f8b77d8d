package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"pmdebugger/internal/baselines"
	"pmdebugger/internal/core"
	"pmdebugger/internal/memcached"
	"pmdebugger/internal/memslap"
	"pmdebugger/internal/pmem"
	"pmdebugger/internal/rules"
	"pmdebugger/internal/serve"
	"pmdebugger/internal/trace"
)

const (
	// servedTraces is how many distinct recorded traces the sessions draw
	// from.
	servedTraces = 4
	// serveRate is the open loop's arrival rate in arrivals per second,
	// which keeps one P busy about a quarter of the time on the reference
	// box. A fixed rate loads a slower machine more, and waiting grows
	// faster than load: at 80 per second slowdown followed the machine's
	// speed and spread by 7% over ten runs, at 40 by 2.5%. The waiting
	// still shows in the tail (the p90 session takes twice the median).
	serveRate = 40
	// serveSlots is the number of connections serving the open loop.
	serveSlots = 2
	// localEvery makes every localEvery-th arrival an in-process detection
	// instead of a served session.
	localEvery = 3
)

// served streams recorded traces of the buggy strict-model memcached port
// to an in-process detection server over loopback, in an open loop:
// arrivals come independently (seeded Poisson arrivals at serveRate) and
// are served by serveSlots connection slots, each session timed from when
// it was due to its REPORT frame. Every third arrival instead detects its
// trace in process, encoded on one goroutine and decoded by serve.Offline
// on another through a pipe: what the session would cost without the
// socket, the handshake, the server and the wait, measured under the same
// load at the same moments as the sessions.
type served struct {
	o      options
	traces []*servedTrace
	srv    *serve.Server
	// srvTraced, in traced runs, serves every other session with its
	// detectors behind timing wrappers.
	srvTraced        *serve.Server
	coreNs, reportNs atomic.Int64
}

type servedTrace struct {
	events []trace.Event
	raw    []byte // the encoded trace
	want   string
	stats  pmem.Stats
}

func newServe(o options) workload { return &served{o: o} }

// buggyMemcached builds the faithful (buggy) strict-model memcached port
// and its workload: every command path, then memslap.
func buggyMemcached(ops int, seed int64) (*memcached.Cache, func() error, error) {
	cache, err := memcached.New(memcached.Config{PoolSize: 16 << 20, HashBuckets: 4096, UseCAS: true, Bugs: true})
	if err != nil {
		return nil, nil, err
	}
	return cache, func() error {
		if err := memslap.ExerciseAll(cache); err != nil {
			return err
		}
		return memslap.Run(cache, memslap.Config{Ops: ops, Threads: 1, Seed: seed})
	}, nil
}

func (s *served) options(tenant string) serve.Options {
	return serve.Options{Tenant: tenant, Model: rules.Strict, Drain: serve.DrainLazy}
}

func (s *served) setup(l *ledger) error {
	ops := 2000
	if s.o.tiny {
		ops = 200
	}
	var refs []string
	var enc, dec, off, events float64
	for i := 0; i < servedTraces; i++ {
		t := &servedTrace{}
		cache, live, err := buggyMemcached(ops, subSeed(s.o.seed, i))
		if err != nil {
			return err
		}
		rec := trace.NewRecorder(0)
		cache.PM().Attach(rec)
		if err := live(); err != nil {
			return err
		}
		cache.PM().Detach(rec)
		t.stats = cache.PM().Stats()
		encNs, decNs, evs, raw, err := codecTimes(rec.Events)
		if err != nil {
			return err
		}
		start := time.Now()
		rep, err := serve.Offline(bytes.NewReader(raw), s.options("offline"))
		if err != nil {
			return fmt.Errorf("offline replay: %w", err)
		}
		off += float64(time.Since(start).Nanoseconds())
		t.events, t.raw, t.want = evs, raw, rep.Summary()
		s.traces = append(s.traces, t)
		refs = append(refs, t.want)
		n := float64(len(evs))
		enc += encNs * n
		dec += decNs * n
		events += n
	}
	l.checkDigest(refs)
	l.set("trace.encode_ns_per_event", enc/events, int(events))
	l.set("trace.decode_ns_per_event", dec/events, int(events))
	l.set("core.offline_ns_per_event", off/events, int(events))

	s.srv = serve.New(serve.Config{Addr: "127.0.0.1:0"})
	if err := s.srv.Start(); err != nil {
		return err
	}
	if l.tr != nil {
		s.srvTraced = serve.New(serve.Config{Addr: "127.0.0.1:0", DetectorFactory: func(m rules.Model) baselines.Detector {
			return &timedDetector{d: core.New(core.Config{Model: m}), busy: &s.coreNs, reportNs: &s.reportNs}
		}})
		if err := s.srvTraced.Start(); err != nil {
			return err
		}
	}
	return nil
}

func (s *served) tamper() {
	for _, t := range s.traces {
		t.want += "tampered\n"
	}
}

// session is one arrival's phase boundaries: due, started, handshake done,
// stream sent, report received. An in-process detection sets only due,
// start and done.
type session struct {
	due, start, dialed, streamed, done time.Time
	err                                error
}

// stream serves one trace over a fresh connection and checks the report.
func (s *served) stream(addr string, t *servedTrace) (ss session) {
	ss.start = time.Now()
	sess, err := serve.Dial(addr, s.options("ledger"))
	ss.dialed = time.Now()
	if err != nil {
		ss.err, ss.streamed, ss.done = err, ss.dialed, ss.dialed
		return ss
	}
	for off := 0; off < len(t.events); off += trace.StreamBatchSize {
		sess.HandleBatch(t.events[off:min(off+trace.StreamBatchSize, len(t.events))])
	}
	ss.streamed = time.Now()
	got, err := sess.Report()
	ss.done = time.Now()
	if err == nil {
		err = sameText(got, t.want)
	}
	ss.err = err
	return ss
}

// arrival is one scheduled open-loop arrival.
type arrival struct {
	at    time.Duration // offset from the start of the loop
	trace int
}

// isLocal reports whether arrival i is an in-process detection; the others
// are served sessions.
func isLocal(i int) bool { return i%localEvery == 0 }

// isTraced reports whether session i goes to the server with the timing
// wrappers in a traced run: half the sessions, taking the first and the
// second place after an in-process arrival in turn, so both halves wait
// alike.
func isTraced(i int) bool {
	return !isLocal(i) && (i%localEvery == 1) == (i/localEvery%2 == 0)
}

// schedule draws Poisson arrivals at serveRate over d from the run's seed,
// at least one of each kind.
func (s *served) schedule(d time.Duration) []arrival {
	rng := rand.New(rand.NewSource(subSeed(s.o.seed, 1000)))
	var out []arrival
	t := rng.ExpFloat64() / serveRate
	for ; t < d.Seconds() || len(out) < 2; t += rng.ExpFloat64() / serveRate {
		out = append(out, arrival{at: time.Duration(t * float64(time.Second)), trace: rng.Intn(len(s.traces))})
	}
	return out
}

// openLoop hands every arrival to the serveSlots workers when it is due,
// whatever their progress, and returns each outcome and how late the
// generator itself ran. In traced runs half the sessions go to the server
// with the timing wrappers.
func (s *served) openLoop(arrivals []arrival, traced bool) (out []session, late []float64, backlog int) {
	out = make([]session, len(arrivals))
	queue := make(chan int, len(arrivals)) // sized to the number of sends
	var wg sync.WaitGroup
	for w := 0; w < serveSlots; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				t, due := s.traces[arrivals[i].trace], out[i].due
				switch {
				case isLocal(i):
					out[i] = s.local(t)
				case traced && isTraced(i):
					out[i] = s.stream(s.srvTraced.Addr(), t)
				default:
					out[i] = s.stream(s.srv.Addr(), t)
				}
				out[i].due = due
			}
		}()
	}
	start := time.Now()
	for i, a := range arrivals {
		due := start.Add(a.at)
		time.Sleep(time.Until(due))
		late = append(late, time.Since(due).Seconds())
		backlog = max(backlog, len(queue))
		out[i].due = due
		queue <- i
	}
	close(queue)
	wg.Wait()
	return out, late, backlog
}

func (s *served) measure(l *ledger, until time.Time) error {
	open := time.Until(until)
	arrivals := s.schedule(open)
	before := s.srv.MetricsSnapshot()
	traced := l.tr != nil
	outcomes, late, backlog := s.openLoop(arrivals, traced)
	l.jobs += len(outcomes)

	var local, latency, queueWait, dial, stream, wait, tracedLat, untracedLat []float64
	var events, servedSecs float64
	for i, ss := range outcomes {
		if isLocal(i) {
			if l.verify(fmt.Sprintf("arrival %d in-process report", i), ss.err) {
				local = append(local, ss.done.Sub(ss.start).Seconds())
			}
			continue
		}
		t := s.traces[arrivals[i].trace]
		lat := ss.done.Sub(ss.due).Seconds()
		if !l.verify(fmt.Sprintf("arrival %d session report", i), ss.err) {
			lat = math.Inf(1) // a failed session misses every latency limit
		}
		latency = append(latency, lat)
		queueWait = append(queueWait, ss.start.Sub(ss.due).Seconds())
		dial = append(dial, ss.dialed.Sub(ss.start).Seconds())
		stream = append(stream, ss.streamed.Sub(ss.dialed).Seconds())
		wait = append(wait, ss.done.Sub(ss.streamed).Seconds())
		events += float64(len(t.events))
		servedSecs += ss.done.Sub(ss.start).Seconds()
		if !traced {
			continue
		}
		if !isTraced(i) {
			untracedLat = append(untracedLat, lat)
			continue
		}
		tracedLat = append(tracedLat, lat)
		if ss.err == nil {
			job := l.tr.newID()
			l.tr.add(span{ID: job, Job: job, Name: "job", Start: l.tr.at(ss.due), End: l.tr.at(ss.done)})
			l.tr.child(job, job, "loadgen.queue", ss.due, ss.start)
			l.tr.child(job, job, "serve.dial", ss.start, ss.dialed)
			l.tr.child(job, job, "serve.stream", ss.dialed, ss.streamed)
			l.tr.child(job, job, "serve.report_wait", ss.streamed, ss.done)
			l.tr.units(1)
		}
	}

	n := len(latency)
	l.set("slowdown", median(latency)/median(local), n)
	l.set("total.verdict_s", median(latency), n)
	l.set("total.tail_s", quantile(latency, 0.98), n) // ten or more sessions beyond it
	l.set("total.events_per_s", events/servedSecs, n)
	l.set("serve.handshake_p50_s", median(dial), n)
	l.set("serve.stream_p50_s", median(stream), n)
	l.set("serve.report_wait_p50_s", median(wait), n)
	l.set("serve.report_wait_p99_s", quantile(wait, 0.99), n)
	l.set("serve.inprocess_p50_s", median(local), len(local))
	l.set("serve.queue_p99_s", quantile(queueWait, 0.99), n)
	l.set("serve.sessions", float64(n), n)
	l.set("loadgen.late_p99_s", quantile(late, 0.99), len(late))
	l.set("loadgen.backlog_max", float64(backlog), len(late))
	l.set("loadgen.offered_per_s", float64(len(arrivals))/open.Seconds(), len(arrivals))
	l.set("pmem.events", events/float64(n), n)
	var st pmem.Stats
	for _, t := range s.traces {
		st = addStats(st, t.stats)
	}
	l.set("pmem.stores", float64(st.Stores)/servedTraces, servedTraces)
	l.set("pmem.flushes", float64(st.Flushes)/servedTraces, servedTraces)
	l.set("pmem.fences", float64(st.Fences)/servedTraces, servedTraces)
	l.set("pmem.bytes_stored", float64(st.BytesStored)/servedTraces, servedTraces)
	l.set("core.shards", 1, 1)
	if traced {
		m := len(tracedLat)
		l.set("ledger.trace_overhead", median(tracedLat)/median(untracedLat), m)
		l.set("core.busy_s", float64(s.coreNs.Load())/1e9/float64(m), m)
		l.set("core.ns_per_event", float64(s.coreNs.Load())/(events/float64(n)*float64(m)), m)
		l.set("core.shard_skew", 1, m)
		l.set("report.build_s", float64(s.reportNs.Load())/1e9/float64(m), m)
	}

	after := s.srv.MetricsSnapshot()
	decodeErrs, panics := after.DecodeErrors, after.HandlerPanics
	sessionCount := after.TotalSessions - before.TotalSessions
	streamed := after.EventsTotal - before.EventsTotal
	backpressure := after.BackpressureNanos - before.BackpressureNanos
	if s.srvTraced != nil {
		tm := s.srvTraced.MetricsSnapshot()
		decodeErrs += tm.DecodeErrors
		panics += tm.HandlerPanics
		sessionCount += tm.TotalSessions
		streamed += tm.EventsTotal
		backpressure += tm.BackpressureNanos
	}
	l.verify("server decode errors and handler panics", func() error {
		if decodeErrs != 0 || panics != 0 {
			return fmt.Errorf("%d decode errors, %d handler panics", decodeErrs, panics)
		}
		return nil
	}())
	l.set("serve.decode_errors", float64(decodeErrs), 1)
	l.set("serve.handler_panics", float64(panics), 1)
	l.set("serve.events_total", float64(streamed), int(sessionCount))
	if sessionCount > 0 {
		l.set("serve.backpressure_s", float64(backpressure)/1e9/float64(sessionCount), int(sessionCount))
	}
	return nil
}

// local detects the trace in process and checks the report: the trace is
// encoded on one goroutine, in the batches a Session sends, and detected
// by serve.Offline on this one.
func (s *served) local(t *servedTrace) (ss session) {
	ss.start = time.Now()
	pr, pw := io.Pipe()
	go func() {
		tw, err := trace.NewWriter(pw)
		if err == nil {
			for off := 0; off < len(t.events); off += trace.StreamBatchSize {
				tw.HandleBatch(t.events[off:min(off+trace.StreamBatchSize, len(t.events))])
			}
			err = tw.Flush()
		}
		pw.CloseWithError(err)
	}()
	rep, err := serve.Offline(pr, s.options("offline"))
	pr.CloseWithError(err) // unblocks the writer if the replay stopped early
	if err == nil {
		err = sameText(rep.Summary(), t.want)
	}
	ss.done, ss.err = time.Now(), err
	return ss
}

func (s *served) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, srv := range []*serve.Server{s.srv, s.srvTraced} {
		if srv != nil {
			srv.Shutdown(ctx)
		}
	}
}
