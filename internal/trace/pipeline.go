package trace

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
)

// Pipeline is the asynchronous delivery conduit between an event producer
// and detection: the producer's HandleEvent appends the 40-byte event into
// a staging slab — a memcpy, nothing more — and full slabs are handed
// through a bounded ring to a consumer goroutine that drives the handler's
// batch fast path. A pipeline owns one ring (slab queue plus consumer
// goroutine) per shard.
//
// It exists to take detection off the instrumented program's critical path
// (§7.2's live-instrumentation slowdowns): attached inline, a detector's
// AVL inserts, index updates and rule checks all execute under the pool's
// global mutex on the application thread, so multi-threaded workloads fully
// serialize behind bookkeeping. Attached through a Pipeline, the application
// thread pays only the slab append and detection overlaps with execution on
// the consumer goroutines.
//
// With fewer than two shard handlers (PipelineOptions.Shards) the pipeline
// is a single ring that forwards every event verbatim to its handler. With
// two or more, it routes the stream across one ring per shard handler by
// the strand rules of Route, so an N-thread strand workload gets N cores of
// detection; each shard handler observes exactly its strand subsequence.
// Offline parallel replay is the same router fed by a trace reader.
//
// Correctness anchors:
//
//   - Ordering. Slabs travel through a FIFO channel and one consumer per
//     ring delivers them, so each handler observes the exact sequence the
//     producer appended for it — for a pmem.Pool that is the
//     pool-serialized, Seq-stamped stream, and reports are byte-identical
//     to inline delivery.
//   - Bounded memory. A ring holds no slab until its first event and takes
//     one each time its staging slab fills: a slab its consumer recycled,
//     else one from a pool shared by every pipeline, up to depth slabs of
//     DefaultBatchSize events. With depth slabs out, the producer blocks on
//     the next recycled slab (backpressure) instead of growing a queue.
//     Close returns the ring's slabs to the pool.
//   - Sync barrier. Sync returns only after every event appended before
//     the call has been delivered to its handler; the pool invokes it
//     before crash-trap panics, crash-image snapshots and final checks.
//
// The producer side (HandleEvent, HandleBatch, Sync, Close) must be
// externally serialized — the emitting pool's mutex already provides this.
// A pool whose one handler is the pipeline calls HandleEvent directly for
// every event, with no fan-out in between, so each event is written once,
// into its ring's staging slot. Handlers run on consumer goroutines and
// must not call back into the producer while it holds that serialization
// (the pool's detectors never do).
//
// Two drain disciplines are available (PipelineOptions.Lazy):
//
//   - Eager (default): consumers drain slabs as they arrive, so detection
//     overlaps execution on another core. Every in-process attach
//     (pmem.AttachOptions.Async) drains eagerly: timed end to end on the
//     delivery benchmark's workloads, eager beat lazy drain at two Ps and
//     matched it at one (EXPERIMENTS.md).
//   - Lazy: consumers park and slabs accumulate in the rings; analysis
//     runs when Sync or Close demands it, or when a ring holds depth full
//     slabs and needs another. This is the tracing-then-analysis
//     decoupling of offline-trace debuggers (WITCHER's architecture). Only
//     a pmserved session that asks for drain=lazy uses it. Delivery order
//     and reports are identical in both disciplines.
type Pipeline struct {
	h     Handler
	rings []*ring
	waits []<-chan struct{} // reused by Sync and Close to wait on every ring
	one   [1]Event          // HandleEvent's batch of one on a routed pipeline
}

// Sharder is implemented by handlers that can split themselves into
// independent per-shard consumers for strand-routed delivery. ShardHandlers
// returns one handler per shard; a nil (or single-element) slice means the
// handler cannot shard, and a pipeline built from it is a single ring
// around the Sharder itself.
type Sharder interface {
	Handler
	ShardHandlers() []Handler
}

// DefaultPipelineDepth is the default cap on the slabs a ring holds. With
// DefaultBatchSize 40-byte events per slab a ring stays within a couple of
// megabytes while giving its consumer enough runway to absorb emission
// bursts; a ring takes its slabs as events arrive, so one that carries a
// short stream holds only the slabs that stream fills.
const DefaultPipelineDepth = 8

// PipelineOptions configures NewPipeline.
type PipelineOptions struct {
	// Depth caps the slabs each ring holds (0 = DefaultPipelineDepth,
	// minimum 2: one slab staging while one drains — the double buffer).
	// Every caller outside tests uses the default; tests shrink it to reach
	// backpressure and ring exhaustion.
	Depth int
	// Lazy selects the deferred drain discipline: consumers park until
	// Sync/Close or ring exhaustion instead of draining as slabs arrive.
	// Its one caller is a pmserved session whose handshake asks for
	// drain=lazy; in-process attaches always drain eagerly.
	Lazy bool
	// Shards, when it holds two or more handlers, gives the pipeline one
	// ring per handler and routes events to them by strand (Route). Fewer
	// than two means one ring delivering everything to the pipeline's own
	// handler.
	Shards []Handler
}

// NewPipeline starts a pipeline delivering to h, or to opts.Shards when it
// holds at least two handlers (h then only identifies the pipeline; see
// Handler).
func NewPipeline(h Handler, opts PipelineOptions) *Pipeline {
	targets := opts.Shards
	if len(targets) < 2 {
		targets = []Handler{h}
	}
	p := &Pipeline{
		h:     h,
		rings: make([]*ring, len(targets)),
		waits: make([]<-chan struct{}, len(targets)),
	}
	for i, t := range targets {
		p.rings[i] = newRing(t, opts)
	}
	return p
}

// Handler returns the handler the pipeline was built for, so an owner
// holding only the pipeline can identify (and detach by) the wrapped
// consumer.
func (p *Pipeline) Handler() Handler { return p.h }

// Shards returns the number of rings: 1 unless the pipeline routes.
func (p *Pipeline) Shards() int { return len(p.rings) }

// HandleEvent implements Handler: it writes ev straight into its ring's
// staging slot, handing slabs to the consumers as they fill. A routed
// pipeline sends a strand-local event to its strand's ring and every other
// kind through Route. It never runs a handler itself.
func (p *Pipeline) HandleEvent(ev Event) {
	r := p.rings[0]
	if n := uint32(len(p.rings)); n > 1 {
		if classify(ev.Kind) != classStrandLocal {
			p.one[0] = ev
			Route(p.one[:], p.rings)
			return
		}
		r = p.rings[uint32(ev.Strand)%n]
	}
	// Field by field: a whole-struct copy reloads the spilled argument with
	// 16-byte loads that straddle its 8-, 4- and 1-byte spill stores, so
	// the store-to-load forward fails on every event.
	s := r.slot()
	s.Seq, s.Addr, s.Size, s.Kind, s.Flush = ev.Seq, ev.Addr, ev.Size, ev.Kind, ev.Flush
	s.Strand, s.Thread, s.Site = ev.Strand, ev.Thread, ev.Site
}

// HandleBatch implements BatchHandler by staging the whole slice.
func (p *Pipeline) HandleBatch(evs []Event) {
	if len(p.rings) == 1 {
		p.rings[0].HandleBatch(evs)
		return
	}
	Route(evs, p.rings)
}

// Sync blocks until every event passed to the pipeline before the call has
// been delivered to its handler. Events keep their original order across
// the barrier. The markers post to every ring before waiting on any, so
// lazy rings drain concurrently. After Close, Sync returns immediately: the
// close already drained everything.
func (p *Pipeline) Sync() {
	for i, r := range p.rings {
		p.waits[i] = r.syncBegin()
	}
	for _, c := range p.waits {
		<-c
	}
}

// Close drains every ring and stops the consumer goroutines, concurrently,
// returning once each handler has seen every staged event and every slab is
// back in the shared pool. Close is idempotent; after it returns, Sync is a
// no-op and HandleEvent and HandleBatch panic.
func (p *Pipeline) Close() {
	for i, r := range p.rings {
		p.waits[i] = r.closeBegin()
	}
	for i, c := range p.waits {
		<-c
		p.rings[i].release()
	}
}

// Err returns the panics handlers raised on the consumer goroutines, or
// nil. Deliveries to a ring after its handler panicked are dropped (the
// handler's state is unknown); the producer side keeps working so the
// owning program can reach its own error handling instead of deadlocking.
// Call after a barrier (Sync/Close) for a definitive answer.
func (p *Pipeline) Err() error {
	var msgs []string
	for i, r := range p.rings {
		if msg := r.fail.Load(); msg != nil {
			shard := ""
			if len(p.rings) > 1 {
				shard = fmt.Sprintf("shard %d ", i)
			}
			msgs = append(msgs, shard+"handler panicked: "+*msg)
		}
	}
	if msgs == nil {
		return nil
	}
	return fmt.Errorf("trace: pipeline %s", strings.Join(msgs, "; "))
}

// Route delivers evs to shards by the strand routing rules, the one place
// they are written. Strands are the strand persistency model's independent
// persist paths (§5.1): the detector keeps a separate bookkeeping space per
// strand and no built-in rule other than programmer-supplied cross-strand
// order requirements correlates records across strands, so a strand-model
// stream split this way reports exactly what one detector reports.
//
//   - Strand-local kinds (Store/Flush/Fence/StrandBegin/StrandEnd) go to
//     shard uint32(strand) % len(shards). Runs of consecutive same-strand
//     events go in one call, so the routing cost amortizes away.
//   - JoinStrand and End are dropped: joins are inert without order specs,
//     and shard detectors finalize at Report time.
//   - Every other kind (Register/Unregister, epoch boundaries, TxLogAdd)
//     goes to every shard. Each shard's delivery is FIFO, so each observes
//     it at the same point of its own subsequence that a sequential
//     consumer would, and no shard reads another's state. Configurations
//     where epoch and log events influence reports do not shard in the
//     first place (core.Shardable).
func Route[S BatchHandler](evs []Event, shards []S) {
	n := uint32(len(shards))
	for i := 0; i < len(evs); {
		switch classify(evs[i].Kind) {
		case classStrandLocal:
			strand := evs[i].Strand
			j := i + 1
			for j < len(evs) && classify(evs[j].Kind) == classStrandLocal && evs[j].Strand == strand {
				j++
			}
			shards[uint32(strand)%n].HandleBatch(evs[i:j])
			i = j
			continue
		case classBroadcast:
			for _, s := range shards {
				s.HandleBatch(evs[i : i+1])
			}
		}
		i++ // a single dropped or broadcast event
	}
}

// routeClass is an event kind's routing class (see Route).
type routeClass uint8

const (
	classStrandLocal routeClass = iota // to the strand's shard
	classBroadcast                     // to every shard
	classDropped                       // to no shard
)

func classify(k Kind) routeClass {
	switch k {
	case KindStore, KindFlush, KindFence, KindStrandBegin, KindStrandEnd:
		return classStrandLocal
	case KindJoinStrand, KindEnd:
		return classDropped
	default:
		return classBroadcast
	}
}

// ring is one bounded, double-buffered slab queue with its consumer
// goroutine delivering to a single handler.
type ring struct {
	h  Handler
	bh BatchHandler // non-nil when h implements the batch fast path

	// cur is the staging slab, full-length, or nil while the ring stages
	// nothing; n is the fill cursor (0 whenever cur is nil). Producers write
	// events in place at cur[n] (slot) so an event is stored exactly once,
	// with no intermediate copies.
	cur  []Event
	n    int
	full chan slabMsg // filled slabs and sync markers, FIFO to the consumer
	free chan []Event // recycled slabs
	done chan struct{}

	// slabs counts the slabs the ring has taken from the pool, at most
	// depth. Producer side only.
	slabs, depth int

	// lazy selects the deferred drain discipline; kick (buffered, capacity
	// 1) wakes the parked consumer when a drain is required.
	lazy bool
	kick chan struct{}

	closed bool

	// fail records a handler panic caught on the consumer goroutine. Once
	// set, the consumer stops delivering (the handler's internal state is
	// unknown) but keeps recycling slabs and closing sync markers, so the
	// producer, Sync and Close never block on a dead consumer. Written by
	// the consumer, read by anyone via Pipeline.Err.
	fail atomic.Pointer[string]
}

// slabMsg is one ring entry: a filled slab, a sync marker, or both.
type slabMsg struct {
	evs  []Event       // events to deliver (nil for a pure sync marker)
	sync chan struct{} // when non-nil, closed once all prior slabs drained
}

// eventSlabs holds DefaultBatchSize-event slabs for every ring and stream
// decoder in the process, so a short-lived pipeline reuses the slabs of one
// that closed instead of allocating (and faulting in) its own. It stores
// array pointers, which an interface holds without allocating.
var eventSlabs = sync.Pool{
	New: func() any { return new([DefaultBatchSize]Event) },
}

func getSlab() []Event { return eventSlabs.Get().(*[DefaultBatchSize]Event)[:] }

// putSlab returns a slab taken by getSlab; it must be full-length again.
func putSlab(s []Event) { eventSlabs.Put((*[DefaultBatchSize]Event)(s)) }

func newRing(h Handler, opts PipelineOptions) *ring {
	depth := opts.Depth
	if depth == 0 {
		depth = DefaultPipelineDepth
	}
	if depth < 2 {
		depth = 2
	}
	r := &ring{
		h: h,
		// Every slab the ring holds may wait in full at once, with the one
		// sync marker a ring can have in flight behind them.
		full:  make(chan slabMsg, depth+1),
		free:  make(chan []Event, depth), // every slab the ring holds
		done:  make(chan struct{}),
		depth: depth,
		lazy:  opts.Lazy,
		kick:  make(chan struct{}, 1),
	}
	if bh, ok := h.(BatchHandler); ok {
		r.bh = bh
	}
	go r.consume()
	return r
}

// slot hands out an in-place pointer to the next staging slot, shipping
// the previous slab first when it is full.
func (r *ring) slot() *Event {
	if r.closed {
		panic("trace: Pipeline used after Close")
	}
	if r.n == len(r.cur) {
		r.handoff()
	}
	s := &r.cur[r.n]
	r.n++
	return s
}

func (r *ring) HandleEvent(ev Event) { *r.slot() = ev }

func (r *ring) HandleBatch(evs []Event) {
	if r.closed {
		panic("trace: Pipeline used after Close")
	}
	for len(evs) > 0 {
		if r.n == len(r.cur) {
			r.handoff()
		}
		n := copy(r.cur[r.n:], evs)
		r.n += n
		evs = evs[n:]
	}
}

// handoff ships the full staging slab, if there is one, and takes the next:
// a recycled slab, else a pooled one while the ring holds fewer than depth,
// else the next slab the consumer recycles, blocking when the consumer is
// behind — the constant-memory backpressure. A ring out of slabs wakes a
// lazy consumer first, so backpressure degrades into concurrent draining
// rather than deadlock.
func (r *ring) handoff() {
	r.ship()
	select {
	case r.cur = <-r.free:
		return
	default:
	}
	if r.slabs < r.depth {
		r.slabs++
		r.cur = getSlab()
		return
	}
	r.wake() // every slab is queued or draining: the consumer must drain now
	r.cur = <-r.free
}

// ship hands the staged events, if any, to the consumer and leaves the ring
// without a staging slab. It never blocks: full has room for every slab the
// ring holds plus its one in-flight sync marker.
func (r *ring) ship() {
	if r.n == 0 {
		return
	}
	r.full <- slabMsg{evs: r.cur[:r.n]}
	r.cur, r.n = nil, 0
}

// release returns the ring's slabs to the pool. It runs once the consumer
// has exited, when every slab the ring took is back in its free list.
func (r *ring) release() {
	for len(r.free) > 0 {
		putSlab(<-r.free)
	}
	r.slabs = 0
}

// wake nudges a parked lazy consumer; it is a no-op when a wake is already
// pending or the ring is eager (an eager consumer never parks).
func (r *ring) wake() {
	if !r.lazy {
		return
	}
	select {
	case r.kick <- struct{}{}:
	default:
	}
}

// syncBegin ships the staged events and posts a sync marker behind them,
// returning the channel the consumer closes once every prior event has
// been delivered, without waiting. At most one marker may be in flight per
// ring (the producer side is externally serialized, so posting the next
// after receiving the previous preserves this). After close it returns a
// closed channel.
func (r *ring) syncBegin() <-chan struct{} {
	c := make(chan struct{})
	if r.closed {
		close(c)
		return c
	}
	r.ship()
	r.full <- slabMsg{sync: c}
	r.wake()
	return c
}

// closeBegin initiates the close and returns the channel that closes when
// the consumer has drained. Idempotent: a second call just returns the
// done channel.
func (r *ring) closeBegin() <-chan struct{} {
	if !r.closed {
		r.closed = true
		r.ship()
		close(r.full)
		r.wake()
	}
	return r.done
}

// consume is the ring's single consumer: it drains slabs in FIFO order,
// drives the handler's batch fast path, and recycles each slab into the
// free ring. A lazy consumer starts parked: slabs the producer stages
// before this goroutine is first scheduled wait for a demand like any
// others.
func (r *ring) consume() {
	defer close(r.done)
	if r.lazy {
		<-r.kick
	}
	for {
		msg, ok := r.next()
		if !ok {
			return
		}
		if msg.evs != nil {
			r.deliver(msg.evs)
			r.free <- msg.evs[:cap(msg.evs)] // restore full length for reuse
		}
		if msg.sync != nil {
			close(msg.sync)
		}
	}
}

// deliver runs the handler on one slab, catching handler panics so a buggy
// detector cannot wedge the ring: the slab is still recycled and sync
// markers still close, only delivery stops.
func (r *ring) deliver(evs []Event) {
	if r.fail.Load() != nil {
		return // poisoned: drop, keep the ring moving
	}
	defer func() {
		if v := recover(); v != nil {
			msg := fmt.Sprintf("%v", v)
			r.fail.Store(&msg)
		}
	}()
	if r.bh != nil {
		r.bh.HandleBatch(evs)
	} else {
		for _, ev := range evs {
			r.h.HandleEvent(ev)
		}
	}
}

// next returns the consumer's next message. An eager consumer blocks on the
// ring; a lazy one parks on the kick channel once the ring is drained, so it
// consumes no CPU until a drain is demanded. Wakers enqueue their demand
// (slab, marker, or channel close) before kicking, so a kick received here
// always finds it in the ring.
func (r *ring) next() (slabMsg, bool) {
	if !r.lazy {
		msg, ok := <-r.full
		return msg, ok
	}
	for {
		select {
		case msg, ok := <-r.full:
			return msg, ok
		default:
			<-r.kick // drained: park until the next demand
		}
	}
}

var _ BatchHandler = (*Pipeline)(nil)
