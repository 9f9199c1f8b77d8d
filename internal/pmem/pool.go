// Package pmem simulates byte-addressable persistent memory with an
// instrumented access API.
//
// It is the substitution for the paper's combination of Intel Optane DCPMM
// and Valgrind instrumentation: PM programs written against this package
// perform explicit Store/Flush/Fence operations on a simulated pool, and the
// pool emits one trace.Event per operation to registered handlers — exactly
// the callback stream Valgrind delivers to PMDebugger and Pmemcheck.
//
// Beyond event emission, the pool models crash semantics with a 64-byte
// cache-line state machine: stores land in a volatile image, cache-line
// flushes stage line snapshots, and fences commit staged lines to the
// persistent image. Crash() materializes what a real power failure would
// leave behind, which is what the cross-failure detector and the recovery
// examples exercise.
package pmem

import (
	"bytes"
	"fmt"
	"sort"
	"sync"

	"pmdebugger/internal/intervals"
	"pmdebugger/internal/trace"
)

// LineSize is the modeled cache-line size in bytes.
const LineSize = intervals.CacheLineSize

// lineState tracks where a cache line's latest bytes live.
type lineState uint8

const (
	lineClean        lineState = iota // volatile == persistent
	lineDirty                         // stores not yet flushed
	linePending                       // flushed, awaiting fence
	lineDirtyPending                  // flushed, then stored to again
)

// DefaultBase is the base address of a pool's simulated address space. A
// non-zero base catches detectors that confuse offsets with addresses.
const DefaultBase = 0x1000_0000

// Pool is a simulated persistent memory pool.
//
// All operations are serialized by an internal mutex, so multi-threaded
// workloads observe a single total order of instrumented instructions — the
// same serialization Valgrind imposes on the paper's detectors.
type Pool struct {
	mu   sync.Mutex
	base uint64
	size uint64

	// volatile and persist are the two pool images as two-level
	// copy-on-write page tables (see page.go): root directories of
	// refcounted chunkSlots-page chunks, where volatile is what loads
	// observe and persist is what survives a crash. A nil directory entry
	// is an all-zero 2 MiB span and a nil chunk slot an all-zero page.
	// Chunks and pages are both shared between pools (Crash snapshots alias
	// their parent's persistent chunks wholesale) and every write path
	// materializes private chunks/pages on demand.
	volatile []*pageChunk
	persist  []*pageChunk
	// muts holds each page's mutable shadow — cache-line states and
	// flush-staged line snapshots — behind the same two-level directory
	// shape, allocated lazily on the first store or flush touching the page.
	// Fork shares mut chunks and muts copy-on-write (mutFor unshares before
	// writes); Crash images never inherit them.
	muts []*mutChunk
	// npages is the page count covering size: the authoritative table
	// length in pages (len(p.persist) is the directory length in chunks).
	npages int

	// pendingLines lists line indexes in state linePending or
	// lineDirtyPending so fences commit in O(pending) rather than scanning
	// the whole pool.
	pendingLines []uint64
	// dirtyLineCount and pendingLineCount are DirtyLines/PendingLines
	// maintained incrementally at every line-state transition, replacing
	// the full line scan the queries used to run.
	dirtyLineCount   int
	pendingLineCount int

	// fpTop, superOK and topHash/topOK cache the fingerprint's pool-level
	// Merkle levels; the levels below live on the shared chunks and pages
	// (see page.go). fpTop is the top hash's preimage — base and size, one
	// super hash per superChunks directory entries (32 MiB), the names
	// digest — and superOK flags its current super hashes. persistWritable
	// makes the covering super and the top hash stale. Allocated on first
	// Fingerprint; Crash and Fork hand them down to the clone (33 bytes
	// per 32 MiB), whose shared chunks carry the rest.
	fpTop   []byte
	superOK []bool
	topHash [32]byte
	topOK   bool

	// sortedNames and namesHash cache the named-region table's sort order
	// and content hash for Fingerprint and region replay; RegisterNamed
	// invalidates both.
	sortedNames []string
	namesHash   [32]byte
	namesHashOK bool

	// pageZero/pageShared/pagePrivate are the PageStats composition
	// counters, maintained incrementally (page materialization and
	// copy-before-write in persistWritable, wholesale reclassification in
	// cloneLocked/Crash/ReadImage) so the query is O(1) instead of
	// an O(table) scan per image. Their sum is always npages. "Shared" is
	// exact at image birth and under this pool's own operations, and drifts
	// conservatively (over-reporting shared, never private) when a related
	// pool's writes or Release drop the last remote reference to a chunk —
	// scanPageStats is the structural reference tests compare against.
	pageZero    int
	pageShared  int
	pagePrivate int

	handlers trace.MultiHandler
	// conduits tracks the pipelines created by asynchronous attaches (they
	// also appear in handlers). The pool drains them at every point where
	// handler state becomes observable: crash traps, crash images, event
	// counts, detach and program end. For a routed pipeline the drain is a
	// barrier across every shard, so drain-before-trap covers every shard.
	conduits []*trace.Pipeline
	// lone is the one attached handler while no crash trap is armed, else
	// nil. The pool hands it every event directly, the store, flush and
	// fence emitters building it at the call, instead of through the
	// fan-out, whose copy of the event stalls a store-to-load forward.
	lone trace.Handler
	seq  uint64
	// trapAfter, when non-zero, makes the pool panic with CrashTrap once
	// seq reaches it — the injection point for systematic crash testing
	// (package crashtest).
	trapAfter uint64

	// session is the context holding an open Begin/End lock session, nil
	// otherwise. The crash-trap unwind consults it: a trap that fires inside
	// a session must release the pool mutex itself, because the session's
	// End — the only place the mutex is normally released — is skipped by
	// the panic.
	session *Ctx

	alloc allocator
	names map[string]intervals.Range
	stats Stats

	epochDepth int
	epochID    int32
	strandSeq  int32
}

// New creates a pool of the given size (rounded up to a whole number of
// cache lines) based at DefaultBase.
func New(size uint64) *Pool {
	size = (size + LineSize - 1) &^ uint64(LineSize-1)
	np := npagesFor(size)
	nc := nchunksFor(np)
	p := &Pool{
		base:     DefaultBase,
		size:     size,
		volatile: make([]*pageChunk, nc),
		persist:  make([]*pageChunk, nc),
		muts:     make([]*mutChunk, nc),
		npages:   np,
		pageZero: np,
		names:    map[string]intervals.Range{},
	}
	p.alloc.init(p.base, size)
	return p
}

// Size returns the pool size in bytes.
func (p *Pool) Size() uint64 { return p.size }

// Base returns the pool's base address.
func (p *Pool) Base() uint64 { return p.base }

// Range returns the pool's full address range.
func (p *Pool) Range() intervals.Range { return intervals.R(p.base, p.Size()) }

// AttachOptions configures AttachWith.
type AttachOptions struct {
	// Async routes the instruction stream to the handler through a
	// trace.Pipeline: the emitting thread only stages the event into a
	// slab, and the handler runs on the pipeline's consumer goroutine,
	// which drains slabs as they arrive. The pool drains the pipeline
	// before every state observation (crash traps, crash images,
	// EventCount, Detach, program End), so reports are byte-identical to
	// inline delivery. Synchronous delivery remains the default.
	Async bool
	// Shards, with Async, fans delivery out across per-strand detector
	// shards: when the handler implements trace.Sharder and advertises at
	// least 2 shard handlers, the pipeline routes by strand across one
	// eager ring and consumer goroutine per shard, each ring holding
	// trace.DefaultPipelineDepth slabs. Handlers that cannot shard —
	// including a core.ShardedDetector whose configuration is not
	// core.Shardable — fall back to a single-consumer pipeline, and the
	// fallback is counted in Stats.ShardedFallbacks so it is never silent.
	// Shards <= 1 means no fan-out.
	Shards int
}

// Attach registers a handler to receive the pool's instruction stream and
// immediately emits a Register event covering the whole pool, mirroring
// Register_pmem embedded in mmap (§6). Handlers attached later miss earlier
// events, so attach before running the workload.
func (p *Pool) Attach(h trace.Handler) {
	p.AttachWith(h, AttachOptions{})
}

// AttachAsync registers a handler behind a trace.Pipeline so detection runs
// off the emitting thread, and returns the pipeline. Detach(h) drains and
// stops the pipeline; Sync drains it on demand.
func (p *Pool) AttachAsync(h trace.Handler) *trace.Pipeline {
	return p.AttachWith(h, AttachOptions{Async: true})
}

// AttachWith registers a handler with explicit options and returns the
// created pipeline for asynchronous attaches (nil otherwise).
func (p *Pool) AttachWith(h trace.Handler, opts AttachOptions) *trace.Pipeline {
	p.mu.Lock()
	defer p.mu.Unlock()
	target := h
	var pipe *trace.Pipeline
	if opts.Async {
		var popts trace.PipelineOptions
		if sh, ok := h.(trace.Sharder); ok && opts.Shards > 1 {
			popts.Shards = sh.ShardHandlers()
		}
		pipe = trace.NewPipeline(h, popts)
		if opts.Shards > 1 {
			p.stats.ShardedAttaches++
			if pipe.Shards() == 1 {
				p.stats.ShardedFallbacks++
			}
		}
		p.conduits = append(p.conduits, pipe)
		target = pipe
	}
	p.handlers = append(p.handlers, target)
	p.refreshFastPathLocked() // before the Register, which every handler gets
	p.emitLocked(trace.Event{
		Kind: trace.KindRegister,
		Addr: p.base,
		Size: p.Size(),
	})
	return pipe
}

// refreshFastPathLocked recomputes lone: set only when exactly one handler
// is attached and no crash trap is armed, so emitLocked keeps handling
// fan-out and trap delivery. Callers hold p.mu.
func (p *Pool) refreshFastPathLocked() {
	p.lone = nil
	if p.trapAfter == 0 && len(p.handlers) == 1 {
		p.lone = p.handlers[0]
	}
}

// Detach removes a previously attached handler, identified either directly
// or — for asynchronous attaches — by the handler behind the pipeline (or
// the pipeline itself). Detaching an asynchronous handler drains its
// pipeline and stops the consumer goroutine, so the handler has seen every
// event emitted before the call when Detach returns.
func (p *Pool) Detach(h trace.Handler) {
	p.mu.Lock()
	defer p.mu.Unlock()
	target := h
	for _, c := range p.conduits {
		if c.Handler() == h {
			target = c
			break
		}
	}
	for i, cur := range p.handlers {
		if cur == target {
			p.handlers = append(p.handlers[:i], p.handlers[i+1:]...)
			break
		}
	}
	p.refreshFastPathLocked()
	for i, cur := range p.conduits {
		if cur == target {
			p.conduits = append(p.conduits[:i], p.conduits[i+1:]...)
			cur.Close()
			return
		}
	}
}

// CrashTrap is the panic value raised when a crash trap fires; crash-test
// harnesses recover it and take the pool's crash image. Every pool
// operation releases its locks via defer, so the pool remains usable after
// the unwind.
type CrashTrap struct {
	// Seq is the sequence number of the event the crash lands on.
	Seq uint64
}

// SetCrashTrap arranges for the pool to panic with CrashTrap when the n-th
// event is emitted (0 disables). The trapped event is still delivered to
// handlers first: the instruction executed, then the power failed.
func (p *Pool) SetCrashTrap(n uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.trapAfter = n
	p.refreshFastPathLocked()
}

// emitLocked assigns a sequence number and hands the event to the lone
// handler, else fans it out and fires an armed trap. Callers hold p.mu.
func (p *Pool) emitLocked(ev trace.Event) {
	p.seq++
	ev.Seq = p.seq
	if h := p.lone; h != nil {
		h.HandleEvent(ev) // no trap is armed
		return
	}
	p.handlers.HandleEvent(ev)
	if p.trapAfter != 0 && p.seq >= p.trapAfter {
		p.trapAfter = 0
		p.refreshFastPathLocked()
		// Drain asynchronous handlers before the unwind: the trapped
		// event executed, then the power failed, and every detector must
		// have seen the full stream up to and including it.
		p.syncLocked()
		if s := p.session; s != nil {
			// The trap is unwinding through an open Begin/End lock
			// session. The per-operation deferred unlocks are session
			// no-ops and the session's End is skipped by the panic, so
			// the mutex must be released here or the harness's next pool
			// call (typically Crash) deadlocks. The session context is
			// marked broken: a deferred End on the unwind path becomes a
			// no-op instead of a double unlock.
			p.session = nil
			s.broken = true
			p.mu.Unlock()
		}
		panic(CrashTrap{Seq: ev.Seq})
	}
}

// syncLocked drains every attached pipeline so asynchronous handlers have
// consumed all events emitted so far — for a routed pipeline this is a
// barrier across every shard, so crash traps and program end wait on every
// shard.
// Callers hold p.mu; pipeline consumers never re-enter the pool, so
// waiting under the lock cannot deadlock.
func (p *Pool) syncLocked() {
	for _, c := range p.conduits {
		c.Sync()
	}
}

// Sync blocks until every asynchronously attached handler has consumed all
// events emitted before the call. It is a no-op for synchronous handlers.
func (p *Pool) Sync() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.syncLocked()
}

// EventCount returns the number of events emitted so far. Asynchronous
// handlers are drained first, so the count doubles as a delivery barrier:
// after EventCount returns, every detector has seen that many events.
func (p *Pool) EventCount() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.syncLocked()
	return p.seq
}

// checkRange panics when [addr, addr+size) escapes the pool: out-of-pool
// accesses are bugs in the workload harness, not in the program under test.
func (p *Pool) checkRange(addr, size uint64) {
	if addr < p.base || addr+size > p.base+p.Size() || addr+size < addr {
		panic(fmt.Sprintf("pmem: access [%#x,+%d) outside pool [%#x,+%d)",
			addr, size, p.base, p.Size()))
	}
}

// off converts a pool address to an image offset.
func (p *Pool) off(addr uint64) uint64 { return addr - p.base }

// storeLocked writes data at addr in the volatile image, updates line
// states, and emits a Store event.
func (p *Pool) storeLocked(addr uint64, data []byte, strand, thread int32, site trace.SiteID) {
	size := uint64(len(data))
	p.checkRange(addr, size)
	p.writeVolatile(p.off(addr), data)
	p.storeTailLocked(addr, size, strand, thread, site)
}

// markStoredLines runs the store transition of the line state machine over
// lines [first, last], maintaining the incremental dirty/pending counters.
func (p *Pool) markStoredLines(first, last uint64) {
	for l := first; l <= last; l++ {
		m := p.mutFor(int(l >> lineShift))
		switch li := l & lineMask; m.state[li] {
		case lineClean:
			m.state[li] = lineDirty
			p.dirtyLineCount++
		case linePending:
			m.state[li] = lineDirtyPending
			p.dirtyLineCount++
		}
	}
}

// stageLines runs the flush transition over lines [first, last]: dirty lines
// get their volatile bytes staged for the next fence. It reports whether the
// pending set or any staged content changed — the signal
// persistency-relevant crash-point pruning keys on (a newly staged line
// always counts: even when its bytes equal the persistent image it shifts
// the per-line coin assignment of CrashRandomPending).
func (p *Pool) stageLines(first, last uint64) (changed bool) {
	for l := first; l <= last; l++ {
		pi := int(l >> lineShift)
		m := p.mutAt(pi)
		if m == nil {
			continue // whole page clean
		}
		li := l & lineMask
		lo := li * LineSize
		switch m.state[li] {
		case lineDirty:
			m = p.mutFor(pi) // unshare before staging into the mut
			copy(m.pending[lo:lo+LineSize], p.volatileLine(l))
			m.state[li] = linePending
			p.pendingLines = append(p.pendingLines, l)
			p.dirtyLineCount--
			p.pendingLineCount++
			changed = true
		case lineDirtyPending:
			// Restaging keeps the pending set intact: only a content
			// difference can alter a crash image.
			m = p.mutFor(pi)
			v := p.volatileLine(l)
			if !bytes.Equal(m.pending[lo:lo+LineSize], v) {
				changed = true
				copy(m.pending[lo:lo+LineSize], v)
			}
			m.state[li] = linePending
			p.dirtyLineCount--
		}
	}
	return changed
}

// commitPending runs the fence transition over every staged line, copying
// staged snapshots into the persistent image (copy-before-write on shared
// pages). It reports whether any committed line's bytes differed from the
// persistent image — false for a fence that re-commits identical bytes,
// where dropping and applying coincide for every crash policy and seed.
func (p *Pool) commitPending() (changed bool) {
	for _, l := range p.pendingLines {
		pi := int(l >> lineShift)
		m := p.mutAt(pi)
		li := l & lineMask
		st := m.state[li]
		if st != linePending && st != lineDirtyPending {
			continue
		}
		m = p.mutFor(pi) // the state write below needs private ownership
		lo := li * LineSize
		staged := m.pending[lo : lo+LineSize]
		if !bytes.Equal(p.persistLine(l), staged) {
			changed = true
			copy(p.persistWritable(l).data[lo:lo+LineSize], staged)
		}
		if st == linePending {
			m.state[li] = lineClean
		} else {
			m.state[li] = lineDirty
		}
		p.pendingLineCount--
		p.stats.LinesCommitted++
	}
	p.pendingLines = p.pendingLines[:0]
	return changed
}

// storeTailLocked is the store bookkeeping shared by the byte-slice and
// scalar store paths: statistics, cache-line dirtying, and the Store event.
// The caller has already written the data into the volatile image.
func (p *Pool) storeTailLocked(addr, size uint64, strand, thread int32, site trace.SiteID) {
	p.stats.Stores++
	p.stats.BytesStored += size
	p.markStoredLines(p.off(addr)/LineSize, p.off(addr+size-1)/LineSize)
	if h := p.lone; h != nil {
		p.seq++
		h.HandleEvent(trace.Event{
			Seq: p.seq, Kind: trace.KindStore, Addr: addr, Size: size,
			Strand: strand, Thread: thread, Site: site,
		})
		return
	}
	p.emitLocked(trace.Event{
		Kind: trace.KindStore, Addr: addr, Size: size,
		Strand: strand, Thread: thread, Site: site,
	})
}

// flushLocked stages the cache lines covering [addr, addr+size) and emits a
// Flush event for the line-aligned span. Following the hardware, a CLWB of
// any byte writes back the whole line.
func (p *Pool) flushLocked(addr, size uint64, kind trace.FlushKind, strand, thread int32, site trace.SiteID) {
	p.checkRange(addr, size)
	p.stats.Flushes++
	span := intervals.SpanLines(intervals.R(addr, size))
	p.stageLines(p.off(span.Addr)/LineSize, p.off(span.End()-1)/LineSize)
	if h := p.lone; h != nil {
		p.seq++
		h.HandleEvent(trace.Event{
			Seq: p.seq, Kind: trace.KindFlush, Flush: kind,
			Addr: span.Addr, Size: span.Size,
			Strand: strand, Thread: thread, Site: site,
		})
		return
	}
	p.emitLocked(trace.Event{
		Kind: trace.KindFlush, Flush: kind,
		Addr: span.Addr, Size: span.Size,
		Strand: strand, Thread: thread, Site: site,
	})
}

// fenceLocked commits all staged lines to the persistent image and emits a
// Fence event.
func (p *Pool) fenceLocked(strand, thread int32) {
	p.stats.Fences++
	p.commitPending()
	if h := p.lone; h != nil {
		p.seq++
		h.HandleEvent(trace.Event{Seq: p.seq, Kind: trace.KindFence, Strand: strand, Thread: thread})
		return
	}
	p.emitLocked(trace.Event{Kind: trace.KindFence, Strand: strand, Thread: thread})
}

// RegisterNamed names an address range so bug rules (the order-guarantee
// configuration file, §4.5) can refer to program variables symbolically. The
// name is interned as the Register event's site.
func (p *Pool) RegisterNamed(name string, addr, size uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.checkRange(addr, size)
	p.names[name] = intervals.R(addr, size)
	p.invalidateNamesLocked()
	p.emitLocked(trace.Event{
		Kind: trace.KindRegister, Addr: addr, Size: size,
		Site: trace.RegisterSite(name),
	})
}

// NamedRange resolves a name registered with RegisterNamed.
func (p *Pool) NamedRange(name string) (intervals.Range, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	r, ok := p.names[name]
	return r, ok
}

// sortedNamesLocked returns the named-region table's names in sorted order,
// caching the slice between RegisterNamed calls. Callers hold p.mu and must
// not mutate the result.
func (p *Pool) sortedNamesLocked() []string {
	if p.sortedNames == nil {
		names := make([]string, 0, len(p.names))
		for name := range p.names {
			names = append(names, name)
		}
		sort.Strings(names)
		p.sortedNames = names
	}
	return p.sortedNames
}

// invalidateNamesLocked drops the sorted-order and hash caches, and the
// fingerprint's top hash, after a named-region change. Callers hold p.mu.
func (p *Pool) invalidateNamesLocked() {
	p.sortedNames = nil
	p.namesHashOK = false
	p.topOK = false
}

// End signals the end of the program under test. Detectors run their final
// checks (no-durability rule) on this event. Asynchronous handlers are
// drained before End returns, so a Report taken afterwards reflects the
// complete stream.
func (p *Pool) End() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.emitLocked(trace.Event{Kind: trace.KindEnd})
	p.syncLocked()
}

// Load copies size bytes at addr from the volatile image.
func (p *Pool) Load(addr, size uint64) []byte {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.checkRange(addr, size)
	out := make([]byte, size)
	p.readVolatile(p.off(addr), out)
	return out
}

// LoadInto copies len(dst) bytes at addr into dst without allocating.
func (p *Pool) LoadInto(addr uint64, dst []byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.checkRange(addr, uint64(len(dst)))
	p.readVolatile(p.off(addr), dst)
}
