package pmem

// Fork returns a full-volatile-state copy-on-write clone of the pool.
//
// Where Crash materializes what a power failure leaves behind — persistent
// bytes only, all lines clean, allocator reset — Fork clones the *running*
// machine: both images, the cache-line state machine, the staged pending
// set, the allocator, the named-region table, and the warm Merkle caches
// all carry over, so the fork can keep applying journal events (or live
// operations) exactly as the parent would have. The segment-parallel crash
// explorer (internal/crashtest) forks one replayer per segment this way and
// lets each fork replay only its own slice of the journal.
//
// The clone is O(dirty) like Crash: every level of the two page tables and
// the mut table is shared by retaining the root directories' chunks (one
// pointer copy plus one refcount bump per 2 MiB of address space), and
// either side's subsequent writes duplicate shared chunks, pages, and muts
// before modifying them (writableChunk / volatileWritable / persistWritable
// / mutFor). Concurrent forks of one parent are safe: refcounts are atomic
// and shared objects are immutable while shared.
//
// Handlers, conduits, and crash traps do not carry over — a fork starts
// silent, like a pool driven purely by ApplyRecorded. Asynchronous handlers
// on the parent are drained first so the fork reflects every event emitted
// before the call.
func (p *Pool) Fork() *Pool {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.syncLocked()

	n := p.cloneLocked()
	shareChunks(n.volatile, p.volatile)
	copy(n.muts, p.muts)
	for _, mc := range n.muts {
		if mc != nil {
			mc.retain()
		}
	}

	// Line-state machine: the pending set and the incremental counters are
	// plain values; the per-line states themselves live in the shared muts.
	n.pendingLines = append([]uint64(nil), p.pendingLines...)
	n.dirtyLineCount = p.dirtyLineCount
	n.pendingLineCount = p.pendingLineCount

	n.alloc.cloneFrom(&p.alloc)
	n.stats = p.stats

	// Replay position and modeled program state: a fork resumes the event
	// stream where the parent stood.
	n.seq = p.seq
	n.epochDepth = p.epochDepth
	n.epochID = p.epochID
	n.strandSeq = p.strandSeq
	return n
}
