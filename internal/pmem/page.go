package pmem

import (
	"crypto/sha256"
	"sync"
	"sync/atomic"
)

// The pool's two byte images (volatile and persistent) are stored as
// two-level page tables shared copy-on-write between pools: a root directory
// of fixed-size table *chunks* (chunkSlots page slots each, covering 2 MiB
// of address space), where both the 4 KiB pages and the chunks themselves
// are refcounted and duplicated lazily on write. This is what makes
// crash-image materialization O(dirty) in bytes *and* table slots: Crash
// clones only the root directory (one pointer copy plus one refcount bump
// per chunk — O(pool/2MiB), effectively constant at realistic sizes), and a
// chunk is unshared only when a write lands in it while shared. A nil
// directory entry stands for an all-zero chunk and a nil chunk slot for an
// all-zero page, so untouched spans of a large pool cost nothing in any
// pool.
//
// Sharing discipline, by level:
//
//   - A chunk's refcount counts the root-directory slots (across all pools,
//     volatile and persistent directories alike) that reference it. Every
//     table-slot write goes through writableChunk, which duplicates the
//     chunk (retaining its pages) when the refcount exceeds one, so a
//     shared chunk's pages array is immutable for as long as it is shared —
//     concurrent pools may walk it without locks.
//   - A page's refcount counts the chunk slots that reference it. A page is
//     written in place only when its chunk is privately owned AND its own
//     refcount is one; chunk duplication retains every page it copies, so
//     the page-level copy-before-write check in volatileWritable/
//     persistWritable still sees an accurate count after the chunk unshares.
//   - The mut table (per-page line states + flush staging) follows the same
//     two-level discipline: Pool.Fork shares mut chunks and muts wholesale,
//     and mutFor unshares chunk-then-mut before any line-state or staging
//     write. Crash images never share muts (a fresh image has no mutable
//     state), so only forks pay the mut copy-on-write checks.
//
// Refcount operations are atomic because distinct pools run under distinct
// mutexes; the release path that recycles a dying chunk or page runs only
// when the last reference goes away, at which point no other pool can reach
// it.
const (
	// PageShift is log2 of PageSize.
	PageShift = 12
	// PageSize is the page-level copy-on-write sharing granularity of pool
	// images.
	PageSize = 1 << PageShift

	pageMask     = PageSize - 1
	linesPerPage = PageSize / LineSize
	lineShift    = 6 // log2(linesPerPage): line index -> page index
	lineMask     = linesPerPage - 1

	// chunkShift is log2 of chunkSlots.
	chunkShift = 9
	// chunkSlots is the page-table chunk size: the chunk-level copy-on-write
	// sharing granularity. 512 slots cover 2 MiB of address space, so a
	// 1 GiB pool has a 512-entry root directory — the only thing Crash
	// copies eagerly.
	chunkSlots = 1 << chunkShift
	chunkMask  = chunkSlots - 1

	// groupPages is the fan-in of the fingerprint's lower-middle Merkle
	// level: one cached group hash covers this many per-page hashes, so an
	// unchanged 512 KiB span costs nothing per Fingerprint call.
	// It divides chunkSlots, so a hash group never straddles chunks.
	groupPages = 128

	// superGroups is the fan-in of the upper-middle Merkle level: one
	// cached super hash covers this many group hashes (32 MiB of address
	// space), and the top hash reads only the super level — so Fingerprint
	// on a big pool costs O(dirty pages + pool/32MiB), not O(pool/512KiB).
	superGroups = 64
)

// page is one copy-on-write unit of a pool image, plus its cached content
// hash (the fingerprint's leaf level). The hash travels with the page: two
// pools sharing a page also share the work of hashing it.
type page struct {
	refs int32 // atomic: chunk slots referencing this page

	// hashMu guards hash/hashOK. Concurrent Fingerprint calls on pools
	// sharing the page serialize here; in-place writes (which require
	// refs==1, hence no concurrent reader) invalidate hashOK.
	hashMu sync.Mutex
	hashOK bool
	hash   [32]byte

	data [PageSize]byte
}

// pageChunk is one copy-on-write unit of a page table: chunkSlots
// consecutive page slots shared between root directories. A chunk's pages
// array is mutated only while the chunk is privately owned (refs == 1).
type pageChunk struct {
	refs  int32 // atomic: root-directory slots referencing this chunk
	pages [chunkSlots]*page
}

// pageMut is the lazily allocated mutable shadow of one page: the cache-line
// state machine and the flush-staged line snapshots. Pools allocate one per
// page actually stored to or flushed, so a mostly-clean pool (a fresh crash
// image, say) carries no per-byte mutable state at all. Muts follow the same
// copy-on-write discipline as pages: Fork shares them between parent and
// fork via refcounts, and mutFor duplicates a shared mut before any state or
// staging write (Crash never shares muts — images start with all lines
// clean).
type pageMut struct {
	refs    int32 // atomic: mut-chunk slots referencing this mut
	state   [linesPerPage]lineState
	pending [PageSize]byte
}

// mutChunk is the directory unit of the mut table, mirroring pageChunk so a
// fresh pool's mut directory is O(pool/2MiB) nil pointers. Like pageChunk,
// mut chunks are refcounted and shared between a pool and its forks; a
// chunk's muts array is mutated only while the chunk is privately owned.
type mutChunk struct {
	refs int32 // atomic: mut-directory slots referencing this chunk
	muts [chunkSlots]*pageMut
}

var (
	pagePool     = sync.Pool{New: func() any { return new(page) }}
	chunkPool    = sync.Pool{New: func() any { return new(pageChunk) }}
	mutPool      = sync.Pool{New: func() any { return new(pageMut) }}
	mutChunkPool = sync.Pool{New: func() any { return new(mutChunk) }}

	zeroPage [PageSize]byte // read-only zero bytes for nil-page reads

	zeroPageHashOnce sync.Once
	zeroPageHashVal  [32]byte
)

// newPage returns a zeroed page with refcount 1.
func newPage() *page {
	pg := pagePool.Get().(*page)
	pg.refs = 1
	pg.hashOK = false
	pg.data = [PageSize]byte{}
	return pg
}

// newPageCopy returns a private copy of src with refcount 1. The hash cache
// is not carried over: copies exist to be written to.
func newPageCopy(src *page) *page {
	pg := pagePool.Get().(*page)
	pg.refs = 1
	pg.hashOK = false
	pg.data = src.data
	return pg
}

// retain adds one chunk-slot reference.
func (pg *page) retain() { atomic.AddInt32(&pg.refs, 1) }

// release drops one chunk-slot reference, recycling the page through the
// shared page pool when the last reference goes away.
func (pg *page) release() {
	if atomic.AddInt32(&pg.refs, -1) == 0 {
		pagePool.Put(pg)
	}
}

// shared reports whether the page is referenced by more than one chunk slot.
func (pg *page) shared() bool { return atomic.LoadInt32(&pg.refs) > 1 }

// contentHash returns the page's SHA-256, computing and caching it on first
// use. Safe to call from multiple pools sharing the page.
func (pg *page) contentHash() [32]byte {
	pg.hashMu.Lock()
	if !pg.hashOK {
		pg.hash = sha256.Sum256(pg.data[:])
		pg.hashOK = true
	}
	h := pg.hash
	pg.hashMu.Unlock()
	return h
}

// invalidateHash marks the cached hash stale. Callers hold the owning
// pool's mutex and the page privately (refs==1), so no Fingerprint can be
// reading concurrently; the mutex is still taken to order the write against
// a hash computed while the page was previously shared.
func (pg *page) invalidateHash() {
	pg.hashMu.Lock()
	pg.hashOK = false
	pg.hashMu.Unlock()
}

// zeroPageHash is the cached SHA-256 of an all-zero page — the leaf hash of
// every nil table entry.
func zeroPageHash() [32]byte {
	zeroPageHashOnce.Do(func() { zeroPageHashVal = sha256.Sum256(zeroPage[:]) })
	return zeroPageHashVal
}

// newChunk returns an all-nil chunk with refcount 1. Recycled chunks come
// back clean: release nils every slot before handing the chunk to the pool.
func newChunk() *pageChunk {
	ch := chunkPool.Get().(*pageChunk)
	ch.refs = 1
	return ch
}

// newChunkCopy returns a private duplicate of src with refcount 1, retaining
// every page it copies. The retains happen before the caller drops its
// reference to src, so no page's count can touch zero mid-duplication even
// while other pools release the same chunk concurrently.
func newChunkCopy(src *pageChunk) *pageChunk {
	ch := chunkPool.Get().(*pageChunk)
	ch.refs = 1
	ch.pages = src.pages
	for _, pg := range ch.pages {
		if pg != nil {
			pg.retain()
		}
	}
	return ch
}

// retain adds one root-directory reference.
func (ch *pageChunk) retain() { atomic.AddInt32(&ch.refs, 1) }

// release drops one root-directory reference. The last release drops every
// page the chunk holds and recycles the cleaned chunk through the shared
// chunk pool — only dying chunks pay the slot scan, so disposing of a
// snapshot that stayed shared is O(1) per chunk.
func (ch *pageChunk) release() {
	if atomic.AddInt32(&ch.refs, -1) == 0 {
		for i, pg := range ch.pages {
			if pg != nil {
				pg.release()
				ch.pages[i] = nil
			}
		}
		chunkPool.Put(ch)
	}
}

// shared reports whether the chunk is referenced by more than one directory
// slot.
func (ch *pageChunk) shared() bool { return atomic.LoadInt32(&ch.refs) > 1 }

// shareChunks makes directory dst alias src chunk for chunk, retaining every
// chunk it copies: the O(pool/2MiB) step that shares a whole image between
// two directories.
func shareChunks(dst, src []*pageChunk) {
	copy(dst, src)
	for _, ch := range dst {
		if ch != nil {
			ch.retain()
		}
	}
}

// newPageMut returns a mut with all lines clean and refcount 1. The pending
// area is not cleared: its bytes are only ever read after being staged by a
// flush.
func newPageMut() *pageMut {
	m := mutPool.Get().(*pageMut)
	m.refs = 1
	m.state = [linesPerPage]lineState{}
	return m
}

// newPageMutCopy returns a private copy of src with refcount 1. Both the
// line states and the staged pending bytes are copied: a fork and its parent
// must restage and commit independently.
func newPageMutCopy(src *pageMut) *pageMut {
	m := mutPool.Get().(*pageMut)
	m.refs = 1
	m.state = src.state
	m.pending = src.pending
	return m
}

// retain adds one mut-chunk-slot reference.
func (m *pageMut) retain() { atomic.AddInt32(&m.refs, 1) }

// release drops one mut-chunk-slot reference, recycling the mut when the
// last reference goes away.
func (m *pageMut) release() {
	if atomic.AddInt32(&m.refs, -1) == 0 {
		mutPool.Put(m)
	}
}

// shared reports whether the mut is referenced by more than one chunk slot.
func (m *pageMut) shared() bool { return atomic.LoadInt32(&m.refs) > 1 }

// newMutChunk returns an all-nil mut chunk with refcount 1. Recycled chunks
// come back clean: release nils every slot before pooling the chunk.
func newMutChunk() *mutChunk {
	mc := mutChunkPool.Get().(*mutChunk)
	mc.refs = 1
	return mc
}

// newMutChunkCopy returns a private duplicate of src with refcount 1,
// retaining every mut it copies — the retains happen before the caller drops
// its reference to src, so no mut's count can touch zero mid-duplication
// even while other pools release the same chunk concurrently (the same
// protocol as newChunkCopy).
func newMutChunkCopy(src *mutChunk) *mutChunk {
	mc := mutChunkPool.Get().(*mutChunk)
	mc.refs = 1
	mc.muts = src.muts
	for _, m := range mc.muts {
		if m != nil {
			m.retain()
		}
	}
	return mc
}

// retain adds one mut-directory reference.
func (mc *mutChunk) retain() { atomic.AddInt32(&mc.refs, 1) }

// release drops one mut-directory reference. The last release drops every
// mut the chunk holds and recycles the cleaned chunk — only dying chunks pay
// the slot scan.
func (mc *mutChunk) release() {
	if atomic.AddInt32(&mc.refs, -1) == 0 {
		for i, m := range mc.muts {
			if m != nil {
				m.release()
				mc.muts[i] = nil
			}
		}
		mutChunkPool.Put(mc)
	}
}

// shared reports whether the mut chunk is referenced by more than one
// directory slot.
func (mc *mutChunk) shared() bool { return atomic.LoadInt32(&mc.refs) > 1 }

// tableSet bundles the three per-pool root directories so Release can
// recycle them as a unit. Directories are O(pool/2MiB) — tiny — but crash
// images are made and discarded at explorer rates, so even those stay off
// the allocator.
type tableSet struct {
	volatile, persist []*pageChunk
	muts              []*mutChunk
}

var tableSetPool sync.Pool

// newTables returns three all-nil nc-length root directories, reusing a
// released set when one of sufficient capacity is available (Release nils
// every entry, so recycled directories come back clean).
func newTables(nc int) tableSet {
	if v := tableSetPool.Get(); v != nil {
		t := v.(*tableSet)
		if cap(t.volatile) >= nc {
			return tableSet{t.volatile[:nc], t.persist[:nc], t.muts[:nc]}
		}
	}
	return tableSet{make([]*pageChunk, nc), make([]*pageChunk, nc), make([]*mutChunk, nc)}
}

// npagesFor returns the page count covering size bytes.
func npagesFor(size uint64) int { return int((size + PageSize - 1) >> PageShift) }

// nchunksFor returns the root-directory length covering np pages.
func nchunksFor(np int) int { return (np + chunkSlots - 1) >> chunkShift }

// pageAt returns the page at table index pi, nil for a zero page (absent
// chunk or absent slot). Callers hold the owning pool's mutex; the chunk may
// be shared, which is fine for reads.
func pageAt(t []*pageChunk, pi int) *page {
	if ch := t[pi>>chunkShift]; ch != nil {
		return ch.pages[pi&chunkMask]
	}
	return nil
}

// writableChunk returns a privately owned chunk at directory slot ci of t,
// materializing an absent chunk or duplicating a shared one (retaining its
// pages) first. Callers hold the owning pool's mutex.
func writableChunk(t []*pageChunk, ci int) *pageChunk {
	ch := t[ci]
	if ch == nil {
		ch = newChunk()
		t[ci] = ch
	} else if ch.shared() {
		nc := newChunkCopy(ch)
		ch.release()
		t[ci] = nc
		ch = nc
	}
	return ch
}

// --- per-pool page helpers (callers hold p.mu) ---

// mutFor returns a privately owned mut for page pi: it allocates the chunk
// and the mut on first use, and — mirroring writableChunk/persistWritable —
// duplicates a chunk or mut shared with a fork before handing it out, so
// callers may write line states and pending bytes in place.
func (p *Pool) mutFor(pi int) *pageMut {
	ci := pi >> chunkShift
	mc := p.muts[ci]
	if mc == nil {
		mc = newMutChunk()
		p.muts[ci] = mc
	} else if mc.shared() {
		nc := newMutChunkCopy(mc)
		mc.release()
		p.muts[ci] = nc
		mc = nc
	}
	si := pi & chunkMask
	m := mc.muts[si]
	if m == nil {
		m = newPageMut()
		mc.muts[si] = m
	} else if m.shared() {
		nm := newPageMutCopy(m)
		m.release()
		mc.muts[si] = nm
		m = nm
	}
	return m
}

// mutAt returns the mut for page pi, nil when the page has never been
// stored to or flushed. The result may be shared with a fork: callers that
// intend to write must go through mutFor instead.
func (p *Pool) mutAt(pi int) *pageMut {
	if mc := p.muts[pi>>chunkShift]; mc != nil {
		return mc.muts[pi&chunkMask]
	}
	return nil
}

// volatileWritable returns a privately owned volatile page at index pi,
// unsharing the covering chunk and then materializing a zero page or a
// copy-before-write duplicate as needed.
func (p *Pool) volatileWritable(pi int) *page {
	ch := writableChunk(p.volatile, pi>>chunkShift)
	si := pi & chunkMask
	pg := ch.pages[si]
	if pg == nil {
		pg = newPage()
		ch.pages[si] = pg
		return pg
	}
	if pg.shared() {
		np := newPageCopy(pg)
		pg.release()
		ch.pages[si] = np
		return np
	}
	return pg
}

// persistWritable is volatileWritable for the persistent table. It also
// invalidates the page's cached hash and the covering fingerprint group
// (persistent bytes are about to change) and maintains the incremental
// PageStats composition counters: materializing or unsharing a page is
// exactly the zero→private and shared→private transition.
func (p *Pool) persistWritable(pi int) *page {
	if p.groupOK != nil {
		g := pi / groupPages
		p.groupOK[g] = false
		if p.superOK != nil {
			p.superOK[g/superGroups] = false
		}
	}
	ch := writableChunk(p.persist, pi>>chunkShift)
	si := pi & chunkMask
	pg := ch.pages[si]
	if pg == nil {
		pg = newPage()
		ch.pages[si] = pg
		p.pageZero--
		p.pagePrivate++
		return pg
	}
	if pg.shared() {
		np := newPageCopy(pg)
		pg.release()
		ch.pages[si] = np
		p.pageShared--
		p.pagePrivate++
		return np
	}
	pg.invalidateHash()
	return pg
}

// readVolatile copies [off, off+len(dst)) of the volatile image into dst.
func (p *Pool) readVolatile(off uint64, dst []byte) {
	for len(dst) > 0 {
		pi, po := int(off>>PageShift), off&pageMask
		var n int
		if pg := pageAt(p.volatile, pi); pg != nil {
			n = copy(dst, pg.data[po:])
		} else {
			n = copy(dst, zeroPage[po:])
		}
		dst = dst[n:]
		off += uint64(n)
	}
}

// writeVolatile copies src into the volatile image at off, duplicating
// shared chunks and pages copy-before-write.
func (p *Pool) writeVolatile(off uint64, src []byte) {
	for len(src) > 0 {
		pi, po := int(off>>PageShift), off&pageMask
		n := copy(p.volatileWritable(pi).data[po:], src)
		src = src[n:]
		off += uint64(n)
	}
}

// readPersist copies [off, off+len(dst)) of the persistent image into dst.
func (p *Pool) readPersist(off uint64, dst []byte) {
	for len(dst) > 0 {
		pi, po := int(off>>PageShift), off&pageMask
		var n int
		if pg := pageAt(p.persist, pi); pg != nil {
			n = copy(dst, pg.data[po:])
		} else {
			n = copy(dst, zeroPage[po:])
		}
		dst = dst[n:]
		off += uint64(n)
	}
}

// volatileLine returns the in-place bytes of cache line l. Only valid for
// lines known to have been stored to (their volatile page exists).
func (p *Pool) volatileLine(l uint64) []byte {
	lo := (l & lineMask) * LineSize
	return pageAt(p.volatile, int(l>>lineShift)).data[lo : lo+LineSize]
}

// persistLine returns the in-place (read-only) bytes of cache line l in the
// persistent image, standing in zeros for an absent page.
func (p *Pool) persistLine(l uint64) []byte {
	lo := (l & lineMask) * LineSize
	if pg := pageAt(p.persist, int(l>>lineShift)); pg != nil {
		return pg.data[lo : lo+LineSize]
	}
	return zeroPage[lo : lo+LineSize]
}
