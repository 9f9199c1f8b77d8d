package pmem

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"math/rand"
	"sort"
	"sync"

	"pmdebugger/internal/intervals"
)

// CrashPolicy decides the fate of cache lines that were flushed but not yet
// fenced when the crash happens. On real hardware those lines may or may not
// have reached the persistence domain; the policy picks an outcome so tests
// can explore the space deterministically.
type CrashPolicy uint8

const (
	// CrashDropPending models the adversarial outcome for durability: no
	// un-fenced writeback reached PM.
	CrashDropPending CrashPolicy = iota
	// CrashApplyPending models the other extreme: every issued writeback
	// reached PM even without the fence.
	CrashApplyPending
	// CrashRandomPending flips a seeded coin per pending line, exploring
	// intermediate outcomes.
	CrashRandomPending
)

// CrashCoins is one seed's CrashRandomPending coin sequence, drawn lazily
// and kept: coin i decides the fate of the i-th pending line in ascending
// line order. Seeding a math/rand source is most of the cost of a
// random-policy Crash of a state with pending lines, so a caller that
// crashes many states under the same seed (the record-once explorer, at
// every boundary) holds one CrashCoins per seed instead of reseeding. Not
// safe for concurrent use.
type CrashCoins struct {
	seed int64
	rng  *rand.Rand // seeded on the first draw: a state with no pending line draws none
	bits []uint64   // bit i set: coin i applies its line
	n    int        // coins drawn so far
}

// NewCrashCoins returns seed's coin sequence — the coins Crash(
// CrashRandomPending, seed) draws.
func NewCrashCoins(seed int64) *CrashCoins {
	return &CrashCoins{seed: seed}
}

// apply reports coin i, drawing the sequence up to it on first use.
func (c *CrashCoins) apply(i int) bool {
	if c.rng == nil {
		c.rng = rand.New(rand.NewSource(c.seed))
	}
	for ; c.n <= i; c.n++ {
		if c.n&63 == 0 {
			c.bits = append(c.bits, 0)
		}
		if c.rng.Intn(2) == 0 {
			c.bits[c.n>>6] |= 1 << (c.n & 63)
		}
	}
	return c.bits[i>>6]&(1<<(i&63)) != 0
}

// CrashOutcome is the effective outcome of one crash: the pending lines the
// policy applies whose staged bytes differ from the persistent image, in
// ascending line order, together with those staged bytes. A crash image is
// fully determined by the persistent image it starts from plus its
// effective outcome, which is what lets an explorer recognize a duplicate
// image before building it (see Key). The zero value is ready for use and
// is reused across SelectCrash calls.
type CrashOutcome struct {
	// rec is Key's preimage: a fingerprint slot, then one outcomeRec-byte
	// record per effective line — its index, little-endian, followed by its
	// LineSize staged bytes. It stays empty, header included, until a line
	// or a Key needs it, so a plain Crash writing no line allocates nothing
	// here.
	rec []byte
	// lines is the sorted pending-line scratch SelectCrash reuses.
	lines []uint64
}

const (
	outcomeHdr = 32
	outcomeRec = 8 + LineSize
)

// count returns the number of lines the outcome writes.
func (o *CrashOutcome) count() int {
	if len(o.rec) < outcomeHdr {
		return 0
	}
	return (len(o.rec) - outcomeHdr) / outcomeRec
}

// line returns the i-th effective line index and its staged bytes.
func (o *CrashOutcome) line(i int) (uint64, []byte) {
	r := o.rec[outcomeHdr+i*outcomeRec:]
	return binary.LittleEndian.Uint64(r), r[8:outcomeRec]
}

// Key returns the SHA-256 of fp followed by each effective line's index and
// staged bytes. With fp the Fingerprint of the pool the outcome was
// selected from, equal keys mean equal crash images — resting on SHA-256
// exactly as fingerprint deduplication does — so an explorer can look an
// image up before building it.
func (o *CrashOutcome) Key(fp [32]byte) [32]byte {
	if len(o.rec) == 0 {
		o.rec = append(o.rec, make([]byte, outcomeHdr)...)
	}
	copy(o.rec, fp[:])
	return sha256.Sum256(o.rec)
}

// SelectCrash fills o with the effective outcome of crashing the pool's
// current state under policy: the lines Crash(policy, seed) writes, with
// CrashRandomPending's coins drawn from coins (NewCrashCoins(seed); ignored
// by the deterministic policies). CrashWith(o) then builds the image.
func (p *Pool) SelectCrash(policy CrashPolicy, coins *CrashCoins, o *CrashOutcome) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.syncLocked()
	p.selectCrashLocked(policy, coins, o)
}

// CrashWith returns the crash image of outcome o, which SelectCrash must
// have selected from the pool's current state. Crash is SelectCrash
// followed by CrashWith.
func (p *Pool) CrashWith(o *CrashOutcome) *Pool {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.syncLocked()
	return p.crashWithLocked(o)
}

// Crash simulates a power failure and returns a new pool whose contents are
// the persistent image (plus pending lines according to the policy, seeded
// by seed for CrashRandomPending). The new pool starts with no handlers, all
// lines clean, the allocator reset to full — recovery code is expected to
// rebuild heap metadata from persistent structures, as on real PM.
//
// The snapshot is copy-on-write at both table levels: its root directory
// aliases the parent's persistent chunks (one pointer copy and one refcount
// bump per 2 MiB of address space), and only chunks the pending-line policy
// touches are duplicated up front, so materializing an image costs O(dirty)
// in bytes *and* table slots — the directory copy is O(pool/2MiB),
// effectively constant. Parent and snapshot remain independently usable —
// either side's subsequent writes duplicate shared chunks and pages before
// modifying them.
func (p *Pool) Crash(policy CrashPolicy, seed int64) *Pool {
	coins := CrashCoins{seed: seed}
	var o CrashOutcome
	p.mu.Lock()
	defer p.mu.Unlock()

	// Drain asynchronous handlers first: a crash image must never be
	// observed by a detector that is still behind on the stream that
	// produced it.
	p.syncLocked()
	p.selectCrashLocked(policy, &coins, &o)
	return p.crashWithLocked(&o)
}

// selectCrashLocked is SelectCrash under p.mu. Staged lines are visited in
// ascending line order so the per-line coin sequence of CrashRandomPending
// is a pure function of (state, policy, seed), independent of flush order;
// every pending line draws a coin, content-equal ones included.
func (p *Pool) selectCrashLocked(policy CrashPolicy, coins *CrashCoins, o *CrashOutcome) {
	o.rec = o.rec[:0]
	if policy == CrashDropPending || p.pendingLineCount == 0 {
		return
	}
	lines := o.lines[:0]
	if cap(lines) < len(p.pendingLines) {
		lines = make([]uint64, 0, len(p.pendingLines))
	}
	for _, l := range p.pendingLines {
		if st := p.mutAt(int(l >> lineShift)).state[l&lineMask]; st == linePending || st == lineDirtyPending {
			lines = append(lines, l)
		}
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	o.lines = lines
	for i, l := range lines {
		if policy == CrashRandomPending && !coins.apply(i) {
			continue
		}
		lo := (l & lineMask) * LineSize
		staged := p.mutAt(int(l >> lineShift)).pending[lo : lo+LineSize]
		if bytes.Equal(p.persistLine(l), staged) {
			continue // identical bytes: the image is unaffected
		}
		if len(o.rec) == 0 {
			o.rec = append(o.rec, make([]byte, outcomeHdr)...)
		}
		o.rec = binary.LittleEndian.AppendUint64(o.rec, l)
		o.rec = append(o.rec, staged...)
	}
}

// crashWithLocked is CrashWith under p.mu: the one materialization path of
// every crash image.
func (p *Pool) crashWithLocked(o *CrashOutcome) *Pool {
	n := p.cloneLocked()

	// Apply the outcome's lines; only their chunks and pages are
	// duplicated.
	for i := 0; i < o.count(); i++ {
		l, staged := o.line(i)
		lo := (l & lineMask) * LineSize
		pg := n.persistWritable(int(l >> lineShift))
		copy(pg.data[lo:lo+LineSize], staged)
	}

	// The image's volatile image aliases its persistent image — the state of
	// a freshly opened pool — and unshares on demand when recovery code
	// stores to it. That re-shares whatever the outcome's lines just
	// privatized, so a fresh image's materialized pages are all shared.
	shareChunks(n.volatile, n.persist)
	n.pageShared += n.pagePrivate
	n.pagePrivate = 0
	n.alloc.init(n.base, n.size)
	return n
}

// cloneLocked returns a new pool whose persistent image shares p's chunk
// for chunk — the part of the work Crash and Fork have in common. It
// allocates the new pool's root directories, retains p's persistent chunks
// into one of them, hands down the PageStats composition, the warm Merkle
// caches and the named-region table, and leaves the volatile image, the
// mut table, the line state and the allocator empty for the caller to fill.
// Callers hold p.mu.
func (p *Pool) cloneLocked() *Pool {
	tables := newTables(len(p.persist))
	n := &Pool{
		base:     p.base,
		size:     p.size,
		volatile: tables.volatile,
		persist:  tables.persist,
		muts:     tables.muts,
		npages:   p.npages,
		names:    make(map[string]intervals.Range, len(p.names)),
	}
	shareChunks(n.persist, p.persist)
	// PageStats handoff: sharing the persistent table turns every
	// materialized page — parent's and clone's alike — into a shared page;
	// zero spans stay zero on both sides. Both counters are exact here.
	n.pageZero = p.pageZero
	n.pageShared = p.pageShared + p.pagePrivate
	p.pageShared, p.pagePrivate = n.pageShared, 0
	// The fingerprint caches ride along: shared pages have identical
	// content, and persistWritable invalidates the covering entries on
	// either side's later writes.
	if p.groupOK != nil {
		n.groupHash = append([][32]byte(nil), p.groupHash...)
		n.groupOK = append([]bool(nil), p.groupOK...)
	}
	if p.superOK != nil {
		n.superHash = append([][32]byte(nil), p.superHash...)
		n.superOK = append([]bool(nil), p.superOK...)
	}
	// Names model program symbols, which survive restart. Their caches
	// ride along too.
	for name, r := range p.names {
		n.names[name] = r
	}
	n.sortedNames = p.sortedNames
	n.namesHash, n.namesHashOK = p.namesHash, p.namesHashOK
	return n
}

// Release returns the pool's chunks, pages, per-page mutable state and root
// directories to the shared recycling pools. It is the explorer's fast-path
// disposal for checked crash images: dropping a still-shared chunk is one
// refcount decrement, so releasing a clean snapshot costs O(pool/2MiB) —
// only chunks dying with the image pay the page-slot walk. The pool must
// not be used afterwards (its tables are gone; accesses panic).
func (p *Pool) Release() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.persist == nil {
		return // already released
	}
	for i, ch := range p.volatile {
		if ch != nil {
			ch.release()
			p.volatile[i] = nil
		}
	}
	for i, ch := range p.persist {
		if ch != nil {
			ch.release()
			p.persist[i] = nil
		}
	}
	for i, mc := range p.muts {
		if mc != nil {
			mc.release()
			p.muts[i] = nil
		}
	}
	tableSetPool.Put(&tableSet{p.volatile, p.persist, p.muts})
	p.volatile, p.persist, p.muts = nil, nil, nil
	p.pendingLines = nil
	p.dirtyLineCount, p.pendingLineCount = 0, 0
	p.pageZero, p.pageShared, p.pagePrivate = 0, 0, 0
	p.groupHash, p.groupOK = nil, nil
	p.superHash, p.superOK = nil, nil
}

// PageStats reports the persistent image's page-table composition: zero
// pages (never written), pages shared with another pool, and private pages.
// It is the observability hook for copy-on-write effectiveness — a healthy
// crash image is almost entirely zero and shared pages. The counters are
// maintained incrementally so the query is O(1) regardless of pool size;
// they are exact for fresh images and under the pool's own operations, and
// may over-report "shared" (never "private") after a related pool's writes
// or Release drop the last remote reference to a chunk. scanPageStats is
// the structural reference.
func (p *Pool) PageStats() (zero, shared, private int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.pageZero, p.pageShared, p.pagePrivate
}

// scanPageStats recomputes the page-table composition by a full structural
// walk — a page is zero when absent, shared when its chunk or the page
// itself is referenced more than once, private otherwise. It is the
// reference the incremental PageStats counters are asserted against in
// tests.
func (p *Pool) scanPageStats() (zero, shared, private int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for ci, ch := range p.persist {
		lo := ci << chunkShift
		n := chunkSlots
		if lo+n > p.npages {
			n = p.npages - lo
		}
		if ch == nil {
			zero += n
			continue
		}
		chShared := ch.shared()
		for si := 0; si < n; si++ {
			switch pg := ch.pages[si]; {
			case pg == nil:
				zero++
			case chShared || pg.shared():
				shared++
			default:
				private++
			}
		}
	}
	return zero, shared, private
}

// Fingerprint returns a content hash of the pool's persistent image and its
// named-region table. Two pools with equal fingerprints recover identically
// under any deterministic checker, which is what content-hash image
// deduplication (internal/crashtest) relies on; the names are included
// because checkers may resolve symbols through NamedRange.
//
// The hash is a four-level Merkle rollup — per-page hashes cached on the
// (shared) pages themselves, cached group hashes over groupPages-page spans,
// cached super hashes over superGroups-group spans, and a top hash over the
// super level — so a call after k dirtied pages rehashes O(k) pages plus
// their groups and supers, never the whole pool. All-zero groups resolve to
// a process-wide constant digest, so the first call on a sparse pool costs
// O(materialized chunks), not O(pool).
func (p *Pool) Fingerprint() [32]byte {
	p.mu.Lock()
	defer p.mu.Unlock()

	ngroups := (p.npages + groupPages - 1) / groupPages
	nsupers := (ngroups + superGroups - 1) / superGroups
	if p.groupOK == nil {
		p.groupHash = make([][32]byte, ngroups)
		p.groupOK = make([]bool, ngroups)
	}
	if p.superOK == nil {
		p.superHash = make([][32]byte, nsupers)
		p.superOK = make([]bool, nsupers)
	}
	for s := 0; s < nsupers; s++ {
		if p.superOK[s] {
			continue
		}
		glo, ghi := s*superGroups, (s+1)*superGroups
		if ghi > ngroups {
			ghi = ngroups
		}
		for g := glo; g < ghi; g++ {
			if p.groupOK[g] {
				continue
			}
			start := g * groupPages
			end := start + groupPages
			if end > p.npages {
				end = p.npages
			}
			// groupPages divides chunkSlots, so the whole group lives in one
			// chunk — fetch it once. An unmaterialized chunk is a full group
			// of zero pages, whose digest is a process-wide constant.
			ch := p.persist[start>>chunkShift]
			if ch == nil && end-start == groupPages {
				p.groupHash[g] = zeroGroupHash()
			} else {
				gh := sha256.New()
				for pi := start; pi < end; pi++ {
					ph := zeroPageHash()
					if ch != nil {
						if pg := ch.pages[pi&chunkMask]; pg != nil {
							ph = pg.contentHash()
						}
					}
					gh.Write(ph[:])
				}
				gh.Sum(p.groupHash[g][:0])
			}
			p.groupOK[g] = true
		}
		sh := sha256.New()
		for g := glo; g < ghi; g++ {
			sh.Write(p.groupHash[g][:])
		}
		sh.Sum(p.superHash[s][:0])
		p.superOK[s] = true
	}

	h := sha256.New()
	var hdr [16]byte
	binary.LittleEndian.PutUint64(hdr[0:], p.base)
	binary.LittleEndian.PutUint64(hdr[8:], p.size)
	h.Write(hdr[:])
	for s := 0; s < nsupers; s++ {
		h.Write(p.superHash[s][:])
	}
	nh := p.namesDigestLocked()
	h.Write(nh[:])
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// zeroGroupHash returns the digest of a full group of zero pages — the
// value Fingerprint assigns to any group whose chunk was never
// materialized. Computed once per process.
func zeroGroupHash() [32]byte {
	zeroGroupOnce.Do(func() {
		h := sha256.New()
		zp := zeroPageHash()
		for i := 0; i < groupPages; i++ {
			h.Write(zp[:])
		}
		h.Sum(zeroGroupDigest[:0])
	})
	return zeroGroupDigest
}

var (
	zeroGroupOnce   sync.Once
	zeroGroupDigest [32]byte
)

// namesDigestLocked returns the cached hash of the named-region table,
// recomputing it after a RegisterNamed invalidation. Callers hold p.mu.
func (p *Pool) namesDigestLocked() [32]byte {
	if !p.namesHashOK {
		h := sha256.New()
		for _, name := range p.sortedNamesLocked() {
			r := p.names[name]
			var rec [16]byte
			binary.LittleEndian.PutUint64(rec[0:], r.Addr)
			binary.LittleEndian.PutUint64(rec[8:], r.Size)
			h.Write([]byte(name))
			h.Write(rec[:])
		}
		h.Sum(p.namesHash[:0])
		p.namesHashOK = true
	}
	return p.namesHash
}

// PersistedEquals reports whether the persistent image bytes at addr equal
// want. It lets tests assert durability outcomes without crashing.
func (p *Pool) PersistedEquals(addr uint64, want []byte) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.checkRange(addr, uint64(len(want)))
	off := p.off(addr)
	for len(want) > 0 {
		pi, po := int(off>>PageShift), off&pageMask
		chunk := uint64(len(want))
		if PageSize-po < chunk {
			chunk = PageSize - po
		}
		var got []byte
		if pg := pageAt(p.persist, pi); pg != nil {
			got = pg.data[po : po+chunk]
		} else {
			got = zeroPage[po : po+chunk]
		}
		if !bytes.Equal(got, want[:chunk]) {
			return false
		}
		want = want[chunk:]
		off += chunk
	}
	return true
}

// PersistedBytes copies size bytes of the persistent image at addr.
func (p *Pool) PersistedBytes(addr, size uint64) []byte {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.checkRange(addr, size)
	out := make([]byte, size)
	p.readPersist(p.off(addr), out)
	return out
}

// DirtyLines returns the number of lines with unflushed stores. The count is
// maintained incrementally at every line-state transition, so the query is
// O(1) regardless of pool size.
func (p *Pool) DirtyLines() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.dirtyLineCount
}

// PendingLines returns the number of lines staged by a flush but not yet
// committed by a fence, maintained incrementally like DirtyLines.
func (p *Pool) PendingLines() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.pendingLineCount
}

// scanLineCounts recomputes the dirty/pending line counts by a full scan of
// the line state machine — the reference the incremental counters are
// asserted against in tests.
func (p *Pool) scanLineCounts() (dirty, pending int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, mc := range p.muts {
		if mc == nil {
			continue
		}
		for _, m := range mc.muts {
			if m == nil {
				continue
			}
			for _, st := range m.state {
				switch st {
				case lineDirty:
					dirty++
				case linePending:
					pending++
				case lineDirtyPending:
					dirty++
					pending++
				}
			}
		}
	}
	return dirty, pending
}
