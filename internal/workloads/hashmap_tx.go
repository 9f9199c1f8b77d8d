package workloads

import (
	"errors"

	"pmdebugger/internal/pmdk"
)

// HashmapTX is a persistent chained hash table with transactional updates,
// the Go counterpart of PMDK's hashmap_tx example. Structural updates
// (inserts, removes, rehashes) run inside transactions; per-bucket insert
// statistics are updated with plain stores and persisted in deferred batches
// — the pattern responsible for hashmap_tx's outsized AVL tree in the
// paper's Fig. 11 ("many stores are persisted very late after stores").
//
// Root layout: +0 buckets addr, +8 nbuckets, +16 count, +24 stats addr.
// Entry layout: +0 key, +8 value, +16 next.
type HashmapTX struct {
	p    *pmdk.Pool
	root uint64

	statsSince  int // inserts since the last stats flush
	pendingFree []region
}

type region struct{ addr, size uint64 }

const (
	hmFBuckets  = 0
	hmFNBuckets = 8
	hmFCount    = 16
	hmFStats    = 24

	hmEntrySize = 24

	hmInitialBuckets = 64
	hmMaxLoad        = 4
	// hmStatsBuckets is the fixed size of the statistics counter region;
	// bucket indexes fold into it modulo this size.
	hmStatsBuckets = 512
	// hmStatsStride spaces the counters out (matching the real program's
	// scattered per-bucket metadata rather than a dense array).
	hmStatsStride = 24
	// hmStatsFlushEvery is the deferred persistence batch: bucket counters
	// accumulate unflushed for this many inserts.
	hmStatsFlushEvery = 512
)

// NewHashmapTX builds an empty transactional hashmap.
func NewHashmapTX(p *pmdk.Pool) (*HashmapTX, error) {
	rootObj, size := p.Root()
	if size < 32 {
		return nil, errors.New("hashmap_tx: root object too small")
	}
	h := &HashmapTX{p: p, root: rootObj}
	tx := p.Begin()
	buckets := h.newBucketArray(tx, hmInitialBuckets)
	stats := p.Alloc(hmStatsBuckets * hmStatsStride)
	tx.Add(h.root, 32)
	tx.Store64(h.root+hmFBuckets, buckets)
	tx.Store64(h.root+hmFNBuckets, hmInitialBuckets)
	tx.Store64(h.root+hmFCount, 0)
	tx.Store64(h.root+hmFStats, stats)
	tx.Commit()
	// Zero the stats region durably once (outside the transaction); it is
	// then maintained with deferred persistence.
	h.p.Ctx().StoreBytes(stats, make([]byte, hmStatsBuckets*hmStatsStride))
	h.p.Persist(stats, hmStatsBuckets*hmStatsStride)
	return h, nil
}

// Name returns "hashmap_tx".
func (h *HashmapTX) Name() string { return "hashmap_tx" }

func (h *HashmapTX) ld(addr uint64) uint64 { return h.p.Ctx().Load64(addr) }

func (h *HashmapTX) newBucketArray(tx *pmdk.Tx, n uint64) uint64 {
	addr := h.p.Alloc(n * 8)
	tx.Add(addr, n*8)
	tx.StoreBytes(addr, make([]byte, n*8))
	return addr
}

func hmHash(key, nbuckets uint64) uint64 {
	key ^= key >> 33
	key *= 0xff51afd7ed558ccd
	key ^= key >> 33
	return key % nbuckets
}

// Get looks up key.
func (h *HashmapTX) Get(key uint64) (uint64, bool) {
	buckets := h.ld(h.root + hmFBuckets)
	nb := h.ld(h.root + hmFNBuckets)
	e := h.ld(buckets + hmHash(key, nb)*8)
	for e != 0 {
		if h.ld(e) == key {
			return h.ld(e + 8), true
		}
		e = h.ld(e + 16)
	}
	return 0, false
}

// Insert adds or updates key.
func (h *HashmapTX) Insert(key, value uint64) error {
	tx := h.p.Begin()
	buckets := h.ld(h.root + hmFBuckets)
	nb := h.ld(h.root + hmFNBuckets)
	count := h.ld(h.root + hmFCount)

	if count+1 > nb*hmMaxLoad {
		buckets, nb = h.rehash(tx, buckets, nb)
	}

	slot := buckets + hmHash(key, nb)*8
	// Update in place if present.
	for e := h.ld(slot); e != 0; e = h.ld(e + 16) {
		if h.ld(e) == key {
			tx.Set(e+8, value)
			tx.Commit()
			h.releasePending()
			return nil
		}
	}
	entry := h.p.Alloc(hmEntrySize)
	tx.Add(entry, hmEntrySize)
	tx.Store64(entry, key)
	tx.Store64(entry+8, value)
	tx.Store64(entry+16, h.ld(slot))
	tx.Set(slot, entry)
	tx.Set(h.root+hmFCount, count+1)
	tx.Commit()
	h.releasePending()

	h.bumpStats(hmHash(key, nb))
	return nil
}

// bumpStats updates the per-bucket insert counter with a plain store; the
// counters are flushed in batches (deferred persistence).
func (h *HashmapTX) bumpStats(bucket uint64) {
	stats := h.ld(h.root + hmFStats)
	slot := stats + (bucket%hmStatsBuckets)*hmStatsStride
	c := h.p.Ctx()
	c.Store64(slot, c.Load64(slot)+1)
	h.statsSince++
	if h.statsSince >= hmStatsFlushEvery {
		h.flushStats()
	}
}

// flushStats persists the whole statistics region.
func (h *HashmapTX) flushStats() {
	stats := h.ld(h.root + hmFStats)
	h.p.Flush(stats, hmStatsBuckets*hmStatsStride)
	h.p.Drain()
	h.statsSince = 0
}

// rehash doubles the table with a copy-on-write rebuild inside the caller's
// transaction: the new array and new entry copies are fresh allocations, so
// they need no undo snapshots — only the root pointers are logged. On abort
// or crash the fresh objects are unreachable garbage and the old table stays
// live; the old objects are freed after the transaction commits.
func (h *HashmapTX) rehash(tx *pmdk.Tx, oldBuckets, oldN uint64) (uint64, uint64) {
	newN := oldN * 2
	newBuckets := h.p.Alloc(newN * 8)
	tx.StoreBytes(newBuckets, make([]byte, newN*8))
	for i := uint64(0); i < oldN; i++ {
		for e := h.ld(oldBuckets + i*8); e != 0; e = h.ld(e + 16) {
			key := h.ld(e)
			ne := h.p.Alloc(hmEntrySize)
			slot := newBuckets + hmHash(key, newN)*8
			tx.Store64(ne, key)
			tx.Store64(ne+8, h.ld(e+8))
			tx.Store64(ne+16, h.ld(slot))
			tx.Store64(slot, ne)
			h.pendingFree = append(h.pendingFree, region{e, hmEntrySize})
		}
	}
	tx.Set(h.root+hmFBuckets, newBuckets)
	tx.Set(h.root+hmFNBuckets, newN)
	h.pendingFree = append(h.pendingFree, region{oldBuckets, oldN * 8})
	return newBuckets, newN
}

// releasePending frees regions retired by a committed rehash.
func (h *HashmapTX) releasePending() {
	for _, r := range h.pendingFree {
		h.p.Free(r.addr, r.size)
	}
	h.pendingFree = h.pendingFree[:0]
}

// Remove deletes key.
func (h *HashmapTX) Remove(key uint64) (bool, error) {
	buckets := h.ld(h.root + hmFBuckets)
	nb := h.ld(h.root + hmFNBuckets)
	slot := buckets + hmHash(key, nb)*8
	prev := uint64(0)
	e := h.ld(slot)
	for e != 0 && h.ld(e) != key {
		prev = e
		e = h.ld(e + 16)
	}
	if e == 0 {
		return false, nil
	}
	tx := h.p.Begin()
	if prev == 0 {
		tx.Set(slot, h.ld(e+16))
	} else {
		tx.Set(prev+16, h.ld(e+16))
	}
	tx.Set(h.root+hmFCount, h.ld(h.root+hmFCount)-1)
	tx.Commit()
	h.p.Free(e, hmEntrySize)
	return true, nil
}

// Count returns the number of keys.
func (h *HashmapTX) Count() uint64 { return h.ld(h.root + hmFCount) }

// Close persists the deferred statistics so the pool is clean.
func (h *HashmapTX) Close() error {
	h.flushStats()
	return nil
}
