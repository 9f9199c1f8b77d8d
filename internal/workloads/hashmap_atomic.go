package workloads

import (
	"errors"
	"fmt"

	"pmdebugger/internal/pmdk"
	"pmdebugger/internal/trace"
)

// HashmapAtomic is a persistent chained hash table maintained with atomic
// publication instead of transactions, the Go counterpart of PMDK's
// hashmap_atomic example: each entry is fully initialized and persisted
// before the single pointer store that publishes it, and the element count
// is maintained under a dirty flag so recovery can recount after a crash.
//
// Its instruction pattern is the paper's best case for collective
// writebacks (Fig. 2b): each insert persists one freshly written entry with
// a single CLF, then publishes with another single-store CLF interval.
//
// Root layout: +0 buckets addr, +8 nbuckets, +16 count, +24 count_dirty.
// Entry layout: +0 key, +8 value, +16 next.
type HashmapAtomic struct {
	p    *pmdk.Pool
	root uint64
	site trace.SiteID
}

const (
	haFBuckets  = 0
	haFNBuckets = 8
	haFCount    = 16
	haFDirty    = 24

	haEntrySize = 24
	haBuckets   = 4096
)

// NewHashmapAtomic builds an empty atomic hashmap.
func NewHashmapAtomic(p *pmdk.Pool) (*HashmapAtomic, error) {
	rootObj, size := p.Root()
	if size < 32 {
		return nil, errors.New("hashmap_atomic: root object too small")
	}
	h := &HashmapAtomic{p: p, root: rootObj, site: trace.RegisterSite("hashmap_atomic.c")}
	c := p.Ctx()
	buckets := p.Alloc(haBuckets * 8)
	c.StoreBytes(buckets, make([]byte, haBuckets*8))
	p.Persist(buckets, haBuckets*8)
	c.Store64(h.root+haFBuckets, buckets)
	c.Store64(h.root+haFNBuckets, haBuckets)
	c.Store64(h.root+haFCount, 0)
	c.Store64(h.root+haFDirty, 0)
	p.Persist(h.root, 32)
	return h, nil
}

// Name returns "hashmap_atomic".
func (h *HashmapAtomic) Name() string { return "hashmap_atomic" }

func (h *HashmapAtomic) ld(addr uint64) uint64 { return h.p.Ctx().Load64(addr) }

// Get looks up key.
func (h *HashmapAtomic) Get(key uint64) (uint64, bool) {
	buckets := h.ld(h.root + haFBuckets)
	nb := h.ld(h.root + haFNBuckets)
	e := h.ld(buckets + hmHash(key, nb)*8)
	for e != 0 {
		if h.ld(e) == key {
			return h.ld(e + 8), true
		}
		e = h.ld(e + 16)
	}
	return 0, false
}

// Insert adds or updates key using the persist-then-publish protocol.
func (h *HashmapAtomic) Insert(key, value uint64) error {
	c := h.p.Ctx().At(h.site)
	buckets := h.ld(h.root + haFBuckets)
	nb := h.ld(h.root + haFNBuckets)
	slot := buckets + hmHash(key, nb)*8

	// Update in place if present: value write + persist.
	for e := h.ld(slot); e != 0; e = h.ld(e + 16) {
		if h.ld(e) == key {
			c.Store64(e+8, value)
			c.Persist(e+8, 8)
			return nil
		}
	}

	// 1. Build the entry and persist it collectively (one CLF, one fence).
	entry := h.p.Alloc(haEntrySize)
	c.Store64(entry, key)
	c.Store64(entry+8, value)
	c.Store64(entry+16, h.ld(slot))
	h.p.Persist(entry, haEntrySize)

	// 2. Publish with a single atomic pointer store, persisted.
	c.Store64(slot, entry)
	h.p.Persist(slot, 8)

	// 3. Maintain the count under a dirty flag, as hashmap_atomic does:
	// a crash between the flag writes triggers a recount during recovery.
	c.Store64(h.root+haFDirty, 1)
	h.p.Persist(h.root+haFDirty, 8)
	c.Store64(h.root+haFCount, h.ld(h.root+haFCount)+1)
	h.p.Persist(h.root+haFCount, 8)
	c.Store64(h.root+haFDirty, 0)
	h.p.Persist(h.root+haFDirty, 8)
	return nil
}

// Remove deletes key by unlinking it with a single persisted pointer store.
func (h *HashmapAtomic) Remove(key uint64) (bool, error) {
	c := h.p.Ctx().At(h.site)
	buckets := h.ld(h.root + haFBuckets)
	nb := h.ld(h.root + haFNBuckets)
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
	next := h.ld(e + 16)
	if prev == 0 {
		c.Store64(slot, next)
		h.p.Persist(slot, 8)
	} else {
		c.Store64(prev+16, next)
		h.p.Persist(prev+16, 8)
	}
	c.Store64(h.root+haFDirty, 1)
	h.p.Persist(h.root+haFDirty, 8)
	c.Store64(h.root+haFCount, h.ld(h.root+haFCount)-1)
	h.p.Persist(h.root+haFCount, 8)
	c.Store64(h.root+haFDirty, 0)
	h.p.Persist(h.root+haFDirty, 8)
	h.p.Free(e, haEntrySize)
	return true, nil
}

// Count returns the element count, which is only trustworthy when the dirty
// flag is clear.
func (h *HashmapAtomic) Count() (uint64, error) {
	if h.ld(h.root+haFDirty) != 0 {
		return 0, fmt.Errorf("hashmap_atomic: count is dirty; run Recover")
	}
	return h.ld(h.root + haFCount), nil
}

// Recover recounts the table after a crash left the count dirty, mirroring
// hm_atomic_check/rebuild.
func (h *HashmapAtomic) Recover() error {
	if h.ld(h.root+haFDirty) == 0 {
		return nil
	}
	c := h.p.Ctx().At(trace.RegisterSite("hashmap_atomic.recover"))
	buckets := h.ld(h.root + haFBuckets)
	nb := h.ld(h.root + haFNBuckets)
	var count uint64
	for i := uint64(0); i < nb; i++ {
		for e := h.ld(buckets + i*8); e != 0; e = h.ld(e + 16) {
			count++
		}
	}
	c.Store64(h.root+haFCount, count)
	h.p.Persist(h.root+haFCount, 8)
	c.Store64(h.root+haFDirty, 0)
	h.p.Persist(h.root+haFDirty, 8)
	return nil
}

// Close is a no-op: the publish protocol leaves no deferred state.
func (h *HashmapAtomic) Close() error { return nil }
