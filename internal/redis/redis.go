// Package redis reimplements the PM-aware Redis port evaluated in Table 4
// (Intel's libpmemobj-backed Redis): a persistent dictionary whose entries
// live in PM and are updated through undo-log transactions (the epoch
// model), plus the LRU-eviction keyspace simulation the paper drives with
// redis-cli ("LRU test", Fig. 8i).
//
// Volatile acceleration state (the key index and LRU clocks) is rebuilt
// from PM on restart, as the real port rebuilds its dict.
package redis

import (
	"errors"
	"fmt"
	"math/rand"

	"pmdebugger/internal/pmdk"
	"pmdebugger/internal/pmem"
	"pmdebugger/internal/rules"
)

// Config parameterizes a server.
type Config struct {
	// PoolSize is the simulated PM size (default 64 MiB).
	PoolSize uint64
	// Buckets is the persistent dict size (default 4096).
	Buckets uint64
	// MaxKeys caps the keyspace; beyond it the server evicts
	// approximated-LRU victims (0 = unlimited).
	MaxKeys int
	// Sample is the LRU eviction sample size (default 5, as in Redis).
	Sample int
	// Seed seeds eviction sampling.
	Seed int64
}

// Server is a miniature PM Redis.
//
// Dict entry layout: +0 next, +8 keyLen u32 valLen u32, +16 key bytes then
// value bytes. Root layout: +0 buckets addr, +8 nbuckets, +16 count.
type Server struct {
	cfg Config
	pm  *pmem.Pool
	p   *pmdk.Pool

	index map[string]uint64 // key -> entry addr (volatile)
	lru   map[string]uint64 // key -> last access tick (volatile)
	// keys/keyPos mirror the index as a swap-remove slice so eviction can
	// sample keys through the seeded rng: map iteration order is
	// runtime-randomized and would make eviction — and with it the event
	// stream — nondeterministic across runs, which the crash-space
	// explorer's record/replay equivalence cannot tolerate.
	keys   []string
	keyPos map[string]int
	clock  uint64
	rng    *rand.Rand

	hits, misses, evictions uint64
}

const (
	rdFBuckets  = 0
	rdFNBuckets = 8
	rdFCount    = 16

	rdEntryHdr = 16
)

// Model returns the epoch model (Table 4).
func (s *Server) Model() rules.Model { return rules.Epoch }

// New creates a server over a fresh pool.
func New(cfg Config) (*Server, error) {
	if cfg.PoolSize == 0 {
		cfg.PoolSize = 64 << 20
	}
	return NewWith(pmem.New(cfg.PoolSize), cfg)
}

// NewWith creates a server over a caller-provided pool, which is how the
// crash-space explorer builds the server inside an instrumented program
// (the pool carries the journal or crash trap the harness armed).
func NewWith(pm *pmem.Pool, cfg Config) (*Server, error) {
	if cfg.Buckets == 0 {
		cfg.Buckets = 4096
	}
	if cfg.Sample == 0 {
		cfg.Sample = 5
	}
	p, err := pmdk.Create(pm, 64)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg: cfg, pm: pm, p: p,
		index:  map[string]uint64{},
		lru:    map[string]uint64{},
		keyPos: map[string]int{},
		rng:    rand.New(rand.NewSource(cfg.Seed)),
	}
	root, _ := p.Root()
	tx := p.Begin()
	buckets := p.Alloc(cfg.Buckets * 8)
	tx.StoreBytes(buckets, make([]byte, cfg.Buckets*8))
	tx.Add(root, 24)
	tx.Store64(root+rdFBuckets, buckets)
	tx.Store64(root+rdFNBuckets, cfg.Buckets)
	tx.Store64(root+rdFCount, 0)
	tx.Commit()
	return s, nil
}

// PM returns the underlying pool for attaching detectors.
func (s *Server) PM() *pmem.Pool { return s.pm }

func (s *Server) ld(addr uint64) uint64 { return s.p.Ctx().Load64(addr) }

func (s *Server) root() uint64 { r, _ := s.p.Root(); return r }

func hashKey(key string) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return h
}

// Set stores key=value transactionally, evicting when the keyspace exceeds
// MaxKeys.
func (s *Server) Set(key string, value []byte) error {
	if s.cfg.MaxKeys > 0 {
		for len(s.index) >= s.cfg.MaxKeys {
			if _, ok := s.index[key]; ok {
				break // replacing: no growth
			}
			if err := s.evictLRU(); err != nil {
				return err
			}
		}
	}
	s.clock++
	root := s.root()
	buckets := s.ld(root + rdFBuckets)
	nb := s.ld(root + rdFNBuckets)
	slot := buckets + hashKey(key)%nb*8

	tx := s.p.Begin()
	if old, ok := s.index[key]; ok {
		// Replace: new entry, relink, retire the old one.
		entry := s.newEntry(tx, key, value, s.entryNext(old))
		s.relink(tx, slot, old, entry)
		tx.Commit()
		s.p.Free(old, s.entrySize(old))
		s.index[key] = entry
		s.lru[key] = s.clock
		return nil
	}
	entry := s.newEntry(tx, key, value, s.ld(slot))
	tx.Set(slot, entry)
	tx.Set(root+rdFCount, s.ld(root+rdFCount)+1)
	tx.Commit()
	s.index[key] = entry
	s.trackKey(key)
	s.lru[key] = s.clock
	return nil
}

// trackKey/untrackKey maintain the swap-remove key slice eviction samples
// from (deterministically, via the seeded rng).
func (s *Server) trackKey(key string) {
	s.keyPos[key] = len(s.keys)
	s.keys = append(s.keys, key)
}

func (s *Server) untrackKey(key string) {
	pos, ok := s.keyPos[key]
	if !ok {
		return
	}
	last := len(s.keys) - 1
	s.keys[pos] = s.keys[last]
	s.keyPos[s.keys[pos]] = pos
	s.keys = s.keys[:last]
	delete(s.keyPos, key)
}

// newEntry writes a fresh entry (no undo needed: fresh allocation).
func (s *Server) newEntry(tx *pmdk.Tx, key string, value []byte, next uint64) uint64 {
	size := uint64(rdEntryHdr + len(key) + len(value))
	entry := s.p.Alloc(size)
	tx.Store64(entry, next)
	tx.Store32(entry+8, uint32(len(key)))
	tx.Store32(entry+12, uint32(len(value)))
	tx.StoreBytes(entry+rdEntryHdr, []byte(key))
	if len(value) > 0 {
		tx.StoreBytes(entry+rdEntryHdr+uint64(len(key)), value)
	}
	return entry
}

func (s *Server) entryNext(e uint64) uint64 { return s.ld(e) }

func (s *Server) entrySize(e uint64) uint64 {
	kl := s.p.Ctx().Load32(e + 8)
	vl := s.p.Ctx().Load32(e + 12)
	return rdEntryHdr + uint64(kl) + uint64(vl)
}

func (s *Server) entryKey(e uint64) string {
	kl := s.p.Ctx().Load32(e + 8)
	return string(s.p.Ctx().LoadBytes(e+rdEntryHdr, uint64(kl)))
}

// relink replaces old with new in the chain containing slot.
func (s *Server) relink(tx *pmdk.Tx, slot, old, new uint64) {
	cur := s.ld(slot)
	if cur == old {
		tx.Set(slot, new)
		return
	}
	for cur != 0 {
		if s.ld(cur) == old {
			tx.Set(cur, new)
			return
		}
		cur = s.ld(cur)
	}
}

// unlink removes entry from its chain.
func (s *Server) unlink(tx *pmdk.Tx, key string, entry uint64) {
	root := s.root()
	buckets := s.ld(root + rdFBuckets)
	nb := s.ld(root + rdFNBuckets)
	slot := buckets + hashKey(key)%nb*8
	next := s.ld(entry)
	cur := s.ld(slot)
	if cur == entry {
		tx.Set(slot, next)
	} else {
		for cur != 0 && s.ld(cur) != entry {
			cur = s.ld(cur)
		}
		if cur == 0 {
			return
		}
		tx.Set(cur, next)
	}
	tx.Set(root+rdFCount, s.ld(root+rdFCount)-1)
}

// Get fetches key's value.
func (s *Server) Get(key string) ([]byte, bool) {
	s.clock++
	e, ok := s.index[key]
	if !ok {
		s.misses++
		return nil, false
	}
	s.hits++
	s.lru[key] = s.clock
	kl := s.p.Ctx().Load32(e + 8)
	vl := s.p.Ctx().Load32(e + 12)
	return s.p.Ctx().LoadBytes(e+rdEntryHdr+uint64(kl), uint64(vl)), true
}

// Del removes key.
func (s *Server) Del(key string) (bool, error) {
	e, ok := s.index[key]
	if !ok {
		return false, nil
	}
	tx := s.p.Begin()
	s.unlink(tx, key, e)
	tx.Commit()
	s.p.Free(e, s.entrySize(e))
	delete(s.index, key)
	s.untrackKey(key)
	delete(s.lru, key)
	return true, nil
}

// evictLRU removes the least recently used of Sample random keys,
// mirroring Redis's approximated LRU (maxmemory-policy allkeys-lru).
func (s *Server) evictLRU() error {
	if len(s.index) == 0 {
		return errors.New("redis: nothing to evict")
	}
	var victim string
	var victimTick uint64
	// Sample keys through the seeded rng (duplicates are fine, as in
	// Redis's approximated sampling); never through map iteration, whose
	// runtime-randomized order would make the event stream irreproducible.
	for picked := 0; picked < s.cfg.Sample; picked++ {
		k := s.keys[s.rng.Intn(len(s.keys))]
		tick := s.lru[k]
		if picked == 0 || tick < victimTick {
			victim, victimTick = k, tick
		}
	}
	if _, err := s.Del(victim); err != nil {
		return err
	}
	s.evictions++
	return nil
}

// Stats returns hit/miss/eviction counters.
func (s *Server) Stats() (hits, misses, evictions uint64) {
	return s.hits, s.misses, s.evictions
}

// Count returns the persistent key count.
func (s *Server) Count() uint64 { return s.ld(s.root() + rdFCount) }

// RunLRUTest is the redis-cli LRU simulation: write n keys into a capped
// keyspace while reading back recent keys, measuring hit rate under
// eviction pressure.
func (s *Server) RunLRUTest(n int, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	val := make([]byte, 48)
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("lru:%d", i)
		if err := s.Set(k, val); err != nil {
			return err
		}
		// Access a recent key with bias, as the LRU test does.
		back := rng.Intn(100) + 1
		if back <= i {
			s.Get(fmt.Sprintf("lru:%d", i-back))
		}
	}
	return nil
}

// Rebuild reconstructs the volatile index from PM, validating that the
// persistent dict is self-contained (used after crash recovery).
func (s *Server) Rebuild() error {
	root := s.root()
	buckets := s.ld(root + rdFBuckets)
	nb := s.ld(root + rdFNBuckets)
	s.index = map[string]uint64{}
	s.lru = map[string]uint64{}
	s.keys, s.keyPos = nil, map[string]int{}
	var walked uint64
	for i := uint64(0); i < nb; i++ {
		for e := s.ld(buckets + i*8); e != 0; e = s.ld(e) {
			s.index[s.entryKey(e)] = e
			s.trackKey(s.entryKey(e))
			walked++
		}
	}
	if count := s.Count(); walked != count {
		return fmt.Errorf("redis: rebuilt %d entries, persistent count %d", walked, count)
	}
	return nil
}

// Reopen attaches a server to a crashed pool image, running pmdk recovery
// and rebuilding the index.
func Reopen(pm *pmem.Pool, cfg Config) (*Server, error) {
	p, err := pmdk.Open(pm)
	if err != nil {
		return nil, err
	}
	if cfg.Sample == 0 {
		cfg.Sample = 5
	}
	s := &Server{
		cfg: cfg, pm: pm, p: p,
		index:  map[string]uint64{},
		lru:    map[string]uint64{},
		keyPos: map[string]int{},
		rng:    rand.New(rand.NewSource(cfg.Seed)),
	}
	if err := s.Rebuild(); err != nil {
		return nil, err
	}
	return s, nil
}
