package pmem

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
)

// persist stores data at addr and pushes it through flush+fence so it lands
// in the persistent image.
func persist(c *Ctx, addr uint64, data []byte) {
	c.StoreBytes(addr, data)
	c.Persist(addr, uint64(len(data)))
}

// TestSnapshotMutationIsolation is the core copy-on-write contract: after
// Crash, parent and snapshot share pages, yet neither side's writes are
// visible to the other — bytes and fingerprints both stay frozen.
func TestSnapshotMutationIsolation(t *testing.T) {
	p := New(1 << 20)
	c := p.Ctx()
	a := p.Alloc(4096)
	persist(c, a, []byte("original payload"))

	snap := p.Crash(CrashDropPending, 0)
	snapFP := snap.Fingerprint()
	parentFP := p.Fingerprint()

	// Parent writes after the crash: the snapshot must not move.
	persist(c, a, []byte("parent overwrite"))
	if !snap.PersistedEquals(a, []byte("original payload")) {
		t.Fatalf("parent write leaked into snapshot: %q", snap.PersistedBytes(a, 16))
	}
	if snap.Fingerprint() != snapFP {
		t.Fatal("parent write changed snapshot fingerprint")
	}

	// Snapshot writes: the parent must not move either.
	sc := snap.Ctx()
	persist(sc, a, []byte("snapshotoverride"))
	if !p.PersistedEquals(a, []byte("parent overwrite")) {
		t.Fatalf("snapshot write leaked into parent: %q", p.PersistedBytes(a, 16))
	}
	if p.Fingerprint() == parentFP {
		// The parent DID change (its own overwrite) — sanity that the
		// fingerprint tracks it, i.e. the caches were invalidated.
		t.Fatal("parent fingerprint ignored the parent's own overwrite")
	}
	if !snap.PersistedEquals(a, []byte("snapshotoverride")) {
		t.Fatal("snapshot lost its own write")
	}
}

// TestSnapshotIsolationNamedRegions covers the names side of the snapshot:
// registrations on one side after the crash stay invisible to the other, and
// the fingerprint (which covers the names table) notices registrations.
func TestSnapshotIsolationNamedRegions(t *testing.T) {
	p := New(1 << 20)
	p.RegisterNamed("root", p.Base(), 128)
	snap := p.Crash(CrashDropPending, 0)
	snapFP := snap.Fingerprint()

	p.RegisterNamed("parent_only", p.Base()+4096, 64)
	if _, ok := snap.NamedRange("parent_only"); ok {
		t.Fatal("parent registration leaked into snapshot")
	}
	if snap.Fingerprint() != snapFP {
		t.Fatal("parent registration changed snapshot fingerprint")
	}

	snap.RegisterNamed("snap_only", snap.Base()+8192, 64)
	if _, ok := p.NamedRange("snap_only"); ok {
		t.Fatal("snapshot registration leaked into parent")
	}
	if snap.Fingerprint() == snapFP {
		t.Fatal("snapshot fingerprint ignored RegisterNamed (stale names cache)")
	}
	if r, ok := snap.NamedRange("root"); !ok || r.Size != 128 {
		t.Fatal("inherited name lost")
	}
}

// TestSnapshotAllocatorIndependent: the snapshot's allocator is reset to
// full (recovery rebuilds heap metadata), and allocations on the snapshot
// must not disturb parent data even where their address ranges collide.
func TestSnapshotAllocatorIndependent(t *testing.T) {
	p := New(1 << 20)
	c := p.Ctx()
	a := p.Alloc(256)
	persist(c, a, bytes.Repeat([]byte{0xab}, 256))

	snap := p.Crash(CrashDropPending, 0)
	sc := snap.Ctx()
	// The snapshot allocator is full again, so this hands back the same
	// address range the parent already holds.
	sa := snap.Alloc(256)
	if sa != a {
		t.Fatalf("snapshot allocator not reset: got %#x, parent got %#x", sa, a)
	}
	persist(sc, sa, bytes.Repeat([]byte{0xcd}, 256))
	if !p.PersistedEquals(a, bytes.Repeat([]byte{0xab}, 256)) {
		t.Fatal("snapshot allocation overwrote parent bytes")
	}
}

// TestSnapshotChain exercises second-generation sharing: a crash of a crash
// still isolates all three pools.
func TestSnapshotChain(t *testing.T) {
	p := New(1 << 20)
	c := p.Ctx()
	a := p.Alloc(64)
	persist(c, a, []byte("gen0"))
	s1 := p.Crash(CrashDropPending, 0)
	persist(s1.Ctx(), a, []byte("gen1"))
	s2 := s1.Crash(CrashDropPending, 0)
	persist(s2.Ctx(), a, []byte("gen2"))

	if !p.PersistedEquals(a, []byte("gen0")) || !s1.PersistedEquals(a, []byte("gen1")) || !s2.PersistedEquals(a, []byte("gen2")) {
		t.Fatalf("generation mixup: %q %q %q",
			p.PersistedBytes(a, 4), s1.PersistedBytes(a, 4), s2.PersistedBytes(a, 4))
	}
}

// TestPageStraddlingAccess drives stores, loads and flush/fence across page
// boundaries, where the scalar fast paths must fall back to the page-walking
// slow paths.
func TestPageStraddlingAccess(t *testing.T) {
	p := New(1 << 16)
	c := p.Ctx()
	// Last 4 bytes of page 0 + first 4 bytes of page 1.
	addr := p.Base() + PageSize - 4
	c.Store64(addr, 0x1122334455667788)
	if got := c.Load64(addr); got != 0x1122334455667788 {
		t.Fatalf("straddling Load64 = %#x", got)
	}
	c.Persist(addr, 8)
	want := []byte{0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11}
	if !p.PersistedEquals(addr, want) {
		t.Fatalf("straddling persist: %x", p.PersistedBytes(addr, 8))
	}

	// A bulk write spanning three pages.
	big := make([]byte, 2*PageSize+100)
	for i := range big {
		big[i] = byte(i * 7)
	}
	baddr := p.Base() + PageSize - 50
	c.StoreBytes(baddr, big)
	if !bytes.Equal(c.LoadBytes(baddr, uint64(len(big))), big) {
		t.Fatal("multi-page StoreBytes round trip failed")
	}
	c.Persist(baddr, uint64(len(big)))
	if !p.PersistedEquals(baddr, big) {
		t.Fatal("multi-page persist failed")
	}
	if !c.EqualBytes(baddr, string(big)) {
		t.Fatal("EqualBytes rejects matching multi-page span")
	}
	if c.EqualBytes(baddr, string(big[:len(big)-1])+"X") {
		t.Fatal("EqualBytes accepts mismatching multi-page span")
	}
}

// TestLineCountersMatchScan cross-checks the O(1) incremental dirty/pending
// counters against a full scan of the line state machine after every
// operation of a randomized store/flush/fence workload.
func TestLineCountersMatchScan(t *testing.T) {
	p := New(1 << 18)
	c := p.Ctx()
	rng := rand.New(rand.NewSource(42))
	check := func(step int) {
		d, pe := p.scanLineCounts()
		if p.DirtyLines() != d || p.PendingLines() != pe {
			t.Fatalf("step %d: counters (%d,%d) != scan (%d,%d)",
				step, p.DirtyLines(), p.PendingLines(), d, pe)
		}
	}
	for i := 0; i < 400; i++ {
		addr := p.Base() + uint64(rng.Intn(1<<18-64))
		switch rng.Intn(5) {
		case 0, 1:
			c.Store64(addr, rng.Uint64())
		case 2:
			c.StoreBytes(addr, bytes.Repeat([]byte{byte(i)}, 1+rng.Intn(200)))
		case 3:
			c.Flush(addr&^63, 64*(1+uint64(rng.Intn(4))))
		case 4:
			c.Fence()
		}
		check(i)
	}
	// And across a crash: the snapshot starts with clean lines.
	snap := p.Crash(CrashApplyPending, 0)
	if snap.DirtyLines() != 0 || snap.PendingLines() != 0 {
		t.Fatalf("snapshot counters not reset: %d/%d", snap.DirtyLines(), snap.PendingLines())
	}
	if d, pe := snap.scanLineCounts(); d != 0 || pe != 0 {
		t.Fatalf("snapshot scan not clean: %d/%d", d, pe)
	}
}

// TestIncrementalFingerprintMatchesFresh: a pool that computed fingerprints
// after every mutation (hot caches) must report the same final fingerprint
// as a twin pool hashing everything once from scratch, and the same as its
// own image read back through WriteImage/ReadImage, which carries no caches
// at all.
func TestIncrementalFingerprintMatchesFresh(t *testing.T) {
	ops := func(p *Pool, fingerprintEachStep bool) {
		c := p.Ctx()
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 64; i++ {
			addr := p.Base() + uint64(rng.Intn(1<<20-256))
			persist(c, addr, bytes.Repeat([]byte{byte(i + 1)}, 1+rng.Intn(256)))
			if i%5 == 0 {
				p.RegisterNamed("r", addr, 64)
			}
			if fingerprintEachStep {
				p.Fingerprint()
			}
		}
	}
	hot := New(1 << 20)
	ops(hot, true)
	cold := New(1 << 20)
	ops(cold, false)
	if hot.Fingerprint() != cold.Fingerprint() {
		t.Fatal("incrementally maintained fingerprint differs from fresh recompute")
	}
	var buf bytes.Buffer
	if err := hot.WriteImage(&buf); err != nil {
		t.Fatal(err)
	}
	fresh, err := ReadImage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Fingerprint() != cold.Fingerprint() {
		t.Fatal("fingerprint of the re-read image (no caches) differs")
	}
}

// TestReleaseRecycling: released snapshot pages flow through the page pool
// and must come back fully reinitialized — later snapshots see no stale
// bytes, line states, or hash caches.
func TestReleaseRecycling(t *testing.T) {
	p := New(1 << 20)
	c := p.Ctx()
	a := p.Alloc(4096)
	for round := 0; round < 8; round++ {
		payload := bytes.Repeat([]byte{byte(round + 1)}, 4096)
		persist(c, a, payload)
		snap := p.Crash(CrashDropPending, 0)
		if !snap.PersistedEquals(a, payload) {
			t.Fatalf("round %d: snapshot bytes wrong", round)
		}
		fpBefore := snap.Fingerprint()
		// Mutate the snapshot, then throw it away.
		persist(snap.Ctx(), a, bytes.Repeat([]byte{0xee}, 4096))
		if snap.Fingerprint() == fpBefore {
			t.Fatalf("round %d: snapshot fingerprint stale after write", round)
		}
		snap.Release()
		if !p.PersistedEquals(a, payload) {
			t.Fatalf("round %d: releasing the snapshot corrupted the parent", round)
		}
	}
}

// TestConcurrentParentSnapshotWrites runs parent and snapshots in parallel
// goroutines — the scenario the explorer's worker pool creates — and is the
// test the -race CI smoke leans on for the page refcount protocol.
func TestConcurrentParentSnapshotWrites(t *testing.T) {
	p := New(1 << 20)
	c := p.Ctx()
	a := p.Alloc(64 * 1024)
	persist(c, a, bytes.Repeat([]byte{0x11}, 64*1024))

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		snap := p.Crash(CrashApplyPending, int64(g))
		wg.Add(1)
		go func(s *Pool, id byte) {
			defer wg.Done()
			sc := s.Ctx()
			for i := 0; i < 50; i++ {
				addr := s.Base() + uint64(i)*997
				persist(sc, addr, bytes.Repeat([]byte{id}, 128))
				s.Fingerprint()
			}
			s.Release()
		}(snap, byte(g+2))
	}
	// The parent keeps writing concurrently.
	for i := 0; i < 50; i++ {
		persist(c, a+uint64(i)*131, bytes.Repeat([]byte{0xaa}, 256))
	}
	wg.Wait()
	if p.Fingerprint() == ([32]byte{}) {
		t.Fatal("parent unusable after concurrent snapshots")
	}
}

// FuzzCOWvsDeepCrash feeds a random store/flush/fence program — byte-level
// stores of up to 300 bytes at arbitrary offsets, so stores straddle lines
// and pages — to a pool and, through its recorded journal, to a RefPool,
// and checks that the copy-on-write crash image equals the reference's deep
// crash image (a full copy of its flat persistent bytes plus the applied
// lines) byte for byte, with a matching fingerprint, under all three
// pending-line policies.
func FuzzCOWvsDeepCrash(f *testing.F) {
	f.Add([]byte{0x01, 0x40, 0x02, 0x03, 0x01, 0x00})
	f.Add([]byte{0x01, 0x10, 0x01, 0x90, 0x02, 0x01, 0x55, 0x02})
	f.Add(bytes.Repeat([]byte{0x01, 0x20, 0x02, 0x03}, 16))
	f.Fuzz(func(t *testing.T, program []byte) {
		const size = 1 << 18
		p := New(size)
		defer p.Release()
		journal := p.RecordJournal()
		c := p.Ctx()
		for i := 0; i+1 < len(program); i += 2 {
			op, arg := program[i], uint64(program[i+1])
			addr := p.Base() + (arg*1021)%(size-512)
			switch op % 4 {
			case 0:
				c.Store64(addr, arg*0x9e3779b97f4a7c15)
			case 1:
				c.StoreBytes(addr, bytes.Repeat([]byte{byte(arg)}, 1+int(arg%300)))
			case 2:
				c.Flush(addr&^63, 64)
			case 3:
				c.Fence()
			}
		}
		ref := NewRefPool(p.Base(), p.Size())
		for i := 0; i < journal.Len(); i++ {
			ref.Apply(journal.Events[i], journal.Payload(i))
		}
		for policy := CrashDropPending; policy <= CrashRandomPending; policy++ {
			img := p.Crash(policy, 99)
			if err := ref.CheckCrash(img, policy, 99); err != nil {
				t.Fatalf("policy %d: %v", policy, err)
			}
			img.Release()
		}
	})
}
