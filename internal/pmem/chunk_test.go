package pmem

import (
	"bytes"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// chunkSpan is the bytes of address space one table chunk covers (2 MiB).
const chunkSpan = chunkSlots * PageSize

// TestChunkBoundaryStraddle covers accesses crossing a chunk boundary —
// where the page walk must hop root-directory slots mid-access: byte-slice
// and scalar stores, loads, in-place compares, and the crash image of the
// result under every pending-line policy.
func TestChunkBoundaryStraddle(t *testing.T) {
	const size = 1 << 23 // 4 chunks
	p := New(size)
	c := p.Ctx()
	boundary := p.Base() + chunkSpan

	payload := make([]byte, 8192)
	for i := range payload {
		payload[i] = byte(i*7 + 3)
	}
	persist(c, boundary-4096, payload) // pages 511 and 512: chunks 0 and 1

	// A scalar write straddling the last page of chunk 0 and the first of
	// chunk 1 takes the byte-slice fallback; it must land on both sides.
	c.Store64(boundary-4, 0x1122334455667788)
	c.Persist(boundary-4, 8)

	want := append([]byte(nil), payload...)
	copy(want[4092:], []byte{0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11})
	if got := c.LoadBytes(boundary-4096, 8192); !bytes.Equal(got, want) {
		t.Fatal("straddling load differs from straddling stores")
	}
	if v := c.Load64(boundary - 4); v != 0x1122334455667788 {
		t.Fatalf("straddling scalar load = %#x", v)
	}
	if !c.EqualBytes(boundary-4096, string(want)) {
		t.Fatal("EqualBytes disagrees across the chunk boundary")
	}
	if !p.PersistedEquals(boundary-4096, want) {
		t.Fatal("persistent image wrong across the chunk boundary")
	}

	for policy := CrashDropPending; policy <= CrashRandomPending; policy++ {
		img := p.Crash(policy, 5)
		if !img.PersistedEquals(boundary-4096, want) {
			t.Fatalf("policy %d: crash image wrong across the chunk boundary", policy)
		}
		img.Release()
	}
}

// TestChunkRefcountLifecycle pins the chunk-granular sharing discipline:
// Crash shares chunks wholesale, a write unshares exactly the chunk it
// lands in, untouched and all-zero chunks keep their state, and Release
// hands the snapshot's references back.
func TestChunkRefcountLifecycle(t *testing.T) {
	p := New(1 << 23) // 4 chunks
	c := p.Ctx()
	persist(c, p.Base(), []byte("chunk zero data"))
	persist(c, p.Base()+2*chunkSpan+512, []byte("chunk two data!"))

	snap := p.Crash(CrashDropPending, 0)
	if snap.persist[0] != p.persist[0] || snap.persist[2] != p.persist[2] {
		t.Fatal("snapshot does not share the parent's chunks")
	}
	// parent persist + snapshot persist + snapshot volatile all reference
	// the materialized chunks.
	if refs := atomic.LoadInt32(&p.persist[0].refs); refs != 3 {
		t.Fatalf("chunk 0 refs = %d after crash, want 3", refs)
	}
	if p.persist[1] != nil || snap.persist[1] != nil {
		t.Fatal("all-zero chunk materialized by the snapshot")
	}

	// A snapshot write unshares only the chunk it lands in.
	persist(snap.Ctx(), snap.Base(), []byte("snapshot change!"))
	if snap.persist[0] == p.persist[0] {
		t.Fatal("written chunk still shared")
	}
	if snap.persist[2] != p.persist[2] {
		t.Fatal("untouched chunk lost its sharing")
	}
	if !p.PersistedEquals(p.Base(), []byte("chunk zero data")) {
		t.Fatal("snapshot write leaked into the parent")
	}
	if !snap.PersistedEquals(snap.Base(), []byte("snapshot change!")) {
		t.Fatal("snapshot lost its own write")
	}

	snap.Release()
	if refs := atomic.LoadInt32(&p.persist[0].refs); refs != 1 {
		t.Fatalf("chunk 0 refs = %d after release, want 1", refs)
	}
	if refs := atomic.LoadInt32(&p.persist[2].refs); refs != 1 {
		t.Fatalf("chunk 2 refs = %d after release, want 1", refs)
	}
	if !p.PersistedEquals(p.Base()+2*chunkSpan+512, []byte("chunk two data!")) {
		t.Fatal("parent data lost after snapshot release")
	}
}

// TestRecycledChunkCleanliness checks the recycling contract at both levels:
// a chunk dies with every slot nil'd (so a recycled chunk can't leak stale
// page pointers), and a pool built after heavy churn through the recycler
// reads all-zero outside its own writes.
func TestRecycledChunkCleanliness(t *testing.T) {
	ch := newChunk()
	for i := 0; i < 8; i++ {
		ch.pages[i*63] = newPage()
	}
	ch.retain()
	ch.release() // still one reference: slots must survive
	if ch.pages[0] == nil {
		t.Fatal("non-final release cleared the chunk")
	}
	ch.release() // dies: pages released, slots cleared
	for i, pg := range ch.pages {
		if pg != nil {
			t.Fatalf("slot %d survived into the recycler", i)
		}
	}

	// Churn chunks through crash/release cycles, then verify a fresh pool
	// that materializes (possibly recycled) chunks reads zero everywhere it
	// did not write.
	p := New(1 << 22)
	c := p.Ctx()
	for i := 0; i < 64; i++ {
		persist(c, p.Base()+uint64(i)*65536, bytes.Repeat([]byte{0xdd}, 4096))
	}
	snap := p.Crash(CrashDropPending, 0)
	persist(snap.Ctx(), snap.Base()+12345, bytes.Repeat([]byte{0xee}, 300))
	snap.Release()
	p.Release()

	q := New(1 << 22)
	persist(q.Ctx(), q.Base()+1<<21, []byte{0x5a})
	img := q.PersistedBytes(q.Base(), 1<<22)
	for i, b := range img {
		want := byte(0)
		if i == 1<<21 {
			want = 0x5a
		}
		if b != want {
			t.Fatalf("offset %d reads %#x in a fresh pool (recycled chunk dirty)", i, b)
		}
	}
}

// TestPageStatsCountersMatchScan asserts the O(1) PageStats counters
// against the structural scan: exactly in every phase where the counters
// are defined to be exact (a pool's own operations, both sides of a fresh
// clone, clone-local writes), and by the conservative invariants (zero
// exact, sum exact, shared never under-reported) once a related pool has
// written. Each subtest takes one kind of clone of the same pool: chunked,
// a chunk-shared crash image; fork, a Fork.
func TestPageStatsCountersMatchScan(t *testing.T) {
	const size = 1 << 23 // 4 chunks, 2048 pages
	exact := func(t *testing.T, pool *Pool, stage string) {
		t.Helper()
		z, s, pr := pool.PageStats()
		sz, ss, sp := pool.scanPageStats()
		if z != sz || s != ss || pr != sp {
			t.Fatalf("%s: counters (%d,%d,%d) != scan (%d,%d,%d)",
				stage, z, s, pr, sz, ss, sp)
		}
	}
	// populate returns a pool after 40 persisted writes, with some lines
	// left pending so the apply policy duplicates chunks inside Crash.
	populate := func(t *testing.T) (*Pool, *rand.Rand) {
		p := New(size)
		c := p.Ctx()
		rng := rand.New(rand.NewSource(17))
		for i := 0; i < 40; i++ {
			off := uint64(rng.Intn(size - 4096))
			persist(c, p.Base()+off, bytes.Repeat([]byte{byte(i + 1)}, 1+rng.Intn(600)))
			exact(t, p, "single-pool op")
		}
		c.StoreBytes(p.Base()+uint64(rng.Intn(size-64)), bytes.Repeat([]byte{0x7f}, 64))
		c.Flush(p.Base(), 64)
		return p, rng
	}
	// cloneWrites writes into clone, which must keep its counters exact;
	// then, with the clone's chunks unshared, the parent writes too: its
	// counters may over-report sharing but never under-report it, and the
	// zero count stays exact.
	cloneWrites := func(t *testing.T, p, clone *Pool, rng *rand.Rand) {
		cc := clone.Ctx()
		for i := 0; i < 20; i++ {
			off := uint64(rng.Intn(size - 4096))
			persist(cc, clone.Base()+off, bytes.Repeat([]byte{0xee}, 1+rng.Intn(300)))
			exact(t, clone, "clone op")
		}
		persist(p.Ctx(), p.Base()+128, bytes.Repeat([]byte{0x21}, 64))
		z, s, pr := p.PageStats()
		sz, ss, sp := p.scanPageStats()
		if z != sz {
			t.Fatalf("parent zero count %d != scan %d", z, sz)
		}
		if s+pr != ss+sp {
			t.Fatalf("parent materialized count %d != scan %d", s+pr, ss+sp)
		}
		if s < ss {
			t.Fatalf("parent counters under-report shared: %d < scan %d", s, ss)
		}
	}

	t.Run("chunked", func(t *testing.T) {
		p, rng := populate(t)
		defer p.Release()
		snap := p.Crash(CrashApplyPending, 0)
		defer snap.Release()
		exact(t, p, "parent after crash")
		exact(t, snap, "fresh image")
		z, s, pr := snap.PageStats()
		if z+s+pr != snap.npages {
			t.Fatalf("image counters sum %d, want %d", z+s+pr, snap.npages)
		}
		if pr != 0 {
			t.Fatalf("fresh image reports %d private pages", pr)
		}
		cloneWrites(t, p, snap, rng)
	})
	t.Run("fork", func(t *testing.T) {
		p, rng := populate(t)
		defer p.Release()
		fork := p.Fork()
		defer fork.Release()
		exact(t, p, "parent after fork")
		exact(t, fork, "fresh fork")
		cloneWrites(t, p, fork, rng)
	})
}

// TestConcurrentSnapshotChunkWrites is the -race exercise for the chunk
// level: several snapshots unshare the same chunks concurrently while the
// parent writes into them and a churn goroutine creates and releases more
// snapshots — the duplicate-vs-release window on chunk refcounts. Each
// snapshot must end with exactly its own writes.
func TestConcurrentSnapshotChunkWrites(t *testing.T) {
	const size = 1 << 23
	const regions = 16
	p := New(size)
	c := p.Ctx()
	for i := 0; i < regions; i++ {
		persist(c, p.Base()+uint64(i)*(size/regions), bytes.Repeat([]byte{0x11}, 256))
	}
	snaps := make([]*Pool, 4)
	for i := range snaps {
		snaps[i] = p.Crash(CrashDropPending, 0)
	}
	var wg sync.WaitGroup
	for id, s := range snaps {
		wg.Add(1)
		go func(id byte, s *Pool) {
			defer wg.Done()
			sc := s.Ctx()
			for i := 0; i < regions; i++ {
				persist(sc, s.Base()+uint64(i)*(size/regions), bytes.Repeat([]byte{0x40 + id}, 128))
			}
			s.Fingerprint()
		}(byte(id), s)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			p.Crash(CrashDropPending, 0).Release()
		}
	}()
	for i := 0; i < regions; i++ {
		persist(c, p.Base()+uint64(i)*(size/regions), bytes.Repeat([]byte{0xaa}, 128))
	}
	wg.Wait()
	for id, s := range snaps {
		for i := 0; i < regions; i++ {
			addr := s.Base() + uint64(i)*(size/regions)
			if !s.PersistedEquals(addr, bytes.Repeat([]byte{byte(0x40 + id)}, 128)) {
				t.Fatalf("snapshot %d region %d lost its write", id, i)
			}
		}
		s.Release()
	}
	for i := 0; i < regions; i++ {
		if !p.PersistedEquals(p.Base()+uint64(i)*(size/regions), bytes.Repeat([]byte{0xaa}, 128)) {
			t.Fatalf("parent region %d lost its write", i)
		}
	}
}

// TestPartialTailChunk covers a pool whose last chunk is only partially
// populated (size not a multiple of the chunk span): fingerprints, crash
// images and image serialization must all bound their walks by the page
// count, not the directory capacity.
func TestPartialTailChunk(t *testing.T) {
	size := uint64(2*chunkSpan + 96*1024) // 2 full chunks + 24-page tail
	p := New(size)
	c := p.Ctx()
	end := p.Base() + size
	tail := bytes.Repeat([]byte{0x3c}, 200)
	persist(c, end-200, tail)
	persist(c, p.Base()+chunkSpan/2, []byte("middle"))
	fp := p.Fingerprint()

	snap := p.Crash(CrashDropPending, 0)
	if snap.Fingerprint() != fp {
		t.Fatal("snapshot fingerprint differs from parent")
	}
	if !snap.PersistedEquals(end-200, tail) {
		t.Fatal("tail-chunk bytes lost in the snapshot")
	}
	snap.Release()

	var buf bytes.Buffer
	if err := p.WriteImage(&buf); err != nil {
		t.Fatal(err)
	}
	q, err := ReadImage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if q.Fingerprint() != fp {
		t.Fatal("image round trip changed the fingerprint")
	}
	if z, s, pr := q.PageStats(); func() bool {
		sz, ss, sp := q.scanPageStats()
		return z != sz || s != ss || pr != sp
	}() {
		t.Fatal("ReadImage counters diverge from the scan")
	}
}

// FuzzChunkedVsFlat feeds a random store/flush/fence program spanning
// several chunks to a pool and, through its recorded journal, to a RefPool
// — the flat-byte model — and checks that the chunk-shared crash images
// equal the reference's byte for byte under all three pending-line
// policies, including a second crash generation taken after writing into
// each first image across a chunk boundary (the shared-chunk write path).
func FuzzChunkedVsFlat(f *testing.F) {
	f.Add([]byte{0x01, 0x40, 0x02, 0x03, 0x01, 0x00})
	f.Add([]byte{0x01, 0x10, 0x00, 0xfe, 0x02, 0x01, 0x55, 0x02, 0x03, 0x80})
	f.Add(bytes.Repeat([]byte{0x00, 0xf0, 0x01, 0x20, 0x02, 0x03}, 12))
	f.Fuzz(func(t *testing.T, program []byte) {
		const size = 1 << 23 // 4 chunks
		p := New(size)
		defer p.Release()
		journal := p.RecordJournal()
		c := p.Ctx()
		for i := 0; i+1 < len(program); i += 2 {
			op, arg := program[i], uint64(program[i+1])
			addr := p.Base() + (arg*65539)%(size-600)
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
			img := p.Crash(policy, 42)
			if err := ref.CheckCrash(img, policy, 42); err != nil {
				t.Fatalf("policy %d: %v", policy, err)
			}
			if err := crashSecondGeneration(img, ref.Crash(policy, 42), policy); err != nil {
				t.Fatalf("policy %d: second generation: %v", policy, err)
			}
			img.Release()
		}
	})
}
