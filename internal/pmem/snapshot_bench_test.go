package pmem

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
)

// BenchmarkCrashSnapshot isolates the pure snapshot+release cost — no
// checker, no recovery, no workload — at several pool sizes. The pool
// carries a fixed 64 dirty pages spread across its whole span, so the
// per-image cost should stay flat as the pool grows: a directory copy and
// one refcount bump per 2 MiB, never a page walk.
func BenchmarkCrashSnapshot(b *testing.B) {
	for _, mib := range []int{16, 256, 1024} {
		size := uint64(mib) << 20
		b.Run(fmt.Sprintf("%dMiB", mib), func(b *testing.B) {
			p := spreadDirtyPool(size, 64)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				img := p.Crash(CrashDropPending, 0)
				img.Release()
			}
			b.StopTimer()
			p.Release()
		})
	}
}

// TestSnapshotAllocsConstant is the hard O(dirty) gate behind
// BenchmarkCrashSnapshot and BenchmarkFork: with the same 64 dirty pages and
// one staged line, a 16 MiB and a 1 GiB pool cost the same small constant
// number of allocations per Crash+Release (the pool, its name map, its free
// list and the recycled directory set) and per Fork+Release (plus the
// forked pending set), and a fresh image reports no private page. Work
// that allocates per chunk or per page would show as dozens of extra
// allocations at 1 GiB, and a privately materialized image as private
// pages.
func TestSnapshotAllocsConstant(t *testing.T) {
	const crashAllocs, forkAllocs = 4, 5
	for _, mib := range []uint64{16, 1024} {
		p := spreadDirtyPool(mib<<20, 64)
		c := p.Ctx()
		c.Store64(p.Base(), 1)
		c.Flush(p.Base(), 8) // staged, never fenced
		img := p.Crash(CrashDropPending, 0)
		if _, _, private := img.PageStats(); private != 0 {
			t.Fatalf("%d MiB: fresh image reports %d private pages", mib, private)
		}
		img.Release()
		for _, tc := range []struct {
			name string
			want float64
			f    func() *Pool
		}{
			{"Crash", crashAllocs, func() *Pool { return p.Crash(CrashDropPending, 0) }},
			{"Fork", forkAllocs, p.Fork},
		} {
			got := testing.AllocsPerRun(100, func() { tc.f().Release() })
			// Under the race detector a dropped directory set costs its
			// three directories again on the next snapshot.
			if got != tc.want && !(raceEnabled && got <= tc.want+3) {
				t.Errorf("%d MiB: %s+Release makes %v allocations, want %v", mib, tc.name, got, tc.want)
			}
		}
		p.Release()
	}
}

// TestFingerprintCostConstant is the O(bytes changed) gate behind
// BenchmarkFingerprintAfterCrash: after one persisted line, the parent's
// Fingerprint, a Crash, the image's Fingerprint and its Release make the
// same number of allocations at 16 MiB and 1 GiB, and the bytes they
// allocate grow by no more than the pool-level super arrays a clone copies
// (33 bytes per 32 MiB, rounded up to the allocator's size classes) — with
// the image writing nothing (drop) and with it writing one staged line
// (applied), so copying the hashes of a chunk and a page costs nothing
// that grows with the pool. Hashes kept in per-pool arrays of finer
// granularity would show as kilobytes per image at 1 GiB.
func TestFingerprintCostConstant(t *testing.T) {
	// A clone copies fpTop (header, one hash per super, names digest) and
	// superOK.
	superBytes := func(mib int) int {
		n := (mib/2 + superChunks - 1) / superChunks
		return sizeClass(topHdr+(n+1)*32) + sizeClass(n)
	}
	growth := float64(superBytes(1024) - superBytes(16))
	for _, policy := range []CrashPolicy{CrashDropPending, CrashApplyPending} {
		var allocs, allocd [2]float64
		for i, mib := range []uint64{16, 1024} {
			size := mib << 20
			p := spreadDirtyPool(size, 64)
			c := p.Ctx()
			p.Fingerprint()
			n := 0
			allocs[i], allocd[i] = allocsPerRun(100, func() {
				page := p.Base() + uint64(n%64)*(size/64)
				n++
				persist(c, page+64, []byte{byte(n), 1})
				if policy == CrashApplyPending {
					c.Store64(page+20*LineSize, uint64(n))
					c.Flush(page+20*LineSize, 8)
				}
				p.Fingerprint()
				img := p.Crash(policy, 0)
				img.Fingerprint()
				img.Release()
			})
			p.Release()
		}
		t.Logf("policy %d: %v allocations and %v bytes at 16 MiB and 1 GiB, bound %v bytes",
			policy, allocs, allocd, growth)
		if raceEnabled {
			// sync.Pool drops a random quarter of what is put back, so
			// counts and bytes vary with the recycled pages and chunks.
			continue
		}
		if allocs[0] != allocs[1] {
			t.Errorf("policy %d: %v allocations at 16 MiB, %v at 1 GiB", policy, allocs[0], allocs[1])
		}
		if allocd[1]-allocd[0] > growth {
			t.Errorf("policy %d: %v bytes at 16 MiB, %v at 1 GiB: grew by more than the super arrays' %v",
				policy, allocd[0], allocd[1], growth)
		}
	}
}

// sizeClass returns the bytes the allocator hands out for an n-byte
// pointer-free object: n rounded up to its size class, which is also the
// capacity append gives a fresh slice of n bytes.
func sizeClass(n int) int { return cap(append([]byte(nil), make([]byte, n)...)) }

// allocsPerRun is testing.AllocsPerRun reporting the bytes allocated per run
// as well, from the runtime counters testing.B's AllocedBytesPerOp reads. A
// collection first leaves the measured runs far from the next one, which
// would empty the recycling pools.
func allocsPerRun(runs int, f func()) (allocs, allocd float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	f() // warm up
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs),
		float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// spreadDirtyPool returns a pool of the given size with dirty persisted
// pages spread evenly across its span.
func spreadDirtyPool(size uint64, dirty int) *Pool {
	p := New(size)
	c := p.Ctx()
	payload := bytes.Repeat([]byte{0x5b}, 512)
	for i := 0; i < dirty; i++ {
		persist(c, p.Base()+uint64(i)*(size/uint64(dirty))+64, payload)
	}
	return p
}

// BenchmarkFork measures the fork+release cycle against the number of dirty
// pages carried: like Crash it must be O(dirty) — the directory copy plus
// one refcount bump per materialized chunk and mut chunk — so the cost
// should track the dirty count, not the pool size. Lines are left half
// staged so the pending set and mut sharing are on the measured path.
func BenchmarkFork(b *testing.B) {
	const size = uint64(256) << 20
	for _, dirty := range []int{16, 256, 4096} {
		b.Run(fmt.Sprintf("dirty=%d", dirty), func(b *testing.B) {
			p := New(size)
			c := p.Ctx()
			payload := bytes.Repeat([]byte{0x5b}, 512)
			for i := 0; i < dirty; i++ {
				addr := p.Base() + uint64(i)*(size/uint64(dirty)) + 64
				if i%2 == 0 {
					persist(c, addr, payload)
				} else {
					c.StoreBytes(addr, payload)
					c.Flush(addr, uint64(len(payload))) // staged, never fenced
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f := p.Fork()
				f.Release()
			}
			b.StopTimer()
			p.Release()
		})
	}
}

// BenchmarkFingerprintAfterCrash measures the explorer's per-point hashing
// pattern with warm caches — persist a span on one dirty page, refresh the
// parent's fingerprint, snapshot, fingerprint the image for dedup — which
// must stay O(bytes changed), not O(pool): the Merkle levels cached on
// pages, chunks and the pool absorb the directory length. Under drop the
// image writes nothing and inherits the parent's hashes; under applied one
// staged line lands in the image, as in the explorer's images, so the
// image copies that line's chunk and page and rehashes their path.
func BenchmarkFingerprintAfterCrash(b *testing.B) {
	for _, tc := range []struct {
		name   string
		policy CrashPolicy
	}{{"drop", CrashDropPending}, {"applied", CrashApplyPending}} {
		for _, mib := range []int{16, 256, 1024} {
			size := uint64(mib) << 20
			b.Run(fmt.Sprintf("%s/%dMiB", tc.name, mib), func(b *testing.B) {
				p := spreadDirtyPool(size, 64)
				c := p.Ctx()
				payload := bytes.Repeat([]byte{0x5b}, 512)
				p.Fingerprint() // warm the parent's caches
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					page := p.Base() + uint64(i%64)*(size/64)
					persist(c, page+64, payload)
					if tc.policy == CrashApplyPending {
						c.Store64(page+20*LineSize, uint64(i)+1) // staged, never fenced
						c.Flush(page+20*LineSize, 8)
					}
					p.Fingerprint()
					img := p.Crash(tc.policy, 0)
					img.Fingerprint()
					img.Release()
				}
				b.StopTimer()
				p.Release()
			})
		}
	}
}
