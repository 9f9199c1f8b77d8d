package pmem

import (
	"bytes"
	"fmt"
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
// pattern — dirty a page, refresh the parent's Merkle caches, snapshot,
// fingerprint the image for dedup — which must stay O(dirty), not O(pool):
// the group and super cache levels absorb the directory length.
func BenchmarkFingerprintAfterCrash(b *testing.B) {
	for _, mib := range []int{16, 256, 1024} {
		size := uint64(mib) << 20
		b.Run(fmt.Sprintf("%dMiB", mib), func(b *testing.B) {
			p := spreadDirtyPool(size, 64)
			c := p.Ctx()
			payload := bytes.Repeat([]byte{0x5b}, 512)
			p.Fingerprint() // warm the parent's caches
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				persist(c, p.Base()+uint64(i%64)*(size/64)+64, payload)
				p.Fingerprint()
				img := p.Crash(CrashDropPending, 0)
				img.Fingerprint()
				img.Release()
			}
			b.StopTimer()
			p.Release()
		})
	}
}
