package crashtest

import (
	"fmt"
	"testing"

	"pmdebugger/internal/pmem"
)

// benchProg is a dispatcher-bound workload: many small persists spread over
// enough pages that every boundary materializes a distinct image, with no
// prunable stretches — the worst case for the dispatch loop and the best
// case for measuring raw images/sec.
func benchProg(pm *pmem.Pool) error {
	c := pm.Ctx()
	base := pm.Base()
	for i := uint64(0); i < 160; i++ {
		a := base + (i%40)*4096 + (i/40)*64
		c.Store64(a, i+1)
		c.Flush(a, 8)
		c.Fence()
	}
	return nil
}

// pendingProg keeps multi-line pending sets alive across boundaries: each
// round stages four lines with one flush each before a single fence, so
// CrashRandomPending has up to sixteen outcomes per boundary and many seeds
// agree on one — the case outcome-keyed deduplication serves without
// building an image.
func pendingProg(pm *pmem.Pool) error {
	c := pm.Ctx()
	base := pm.Base()
	for i := uint64(0); i < 40; i++ {
		for j := uint64(0); j < 4; j++ {
			a := base + (i%10)*4096 + j*64
			c.Store64(a, i*4+j+1)
			c.Flush(a, 8)
		}
		c.Fence()
	}
	return nil
}

// BenchmarkDispatcher isolates the explorer's image production rate: a
// checker that does nothing, so all measured time is journal replay,
// snapshot materialization, fingerprinting and scheduling. The per-segment
// scaling of images/sec is the number the segment_scaling artifact section
// gates on; the random-policy case measures sixteen seeds per boundary over
// multi-line pending sets.
func BenchmarkDispatcher(b *testing.B) {
	for _, segs := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("segments=%d", segs), func(b *testing.B) {
			benchDispatch(b, benchProg, Config{Workers: 2, Prune: true, Dedup: true, Segments: segs})
		})
	}
	b.Run("policy=random/seeds=16", func(b *testing.B) {
		benchDispatch(b, pendingProg, Config{Workers: 2, Prune: true, Dedup: true,
			Policy: pmem.CrashRandomPending, Seeds: seedRange(1, 16)})
	})
}

// benchDispatch runs the explorer b.N times with a checker that does
// nothing and reports checked images per second.
func benchDispatch(b *testing.B, prog Program, cfg Config) {
	noop := func(img *pmem.Pool) error { return nil }
	var images int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run(prog, noop, cfg)
		if err != nil {
			b.Fatal(err)
		}
		images += res.Images
	}
	b.StopTimer()
	if b.Elapsed() > 0 {
		b.ReportMetric(float64(images)/b.Elapsed().Seconds(), "images/s")
	}
}
