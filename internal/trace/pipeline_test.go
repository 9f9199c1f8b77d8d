package trace

import (
	"sync/atomic"
	"testing"
	"time"
)

// collectHandler records events and can artificially stall to exercise
// backpressure.
type collectHandler struct {
	events  []Event
	batches int
	stall   chan struct{} // when non-nil, each batch waits for a token
}

func (c *collectHandler) HandleEvent(ev Event) { c.events = append(c.events, ev) }

func (c *collectHandler) HandleBatch(evs []Event) {
	if c.stall != nil {
		<-c.stall
	}
	c.batches++
	c.events = append(c.events, evs...)
}

// eventOnlyHandler deliberately lacks HandleBatch to exercise the per-event
// fallback delivery.
type eventOnlyHandler struct {
	events []Event
}

func (c *eventOnlyHandler) HandleEvent(ev Event) { c.events = append(c.events, ev) }

func mkEvents(n int) []Event {
	evs := make([]Event, n)
	for i := range evs {
		evs[i] = Event{Seq: uint64(i + 1), Kind: KindStore, Addr: uint64(0x1000 + 8*i), Size: 8}
	}
	return evs
}

func checkStream(t *testing.T, got []Event, n int) {
	t.Helper()
	if len(got) != n {
		t.Fatalf("delivered %d events, want %d", len(got), n)
	}
	for i, ev := range got {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d: order not preserved", i, ev.Seq)
		}
	}
}

func TestPipelineDeliversInOrder(t *testing.T) {
	const n = 3*DefaultBatchSize + 17 // full slabs plus a partial tail
	h := &collectHandler{}
	p := NewPipeline(h, PipelineOptions{})
	for _, ev := range mkEvents(n) {
		p.HandleEvent(ev)
	}
	p.Close()
	checkStream(t, h.events, n)
	if h.batches < 3 {
		t.Fatalf("batch fast path unused: %d batches", h.batches)
	}
}

func TestPipelineEventOnlyFallback(t *testing.T) {
	const n = DefaultBatchSize + 5
	h := &eventOnlyHandler{}
	p := NewPipeline(h, PipelineOptions{Depth: 2})
	p.HandleBatch(mkEvents(n))
	p.Close()
	checkStream(t, h.events, n)
}

func TestPipelineSyncBarrier(t *testing.T) {
	var delivered atomic.Int64
	h := HandlerFunc(func(Event) { delivered.Add(1) })
	p := NewPipeline(h, PipelineOptions{})
	appended := int64(0)
	for round := 1; round <= 3; round++ {
		for _, ev := range mkEvents(DefaultBatchSize/2 + round) {
			p.HandleEvent(ev)
			appended++
		}
		p.Sync()
		// After Sync every event appended so far must have been handled.
		if got := delivered.Load(); got != appended {
			t.Fatalf("round %d: after Sync delivered=%d, want %d", round, got, appended)
		}
	}
	p.Close()
}

func TestPipelineSyncMidStream(t *testing.T) {
	var delivered atomic.Int64
	h := HandlerFunc(func(Event) { delivered.Add(1) })
	p := NewPipeline(h, PipelineOptions{})
	for i, ev := range mkEvents(10 * DefaultBatchSize) {
		p.HandleEvent(ev)
		if i%997 == 0 {
			p.Sync()
			if got := delivered.Load(); got != int64(i+1) {
				t.Fatalf("after Sync at event %d delivered=%d", i+1, got)
			}
		}
	}
	p.Close()
	if got := delivered.Load(); got != int64(10*DefaultBatchSize) {
		t.Fatalf("delivered %d, want %d", got, 10*DefaultBatchSize)
	}
}

// TestPipelineBackpressure stalls the consumer and checks the producer
// blocks rather than queueing unboundedly: with a depth-2 ring at most
// 2 full slabs + the staging slab can be in flight.
func TestPipelineBackpressure(t *testing.T) {
	h := &collectHandler{stall: make(chan struct{})}
	p := NewPipeline(h, PipelineOptions{Depth: 2})

	blocked := make(chan struct{})
	go func() {
		// 2 ring slabs + 1 staging slab fit; the next append must block on
		// the free ring.
		for _, ev := range mkEvents(4 * DefaultBatchSize) {
			p.HandleEvent(ev)
		}
		close(blocked)
	}()
	select {
	case <-blocked:
		t.Fatal("producer ran 4 slabs ahead of a stalled depth-2 consumer")
	default:
	}
	// Release the consumer; the producer must finish.
	go func() {
		for i := 0; i < 4; i++ {
			h.stall <- struct{}{}
		}
	}()
	<-blocked
	p.Close()
	checkStream(t, h.events, 4*DefaultBatchSize)
}

func TestPipelineCloseIdempotent(t *testing.T) {
	h := &collectHandler{}
	p := NewPipeline(h, PipelineOptions{})
	p.HandleEvent(Event{Seq: 1, Kind: KindStore, Addr: 0x1000, Size: 8})
	p.Close()
	p.Close() // second close is a no-op
	checkStream(t, h.events, 1)
}

// TestPipelineLazyDefersUntilSync checks the lazy discipline: nothing is
// delivered while slabs fit in the ring, and Sync drains everything.
func TestPipelineLazyDefersUntilSync(t *testing.T) {
	var delivered atomic.Int64
	h := HandlerFunc(func(Event) { delivered.Add(1) })
	p := NewPipeline(h, PipelineOptions{Depth: 8, Lazy: true})
	const n = 4 * DefaultBatchSize // fits in the ring with room to spare
	for _, ev := range mkEvents(n) {
		p.HandleEvent(ev)
	}
	if got := delivered.Load(); got != 0 {
		t.Fatalf("lazy consumer delivered %d events before any Sync", got)
	}
	p.Sync()
	if got := delivered.Load(); got != n {
		t.Fatalf("after Sync delivered=%d, want %d", got, n)
	}
	p.Close()
}

// TestPipelineLazyRingExhaustion overflows a small lazy ring and checks the
// producer wakes the parked consumer instead of deadlocking.
func TestPipelineLazyRingExhaustion(t *testing.T) {
	h := &collectHandler{}
	p := NewPipeline(h, PipelineOptions{Depth: 2, Lazy: true})
	const n = 6 * DefaultBatchSize // three times the ring capacity
	p.HandleBatch(mkEvents(n))
	p.Close()
	checkStream(t, h.events, n)
}

// TestPipelineLazyCloseDrains checks Close alone (no Sync) fully drains a
// lazy pipeline, including the partial staging slab.
func TestPipelineLazyCloseDrains(t *testing.T) {
	h := &collectHandler{}
	p := NewPipeline(h, PipelineOptions{Lazy: true})
	const n = 2*DefaultBatchSize + 31
	for _, ev := range mkEvents(n) {
		p.HandleEvent(ev)
	}
	p.Close()
	checkStream(t, h.events, n)
}

// TestPipelineLazyRepeatedSync exercises the park/wake cycle: each Sync must
// wake the re-parked consumer and observe a complete prefix.
func TestPipelineLazyRepeatedSync(t *testing.T) {
	var delivered atomic.Int64
	h := HandlerFunc(func(Event) { delivered.Add(1) })
	p := NewPipeline(h, PipelineOptions{Lazy: true})
	appended := int64(0)
	for round := 1; round <= 5; round++ {
		for _, ev := range mkEvents(DefaultBatchSize + round) {
			p.HandleEvent(ev)
			appended++
		}
		p.Sync()
		if got := delivered.Load(); got != appended {
			t.Fatalf("round %d: after Sync delivered=%d, want %d", round, got, appended)
		}
	}
	p.Close()
}

// TestPipelineLazySlabs checks a ring takes its slabs as events arrive:
// none before its first event, the two that 5,000 events fill, never more
// than its depth however much it is fed, and none once closed.
func TestPipelineLazySlabs(t *testing.T) {
	const total = 5 * DefaultPipelineDepth * DefaultBatchSize
	evs := mkEvents(total)
	h := &collectHandler{}
	p := NewPipeline(h, PipelineOptions{Lazy: true})
	r := p.rings[0]
	if r.slabs != 0 || r.cur != nil {
		t.Fatalf("ring holds %d slabs before its first event", r.slabs)
	}
	p.HandleBatch(evs[:5000])
	p.Sync()
	if r.slabs != 2 {
		t.Fatalf("ring holds %d slabs after 5000 events, want 2", r.slabs)
	}
	for off := 5000; off < total; off += DefaultBatchSize / 2 {
		p.HandleBatch(evs[off:min(off+DefaultBatchSize/2, total)])
		if r.slabs > DefaultPipelineDepth {
			t.Fatalf("ring holds %d slabs after %d events, depth %d", r.slabs, off, DefaultPipelineDepth)
		}
	}
	if r.slabs != DefaultPipelineDepth {
		t.Fatalf("parked ring fed %d slabs holds %d, want its depth %d",
			total/DefaultBatchSize, r.slabs, DefaultPipelineDepth)
	}
	p.Close()
	if r.slabs != 0 || len(r.free) != 0 {
		t.Fatalf("closed ring holds %d slabs (%d recycled)", r.slabs, len(r.free))
	}
	checkStream(t, h.events, total)
}

// TestPipelineSyncBehindFullRing syncs a ring whose every slab is full and
// not yet drained: the marker must find room behind them, or a parked lazy
// consumer is never woken.
func TestPipelineSyncBehindFullRing(t *testing.T) {
	for _, lazy := range []bool{false, true} {
		h := &collectHandler{}
		p := NewPipeline(h, PipelineOptions{Depth: 2, Lazy: lazy})
		p.HandleBatch(mkEvents(2 * DefaultBatchSize))
		done := make(chan struct{})
		go func() {
			p.Sync()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("lazy=%v: Sync behind 2 full slabs of a depth-2 ring hung", lazy)
		}
		checkStream(t, h.events, 2*DefaultBatchSize)
		p.Close()
	}
}

// TestPipelineRecorderEquivalence checks a recorded pipelined stream is
// byte-identical to the input stream.
func TestPipelineRecorderEquivalence(t *testing.T) {
	evs := mkEvents(2*DefaultBatchSize + 123)
	rec := NewRecorder(len(evs))
	p := NewPipeline(rec, PipelineOptions{})
	p.HandleBatch(evs)
	p.Close()
	if len(rec.Events) != len(evs) {
		t.Fatalf("recorded %d events, want %d", len(rec.Events), len(evs))
	}
	for i := range evs {
		if rec.Events[i] != evs[i] {
			t.Fatalf("event %d differs: got %v want %v", i, rec.Events[i], evs[i])
		}
	}
}
