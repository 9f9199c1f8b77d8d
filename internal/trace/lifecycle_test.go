package trace

import (
	"strings"
	"testing"
	"time"
)

// Lifecycle regression tests for the PR-6 pipeline hardening: Close is
// idempotent (covered in pipeline_test.go), Sync after Close returns
// instead of hanging, producer calls after Close fail loudly, and a
// handler panic on the consumer goroutine poisons delivery instead of
// deadlocking barriers. All run under -race in CI.

func TestPipelineSyncAfterCloseReturns(t *testing.T) {
	for _, lazy := range []bool{false, true} {
		h := &collectHandler{}
		p := NewPipeline(h, PipelineOptions{Lazy: lazy})
		p.HandleBatch(mkEvents(10))
		p.Close()
		done := make(chan struct{})
		go func() {
			p.Sync() // must return immediately, not hang or panic
			p.Sync()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("lazy=%v: Sync after Close hung", lazy)
		}
		checkStream(t, h.events, 10)
	}
}

func TestPipelineUseAfterClosePanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("%s after Close did not panic", name)
			}
			if s, ok := r.(string); !ok || !strings.Contains(s, "after Close") {
				t.Fatalf("%s after Close panicked with %v, want a use-after-Close message", name, r)
			}
		}()
		f()
	}
	p := NewPipeline(&collectHandler{}, PipelineOptions{})
	p.HandleEvent(Event{Seq: 1})
	p.Close()
	mustPanic("HandleEvent", func() { p.HandleEvent(Event{Seq: 2}) })
	mustPanic("HandleBatch", func() { p.HandleBatch(mkEvents(3)) })

	// A routed pipeline writes a strand-local event straight into its
	// strand's ring and routes every other kind: both paths check.
	sp, _ := newShardedCollectors(2, PipelineOptions{})
	sp.HandleEvent(Event{Seq: 1, Kind: KindStore, Strand: 1})
	sp.Close()
	mustPanic("routed HandleEvent", func() { sp.HandleEvent(Event{Seq: 2, Kind: KindFence, Strand: 1}) })
	mustPanic("routed HandleEvent of a global kind", func() { sp.HandleEvent(Event{Seq: 3, Kind: KindEpochBegin}) })
	mustPanic("routed HandleBatch", func() { sp.HandleBatch(mkEvents(3)) })
}

// panicAfterHandler consumes events normally until it has seen limit of
// them, then panics — the misbehaving-detector stand-in.
type panicAfterHandler struct {
	seen  int
	limit int
}

func (h *panicAfterHandler) HandleEvent(ev Event) {
	h.seen++
	if h.seen > h.limit {
		panic("detector exploded")
	}
}

func TestPipelineHandlerPanicDoesNotDeadlock(t *testing.T) {
	for _, lazy := range []bool{false, true} {
		h := &panicAfterHandler{limit: DefaultBatchSize / 2}
		p := NewPipeline(h, PipelineOptions{Depth: 2, Lazy: lazy})
		// Several times the ring's capacity: if the consumer stopped
		// recycling slabs after the panic, the producer would block here.
		for _, ev := range mkEvents(8 * DefaultBatchSize) {
			p.HandleEvent(ev)
		}
		p.Sync() // must not hang on the dead consumer
		if err := p.Err(); err == nil || !strings.Contains(err.Error(), "detector exploded") {
			t.Fatalf("lazy=%v: Err() = %v, want the recovered panic", lazy, err)
		}
		p.Close() // must not hang either
		if h.seen > h.limit+DefaultBatchSize {
			t.Fatalf("lazy=%v: delivery continued after the panic (%d events seen)", lazy, h.seen)
		}
	}
}

func TestPipelineErrNilOnHealthyRun(t *testing.T) {
	h := &collectHandler{}
	p := NewPipeline(h, PipelineOptions{})
	p.HandleBatch(mkEvents(100))
	p.Close()
	if err := p.Err(); err != nil {
		t.Fatalf("Err() = %v on a healthy run", err)
	}
}
