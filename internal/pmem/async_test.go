package pmem

import (
	"testing"

	"pmdebugger/internal/trace"
)

// drive emits a deterministic mixed stream: stores, flushes, fences, a
// named region, an epoch and a strand section.
func drive(p *Pool, rounds int) {
	c := p.Ctx()
	base := p.Base()
	p.RegisterNamed("counter", base, 8)
	for r := 0; r < rounds; r++ {
		a := base + uint64(r%64)*LineSize
		c.Store64(a, uint64(r))
		c.Store64(a+8, uint64(r)*3)
		c.Flush(a, 16)
		if r%4 == 3 {
			c.Fence()
		}
		if r%16 == 5 {
			c.EpochBegin()
			c.Store64(base+4096, uint64(r))
			c.Persist(base+4096, 8)
			c.EpochEnd()
		}
		if r%16 == 9 {
			s := c.StrandBegin()
			s.Store64(base+8192, uint64(r))
			s.Persist(base+8192, 8)
			s.StrandEnd()
		}
	}
	c.Fence()
}

// TestAsyncDeliveryIdenticalStream runs the same deterministic program with
// a synchronous recorder and an asynchronous one attached to one pool and
// requires the recorded streams to be identical event-for-event.
func TestAsyncDeliveryIdenticalStream(t *testing.T) {
	p := New(1 << 20)
	syncRec := trace.NewRecorder(1024)
	asyncRec := trace.NewRecorder(1024)
	p.Attach(syncRec)
	p.AttachAsync(asyncRec)
	drive(p, 200)
	p.End()

	// The async recorder missed the sync recorder's attach Register (it
	// was attached one event later), so align on the async recorder's
	// first event.
	if len(asyncRec.Events) == 0 {
		t.Fatal("async recorder saw no events")
	}
	start := 0
	for start < len(syncRec.Events) && syncRec.Events[start].Seq < asyncRec.Events[0].Seq {
		start++
	}
	syncTail := syncRec.Events[start:]
	if len(syncTail) != len(asyncRec.Events) {
		t.Fatalf("stream lengths differ: sync %d async %d", len(syncTail), len(asyncRec.Events))
	}
	for i := range syncTail {
		if syncTail[i] != asyncRec.Events[i] {
			t.Fatalf("event %d differs: sync %v async %v", i, syncTail[i], asyncRec.Events[i])
		}
	}
}

// TestAsyncSyncBarrier checks Pool.Sync and EventCount drain the pipeline.
func TestAsyncSyncBarrier(t *testing.T) {
	p := New(1 << 20)
	rec := trace.NewRecorder(1024)
	p.AttachAsync(rec)
	drive(p, 100)
	if n := p.EventCount(); uint64(rec.Len()) != n {
		t.Fatalf("after EventCount barrier: recorder has %d events, pool emitted %d", rec.Len(), n)
	}
	drive(p, 50)
	p.Sync()
	if n := p.EventCount(); uint64(rec.Len()) != n {
		t.Fatalf("after Sync: recorder has %d events, pool emitted %d", rec.Len(), n)
	}
}

// TestAsyncDetachDrains checks Detach by the inner handler stops the
// pipeline only after it delivered everything.
func TestAsyncDetachDrains(t *testing.T) {
	p := New(1 << 20)
	rec := trace.NewRecorder(1024)
	pipe := p.AttachAsync(rec)
	if pipe == nil {
		t.Fatal("AttachAsync returned nil pipeline")
	}
	drive(p, 100)
	emitted := p.EventCount()
	p.Detach(rec)
	if uint64(rec.Len()) != emitted {
		t.Fatalf("after Detach: recorder has %d events, want %d", rec.Len(), emitted)
	}
	// The pool must keep working with the handler gone.
	drive(p, 10)
	if uint64(rec.Len()) == p.EventCount() {
		t.Fatal("detached handler kept receiving events")
	}
}

// TestAsyncDetachByPipeline checks Detach accepts the pipeline itself.
func TestAsyncDetachByPipeline(t *testing.T) {
	p := New(1 << 20)
	rec := trace.NewRecorder(16)
	pipe := p.AttachAsync(rec)
	drive(p, 10)
	p.Detach(pipe)
	if len(p.handlers) != 0 || len(p.conduits) != 0 {
		t.Fatalf("pipeline not fully detached: %d handlers, %d pipelines",
			len(p.handlers), len(p.conduits))
	}
}

// TestAsyncCrashTrapDelivery arms a crash trap and checks the
// asynchronously attached recorder has every event up to and including the
// trapped one when the CrashTrap panic unwinds.
func TestAsyncCrashTrapDelivery(t *testing.T) {
	for _, offset := range []uint64{1, 7, 64, 201} {
		p := New(1 << 20)
		rec := trace.NewRecorder(1024)
		p.AttachAsync(rec)
		trap := p.EventCount() + offset // attach already emitted a Register
		p.SetCrashTrap(trap)
		func() {
			defer func() {
				r := recover()
				ct, ok := r.(CrashTrap)
				if !ok {
					t.Fatalf("trap %d: expected CrashTrap panic, got %v", trap, r)
				}
				if ct.Seq != trap {
					t.Fatalf("trap %d: fired at seq %d", trap, ct.Seq)
				}
				if got := uint64(rec.Len()); got != trap {
					t.Fatalf("trap %d: async recorder saw %d events at unwind", trap, got)
				}
				if last := rec.Events[rec.Len()-1]; last.Seq != trap {
					t.Fatalf("trap %d: last delivered event has seq %d", trap, last.Seq)
				}
			}()
			drive(p, 100)
		}()
	}
}

// TestAsyncCrashImageBarrier checks Crash drains async handlers before
// snapshotting.
func TestAsyncCrashImageBarrier(t *testing.T) {
	p := New(1 << 20)
	rec := trace.NewRecorder(1024)
	p.AttachAsync(rec)
	drive(p, 100)
	img := p.Crash(CrashDropPending, 0)
	if img == nil {
		t.Fatal("Crash returned nil")
	}
	if uint64(rec.Len()) != p.EventCount() {
		t.Fatalf("crash image taken with %d of %d events delivered", rec.Len(), p.EventCount())
	}
}
