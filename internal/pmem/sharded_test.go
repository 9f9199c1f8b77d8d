package pmem

import (
	"reflect"
	"testing"

	"pmdebugger/internal/core"
	"pmdebugger/internal/rules"
	"pmdebugger/internal/trace"
)

// strandCfg is the shardable detector configuration used throughout these
// tests.
func strandCfg() core.Config { return core.Config{Model: rules.Strand} }

// driveStrands runs n strand sections, each persisting one slot; every
// third leaves its store unflushed so reports carry bugs to compare.
func driveStrands(p *Pool, n int) {
	c := p.Ctx()
	base := p.Base()
	for i := 0; i < n; i++ {
		st := c.StrandBegin()
		a := base + uint64(i%128)*LineSize
		st.Store64(a, uint64(i))
		if i%3 != 0 {
			st.Persist(a, 8)
		}
		st.StrandEnd()
	}
}

// TestShardedAttachReportEquality is the pool-level differential: a
// ShardedDetector attached with AttachOptions.Shards — per-shard consumer
// goroutines, direct slot staging and all — must report exactly
// what an inline engine reports for the same program.
func TestShardedAttachReportEquality(t *testing.T) {
	program := func(p *Pool) {
		drive(p, 300) // the mixed stream: epochs, strands, registers
		driveStrands(p, 100)
		p.End()
	}

	pi := New(1 << 20)
	inline := core.New(strandCfg())
	pi.Attach(inline)
	program(pi)
	want := inline.Report().Summary()

	p := New(1 << 20)
	sd := core.NewSharded(strandCfg(), 4)
	pipe := p.AttachWith(sd, AttachOptions{Async: true, Shards: 4})
	if pipe == nil || pipe.Shards() != 4 {
		t.Fatal("sharded attach did not return a 4-shard pipeline")
	}
	if sd.Fallback() {
		t.Fatalf("unexpected fallback: %s", sd.FallbackReason())
	}
	if st := p.Stats(); st.ShardedAttaches != 1 || st.ShardedFallbacks != 0 {
		t.Fatalf("stats %+v, want 1 sharded attach, 0 fallbacks", st)
	}
	program(p)
	if got := sd.Report().Summary(); got != want {
		t.Fatalf("sharded live report differs from inline\n--- inline ---\n%s--- sharded ---\n%s",
			want, got)
	}
}

// TestShardedAttachFallbackCounted checks both fallback shapes — a
// non-shardable configuration and a handler that is no Sharder at all —
// are counted in Stats.ShardedFallbacks and still deliver correctly.
func TestShardedAttachFallbackCounted(t *testing.T) {
	// A strict configuration: the ShardedDetector itself declines.
	pi := New(1 << 20)
	inline := core.New(core.Config{Model: rules.Strict})
	pi.Attach(inline)
	drive(pi, 200)
	pi.End()

	p := New(1 << 20)
	sd := core.NewSharded(core.Config{Model: rules.Strict}, 4)
	if !sd.Fallback() {
		t.Fatal("strict config should fall back")
	}
	p.AttachWith(sd, AttachOptions{Async: true, Shards: 4})
	if st := p.Stats(); st.ShardedAttaches != 1 || st.ShardedFallbacks != 1 {
		t.Fatalf("stats %+v, want the fallback counted", st)
	}
	drive(p, 200)
	p.End()
	if got, want := sd.Report().Summary(), inline.Report().Summary(); got != want {
		t.Fatalf("fallback report differs from inline\n--- inline ---\n%s--- fallback ---\n%s", want, got)
	}

	// A plain recorder is no trace.Sharder: same counter, plain pipeline.
	p2 := New(1 << 20)
	rec := trace.NewRecorder(64)
	p2.AttachWith(rec, AttachOptions{Async: true, Shards: 4})
	if st := p2.Stats(); st.ShardedAttaches != 1 || st.ShardedFallbacks != 1 {
		t.Fatalf("non-sharder stats %+v, want the fallback counted", st)
	}
	drive(p2, 50)
	p2.End()
	if rec.Len() == 0 {
		t.Fatal("fallback pipeline delivered nothing")
	}
}

// recSharder is a test Sharder that records each shard's deliveries.
type recSharder struct {
	recs []*trace.Recorder
}

func newRecSharder(shards int) *recSharder {
	s := &recSharder{recs: make([]*trace.Recorder, shards)}
	for i := range s.recs {
		s.recs[i] = trace.NewRecorder(0)
	}
	return s
}

func (s *recSharder) HandleEvent(ev trace.Event) { s.recs[0].HandleEvent(ev) }
func (s *recSharder) ShardHandlers() []trace.Handler {
	hs := make([]trace.Handler, len(s.recs))
	for i, r := range s.recs {
		hs[i] = r
	}
	return hs
}

// TestShardedCrashTrapDrainsAllShards arms a crash trap under a sharded
// attach and checks the drain-before-trap barrier covers every shard: when
// the CrashTrap panic unwinds, each shard recorder holds its complete
// routed subsequence up to and including the trapped event.
func TestShardedCrashTrapDrainsAllShards(t *testing.T) {
	const shards = 3
	for _, offset := range []uint64{2, 17, 100, 301} {
		p := New(1 << 20)
		s := newRecSharder(shards)
		p.AttachWith(s, AttachOptions{Async: true, Shards: shards})
		trap := p.EventCount() + offset
		p.SetCrashTrap(trap)
		func() {
			defer func() {
				ct, ok := recover().(CrashTrap)
				if !ok || ct.Seq != trap {
					t.Fatalf("trap %d: unexpected unwind value %v", trap, ct)
				}
				// Reconstruct expectations: the attach Register (seq 1) is
				// broadcast to every shard; everything else in this program
				// is strand-local and lands exactly once, on its strand's
				// shard. No joins or End events fire before the trap.
				total, maxSeq := 0, uint64(0)
				for i, rec := range s.recs {
					for j, ev := range rec.Events {
						if ev.Seq > maxSeq {
							maxSeq = ev.Seq
						}
						if j > 0 && ev.Seq <= rec.Events[j-1].Seq {
							t.Fatalf("trap %d shard %d: out of order at %d", trap, i, j)
						}
						if ev.Kind != trace.KindRegister && int(uint32(ev.Strand)%shards) != i {
							t.Fatalf("trap %d: shard %d got strand %d's event %v", trap, i, ev.Strand, ev)
						}
					}
					total += rec.Len()
				}
				want := int(trap) - 1 + shards // trap events, Register counted shards times
				if total != want {
					t.Fatalf("trap %d: shards hold %d events at unwind, want %d", trap, total, want)
				}
				if maxSeq != trap {
					t.Fatalf("trap %d: newest delivered event is %d", trap, maxSeq)
				}
			}()
			driveStrands(p, 200)
		}()
	}
}

// TestShardedDetachClosesConduit checks Detach by the composite handler
// resolves and closes the sharded pipeline.
func TestShardedDetachClosesConduit(t *testing.T) {
	p := New(1 << 20)
	sd := core.NewSharded(strandCfg(), 2)
	p.AttachWith(sd, AttachOptions{Async: true, Shards: 2})
	driveStrands(p, 50)
	p.Detach(sd)
	if len(p.handlers) != 0 || len(p.conduits) != 0 {
		t.Fatalf("sharded conduit not fully detached: %d handlers, %d conduits",
			len(p.handlers), len(p.conduits))
	}
	// Detach drained before closing: the detector saw the whole stream.
	if c := sd.Report().Counters; c.Stores != 50 {
		t.Fatalf("detector saw %d stores before detach, want 50", c.Stores)
	}
	// The pool keeps working with the conduit gone.
	driveStrands(p, 10)
}

// TestLoneHandlerFastPath checks the pool hands events straight to the
// attached handler exactly when it is the only one and no crash trap is
// armed, whatever the handler is.
func TestLoneHandlerFastPath(t *testing.T) {
	attaches := []struct {
		name   string
		attach func(p *Pool) trace.Handler // returns what p.lone must be
	}{
		{"inline detector", func(p *Pool) trace.Handler {
			d := core.New(strandCfg())
			p.Attach(d)
			return d
		}},
		{"recorder", func(p *Pool) trace.Handler {
			r := trace.NewRecorder(16)
			p.Attach(r)
			return r
		}},
		{"pipeline", func(p *Pool) trace.Handler {
			return p.AttachAsync(core.New(strandCfg()))
		}},
		{"sharded pipeline", func(p *Pool) trace.Handler {
			pipe := p.AttachWith(core.NewSharded(strandCfg(), 2), AttachOptions{Async: true, Shards: 2})
			if pipe.Shards() != 2 {
				t.Fatalf("sharded attach built %d rings, want 2", pipe.Shards())
			}
			return pipe
		}},
	}
	for _, a := range attaches {
		p := New(1 << 20)
		want := a.attach(p)
		if p.lone != want {
			t.Fatalf("%s: fast path not taken for the lone handler", a.name)
		}
		p.SetCrashTrap(1 << 40)
		if p.lone != nil {
			t.Fatalf("%s: fast path still taken with a trap armed", a.name)
		}
		p.SetCrashTrap(0)
		if p.lone != want {
			t.Fatalf("%s: fast path not back after the trap cleared", a.name)
		}
		second := trace.NewRecorder(16)
		p.Attach(second)
		if p.lone != nil {
			t.Fatalf("%s: fast path still taken with a second handler attached", a.name)
		}
		if second.Count(trace.KindRegister) != 1 {
			t.Fatalf("%s: the second handler missed its own attach Register", a.name)
		}
		p.Detach(second)
		if p.lone != want {
			t.Fatalf("%s: fast path not back after the second handler detached", a.name)
		}
		// A trap that fires clears itself, and the fast path comes back.
		p.SetCrashTrap(p.seq + 1)
		func() {
			defer func() {
				if _, ok := recover().(CrashTrap); !ok {
					t.Fatalf("%s: trap did not fire", a.name)
				}
			}()
			p.Ctx().Fence()
		}()
		if p.lone != want {
			t.Fatalf("%s: fast path not back after the trap fired", a.name)
		}
		driveStrands(p, 10)
		p.End()
	}
}

// everyKindProgram emits every event kind the pool emits, with every flush
// instruction, from a pool that has already been attached to.
func everyKindProgram(p *Pool) {
	c := p.Ctx()
	base := p.Base()
	p.RegisterNamed("head", base, 64)
	c.Store64(base, 1)
	c.StoreBytes(base+64, []byte("persistent"))
	c.Flush(base, 8)
	c.FlushKind(base+64, 10, trace.CLFLUSH)
	c.FlushKind(base+128, 1, trace.CLFLUSHOPT)
	c.Fence()
	c.EpochBegin()
	c.TxLogAdd(base+256, 16)
	c.At(trace.RegisterSite("tx.store")).Store32(base+256, 7)
	c.Persist(base+256, 4)
	c.EpochEnd()
	for i := uint64(0); i < 3; i++ {
		st := c.StrandBegin()
		st.Store16(base+512+i*LineSize, uint16(i))
		st.Persist(base+512+i*LineSize, 2)
		st.StrandEnd()
	}
	c.JoinStrand()
	c.Store8(base+1024, 9) // left unflushed
	p.End()
}

// TestLoneHandlerStreamMatchesFanOut requires a recorder to receive the
// same events, Seq included, whether it is the pool's lone handler (the
// pool calls it directly) or sits beside a second handler (emitLocked's
// fan-out), and requires a crash trap to deliver the trapped event before
// its panic.
func TestLoneHandlerStreamMatchesFanOut(t *testing.T) {
	// attach gives a pool the recorder and a second handler, kept for the
	// fan-out and detached for the lone path; both streams see the second
	// handler's Register.
	attach := func(keepSecond bool) (*Pool, *trace.Recorder) {
		p := New(1 << 20)
		rec := trace.NewRecorder(256)
		p.Attach(rec)
		second := trace.NewRecorder(256)
		p.Attach(second)
		if !keepSecond {
			p.Detach(second)
			if p.lone != trace.Handler(rec) {
				t.Fatal("recorder is not the lone handler after the detach")
			}
		}
		return p, rec
	}
	record := func(keepSecond bool) *trace.Recorder {
		p, rec := attach(keepSecond)
		everyKindProgram(p)
		return rec
	}
	lone, fanOut := record(false), record(true)
	if !reflect.DeepEqual(lone.Events, fanOut.Events) {
		t.Fatalf("lone-handler stream differs from the fan-out stream:\n%v\n%v", lone.Events, fanOut.Events)
	}
	for k := trace.KindStore; k <= trace.KindEnd; k++ {
		if k == trace.KindUnregister {
			continue // the pool never emits it
		}
		if lone.Count(k) == 0 {
			t.Fatalf("program emitted no %v event", k)
		}
	}

	// A trap on each event: the recorder holds the stream up to and
	// including the trapped event, and nothing after it.
	ref := lone.Events
	for n := ref[1].Seq + 1; n <= ref[len(ref)-1].Seq; n++ {
		p, rec := attach(false)
		p.SetCrashTrap(n)
		var trap CrashTrap
		func() {
			defer func() { trap, _ = recover().(CrashTrap) }()
			everyKindProgram(p)
		}()
		if trap.Seq != n {
			t.Fatalf("trap at %d: recovered %+v", n, trap)
		}
		if got := rec.Events; len(got) == 0 || got[len(got)-1].Seq != n ||
			!reflect.DeepEqual(got, ref[:len(got)]) {
			t.Fatalf("trap at %d: recorder holds %v, want the reference stream through seq %d", n, got, n)
		}
	}
}
