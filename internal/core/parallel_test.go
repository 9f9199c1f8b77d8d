package core

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"pmdebugger/internal/pmem"
	"pmdebugger/internal/report"
	"pmdebugger/internal/rules"
	"pmdebugger/internal/trace"
)

// recordStrandTrace captures a strand-model stream with bugs planted across
// strands: every third strand leaves its store unflushed (no-durability at
// end of program), every third flushes twice before the fence (redundant
// flush, all at one site so deduplication must cross shard boundaries), the
// rest are clean. Periodic joins exercise the join-dropping path.
func recordStrandTrace(tb testing.TB, nStrands int) *trace.Recorder {
	tb.Helper()
	pm := pmem.New(1 << 20)
	rec := trace.NewRecorder(0)
	pm.Attach(rec)
	site := trace.RegisterSite("parallel_test.go:flush")
	c := pm.Ctx().At(site)
	// A default-strand prologue so shard 0 carries strand-0 traffic too.
	a0 := pm.Alloc(64)
	c.Store64(a0, 1)
	c.Persist(a0, 8)
	for i := 0; i < nStrands; i++ {
		st := c.StrandBegin()
		addr := pm.Alloc(64)
		st.Store64(addr, uint64(i))
		switch i % 3 {
		case 0: // never flushed
		case 1: // flushed twice before the fence
			st.Flush(addr, 8)
			st.Flush(addr, 8)
			st.Fence()
		case 2: // clean
			st.Flush(addr, 8)
			st.Fence()
		}
		st.StrandEnd()
		if i%16 == 15 {
			c.JoinStrand()
		}
	}
	pm.End()
	return rec
}

func sequentialReport(events []trace.Event, cfg Config) *report.Report {
	d := New(cfg)
	for _, ev := range events {
		d.HandleEvent(ev)
	}
	return d.Report()
}

func assertSameReport(t *testing.T, seq, par *report.Report, label string) {
	t.Helper()
	if seq.Summary() != par.Summary() {
		t.Fatalf("%s: summaries differ\n--- sequential ---\n%s--- parallel ---\n%s",
			label, seq.Summary(), par.Summary())
	}
	if !reflect.DeepEqual(seq.Bugs, par.Bugs) {
		t.Fatalf("%s: bug lists differ\nseq: %v\npar: %v", label, seq.Bugs, par.Bugs)
	}
	if seq.Counters != par.Counters {
		t.Fatalf("%s: counters differ\nseq: %+v\npar: %+v", label, seq.Counters, par.Counters)
	}
}

func TestReplayParallelMatchesSequential(t *testing.T) {
	rec := recordStrandTrace(t, 100)
	cfg := Config{Model: rules.Strand}
	seq := sequentialReport(rec.Events, cfg)
	if !seq.Has(report.NoDurability) || !seq.Has(report.RedundantFlush) {
		t.Fatalf("test trace should plant bugs, got:\n%s", seq.Summary())
	}
	// More strands than shards, shards than workers, single worker: every
	// pool shape must merge back to the identical report.
	for _, workers := range []int{1, 2, 3, 4, 7, 16} {
		par := ReplayParallel(rec.Events, cfg, workers)
		assertSameReport(t, seq, par, "workers="+string(rune('0'+workers%10)))
	}
}

func TestReplayParallelFallsBackForNonStrandConfigs(t *testing.T) {
	rec := recordStrandTrace(t, 12)
	for _, cfg := range []Config{
		{Model: rules.Epoch},
		{Model: rules.Strict},
		{Model: rules.Strand, Orders: []rules.OrderSpec{{Before: "a", After: "b"}}},
	} {
		if Shardable(cfg) {
			t.Fatalf("config %+v should not be shardable", cfg)
		}
		seq := sequentialReport(rec.Events, cfg)
		par := ReplayParallel(rec.Events, cfg, 4)
		assertSameReport(t, seq, par, cfg.Model.String())
	}
	if !Shardable(Config{Model: rules.Strand}) {
		t.Fatal("plain strand config should be shardable")
	}
}

func TestReplayParallelFallsBackOnEpochTrace(t *testing.T) {
	// A strand config over a trace with epoch markers: the router sends
	// each marker to every shard and the merged report must still be the
	// sequential one.
	var evs []trace.Event
	seq := uint64(0)
	emit := func(k trace.Kind, strand int32, addr, size uint64) {
		seq++
		evs = append(evs, trace.Event{Seq: seq, Kind: k, Strand: strand, Addr: addr, Size: size})
	}
	emit(trace.KindEpochBegin, 0, 0, 0)
	emit(trace.KindStore, 1, 0x1000, 8)
	emit(trace.KindFlush, 1, 0x1000, 64)
	emit(trace.KindFence, 1, 0, 0)
	emit(trace.KindEpochEnd, 0, 0, 0)
	emit(trace.KindStore, 2, 0x2000, 8)
	emit(trace.KindEnd, 0, 0, 0)

	cfg := Config{Model: rules.Strand}
	assertSameReport(t, sequentialReport(evs, cfg), ReplayParallel(evs, cfg, 4), "epoch-trace")
}

// TestReplayParallelSurfacesShardPanic breaks one shard engine behind the
// replay's routed pipeline. The replay must finish, return an error naming
// the shard (ReplayStream's error, which makes pmtrace -replay -parallel
// exit 1) and list it among the report's Failures (what ReplayParallel
// keeps), while the healthy shard's findings survive the merge.
func TestReplayParallelSurfacesShardPanic(t *testing.T) {
	rec := recordStrandTrace(t, 60)
	sd := NewSharded(Config{Model: rules.Strand}, 2)
	sd.handlers[1] = (*Detector)(nil) // first delivery on shard 1 panics
	rep, err := replaySharded(sd, func(h trace.Handler) error {
		trace.ReplayEvents(rec.Events, h)
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "shard 1 handler panicked") {
		t.Fatalf("err = %v, want shard 1's recovered panic", err)
	}
	if len(rep.Failures) != 1 || rep.Failures[0] != err.Error() {
		t.Fatalf("Failures = %q, want the pipeline's error", rep.Failures)
	}
	if !strings.Contains(rep.Summary(), "1 detection failure(s)") || !rep.Has(report.NoDurability) {
		t.Fatalf("want the failure and the healthy shard's bugs in:\n%s", rep.Summary())
	}
}

func TestReplayParallelStreamMatchesSequential(t *testing.T) {
	rec := recordStrandTrace(t, 64)
	var buf bytes.Buffer
	if err := trace.WriteTrace(&buf, rec.Events); err != nil {
		t.Fatal(err)
	}
	cfg := Config{Model: rules.Strand}
	seq := sequentialReport(rec.Events, cfg)
	par, err := ReplayStream(&buf, cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	assertSameReport(t, seq, par, "stream")
}

func TestReplayParallelStreamAbortsToSequential(t *testing.T) {
	// Epoch markers deep in the stream, after work has fanned out to every
	// shard: each goes to every shard behind that shard's earlier events,
	// in one pass over the stream, and the report is still the sequential
	// one.
	rec := recordStrandTrace(t, 32)
	events := rec.Events[:len(rec.Events)-1] // drop KindEnd
	events = append(events,
		trace.Event{Seq: 1 << 30, Kind: trace.KindEpochBegin},
		trace.Event{Seq: 1<<30 + 1, Kind: trace.KindEpochEnd},
		trace.Event{Seq: 1<<30 + 2, Kind: trace.KindEnd},
	)
	var buf bytes.Buffer
	if err := trace.WriteTrace(&buf, events); err != nil {
		t.Fatal(err)
	}
	cfg := Config{Model: rules.Strand}
	par, err := ReplayStream(&buf, cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	assertSameReport(t, sequentialReport(events, cfg), par, "stream-abort")
}

func TestFinishOrderDeterministic(t *testing.T) {
	// Many strands with unpersisted stores: before the deterministic
	// finalization sweep, the end-of-program report order followed map
	// iteration over spaces and varied run to run.
	rec := recordStrandTrace(t, 60)
	cfg := Config{Model: rules.Strand}
	want := sequentialReport(rec.Events, cfg)
	for i := 0; i < 10; i++ {
		got := sequentialReport(rec.Events, cfg)
		assertSameReport(t, want, got, "repeat-sequential")
	}
	for i := 1; i < len(want.Bugs); i++ {
		prev, cur := want.Bugs[i-1], want.Bugs[i]
		if prev.Type.EndOfProgram() && !cur.Type.EndOfProgram() {
			t.Fatalf("end-of-program bug before stream bug: %v then %v", prev, cur)
		}
		if prev.Type.EndOfProgram() == cur.Type.EndOfProgram() && prev.Seq > cur.Seq {
			t.Fatalf("bugs out of sequence order: %v then %v", prev, cur)
		}
	}
}
