package core

import (
	"bytes"
	"testing"

	"pmdebugger/internal/rules"
	"pmdebugger/internal/trace"
)

// FuzzShardedVsInline fuzzes the equivalence of strand-sharded detection:
// arbitrary multi-strand schedules of stores, flushes, fences, strand
// sections, region registrations, joins, epoch boundaries and log adds
// must produce byte-identical reports from (a) one sequential engine, (b) a
// ShardedDetector routed inline, (c) the same detector driven through a
// routed trace.Pipeline's per-shard consumer goroutines, and offline
// replay (d) of the event slice and (e) of its encoded stream. The
// fuzzer's job is to find a fence placement, cross-strand interleaving or
// global event where the routed delivery diverges from the sequential one.
func FuzzShardedVsInline(f *testing.F) {
	f.Add([]byte{0, 1, 1, 1, 2, 1, 0, 2, 3, 2, 0, 2, 4, 2, 6, 0})
	f.Add([]byte{3, 0, 0, 0, 7, 0, 2, 0, 4, 0, 3, 1, 0, 1, 4, 1})
	f.Add([]byte{5, 3, 0, 5, 1, 5, 2, 5, 0, 9, 6, 9, 2, 9, 0, 13})
	f.Fuzz(func(t *testing.T, data []byte) {
		const base = 0x1000_0000
		var evs []trace.Event
		seq := uint64(0)
		emit := func(kind trace.Kind, strand int32, addr, size uint64) {
			seq++
			evs = append(evs, trace.Event{Seq: seq, Kind: kind, Strand: strand, Addr: addr, Size: size})
		}
		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i], uint64(data[i+1])
			strand := int32(arg % 5) // 5 strands onto 3 shards: shards share strands
			switch op % 11 {
			case 0: // store
				emit(trace.KindStore, strand, base+arg*8, arg%24+1)
			case 1: // line flush
				emit(trace.KindFlush, strand, (base+arg*8)&^63, 64)
			case 2: // fence
				emit(trace.KindFence, strand, 0, 0)
			case 3: // strand section begin
				emit(trace.KindStrandBegin, strand, 0, 0)
			case 4: // strand section end
				emit(trace.KindStrandEnd, strand, 0, 0)
			case 5: // register a region (broadcast to every shard)
				emit(trace.KindRegister, 0, base+arg*64, arg%256+64)
			case 6: // join (dropped, inert without order specs)
				emit(trace.KindJoinStrand, strand, 0, 0)
			case 7: // store crossing cache lines
				emit(trace.KindStore, strand, base+arg*8, 64+arg%64)
			case 8: // epoch begin (global: broadcast to every shard)
				emit(trace.KindEpochBegin, strand, 0, 0)
			case 9: // epoch end (global)
				emit(trace.KindEpochEnd, strand, 0, 0)
			case 10: // undo-log add (global)
				emit(trace.KindTxLogAdd, strand, base+arg*8, arg%24+1)
			}
		}
		emit(trace.KindEnd, 0, 0, 0)

		cfg := Config{
			Model: rules.Strand,
			// Exercise spill and merge machinery under fuzzing too.
			ArrayCapacity:  8,
			MergeThreshold: 4,
		}
		want := sequentialReport(evs, cfg).Summary()

		inline := NewSharded(cfg, 3)
		for _, ev := range evs {
			inline.HandleEvent(ev)
		}
		if got := inline.Report().Summary(); got != want {
			t.Fatalf("inline-routed sharded report differs\n--- sequential ---\n%s\n--- sharded ---\n%s",
				want, got)
		}

		live := NewSharded(cfg, 3)
		sp := trace.NewPipeline(live, trace.PipelineOptions{Depth: 2, Shards: live.ShardHandlers()})
		sp.HandleBatch(evs)
		sp.Close()
		if err := sp.Err(); err != nil {
			t.Fatalf("pipeline error: %v", err)
		}
		if got := live.Report().Summary(); got != want {
			t.Fatalf("pipeline-delivered sharded report differs\n--- sequential ---\n%s\n--- sharded ---\n%s",
				want, got)
		}

		if got := ReplayParallel(evs, cfg, 3).Summary(); got != want {
			t.Fatalf("offline parallel replay differs\n--- sequential ---\n%s\n--- parallel ---\n%s",
				want, got)
		}
		var buf bytes.Buffer
		if err := trace.WriteTrace(&buf, evs); err != nil {
			t.Fatal(err)
		}
		streamed, err := ReplayStream(&buf, cfg, 3)
		if err != nil {
			t.Fatalf("ReplayStream: %v", err)
		}
		if got := streamed.Summary(); got != want {
			t.Fatalf("offline stream replay differs\n--- sequential ---\n%s\n--- streamed ---\n%s",
				want, got)
		}
	})
}
