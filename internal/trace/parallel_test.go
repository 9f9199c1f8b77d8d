package trace

import (
	"bytes"
	"reflect"
	"testing"
)

// mkStrandTrace builds a strand trace with no global events: nStrands strands, each
// with a begin/store/flush/fence/end section, interleaved round-robin.
func mkStrandTrace(nStrands int, withJoins bool) []Event {
	var evs []Event
	seq := uint64(0)
	emit := func(k Kind, strand int32, addr, size uint64) {
		seq++
		evs = append(evs, Event{Seq: seq, Kind: k, Strand: strand, Addr: addr, Size: size})
	}
	emit(KindRegister, 0, 0x1000, 0x10000)
	for round := 0; round < 3; round++ {
		for s := 1; s <= nStrands; s++ {
			strand := int32(s)
			addr := 0x1000 + uint64(s)*256 + uint64(round)*64
			emit(KindStrandBegin, strand, 0, 0)
			emit(KindStore, strand, addr, 8)
			emit(KindFlush, strand, addr, 64)
			emit(KindFence, strand, 0, 0)
			emit(KindStrandEnd, strand, 0, 0)
		}
		if withJoins {
			emit(KindJoinStrand, 0, 0, 0)
		}
	}
	emit(KindEnd, 0, 0, 0)
	return evs
}

// TestPartitionByStrandRouting checks the partition a routed Pipeline
// makes against its properties rather than a reference: original order
// within each shard, joins and End dropped, every strand-local event on
// its strand's shard exactly once, and the register broadcast first.
func TestPartitionByStrandRouting(t *testing.T) {
	evs := mkStrandTrace(8, true)
	sp, hs := newShardedCollectors(3, PipelineOptions{})
	sp.HandleBatch(evs)
	sp.Close()
	total := 0
	for shard, h := range hs {
		var lastSeq uint64
		for _, ev := range h.events {
			if ev.Seq <= lastSeq {
				t.Fatalf("shard %d: events out of order (%d after %d)", shard, ev.Seq, lastSeq)
			}
			lastSeq = ev.Seq
			switch ev.Kind {
			case KindRegister, KindUnregister:
				continue // broadcast: appears in every shard
			case KindJoinStrand, KindEnd:
				t.Fatalf("shard %d: kind %s should have been dropped", shard, ev.Kind)
			}
			if got := int(uint32(ev.Strand) % 3); got != shard {
				t.Fatalf("strand %d event landed in shard %d", ev.Strand, shard)
			}
			total++
		}
		if h.events[0].Kind != KindRegister {
			t.Fatalf("shard %d: register event not broadcast first", shard)
		}
	}
	// All strand-local events accounted for exactly once.
	want := 0
	for _, ev := range evs {
		switch ev.Kind {
		case KindStore, KindFlush, KindFence, KindStrandBegin, KindStrandEnd:
			want++
		}
	}
	if total != want {
		t.Fatalf("routed %d strand-local events, want %d", total, want)
	}
}

// TestParallelReplayDeliversEveryEvent replays an encoded trace the way
// offline parallel replay does — StreamTrace feeding a routed Pipeline —
// and checks every strand-local event reaches exactly one shard and the
// register reaches all of them.
func TestParallelReplayDeliversEveryEvent(t *testing.T) {
	evs := mkStrandTrace(16, true)
	var buf bytes.Buffer
	if err := WriteTrace(&buf, evs); err != nil {
		t.Fatal(err)
	}
	recs := make([]Handler, 4)
	for i := range recs {
		recs[i] = NewRecorder(0)
	}
	pipe := NewPipeline(MultiHandler(recs), PipelineOptions{Shards: recs})
	if _, err := StreamTrace(&buf, pipe); err != nil {
		t.Fatal(err)
	}
	pipe.Close()
	seen := map[uint64]int{}
	for _, h := range recs {
		for _, ev := range h.(*Recorder).Events {
			seen[ev.Seq]++
		}
	}
	for _, ev := range evs {
		switch ev.Kind {
		case KindStore, KindFlush, KindFence, KindStrandBegin, KindStrandEnd:
			if seen[ev.Seq] != 1 {
				t.Fatalf("event %v delivered %d times, want 1", ev, seen[ev.Seq])
			}
		case KindRegister:
			if seen[ev.Seq] != len(recs) {
				t.Fatalf("register event broadcast to %d shards, want %d", seen[ev.Seq], len(recs))
			}
		}
	}
}

// batchCounter records batch boundaries to verify the batched path is used.
type batchCounter struct {
	events  []Event
	batches int
}

func (b *batchCounter) HandleEvent(ev Event) { b.events = append(b.events, ev) }
func (b *batchCounter) HandleBatch(evs []Event) {
	b.batches++
	b.events = append(b.events, evs...)
}

func TestReplayBatched(t *testing.T) {
	rec := NewRecorder(0)
	for i := 0; i < DefaultBatchSize*2+17; i++ {
		rec.HandleEvent(Event{Seq: uint64(i + 1), Kind: KindStore, Addr: uint64(i), Size: 1})
	}
	bc := &batchCounter{}
	ReplayEvents(rec.Events, bc)
	if bc.batches != 3 {
		t.Fatalf("got %d batches, want 3", bc.batches)
	}
	if !reflect.DeepEqual(bc.events, rec.Events) {
		t.Fatal("batched replay did not deliver the identical stream")
	}
	// Non-batch handlers fall back to per-event delivery.
	var plain []Event
	ReplayEvents(rec.Events, HandlerFunc(func(ev Event) { plain = append(plain, ev) }))
	if !reflect.DeepEqual(plain, rec.Events) {
		t.Fatal("fallback replay did not deliver the identical stream")
	}
}

func TestRecorderHandleBatch(t *testing.T) {
	src := NewRecorder(0)
	for i := 0; i < 100; i++ {
		src.HandleEvent(Event{Seq: uint64(i + 1), Kind: KindFlush})
	}
	dst := NewRecorder(0)
	ReplayEvents(src.Events, dst)
	if !reflect.DeepEqual(dst.Events, src.Events) {
		t.Fatal("recorder-to-recorder batched replay mismatch")
	}
}
