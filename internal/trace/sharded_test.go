package trace

import (
	"reflect"
	"strings"
	"testing"
)

// mkStrandStream builds a deterministic mixed stream over nStrands strands:
// per-strand store/flush/fence runs with strand begin/end markers, plus
// region registrations, a join, and a terminal End — everything the
// sharded router must classify.
func mkStrandStream(nStrands, perStrand int) []Event {
	var evs []Event
	seq := uint64(0)
	next := func() uint64 { seq++; return seq }
	evs = append(evs, Event{Seq: next(), Kind: KindRegister, Addr: 0x1000, Size: 1 << 16})
	for r := 0; r < perStrand; r++ {
		for s := 0; s < nStrands; s++ {
			strand := int32(s)
			addr := 0x1000 + uint64(s)*0x100 + uint64(r)*8
			if r == 0 {
				evs = append(evs, Event{Seq: next(), Kind: KindStrandBegin, Strand: strand})
			}
			evs = append(evs, Event{Seq: next(), Kind: KindStore, Addr: addr, Size: 8, Strand: strand})
			evs = append(evs, Event{Seq: next(), Kind: KindFlush, Addr: addr &^ 63, Size: 64, Strand: strand})
			evs = append(evs, Event{Seq: next(), Kind: KindFence, Strand: strand})
			if r == perStrand-1 {
				evs = append(evs, Event{Seq: next(), Kind: KindStrandEnd, Strand: strand})
			}
		}
	}
	evs = append(evs, Event{Seq: next(), Kind: KindJoinStrand, Strand: 1})
	evs = append(evs, Event{Seq: next(), Kind: KindEnd})
	return evs
}

func newShardedCollectors(shards int, opts PipelineOptions) (*Pipeline, []*collectHandler) {
	hs := make([]*collectHandler, shards)
	opts.Shards = make([]Handler, shards)
	for i := range hs {
		hs[i] = &collectHandler{}
		opts.Shards[i] = hs[i]
	}
	return NewPipeline(MultiHandler(opts.Shards), opts), hs
}

// partitionByStrand is the reference the router is checked against, built
// without Route: each shard's subsequence of evs, with strand-local kinds
// on shard strand % shards, JoinStrand and End nowhere, and every other
// kind (Register/Unregister, epoch markers, log adds) on every shard.
func partitionByStrand(evs []Event, shards int) [][]Event {
	out := make([][]Event, shards)
	for _, ev := range evs {
		switch ev.Kind {
		case KindStore, KindFlush, KindFence, KindStrandBegin, KindStrandEnd:
			s := uint32(ev.Strand) % uint32(shards)
			out[s] = append(out[s], ev)
		case KindJoinStrand, KindEnd:
		default:
			for s := range out {
				out[s] = append(out[s], ev)
			}
		}
	}
	return out
}

// TestShardedPipelineMatchesPartition drives a mixed stream — globals
// included — event-by-event and batched through a routed Pipeline and
// requires every shard handler to observe exactly the subsequence the
// reference partition hands it: the invariant sharded reports rest on.
func TestShardedPipelineMatchesPartition(t *testing.T) {
	const shards = 3
	evs := mkStrandStream(7, 5) // 7 strands folded onto 3 shards
	mid := len(evs) / 2
	evs = append(evs[:mid:mid], append([]Event{
		{Seq: 1 << 20, Kind: KindEpochBegin},
		{Seq: 1<<20 + 1, Kind: KindTxLogAdd, Addr: 0x1000, Size: 8},
		{Seq: 1<<20 + 2, Kind: KindEpochEnd},
	}, evs[mid:]...)...)
	want := partitionByStrand(evs, shards)

	for _, batched := range []bool{false, true} {
		sp, hs := newShardedCollectors(shards, PipelineOptions{})
		if batched {
			sp.HandleBatch(evs)
		} else {
			for _, ev := range evs {
				sp.HandleEvent(ev)
			}
		}
		sp.Close()
		for i, h := range hs {
			w := want[i]
			if len(h.events) != len(w) {
				t.Fatalf("batched=%v shard %d: got %d events, partition has %d",
					batched, i, len(h.events), len(w))
			}
			for j := range w {
				if h.events[j] != w[j] {
					t.Fatalf("batched=%v shard %d event %d: got %v, partition has %v",
						batched, i, j, h.events[j], w[j])
				}
			}
		}
	}
}

// TestShardedPipelineGlobalBarrier checks global events (epoch boundaries)
// are broadcast behind each shard's earlier events, so every shard
// observes them at the same stream position a sequential consumer would.
func TestShardedPipelineGlobalBarrier(t *testing.T) {
	sp, hs := newShardedCollectors(2, PipelineOptions{})
	sp.HandleEvent(Event{Seq: 1, Kind: KindStore, Addr: 0x1000, Size: 8, Strand: 0})
	sp.HandleEvent(Event{Seq: 2, Kind: KindStore, Addr: 0x2000, Size: 8, Strand: 1})
	sp.HandleEvent(Event{Seq: 3, Kind: KindEpochBegin})
	sp.HandleEvent(Event{Seq: 4, Kind: KindEpochEnd})
	sp.Close()
	for i, h := range hs {
		if len(h.events) != 3 {
			t.Fatalf("shard %d: got %d events, want store + epoch pair", i, len(h.events))
		}
		if h.events[0].Kind != KindStore || h.events[1].Kind != KindEpochBegin || h.events[2].Kind != KindEpochEnd {
			t.Fatalf("shard %d: wrong order: %v", i, h.events)
		}
	}
}

// TestShardedPipelineHandleEventSlots drives HandleEvent's direct slot
// writes, the path a pool's lone pipeline takes for every store, flush and
// fence, across several slab handoffs on shallow rings, with global kinds
// routed in between: each shard must see exactly its partition.
func TestShardedPipelineHandleEventSlots(t *testing.T) {
	const shards = 4
	sp, hs := newShardedCollectors(shards, PipelineOptions{Depth: 2})
	var evs []Event
	for i := 0; i < 3*DefaultBatchSize; i++ {
		seq := uint64(len(evs) + 1)
		if i%1000 == 999 {
			evs = append(evs, Event{Seq: seq, Kind: KindEpochBegin + Kind(i/1000%2)})
			continue
		}
		strand := int32(i % 5)
		evs = append(evs, Event{
			Seq: seq, Kind: KindStore + Kind(i%3), Addr: 0x1000 + uint64(i)*8, Size: 8, Strand: strand,
		})
	}
	for _, ev := range evs {
		sp.HandleEvent(ev)
	}
	sp.Sync()
	want := partitionByStrand(evs, shards)
	for i, h := range hs {
		if !reflect.DeepEqual(h.events, want[i]) {
			t.Fatalf("shard %d: got %d events, partition has %d, or they differ", i, len(h.events), len(want[i]))
		}
	}
	sp.Close()
}

// TestShardedPipelineLifecycle: Close is idempotent, Sync after Close
// returns, and Handler() identifies the owner.
func TestShardedPipelineLifecycle(t *testing.T) {
	sp, _ := newShardedCollectors(2, PipelineOptions{Lazy: true})
	if sp.Shards() != 2 {
		t.Fatalf("Shards() = %d", sp.Shards())
	}
	if sp.Handler() == nil {
		t.Fatal("Handler() = nil, want the owner")
	}
	sp.HandleBatch(mkEvents(100))
	sp.Close()
	sp.Close() // idempotent
	sp.Sync()  // defined after Close
	if err := sp.Err(); err != nil {
		t.Fatalf("Err() = %v on a healthy run", err)
	}
}

// TestPipelineOneShardForwardsVerbatim: with fewer than two shard handlers
// the pipeline is one ring around its own handler that forwards every
// event verbatim — End, JoinStrand and globals included — and never
// syncs on its own, so a lazy ring delivers nothing until it is closed.
func TestPipelineOneShardForwardsVerbatim(t *testing.T) {
	evs := mkStrandStream(3, 2)
	evs = append(evs, Event{Seq: 1 << 20, Kind: KindEpochBegin}, Event{Seq: 1<<20 + 1, Kind: KindEnd})
	h, unused := &collectHandler{}, &collectHandler{}
	p := NewPipeline(h, PipelineOptions{Lazy: true, Shards: []Handler{unused}})
	if p.Shards() != 1 {
		t.Fatalf("Shards() = %d, want 1", p.Shards())
	}
	for _, ev := range evs {
		p.HandleEvent(ev)
	}
	if len(h.events) != 0 {
		t.Fatalf("lazy one-ring pipeline delivered %d events before Close: it synced", len(h.events))
	}
	p.Close()
	if len(unused.events) != 0 || len(h.events) != len(evs) {
		t.Fatalf("delivered %d events to the handler and %d to the lone shard, want %d and 0",
			len(h.events), len(unused.events), len(evs))
	}
	for i := range evs {
		if h.events[i] != evs[i] {
			t.Fatalf("event %d: got %v, want %v", i, h.events[i], evs[i])
		}
	}
}

// TestShardedPipelineShardPanic: one shard's handler panicking must not
// wedge Sync across the other shards, and Err must name the shard.
func TestShardedPipelineShardPanic(t *testing.T) {
	bad := &panicAfterHandler{limit: 10}
	good := &collectHandler{}
	sp := NewPipeline(nil, PipelineOptions{Depth: 2, Shards: []Handler{good, bad}})
	for i := 0; i < 4*DefaultBatchSize; i++ {
		strand := int32(i % 2)
		sp.HandleEvent(Event{
			Seq: uint64(i + 1), Kind: KindStore, Addr: 0x1000, Size: 8, Strand: strand,
		})
	}
	sp.Sync() // must not hang on the poisoned shard
	err := sp.Err()
	if err == nil || !strings.Contains(err.Error(), "shard 1") ||
		!strings.Contains(err.Error(), "detector exploded") {
		t.Fatalf("Err() = %v, want shard 1's recovered panic", err)
	}
	if len(good.events) != 2*DefaultBatchSize {
		t.Fatalf("healthy shard got %d events, want %d", len(good.events), 2*DefaultBatchSize)
	}
	sp.Close()
}
