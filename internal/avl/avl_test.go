package avl

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"pmdebugger/internal/intervals"
)

func checkInvariants(t *testing.T, tr *Tree) {
	t.Helper()
	var prevEnd uint64
	first := true
	count := 0
	var walk func(n *node) (h int32, maxE uint64)
	walk = func(n *node) (int32, uint64) {
		if n == nil {
			return 0, 0
		}
		lh, lm := walk(n.left)
		// in-order position: disjoint, sorted
		if !first && n.item.Addr < prevEnd {
			t.Fatalf("overlap or misorder at %v (prev end %#x)", n.item.Range(), prevEnd)
		}
		first = false
		prevEnd = n.item.End()
		count++
		rh, rm := walk(n.right)
		if bf := lh - rh; bf < -1 || bf > 1 {
			t.Fatalf("unbalanced node %v bf=%d", n.item.Range(), bf)
		}
		h := 1 + max32(lh, rh)
		if n.height != h {
			t.Fatalf("height cache wrong at %v: %d vs %d", n.item.Range(), n.height, h)
		}
		m := n.item.End()
		if lm > m {
			m = lm
		}
		if rm > m {
			m = rm
		}
		if n.maxEnd != m {
			t.Fatalf("maxEnd cache wrong at %v: %#x vs %#x", n.item.Range(), n.maxEnd, m)
		}
		return h, m
	}
	walk(tr.root)
	if count != tr.size {
		t.Fatalf("size %d != counted %d", tr.size, count)
	}
}

func TestInsertLookup(t *testing.T) {
	tr := New()
	for i := 0; i < 100; i++ {
		tr.Insert(Item{Addr: uint64(i * 16), Size: 8, Seq: uint64(i)})
	}
	checkInvariants(t, tr)
	if tr.Len() != 100 {
		t.Fatalf("Len = %d", tr.Len())
	}
	it, ok := tr.Lookup(5*16 + 3)
	if !ok || it.Addr != 5*16 {
		t.Fatalf("Lookup inside = %v %v", it, ok)
	}
	if _, ok := tr.Lookup(5*16 + 9); ok {
		t.Fatalf("Lookup in gap succeeded")
	}
	if _, ok := tr.Lookup(100 * 16); ok {
		t.Fatalf("Lookup past end succeeded")
	}
}

func TestInsertOverlapResolution(t *testing.T) {
	tr := New()
	tr.Insert(Item{Addr: 0, Size: 32, Seq: 1})
	// New store overlapping the middle supersedes those bytes.
	tr.Insert(Item{Addr: 8, Size: 8, Seq: 2})
	checkInvariants(t, tr)
	items := tr.Items()
	if len(items) != 3 {
		t.Fatalf("items = %v", items)
	}
	if items[0].Range() != intervals.R(0, 8) || items[0].Seq != 1 {
		t.Errorf("prefix wrong: %+v", items[0])
	}
	if items[1].Range() != intervals.R(8, 8) || items[1].Seq != 2 {
		t.Errorf("middle wrong: %+v", items[1])
	}
	if items[2].Range() != intervals.R(16, 16) || items[2].Seq != 1 {
		t.Errorf("suffix wrong: %+v", items[2])
	}
}

func TestInsertZeroSizeIgnored(t *testing.T) {
	tr := New()
	tr.Insert(Item{Addr: 10, Size: 0})
	tr.InsertDisjoint(Item{Addr: 10, Size: 0})
	if tr.Len() != 0 {
		t.Fatalf("zero-size items inserted")
	}
}

func TestDelete(t *testing.T) {
	tr := New()
	addrs := []uint64{50, 30, 70, 20, 40, 60, 80, 10, 90}
	for _, a := range addrs {
		tr.Insert(Item{Addr: a, Size: 4})
	}
	if !tr.Delete(50) {
		t.Fatalf("Delete(50) failed")
	}
	if tr.Delete(50) {
		t.Fatalf("double Delete(50) succeeded")
	}
	if tr.Delete(55) {
		t.Fatalf("Delete(55) of absent key succeeded")
	}
	checkInvariants(t, tr)
	if tr.Len() != len(addrs)-1 {
		t.Fatalf("Len = %d", tr.Len())
	}
}

func TestVisitOverlappingOrder(t *testing.T) {
	tr := New()
	for i := 0; i < 50; i++ {
		tr.Insert(Item{Addr: uint64(i * 10), Size: 5})
	}
	var got []uint64
	tr.VisitOverlapping(intervals.R(95, 120), func(it Item) { got = append(got, it.Addr) })
	// Ranges [90,95) not overlapping 95; [100,105)...[210,215) overlapping.
	want := []uint64{100, 110, 120, 130, 140, 150, 160, 170, 180, 190, 200, 210}
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
}

func TestMarkFlushed(t *testing.T) {
	tr := New()
	tr.Insert(Item{Addr: 0, Size: 16})
	tr.Insert(Item{Addr: 32, Size: 16})
	tr.Insert(Item{Addr: 64, Size: 16})

	newly, already := tr.MarkFlushed(intervals.R(0, 48))
	if newly != 2 || already != 0 {
		t.Fatalf("first MarkFlushed = %d,%d", newly, already)
	}
	checkInvariants(t, tr)
	// [0,16) fully flushed; [32,48) fully flushed; [64,80) untouched.
	newly, already = tr.MarkFlushed(intervals.R(0, 16))
	if newly != 0 || already != 1 {
		t.Fatalf("redundant MarkFlushed = %d,%d", newly, already)
	}

	// Partial overlap splits.
	tr2 := New()
	tr2.Insert(Item{Addr: 100, Size: 20, Seq: 9})
	newly, already = tr2.MarkFlushed(intervals.R(90, 20)) // covers [100,110)
	if newly != 1 || already != 0 {
		t.Fatalf("partial MarkFlushed = %d,%d", newly, already)
	}
	checkInvariants(t, tr2)
	items := tr2.Items()
	if len(items) != 2 {
		t.Fatalf("after split items = %v", items)
	}
	if !items[0].Flushed || items[0].Range() != intervals.R(100, 10) {
		t.Errorf("flushed part wrong: %+v", items[0])
	}
	if items[1].Flushed || items[1].Range() != intervals.R(110, 10) {
		t.Errorf("unflushed part wrong: %+v", items[1])
	}
}

func TestRemoveFlushed(t *testing.T) {
	tr := New()
	for i := 0; i < 20; i++ {
		tr.Insert(Item{Addr: uint64(i * 16), Size: 8, Flushed: i%2 == 0})
	}
	removed := tr.RemoveFlushed()
	if len(removed) != 10 {
		t.Fatalf("removed %d", len(removed))
	}
	checkInvariants(t, tr)
	tr.Visit(func(it Item) {
		if it.Flushed {
			t.Fatalf("flushed item %v survived", it.Range())
		}
	})
	if tr.Len() != 10 {
		t.Fatalf("Len = %d", tr.Len())
	}
}

func TestRemoveIf(t *testing.T) {
	tr := New()
	for i := 0; i < 10; i++ {
		tr.Insert(Item{Addr: uint64(i * 16), Size: 8, Epoch: i < 5})
	}
	removed := tr.RemoveIf(func(it Item) bool { return it.Epoch })
	if len(removed) != 5 || tr.Len() != 5 {
		t.Fatalf("RemoveIf removed %d, len %d", len(removed), tr.Len())
	}
	checkInvariants(t, tr)
}

func TestMergeCoalesces(t *testing.T) {
	tr := New()
	// Three adjacent unflushed records and one flushed record.
	tr.Insert(Item{Addr: 0, Size: 8, Seq: 1})
	tr.Insert(Item{Addr: 8, Size: 8, Seq: 2})
	tr.Insert(Item{Addr: 16, Size: 8, Seq: 3})
	tr.Insert(Item{Addr: 24, Size: 8, Seq: 4, Flushed: true})
	eliminated := tr.Merge()
	if eliminated != 2 {
		t.Fatalf("eliminated = %d", eliminated)
	}
	checkInvariants(t, tr)
	items := tr.Items()
	if len(items) != 2 {
		t.Fatalf("items after merge = %v", items)
	}
	if items[0].Range() != intervals.R(0, 24) || items[0].Seq != 3 {
		t.Errorf("merged item wrong: %+v", items[0])
	}
	if !items[1].Flushed {
		t.Errorf("flushed item merged away: %+v", items[1])
	}
	st := tr.Stats()
	if st.Merges != 2 || st.Reorgs == 0 {
		t.Errorf("stats = %+v", st)
	}
	// Merging again is a no-op.
	if tr.Merge() != 0 {
		t.Errorf("second merge eliminated nodes")
	}
}

func TestMergeRespectsEpochAndStrand(t *testing.T) {
	tr := New()
	tr.Insert(Item{Addr: 0, Size: 8, Epoch: true, Epochs: 1})
	tr.Insert(Item{Addr: 8, Size: 8, Epoch: true, Epochs: 2})
	tr.Insert(Item{Addr: 16, Size: 8, Strand: 1})
	tr.Insert(Item{Addr: 24, Size: 8, Strand: 2})
	if n := tr.Merge(); n != 0 {
		t.Fatalf("merged across epoch/strand boundaries: %d", n)
	}
}

func TestClear(t *testing.T) {
	tr := New()
	tr.Insert(Item{Addr: 0, Size: 8})
	tr.Clear()
	if tr.Len() != 0 || tr.Height() != 0 {
		t.Fatalf("Clear failed")
	}
	if tr.Stats().Inserts != 1 {
		t.Fatalf("Clear dropped stats")
	}
}

func TestHeightLogarithmic(t *testing.T) {
	tr := New()
	const n = 4096
	for i := 0; i < n; i++ {
		tr.InsertDisjoint(Item{Addr: uint64(i * 8), Size: 8})
	}
	// AVL height bound: 1.44*log2(n+2). For 4096, ~18.
	if h := tr.Height(); h > 18 {
		t.Fatalf("height %d too large for %d sequential inserts", h, n)
	}
	checkInvariants(t, tr)
}

func TestRandomizedAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr := New()
	ref := map[uint64]Item{} // start addr -> item, kept disjoint manually
	for op := 0; op < 3000; op++ {
		switch rng.Intn(3) {
		case 0: // insert
			it := Item{Addr: uint64(rng.Intn(2000)), Size: uint64(rng.Intn(16) + 1), Seq: uint64(op)}
			tr.Insert(it)
			// reference: remove overlapped portions
			for a, old := range ref {
				if old.Range().Overlaps(it.Range()) {
					delete(ref, a)
					for _, rem := range old.Range().Subtract(it.Range()) {
						keep := old
						keep.Addr, keep.Size = rem.Addr, rem.Size
						ref[keep.Addr] = keep
					}
				}
			}
			ref[it.Addr] = it
		case 1: // delete by exact addr
			if len(ref) == 0 {
				continue
			}
			var addrs []uint64
			for a := range ref {
				addrs = append(addrs, a)
			}
			sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
			a := addrs[rng.Intn(len(addrs))]
			if !tr.Delete(a) {
				t.Fatalf("op %d: Delete(%d) failed but present in ref", op, a)
			}
			delete(ref, a)
		case 2: // lookup
			a := uint64(rng.Intn(2100))
			_, got := tr.Lookup(a)
			want := false
			for _, it := range ref {
				if it.Range().ContainsAddr(a) {
					want = true
					break
				}
			}
			if got != want {
				t.Fatalf("op %d: Lookup(%d) = %v, want %v", op, a, got, want)
			}
		}
	}
	checkInvariants(t, tr)
	if tr.Len() != len(ref) {
		t.Fatalf("final size %d vs ref %d", tr.Len(), len(ref))
	}
}

// Property: after any insert sequence the tree holds disjoint sorted ranges
// and total coverage equals the merged coverage of the same inserts applied
// newest-wins.
func TestQuickInsertDisjointness(t *testing.T) {
	f := func(seeds []uint16) bool {
		tr := New()
		for i, s := range seeds {
			tr.Insert(Item{Addr: uint64(s % 512), Size: uint64(s%31) + 1, Seq: uint64(i)})
		}
		var prevEnd uint64
		ok := true
		first := true
		tr.Visit(func(it Item) {
			if !first && it.Addr < prevEnd {
				ok = false
			}
			first = false
			prevEnd = it.End()
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: MarkFlushed then RemoveFlushed leaves no byte of the flushed
// range tracked.
func TestQuickFlushRemove(t *testing.T) {
	f := func(seeds []uint16, fa, fs uint16) bool {
		tr := New()
		for i, s := range seeds {
			tr.Insert(Item{Addr: uint64(s % 512), Size: uint64(s%31) + 1, Seq: uint64(i)})
		}
		fr := intervals.R(uint64(fa%512), uint64(fs%64)+1)
		tr.MarkFlushed(fr)
		tr.RemoveFlushed()
		bad := false
		tr.VisitOverlapping(fr, func(it Item) { bad = true })
		return !bad
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkInsertSequential(b *testing.B) {
	tr := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.InsertDisjoint(Item{Addr: uint64(i) * 8, Size: 8})
	}
}

func BenchmarkLookup(b *testing.B) {
	tr := New()
	for i := 0; i < 1<<16; i++ {
		tr.InsertDisjoint(Item{Addr: uint64(i) * 8, Size: 8})
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Lookup(uint64(i%(1<<16)) * 8)
	}
}

// insertAllItems compares an InsertAll call against the reference semantics
// of inserting each item sequentially, checking both final contents and tree
// invariants.
func insertAllMatchesSequential(t *testing.T, pre, batch []Item) {
	t.Helper()
	bulk, seq := New(), New()
	for _, it := range pre {
		bulk.Insert(it)
		seq.Insert(it)
	}
	bulk.InsertAll(batch)
	for _, it := range batch {
		seq.Insert(it)
	}
	checkInvariants(t, bulk)
	got, want := bulk.Items(), seq.Items()
	if len(got) != len(want) {
		t.Fatalf("InsertAll: %d items, sequential: %d\nbulk: %v\nseq:  %v", len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("item %d differs: bulk %+v vs seq %+v", i, got[i], want[i])
		}
	}
	if bs, ss := bulk.Stats(), seq.Stats(); bs.Inserts != ss.Inserts && disjointFixture(pre, batch) {
		t.Fatalf("disjoint batch insert count diverged: bulk %d vs seq %d", bs.Inserts, ss.Inserts)
	}
}

// disjointFixture reports whether all records across pre and batch are
// pairwise disjoint and non-empty (the bulk fast path's precondition).
func disjointFixture(pre, batch []Item) bool {
	var all []Item
	for _, it := range append(append([]Item{}, pre...), batch...) {
		if it.Size == 0 {
			return false
		}
		all = append(all, it)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Addr < all[j].Addr })
	for i := 1; i < len(all); i++ {
		if all[i].Addr < all[i-1].End() {
			return false
		}
	}
	return true
}

func TestInsertAllDisjointBulk(t *testing.T) {
	// Large disjoint batch into an empty tree: the bulk build path.
	batch := make([]Item, 0, 64)
	for i := 63; i >= 0; i-- { // deliberately unsorted input
		batch = append(batch, Item{Addr: uint64(i * 32), Size: 16, Seq: uint64(i)})
	}
	insertAllMatchesSequential(t, nil, batch)

	tr := New()
	tr.InsertAll(batch)
	if tr.Len() != 64 {
		t.Fatalf("len %d after bulk insert, want 64", tr.Len())
	}
	if rot := tr.Stats().Rotations; rot != 0 {
		t.Fatalf("bulk build performed %d rotations, want 0", rot)
	}
	if h, max := tr.Height(), 7; h > max {
		t.Fatalf("bulk-built tree height %d exceeds %d for 64 items", h, max)
	}
}

func TestInsertAllDisjointFromExisting(t *testing.T) {
	pre := []Item{{Addr: 0x10, Size: 8}, {Addr: 0x100, Size: 8}, {Addr: 0x1000, Size: 8}}
	batch := make([]Item, 0, 32)
	for i := 0; i < 32; i++ {
		batch = append(batch, Item{Addr: 0x2000 + uint64(i*16), Size: 8, Seq: uint64(i)})
	}
	insertAllMatchesSequential(t, pre, batch)
}

func TestInsertAllOverlappingFallback(t *testing.T) {
	// Batch overlapping both itself and the tree: must fall back to the
	// sequential supersede semantics (later item wins the overlapped bytes).
	pre := []Item{{Addr: 0x100, Size: 64, Seq: 1}}
	batch := make([]Item, 0, 24)
	for i := 0; i < 24; i++ {
		batch = append(batch, Item{Addr: 0x100 + uint64(i*8), Size: 24, Seq: uint64(10 + i)})
	}
	insertAllMatchesSequential(t, pre, batch)
}

func TestInsertAllSmallAndEmpty(t *testing.T) {
	insertAllMatchesSequential(t, nil, nil)
	insertAllMatchesSequential(t, nil, []Item{{Addr: 8, Size: 8}})
	// Zero-size items are ignored on both paths.
	insertAllMatchesSequential(t, nil, []Item{{Addr: 8, Size: 8}, {Addr: 64, Size: 0}, {Addr: 128, Size: 8}})
}

func TestInsertAllRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		var pre, batch []Item
		for i := 0; i < rng.Intn(8); i++ {
			pre = append(pre, Item{Addr: uint64(rng.Intn(1024)), Size: uint64(rng.Intn(48) + 1), Seq: uint64(i)})
		}
		for i := 0; i < rng.Intn(40); i++ {
			batch = append(batch, Item{Addr: uint64(rng.Intn(1024)), Size: uint64(rng.Intn(48)), Seq: uint64(100 + i)})
		}
		insertAllMatchesSequential(t, pre, batch)
	}
}

// flushedByWalk returns the flushed records a full in-order walk finds.
func flushedByWalk(tr *Tree) []Item {
	var out []Item
	tr.Visit(func(it Item) {
		if it.Flushed {
			out = append(out, it)
		}
	})
	return out
}

// requireSweepExact checks the sweep summaries against a full walk: every
// record's Epochs is at most MaxEpochs, and RemoveFlushed removes exactly
// the records the walk finds flushed.
func requireSweepExact(t *testing.T, tr *Tree, label string) {
	t.Helper()
	tr.Visit(func(it Item) {
		if it.Epochs > tr.MaxEpochs() {
			t.Fatalf("%s: record %v has Epochs %d above MaxEpochs %d",
				label, it.Range(), it.Epochs, tr.MaxEpochs())
		}
	})
	want := flushedByWalk(tr)
	got := tr.RemoveFlushed()
	if len(got) != len(want) {
		t.Fatalf("%s: RemoveFlushed removed %d records, walk found %d flushed", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: RemoveFlushed[%d] = %+v, walk found %+v", label, i, got[i], want[i])
		}
	}
	if left := flushedByWalk(tr); len(left) != 0 {
		t.Fatalf("%s: %d flushed records survived RemoveFlushed", label, len(left))
	}
	checkInvariants(t, tr)
}

// TestSweepSummariesFollowEveryInsertPath drives each way a record enters
// the tree — MarkFlushed splits, InsertAll's bulk rebuild, Merge's rebuild
// and InsertDisjoint — after a sweep has cleared the flushed summary, and
// requires RemoveFlushed to find what a full walk finds.
func TestSweepSummariesFollowEveryInsertPath(t *testing.T) {
	t.Run("mark-flushed-split", func(t *testing.T) {
		tr := New()
		tr.Insert(Item{Addr: 0, Size: 64, Epochs: -1})
		requireSweepExact(t, tr, "no flushed record")
		tr.MarkFlushed(intervals.R(16, 16)) // splits into three records
		if tr.Len() != 3 {
			t.Fatalf("split left %d records, want 3", tr.Len())
		}
		requireSweepExact(t, tr, "after split")
		if tr.Len() != 2 {
			t.Fatalf("sweep left %d records, want the 2 unflushed remainders", tr.Len())
		}
	})
	t.Run("insert-all-bulk", func(t *testing.T) {
		tr := New()
		var batch []Item
		for i := 0; i < 32; i++ {
			batch = append(batch, Item{Addr: uint64(i * 16), Size: 8, Flushed: i%3 == 0, Epochs: 7})
		}
		before := tr.Stats().Rotations
		tr.InsertAll(batch)
		if tr.Stats().Rotations != before {
			t.Fatal("disjoint batch did not take the bulk rebuild")
		}
		if tr.MaxEpochs() != 7 {
			t.Fatalf("MaxEpochs = %d after bulk insert of epoch 7", tr.MaxEpochs())
		}
		requireSweepExact(t, tr, "after bulk insert")
	})
	t.Run("merge", func(t *testing.T) {
		tr := New()
		requireSweepExact(t, tr, "empty")
		for i := 0; i < 8; i++ {
			tr.InsertDisjoint(Item{Addr: uint64(i * 8), Size: 8, Flushed: true, Epochs: 2})
		}
		tr.Insert(Item{Addr: 100, Size: 8, Epochs: 3})
		if n := tr.Merge(); n != 7 {
			t.Fatalf("Merge eliminated %d records, want 7", n)
		}
		requireSweepExact(t, tr, "after merge")
		if tr.Len() != 1 || tr.MaxEpochs() != 3 {
			t.Fatalf("after sweep: len %d, MaxEpochs %d; want 1, 3", tr.Len(), tr.MaxEpochs())
		}
	})
	t.Run("insert-disjoint", func(t *testing.T) {
		tr := New()
		tr.Insert(Item{Addr: 0, Size: 8, Flushed: true})
		requireSweepExact(t, tr, "first sweep")
		tr.InsertDisjoint(Item{Addr: 64, Size: 8, Flushed: true, Epochs: 4})
		requireSweepExact(t, tr, "after insert-disjoint")
	})
	t.Run("clear", func(t *testing.T) {
		tr := New()
		tr.Insert(Item{Addr: 0, Size: 8, Flushed: true, Epochs: 9})
		tr.Clear()
		if tr.MaxEpochs() != -1 || tr.RemoveFlushed() != nil {
			t.Fatalf("Clear kept summaries: MaxEpochs %d", tr.MaxEpochs())
		}
	})
}

// TestSweepSummariesRandomized interleaves every mutating operation with
// sweeps and checks each sweep against a full walk.
func TestSweepSummariesRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	tr := New()
	item := func() Item {
		return Item{
			Addr: uint64(rng.Intn(2048)), Size: uint64(rng.Intn(48)) + 1,
			Flushed: rng.Intn(4) == 0, Epochs: int32(rng.Intn(6)) - 1,
		}
	}
	for step := 0; step < 4000; step++ {
		switch rng.Intn(9) {
		case 0, 1:
			tr.Insert(item())
		case 2:
			tr.MarkFlushed(intervals.R(uint64(rng.Intn(2048)), uint64(rng.Intn(96))+1))
		case 3:
			// A batch that is disjoint from itself; the bulk path applies
			// when it is also disjoint from the tree.
			base := uint64(rng.Intn(4096))
			var batch []Item
			for i := 0; i < 16+rng.Intn(16); i++ {
				it := item()
				it.Addr, it.Size = base+uint64(i*16), 8
				batch = append(batch, it)
			}
			tr.InsertAll(batch)
		case 4:
			tr.Merge()
		case 5:
			it := item()
			if len(tr.CollectOverlapping(it.Range())) == 0 {
				tr.InsertDisjoint(it)
			}
		case 6:
			if items := tr.Items(); len(items) > 0 {
				tr.Delete(items[rng.Intn(len(items))].Addr)
			}
		case 7:
			tr.RemoveIf(func(it Item) bool { return it.Epochs == 0 })
		case 8:
			requireSweepExact(t, tr, "random step")
		}
	}
	requireSweepExact(t, tr, "final")
}
