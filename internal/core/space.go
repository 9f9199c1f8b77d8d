package core

import (
	"pmdebugger/internal/avl"
	"pmdebugger/internal/intervals"
	"pmdebugger/internal/report"
	"pmdebugger/internal/rules"
	"pmdebugger/internal/trace"
)

// flushState is the collective cache-flushing state of a CLF interval
// (§4.1): all flushed, partially flushed, or not flushed.
type flushState uint8

const (
	notFlushed flushState = iota
	partiallyFlushed
	allFlushed
)

// clfMeta is the metadata node for one CLF interval (Fig. 5): the array
// index range of its stores, the address range they cover, and the
// collective flushing state. The paper keeps these nodes in a linked list;
// an appended slice is the idiomatic Go equivalent with identical
// per-interval semantics (nodes are only ever appended and then dropped
// wholesale at the fence).
type clfMeta struct {
	start, end int // [start, end) indexes into the memory location array
	minAddr    uint64
	maxAddr    uint64 // exclusive
	state      flushState
	flushed    int // entries individually marked flushed (partial tracking)
}

func (m *clfMeta) empty() bool { return m.start == m.end }

func (m *clfMeta) count() int { return m.end - m.start }

func (m *clfMeta) rng() intervals.Range {
	if m.empty() || m.maxAddr <= m.minAddr {
		return intervals.Range{}
	}
	return intervals.R(m.minAddr, m.maxAddr-m.minAddr)
}

// space is one bookkeeping space (§4.1): the memory location array, the CLF
// interval metadata, and the AVL tree for long-lived records. The strict and
// epoch models use a single space; the strand model allocates one per strand
// section (§5.1).
type space struct {
	d      *Detector
	strand int32
	arr    []avl.Item
	meta   []clfMeta
	tree   *avl.Tree

	// Cache-line index state (see index.go). idx is nil when
	// Config.DisableIndex selects the reference scan path. entryIv maps each
	// indexed array entry to the CLF interval that owns it, so its length is
	// the number of entries indexed so far; oldBounds summarizes the address
	// ranges of every interval older than the previous one (the MRU probe's
	// negative filter). candScratch and redist are reusable scratch buffers
	// for candidate gathering and fence-time redistribution.
	idx         *lineIndex
	entryIv     []int32
	oldBounds   intervals.Range
	candScratch []int32
	redist      []avl.Item
}

func newSpace(d *Detector, strand int32) *space {
	// The array is logically fixed-size (capacity d.cfg.ArrayCapacity) but
	// its backing storage grows on demand so per-strand spaces stay cheap.
	s := &space{
		d:      d,
		strand: strand,
		arr:    make([]avl.Item, 0, 256),
		tree:   avl.New(),
	}
	if !d.cfg.DisableIndex {
		s.idx = newLineIndex()
	}
	s.meta = append(s.meta, clfMeta{minAddr: ^uint64(0)})
	return s
}

// empty reports whether the space tracks nothing.
func (s *space) empty() bool { return len(s.arr) == 0 && s.tree.Len() == 0 }

func (s *space) cur() *clfMeta { return &s.meta[len(s.meta)-1] }

// trackedOverlap reports whether any record in the bookkeeping space
// overlaps r. The array is consulted first — via the MRU probe or the
// cache-line index when enabled, or the reference interval scan — then the
// AVL tree.
func (s *space) trackedOverlap(r intervals.Range) (avl.Item, bool) {
	var hit avl.Item
	var found bool
	switch {
	case s.mruOnly(r):
		s.d.rep.Counters.MRUProbeHits++
		hit, found = s.overlapScanFrom(r, s.mruFirst())
	case s.indexed():
		hit, found = s.overlapIndexed(r)
	default:
		hit, found = s.overlapScanFrom(r, 0)
	}
	if found {
		return hit, true
	}
	s.tree.VisitOverlapping(r, func(it avl.Item) {
		if !found {
			hit, found = it, true
		}
	})
	return hit, found
}

// overlapScanFrom is the reference array lookup: scan CLF intervals starting
// at meta index from, prefiltering each by its collective address range so
// most intervals are skipped without touching entries (Pattern 2), and
// return the first overlapping entry in array order.
func (s *space) overlapScanFrom(r intervals.Range, from int) (avl.Item, bool) {
	for mi := from; mi < len(s.meta); mi++ {
		m := &s.meta[mi]
		if m.empty() || !r.Overlaps(m.rng()) {
			continue
		}
		for i := m.start; i < m.end; i++ {
			if s.arr[i].Range().Overlaps(r) {
				return s.arr[i], true
			}
		}
	}
	return avl.Item{}, false
}

// overlapIndexed resolves the lookup through the cache-line index. The
// candidates are ascending and a superset of every overlapping entry, and
// each is re-checked against the scan path's interval prefilter, so the
// first candidate that passes is exactly the entry the scan returns.
func (s *space) overlapIndexed(r intervals.Range) (avl.Item, bool) {
	for _, id := range s.candidates(r) {
		m := &s.meta[s.entryIv[id]]
		if !r.Overlaps(m.rng()) {
			continue
		}
		if s.arr[id].Range().Overlaps(r) {
			return s.arr[id], true
		}
	}
	return avl.Item{}, false
}

// store processes a memory store instruction (§4.2): append to the array
// (or spill to the tree when the array is full) and update the current CLF
// interval metadata. The multiple-overwrites rule runs first so it sees the
// pre-store bookkeeping state.
func (s *space) store(ev trace.Event, epochID int32) {
	r := intervals.R(ev.Addr, ev.Size)
	if s.d.cfg.Rules.Has(rules.RuleMultipleOverwrites) {
		if prev, ok := s.trackedOverlap(r); ok {
			prevSeq := prev.Seq
			s.d.rep.AddLazy(report.Bug{
				Type: report.MultipleOverwrites,
				Addr: ev.Addr, Size: ev.Size, Seq: ev.Seq,
				Site: ev.Site, Strand: ev.Strand,
			}, func() string {
				return "location written again before its durability is guaranteed (previous store at seq " +
					usay(prevSeq) + ")"
			})
		}
	}

	it := avl.Item{
		Addr: ev.Addr, Size: ev.Size, Seq: ev.Seq,
		Site: ev.Site, Strand: ev.Strand,
		Epoch: epochID >= 0, Epochs: epochID,
	}
	if len(s.arr) < s.d.cfg.ArrayCapacity {
		s.arr = append(s.arr, it)
		m := s.cur()
		m.end = len(s.arr)
		if ev.Addr < m.minAddr {
			m.minAddr = ev.Addr
		}
		if ev.End() > m.maxAddr {
			m.maxAddr = ev.End()
		}
		s.d.rep.Counters.ArrayAppends++
	} else {
		// Rare overflow (§4.1): new locations go straight to the AVL tree.
		s.tree.Insert(it)
		s.d.rep.Counters.ArraySpills++
	}
	if s.d.order != nil {
		s.d.order.noteStore(ev)
	}
}

// flush processes a CLF instruction (§4.3). The array is traversed at CLF
// interval granularity: a flush covering an interval's whole address range
// updates only the collective state; partial overlaps examine entries
// individually, splitting entries whose range is only partially persisted
// (the covered part stays in the array, the remainder moves to the tree).
// Afterwards the tree is updated and a fresh CLF interval is opened.
//
// With the index enabled, the traversal visits only the MRU intervals (when
// the probe proves older ones unreachable) or, past the scan limit, the
// intervals owning the flush's cache-line candidates; both restrictions
// visit every interval the reference scan would touch.
//
// It returns whether the flush hit any not-yet-flushed record and whether it
// hit any already-flushed record, which drive the redundant-flush and
// flush-nothing rules.
func (s *space) flush(ev trace.Event) (anyNew, anyOld bool) {
	fr := intervals.R(ev.Addr, ev.Size)
	switch {
	case s.mruOnly(fr):
		s.d.rep.Counters.MRUProbeHits++
		for mi := s.mruFirst(); mi < len(s.meta); mi++ {
			n, o := s.flushOne(&s.meta[mi], fr, nil)
			anyNew = anyNew || n
			anyOld = anyOld || o
		}
	case s.indexed():
		s.forEachCandidateInterval(s.candidates(fr), func(iv int32, ids []int32) {
			n, o := s.flushOne(&s.meta[iv], fr, ids)
			anyNew = anyNew || n
			anyOld = anyOld || o
		})
	default:
		for mi := range s.meta {
			n, o := s.flushOne(&s.meta[mi], fr, nil)
			anyNew = anyNew || n
			anyOld = anyOld || o
		}
	}

	// Then the AVL tree (§4.3): the array absorbs most updates, so this
	// traversal is usually a cheap no-op.
	newly, already := s.tree.MarkFlushed(fr)
	anyNew = anyNew || newly > 0
	anyOld = anyOld || already > 0

	// Start a new CLF interval. The interval that stops being the previous
	// one can no longer grow, so its range is folded into the MRU probe's
	// old-interval summary first.
	if !s.cur().empty() {
		s.foldOldBounds()
		s.meta = append(s.meta, clfMeta{start: len(s.arr), end: len(s.arr), minAddr: ^uint64(0)})
	}
	return anyNew, anyOld
}

// flushOne applies a CLF to one CLF interval. ids, when non-nil, restricts
// the per-entry passes to those array entries (ascending); the restriction
// is exact because every entry overlapping fr is among its cache-line
// candidates. The collective branches never iterate per candidate: a whole
// interval covered by fr transitions by metadata update alone (Pattern 2).
func (s *space) flushOne(m *clfMeta, fr intervals.Range, ids []int32) (anyNew, anyOld bool) {
	if m.empty() {
		return false, false
	}
	ir := m.rng()
	if !fr.Overlaps(ir) {
		return false, false
	}
	if fr.Contains(ir) {
		// Collective update: the whole interval is covered (Pattern 2).
		switch m.state {
		case allFlushed:
			anyOld = true
		case notFlushed:
			m.state = allFlushed
			m.flushed = m.count()
			anyNew = true
		case partiallyFlushed:
			if m.flushed > 0 {
				anyOld = true
			}
			if m.flushed < m.count() {
				anyNew = true
			}
			for i := m.start; i < m.end; i++ {
				s.arr[i].Flushed = true
			}
			m.state = allFlushed
			m.flushed = m.count()
		}
		return anyNew, anyOld
	}
	// Partial overlap: examine entries individually.
	if m.state == allFlushed {
		// Every entry is already flushed; this is a re-flush only if the
		// range hits an actual entry rather than a gap between the
		// interval's min and max addresses.
		if ids != nil {
			for _, id := range ids {
				if fr.Overlaps(s.arr[id].Range()) {
					anyOld = true
					break
				}
			}
		} else {
			for i := m.start; i < m.end; i++ {
				if fr.Overlaps(s.arr[i].Range()) {
					anyOld = true
					break
				}
			}
		}
		return anyNew, anyOld
	}
	if ids != nil {
		for _, id := range ids {
			n, o := s.flushEntry(m, fr, int(id))
			anyNew = anyNew || n
			anyOld = anyOld || o
		}
	} else {
		for i := m.start; i < m.end; i++ {
			n, o := s.flushEntry(m, fr, i)
			anyNew = anyNew || n
			anyOld = anyOld || o
		}
	}
	if m.flushed == m.count() {
		m.state = allFlushed
	} else if m.flushed > 0 {
		m.state = partiallyFlushed
	}
	return anyNew, anyOld
}

// flushEntry applies a partial-interval CLF to one array entry.
func (s *space) flushEntry(m *clfMeta, fr intervals.Range, i int) (anyNew, anyOld bool) {
	e := &s.arr[i]
	er := e.Range()
	if !fr.Overlaps(er) {
		return false, false
	}
	if e.Flushed {
		return false, true
	}
	if fr.Contains(er) {
		e.Flushed = true
		m.flushed++
		return true, false
	}
	// Split: covered sub-range stays (flushed); remainders move to the
	// tree, still unflushed (§4.3).
	covered := er.Intersect(fr)
	for _, rem := range er.Subtract(covered) {
		keep := *e
		keep.Addr, keep.Size = rem.Addr, rem.Size
		s.tree.Insert(keep)
	}
	e.Addr, e.Size = covered.Addr, covered.Size
	e.Flushed = true
	m.flushed++
	return true, false
}

// fence processes a fence instruction (§4.4): records whose durability the
// fence guarantees are removed — tree first, then the array via its interval
// metadata — remaining unflushed array entries are re-distributed to the
// tree, the tree is merged past the threshold, and the array is reset for
// the next fence interval by invalidating the metadata.
func (s *space) fence(ev trace.Event) {
	ot := s.d.order

	// 0. Sample the tree size as seen during the closing fence interval
	// (the Fig. 11 metric): the hybrid design's win is how little of the
	// interval's state ever reaches the tree.
	s.d.rep.Counters.TreeNodeSamples += uint64(s.tree.Len())

	// 1. Tree first, so subsequent insertions hit a smaller tree (§4.4).
	// The A3 ablation reverses the order to quantify that choice.
	if !s.d.cfg.ArrayFirstFence {
		s.fenceTree(ot)
	}
	s.fenceArray(ot)
	if s.d.cfg.ArrayFirstFence {
		s.fenceTree(ot)
	}

	// 3. Merge only past the threshold to avoid constant reorganization
	// (§4.4).
	if s.d.cfg.MergeThreshold >= 0 && s.tree.Len() > s.d.cfg.MergeThreshold {
		s.tree.Merge()
		s.d.rep.Counters.TreeReorgs++
	}

	// 4. Reset the array and metadata for the next fence interval.
	s.arr = s.arr[:0]
	s.meta = s.meta[:0]
	s.meta = append(s.meta, clfMeta{minAddr: ^uint64(0)})
	s.resetIndex()

	if ot != nil {
		ot.fenceDone(ev)
	}
}

// fenceTree removes durable records from the AVL tree.
func (s *space) fenceTree(ot *orderTracker) {
	removed := s.tree.RemoveFlushed()
	if ot != nil {
		for _, it := range removed {
			ot.noteCommit(it.Range())
		}
	}
}

// fenceArray drops or re-distributes the memory location array via its CLF
// interval metadata. Unflushed entries are gathered across all intervals and
// moved to the tree in one InsertAll, so a redistribution-heavy fence pays
// tree maintenance once instead of one rebalance per entry.
func (s *space) fenceArray(ot *orderTracker) {
	redist := s.redist[:0]
	for mi := range s.meta {
		m := &s.meta[mi]
		if m.empty() {
			continue
		}
		switch m.state {
		case allFlushed:
			// Durability guaranteed for the whole interval; dropping it is
			// pure metadata invalidation.
			if ot != nil {
				for i := m.start; i < m.end; i++ {
					ot.noteCommit(s.arr[i].Range())
				}
			}
		case notFlushed:
			redist = append(redist, s.arr[m.start:m.end]...)
		case partiallyFlushed:
			for i := m.start; i < m.end; i++ {
				if s.arr[i].Flushed {
					if ot != nil {
						ot.noteCommit(s.arr[i].Range())
					}
					continue
				}
				redist = append(redist, s.arr[i])
			}
		}
	}
	if len(redist) > 0 {
		s.tree.InsertAll(redist)
		s.d.rep.Counters.Redistributions += uint64(len(redist))
	}
	s.redist = redist[:0]
}

// visitRemaining calls fn for every record still tracked (used by the
// end-of-program durability rule). The flushed flag passed to fn accounts
// for collective interval state.
func (s *space) visitRemaining(fn func(it avl.Item, flushed bool)) {
	s.visitArray(fn)
	s.tree.Visit(func(it avl.Item) { fn(it, it.Flushed) })
}

// visitArray calls fn for every live record of the memory location array.
func (s *space) visitArray(fn func(it avl.Item, flushed bool)) {
	for mi := range s.meta {
		m := &s.meta[mi]
		for i := m.start; i < m.end; i++ {
			if s.arr[i].Size == 0 {
				continue // purged (Unregister_pmem)
			}
			fn(s.arr[i], s.arr[i].Flushed || m.state == allFlushed)
		}
	}
}

// visitEpoch calls fn for every record still tracked that a store inside
// epoch section id created (the epoch-end durability rule). The tree walk
// is skipped when the tree has never held a record of that epoch.
func (s *space) visitEpoch(id int32, fn func(it avl.Item)) {
	pick := func(it avl.Item, _ bool) {
		if it.Epoch && it.Epochs == id {
			fn(it)
		}
	}
	s.visitArray(pick)
	if s.tree.MaxEpochs() >= id {
		s.tree.Visit(func(it avl.Item) { pick(it, it.Flushed) })
	}
}

// purge drops all tracking for records overlapping r (Unregister_pmem):
// array entries shrink to their non-overlapping remainders (a zero-size
// entry is inert everywhere), tree records are removed or truncated.
func (s *space) purge(r intervals.Range) {
	if s.indexed() {
		s.forEachCandidateInterval(s.candidates(r), func(iv int32, ids []int32) {
			s.purgeOne(&s.meta[iv], r, ids)
		})
	} else {
		for mi := range s.meta {
			s.purgeOne(&s.meta[mi], r, nil)
		}
	}
	for _, old := range s.tree.CollectOverlapping(r) {
		s.tree.Delete(old.Addr)
		for _, rem := range old.Range().Subtract(r) {
			keep := old
			keep.Addr, keep.Size = rem.Addr, rem.Size
			s.tree.InsertDisjoint(keep)
		}
	}
}

// purgeOne purges one CLF interval. ids, when non-nil, restricts the entry
// pass to the purge range's cache-line candidates (exact: a purged entry
// always shares a line with r). Intervals whose entries actually shrank get
// their collective bounds recomputed so the range prefilter stops visiting
// intervals whose live entries no longer overlap anything.
func (s *space) purgeOne(m *clfMeta, r intervals.Range, ids []int32) {
	if m.empty() || !r.Overlaps(m.rng()) {
		return
	}
	changed := false
	if ids != nil {
		for _, id := range ids {
			changed = s.purgeEntry(r, int(id)) || changed
		}
	} else {
		for i := m.start; i < m.end; i++ {
			changed = s.purgeEntry(r, i) || changed
		}
	}
	if changed {
		s.tightenBounds(m)
	}
}

// purgeEntry shrinks one array entry to its remainder outside r, reporting
// whether the entry was modified.
func (s *space) purgeEntry(r intervals.Range, i int) bool {
	e := &s.arr[i]
	if !e.Range().Overlaps(r) {
		return false
	}
	rem := e.Range().Subtract(r)
	if len(rem) == 0 {
		e.Size = 0
		return true
	}
	// Keep the first remainder in place; extras go to the tree.
	e.Addr, e.Size = rem[0].Addr, rem[0].Size
	for _, extra := range rem[1:] {
		keep := *e
		keep.Addr, keep.Size = extra.Addr, extra.Size
		s.tree.Insert(keep)
	}
	return true
}

// tightenBounds recomputes a CLF interval's collective address range from
// its live (non-purged) entries. With no live entries left the bounds
// become the empty sentinel, so rng() is empty and every range prefilter
// skips the interval.
func (s *space) tightenBounds(m *clfMeta) {
	lo, hi := ^uint64(0), uint64(0)
	for i := m.start; i < m.end; i++ {
		if s.arr[i].Size == 0 {
			continue
		}
		if s.arr[i].Addr < lo {
			lo = s.arr[i].Addr
		}
		if s.arr[i].End() > hi {
			hi = s.arr[i].End()
		}
	}
	m.minAddr, m.maxAddr = lo, hi
}

// markReported flags tracked records overlapping r as already reported so a
// later rule (end-of-program no-durability) does not double-report them.
func (s *space) markReported(r intervals.Range) {
	if s.indexed() {
		s.forEachCandidateInterval(s.candidates(r), func(iv int32, ids []int32) {
			s.markReportedOne(&s.meta[iv], r, ids)
		})
	} else {
		for mi := range s.meta {
			s.markReportedOne(&s.meta[mi], r, nil)
		}
	}
	// The AVL tree stores items by value; rewrite overlapping ones.
	hit := s.tree.CollectOverlapping(r)
	for _, it := range hit {
		s.tree.Delete(it.Addr)
		it.Reported = true
		s.tree.InsertDisjoint(it)
	}
}

// markReportedOne flags one CLF interval's entries overlapping r.
func (s *space) markReportedOne(m *clfMeta, r intervals.Range, ids []int32) {
	if m.empty() || !r.Overlaps(m.rng()) {
		return
	}
	if ids != nil {
		for _, id := range ids {
			if s.arr[id].Range().Overlaps(r) {
				s.arr[id].Reported = true
			}
		}
		return
	}
	for i := m.start; i < m.end; i++ {
		if s.arr[i].Range().Overlaps(r) {
			s.arr[i].Reported = true
		}
	}
}

func usay(v uint64) string {
	// Minimal unsigned itoa to avoid fmt on the hot path.
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
