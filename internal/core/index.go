package core

// This file implements the per-space cache-line index and the MRU interval
// probe that together make the detector's per-event hot loop O(lines
// touched) instead of O(CLF intervals per fence interval).
//
// The paper's hybrid bookkeeping (§4) already makes the common store /
// CLF / fence path cheap in *data-structure* terms, but the reference scans
// — every CLF interval per writeback, every entry of every overlapping
// interval per overlap query — still pay per-event work proportional to the
// whole fence interval. Fig. 2a shows the actual access pattern: most
// stores are persisted at a CLF distance of one or two intervals, so the
// records an event needs are almost always (a) in the most recent CLF
// intervals, or (b) findable from the 64-byte cache line the event touches.
//
// Three layers exploit that:
//
//  1. MRU interval probe: each space folds the address ranges of every CLF
//     interval *older than the previous one* into a single summary range
//     (oldBounds). An event whose range does not overlap that summary
//     provably cannot concern any old interval — intervals stop growing the
//     moment they stop being current — so it is handled by scanning just
//     the current and previous intervals.
//  2. Cache-line index: a map from line id (addr>>6) to the ascending list
//     of memory-location-array entries whose ranges touch that line, reset
//     in O(live lines) at the fence. Events that miss the MRU probe resolve
//     their candidate entries — and, through entryIv, the candidate CLF
//     intervals — from the lines they touch.
//  3. Line signatures: each CLF interval ORs bit (line mod 64) of every
//     line its stores touched into a 64-bit word (clfMeta.lines). An
//     interval whose [min, max) overlaps a query but whose signature shares
//     no bit with the query's lines is skipped before its entries are read.
//     Transaction commits store to log and data lines far apart in one
//     interval and write them back line by line, so most of those
//     write-backs overlap older intervals' ranges but none of their lines.
//
// The index is built on demand. Most fence intervals are short (Pattern 1:
// the ledger's Fig. 8 programs average 1.2 to 48 stores per fence), the MRU
// probe answers nearly every query they make, and a scan of a few hundred
// entries is cheaper than a map insert per store. So store does not index;
// a query that misses the MRU probe (and every markReported) first checks
// the fence interval's array length. Up to scanLimit entries it takes the
// reference interval scan; past it the index catches up from the last
// indexed entry and answers. A fence interval that never outgrows the
// limit never touches the map.
//
// The index and the signatures are conservative supersets: entries are
// indexed under the lines of their range when they are caught up, and
// signed with them when they are stored, and flush splits only ever shrink
// an entry's range within the span it had then, so a record can never
// overlap a query without sharing an indexed line and a signature bit with
// it. Every consult therefore re-checks the scan path's exact predicates
// (interval prefilter gate, per-entry overlap), which keeps the indexed
// path behaviorally identical to the Config.DisableIndex scan fallback,
// which never consults a signature — property- and fuzz-tested in
// index_test.go / fuzz_test.go, at scan limits 0, 4 and the default.

import (
	"math/bits"
	"slices"

	"pmdebugger/internal/intervals"
)

// lineShift converts an address to its cache-line id
// (log2 of intervals.CacheLineSize).
const lineShift = 6

// scanLimit is the fence-interval array length up to which a query the MRU
// probe cannot answer takes the reference interval scan instead of building
// the cache-line index, so it bounds the entries one scan visits. On the
// ledger's fig8-inline set, limits of 64 to 1,024 read within 2% of each
// other and 32 read 3% slower; BenchmarkHotPath's 512–1,536-entry
// intervals are past 256, so they keep the index's per-event bound.
const scanLimit = 256

// maxIdleLines bounds how many distinct line slots the index keeps cached
// across fences: reset truncates each live list in place so its capacity is
// reused, but a long run touching ever-new lines would otherwise grow the
// map without bound, so past this many slots reset reallocates it.
const maxIdleLines = 1 << 16

// lineIndex maps cache-line ids to the array entries touching them.
type lineIndex struct {
	lists map[uint64][]int32
	live  []uint64 // line ids with candidates this fence interval
}

func newLineIndex() *lineIndex {
	return &lineIndex{lists: make(map[uint64][]int32, 64)}
}

// lineSpan returns the inclusive cache-line id range covered by r. A
// zero-size range maps to the single line containing its address: empty
// ranges still participate in overlap checks when strictly inside another
// range (see intervals.Range.Overlaps), so their line must stay indexed.
func lineSpan(r intervals.Range) (first, last uint64) {
	first = r.Addr >> lineShift
	last = first
	if r.Size > 0 {
		last = (r.End() - 1) >> lineShift
	}
	return first, last
}

// allLines is the line signature of a range covering 64 lines or more, and
// the query signature of the DisableIndex reference path: every non-empty
// CLF interval's signature shares a bit with it, so nothing is skipped.
const allLines = ^uint64(0)

// lineSig returns the cache-line signature of r: bit (line mod 64) set for
// every line of lineSpan(r), so a zero-size range sets its address's line.
// Two ranges that overlap share a line, hence a bit, so signatures that
// share no bit prove the ranges disjoint.
func lineSig(r intervals.Range) uint64 {
	first, last := lineSpan(r)
	if last-first >= 63 {
		return allLines
	}
	return bits.RotateLeft64(1<<(last-first+1)-1, int(first&63))
}

// querySig returns the line signature interval filters test a query range
// against: r's own when the index is enabled, allLines on the reference
// path, which filters by address range alone.
func (s *space) querySig(r intervals.Range) uint64 {
	if s.idx == nil {
		return allLines
	}
	return lineSig(r)
}

// add indexes array entry id under every line touched by r.
func (x *lineIndex) add(id int32, r intervals.Range) {
	first, last := lineSpan(r)
	for ln := first; ; ln++ {
		lst := x.lists[ln]
		if len(lst) == 0 {
			x.live = append(x.live, ln)
		}
		x.lists[ln] = append(lst, id)
		if ln == last {
			break
		}
	}
}

// reset clears the index in O(live-lines): only the lines touched since the
// last fence are visited, and their slots keep their capacity for reuse.
func (x *lineIndex) reset() {
	if len(x.lists) > maxIdleLines {
		x.lists = make(map[uint64][]int32, 64)
	} else {
		for _, ln := range x.live {
			x.lists[ln] = x.lists[ln][:0]
		}
	}
	x.live = x.live[:0]
}

// mruOnly reports whether r provably cannot touch any CLF interval older
// than the previous one. oldBounds is a superset of every old interval's
// collective range (ranges only shrink after an interval stops being
// current), so missing it means the full interval scan would skip every old
// interval anyway. It is always false on the reference scan path.
func (s *space) mruOnly(r intervals.Range) bool {
	return s.idx != nil && !r.Overlaps(s.oldBounds)
}

// indexed reports whether a query should resolve its candidates through the
// cache-line index, and if so brings the index up to date first: it does
// once the fence interval's array holds more than the detector's scan
// limit. Otherwise the caller takes the reference interval scan.
func (s *space) indexed() bool {
	if s.idx == nil || len(s.arr) <= s.d.scanLimit {
		return false
	}
	s.catchUp()
	return true
}

// catchUp indexes the array entries appended since the last query that
// used the index, under the lines of their current ranges, and records
// each one's owning CLF interval. Intervals tile the array in order, so
// the owner walk resumes at the last indexed entry's interval.
func (s *space) catchUp() {
	iv := int32(0)
	if n := len(s.entryIv); n > 0 {
		iv = s.entryIv[n-1]
	}
	for id := len(s.entryIv); id < len(s.arr); id++ {
		for s.meta[iv].end <= id {
			iv++
		}
		s.idx.add(int32(id), s.arr[id].Range())
		s.entryIv = append(s.entryIv, iv)
	}
}

// mruFirst returns the meta index of the first MRU interval: the previous
// CLF interval when one exists, else the current one.
func (s *space) mruFirst() int {
	if n := len(s.meta); n >= 2 {
		return n - 2
	}
	return 0
}

// foldOldBounds ages the interval that is about to stop being the previous
// one into the oldBounds summary. Called right before a new CLF interval is
// appended.
func (s *space) foldOldBounds() {
	if s.idx == nil {
		return
	}
	if n := len(s.meta); n >= 2 {
		s.oldBounds = s.oldBounds.Union(s.meta[n-2].rng())
	}
}

// candidates gathers the distinct array-entry ids whose indexed lines
// intersect r, in ascending order. The result aliases s.candScratch and is
// valid until the next call.
func (s *space) candidates(r intervals.Range) []int32 {
	out := s.candScratch[:0]
	first, last := lineSpan(r)
	for ln := first; ; ln++ {
		if lst := s.idx.lists[ln]; len(lst) > 0 {
			s.d.rep.Counters.IndexLineHits++
			out = append(out, lst...)
		} else {
			s.d.rep.Counters.IndexLineMisses++
		}
		if ln == last {
			break
		}
	}
	slices.Sort(out)
	out = slices.Compact(out)
	s.candScratch = out
	return out
}

// forEachCandidateInterval groups ascending candidate ids by their owning
// CLF interval and invokes fn once per interval in meta order. Interval ids
// are non-decreasing in entry id because entries append to the current
// interval only.
func (s *space) forEachCandidateInterval(cands []int32, fn func(iv int32, ids []int32)) {
	for g := 0; g < len(cands); {
		iv := s.entryIv[cands[g]]
		h := g + 1
		for h < len(cands) && s.entryIv[cands[h]] == iv {
			h++
		}
		fn(iv, cands[g:h])
		g = h
	}
}

// resetIndex clears all index state for the next fence interval. A fence
// interval that never built the index leaves the map untouched.
func (s *space) resetIndex() {
	if len(s.entryIv) > 0 {
		s.idx.reset()
		s.entryIv = s.entryIv[:0]
	}
	s.oldBounds = intervals.Range{}
}
