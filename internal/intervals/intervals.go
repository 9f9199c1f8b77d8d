// Package intervals provides half-open address-range arithmetic used by all
// bookkeeping structures: overlap tests, containment, splitting a range
// around a flushed sub-range, and canonical merging of range sets.
package intervals

import (
	"fmt"
	"sort"
)

// Range is the half-open address interval [Addr, Addr+Size).
type Range struct {
	Addr uint64
	Size uint64
}

// R is shorthand for constructing a Range.
func R(addr, size uint64) Range { return Range{Addr: addr, Size: size} }

// End returns the first address past the range.
func (r Range) End() uint64 { return r.Addr + r.Size }

// Empty reports whether the range covers no addresses.
func (r Range) Empty() bool { return r.Size == 0 }

// String formats the range as [addr,+size).
func (r Range) String() string { return fmt.Sprintf("[%#x,+%d)", r.Addr, r.Size) }

// Overlaps reports whether r and o share at least one address.
func (r Range) Overlaps(o Range) bool {
	return r.Addr < o.End() && o.Addr < r.End()
}

// Contains reports whether r fully covers o (o ⊆ r).
func (r Range) Contains(o Range) bool {
	return r.Addr <= o.Addr && o.End() <= r.End()
}

// ContainsAddr reports whether addr falls inside r.
func (r Range) ContainsAddr(addr uint64) bool {
	return r.Addr <= addr && addr < r.End()
}

// Intersect returns the overlapping sub-range of r and o. The result is the
// empty range when they do not overlap.
func (r Range) Intersect(o Range) Range {
	lo := max64(r.Addr, o.Addr)
	hi := min64(r.End(), o.End())
	if lo >= hi {
		return Range{}
	}
	return Range{Addr: lo, Size: hi - lo}
}

// Subtract removes o from r, returning the 0, 1 or 2 remaining sub-ranges.
// This implements the location-splitting the paper describes when a CLF
// partially overlaps a tracked memory location (§4.3): the overlapped
// sub-range is flushed, the returned remainders are not.
func (r Range) Subtract(o Range) []Range {
	if !r.Overlaps(o) {
		return []Range{r}
	}
	var out []Range
	if r.Addr < o.Addr {
		out = append(out, Range{Addr: r.Addr, Size: o.Addr - r.Addr})
	}
	if o.End() < r.End() {
		out = append(out, Range{Addr: o.End(), Size: r.End() - o.End()})
	}
	return out
}

// Union returns the smallest range covering both r and o. It is only
// meaningful when the ranges overlap or are adjacent, but is defined for all
// inputs (it spans any gap).
func (r Range) Union(o Range) Range {
	if r.Empty() {
		return o
	}
	if o.Empty() {
		return r
	}
	lo := min64(r.Addr, o.Addr)
	hi := max64(r.End(), o.End())
	return Range{Addr: lo, Size: hi - lo}
}

// Merge canonicalizes a set of ranges: sorts by address and coalesces
// overlapping or adjacent ranges. The input slice is modified in place and a
// (possibly shorter) slice aliasing it is returned.
func Merge(rs []Range) []Range {
	if len(rs) <= 1 {
		return rs
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].Addr < rs[j].Addr })
	out := rs[:1]
	for _, r := range rs[1:] {
		last := &out[len(out)-1]
		if r.Addr <= last.End() {
			if r.End() > last.End() {
				last.Size = r.End() - last.Addr
			}
			continue
		}
		out = append(out, r)
	}
	return out
}

// Coverage returns the total number of addresses covered by the canonical
// form of rs. The input is merged (and therefore reordered) in the process.
func Coverage(rs []Range) uint64 {
	var total uint64
	for _, r := range Merge(rs) {
		total += r.Size
	}
	return total
}

// CacheLineSize is the modeled cache-line granularity for writebacks.
const CacheLineSize = 64

// SpanLines returns the single cache-line-aligned range covering r.
func SpanLines(r Range) Range {
	if r.Empty() {
		return Range{}
	}
	first := r.Addr &^ uint64(CacheLineSize-1)
	end := (r.End() + CacheLineSize - 1) &^ uint64(CacheLineSize-1)
	return Range{Addr: first, Size: end - first}
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
