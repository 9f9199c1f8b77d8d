package intervals

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestRangeBasics(t *testing.T) {
	r := R(100, 8)
	if r.End() != 108 {
		t.Errorf("End = %d", r.End())
	}
	if r.Empty() {
		t.Errorf("non-empty range reported empty")
	}
	if !R(5, 0).Empty() {
		t.Errorf("zero-size range not empty")
	}
	if r.String() != "[0x64,+8)" {
		t.Errorf("String = %q", r.String())
	}
}

func TestOverlapsContains(t *testing.T) {
	tests := []struct {
		a, b                Range
		overlaps, aContainB bool
	}{
		{R(0, 10), R(5, 10), true, false},
		{R(0, 10), R(10, 10), false, false},
		{R(0, 20), R(5, 10), true, true},
		{R(0, 10), R(0, 10), true, true},
		{R(5, 10), R(0, 20), true, false},
		{R(0, 10), R(20, 5), false, false},
	}
	for _, tc := range tests {
		if got := tc.a.Overlaps(tc.b); got != tc.overlaps {
			t.Errorf("%v.Overlaps(%v) = %v", tc.a, tc.b, got)
		}
		if got := tc.a.Contains(tc.b); got != tc.aContainB {
			t.Errorf("%v.Contains(%v) = %v", tc.a, tc.b, got)
		}
	}
	if !R(0, 10).ContainsAddr(9) || R(0, 10).ContainsAddr(10) {
		t.Errorf("ContainsAddr boundary wrong")
	}
}

func TestIntersect(t *testing.T) {
	tests := []struct {
		a, b, want Range
	}{
		{R(0, 10), R(5, 10), R(5, 5)},
		{R(0, 10), R(10, 5), Range{}},
		{R(0, 20), R(5, 5), R(5, 5)},
		{R(5, 5), R(0, 20), R(5, 5)},
	}
	for _, tc := range tests {
		if got := tc.a.Intersect(tc.b); got != tc.want {
			t.Errorf("%v.Intersect(%v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestSubtract(t *testing.T) {
	tests := []struct {
		a, b Range
		want []Range
	}{
		{R(0, 10), R(20, 5), []Range{R(0, 10)}},        // disjoint
		{R(0, 10), R(0, 10), nil},                      // exact
		{R(0, 10), R(0, 5), []Range{R(5, 5)}},          // prefix removed
		{R(0, 10), R(5, 5), []Range{R(0, 5)}},          // suffix removed
		{R(0, 10), R(3, 4), []Range{R(0, 3), R(7, 3)}}, // middle removed
		{R(5, 5), R(0, 20), nil},                       // fully covered
	}
	for _, tc := range tests {
		got := tc.a.Subtract(tc.b)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%v.Subtract(%v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestUnionAdjacent(t *testing.T) {
	if got := R(0, 10).Union(R(20, 5)); got != R(0, 25) {
		t.Errorf("Union spanning gap = %v", got)
	}
	if got := R(0, 10).Union(Range{}); got != R(0, 10) {
		t.Errorf("Union with empty = %v", got)
	}
	if got := (Range{}).Union(R(3, 4)); got != R(3, 4) {
		t.Errorf("empty Union = %v", got)
	}
	if got := R(10, 5).Union(R(0, 10)); got != R(0, 15) {
		t.Errorf("Union of adjacent ranges = %v", got)
	}
}

func TestMerge(t *testing.T) {
	in := []Range{R(20, 5), R(0, 10), R(8, 4), R(25, 5), R(40, 1)}
	got := Merge(in)
	want := []Range{R(0, 12), R(20, 10), R(40, 1)}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Merge = %v, want %v", got, want)
	}
	if got := Merge(nil); len(got) != 0 {
		t.Errorf("Merge(nil) = %v", got)
	}
	single := []Range{R(5, 5)}
	if got := Merge(single); !reflect.DeepEqual(got, single) {
		t.Errorf("Merge single = %v", got)
	}
}

func TestCoverage(t *testing.T) {
	if got := Coverage([]Range{R(0, 10), R(5, 10), R(100, 1)}); got != 16 {
		t.Errorf("Coverage = %d, want 16", got)
	}
}

func TestSpanLines(t *testing.T) {
	if got := SpanLines(R(10, 4)); got != R(0, 64) {
		t.Errorf("SpanLines = %v", got)
	}
	if got := SpanLines(R(60, 8)); got != R(0, 128) {
		t.Errorf("SpanLines crossing = %v", got)
	}
	if got := SpanLines(Range{}); !got.Empty() {
		t.Errorf("SpanLines empty = %v", got)
	}
}

// genRange builds a small bounded range from fuzz inputs so properties
// exercise dense overlap scenarios.
func genRange(a, s uint16) Range {
	return R(uint64(a%4096), uint64(s%128)+1)
}

// Property: Subtract removes exactly the intersected bytes.
func TestQuickSubtractCoverage(t *testing.T) {
	f := func(a1, s1, a2, s2 uint16) bool {
		a, b := genRange(a1, s1), genRange(a2, s2)
		rem := a.Subtract(b)
		var remBytes uint64
		for _, r := range rem {
			if r.Overlaps(b) {
				return false // remainder must not intersect b
			}
			remBytes += r.Size
		}
		return remBytes == a.Size-a.Intersect(b).Size
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Intersect is commutative and contained in both inputs.
func TestQuickIntersect(t *testing.T) {
	f := func(a1, s1, a2, s2 uint16) bool {
		a, b := genRange(a1, s1), genRange(a2, s2)
		i1, i2 := a.Intersect(b), b.Intersect(a)
		if i1 != i2 {
			return false
		}
		if i1.Empty() {
			return !a.Overlaps(b)
		}
		return a.Contains(i1) && b.Contains(i1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Merge output is sorted, disjoint, non-adjacent and preserves
// total coverage.
func TestQuickMergeCanonical(t *testing.T) {
	f := func(pairs []uint16) bool {
		var in []Range
		for i := 0; i+1 < len(pairs); i += 2 {
			in = append(in, genRange(pairs[i], pairs[i+1]))
		}
		// Compute naive coverage with a byte set before Merge mutates input.
		bytes := map[uint64]bool{}
		for _, r := range in {
			for a := r.Addr; a < r.End(); a++ {
				bytes[a] = true
			}
		}
		out := Merge(in)
		var total uint64
		for i, r := range out {
			total += r.Size
			if i > 0 && out[i-1].End() >= r.Addr {
				return false // must be disjoint and non-adjacent
			}
		}
		return total == uint64(len(bytes))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: SpanLines covers r with whole lines and no spare line.
func TestQuickLines(t *testing.T) {
	f := func(a1, s1 uint16) bool {
		r := genRange(a1, s1)
		span := SpanLines(r)
		if span.Addr%CacheLineSize != 0 || span.Size%CacheLineSize != 0 {
			return false
		}
		return span.Contains(r) && r.Addr-span.Addr < CacheLineSize &&
			span.End()-r.End() < CacheLineSize
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
