package trace

import (
	"testing"
)

// checkCounts requires Count and Counts to report the given per-kind
// totals (stores, flushes, fences, registers, ends).
func checkCounts(t *testing.T, r *Recorder, label string, want [5]int) {
	t.Helper()
	for i, k := range []Kind{KindStore, KindFlush, KindFence, KindRegister, KindEnd} {
		if got := r.Count(k); got != want[i] {
			t.Fatalf("%s: Count(%v) = %d, want %d", label, k, got, want[i])
		}
	}
	if s, f, fe := r.Counts(); s != want[0] || f != want[1] || fe != want[2] {
		t.Fatalf("%s: Counts() = (%d,%d,%d), want (%d,%d,%d)",
			label, s, f, fe, want[0], want[1], want[2])
	}
}

func TestRecorderIncrementalCounts(t *testing.T) {
	r := NewRecorder(16)
	kinds := []Kind{KindStore, KindStore, KindFlush, KindFence, KindRegister,
		KindStore, KindFlush, KindEnd}
	for i, k := range kinds {
		r.HandleEvent(Event{Seq: uint64(i + 1), Kind: k})
	}
	checkCounts(t, r, "after HandleEvent", [5]int{3, 2, 1, 1, 1})

	batch := make([]Event, 99)
	for i := range batch {
		batch[i] = Event{Kind: Kind(i % 3)} // stores, flushes, fences
	}
	r.HandleBatch(batch)
	checkCounts(t, r, "after HandleBatch", [5]int{36, 35, 34, 1, 1})

	r.Reset()
	checkCounts(t, r, "after Reset", [5]int{})
	r.HandleEvent(Event{Kind: KindFence})
	checkCounts(t, r, "after Reset+HandleEvent", [5]int{0, 0, 1, 0, 0})
}

// TestRecorderLiteralCounts checks a Recorder built by slice literal —
// bypassing the handlers — and extended by direct appends.
func TestRecorderLiteralCounts(t *testing.T) {
	r := &Recorder{Events: []Event{
		{Kind: KindStore}, {Kind: KindStore}, {Kind: KindFence},
	}}
	checkCounts(t, r, "literal", [5]int{2, 0, 1, 0, 0})
	r.Events = append(r.Events, Event{Kind: KindFlush})
	checkCounts(t, r, "literal+append", [5]int{2, 1, 1, 0, 0})
}
