package trace

// Recorder captures an event stream so it can be replayed to several
// detectors. Replaying one recorded trace to every detector is how the
// benchmark harness guarantees each tool sees the identical instruction
// stream (the paper achieves the same by running the identical binary under
// each Valgrind tool).
type Recorder struct {
	Events []Event

	// Per-kind totals are maintained incrementally so Count/Counts are
	// O(1) — the bench harness queries them per table row, and a rescan
	// of a hundred-million-event recording per row is real time. counted
	// is the watermark of Events already folded into counts; events
	// appended directly to Events (a zero-value Recorder literal) are
	// caught up lazily.
	counted int
	counts  [256]int // indexed by Kind (a uint8)
}

// NewRecorder returns a Recorder with capacity for n events.
func NewRecorder(n int) *Recorder {
	return &Recorder{Events: make([]Event, 0, n)}
}

// syncCounts folds events beyond the watermark into the per-kind counters.
func (r *Recorder) syncCounts() {
	for ; r.counted < len(r.Events); r.counted++ {
		r.counts[r.Events[r.counted].Kind]++
	}
}

// HandleEvent appends ev to the recording.
func (r *Recorder) HandleEvent(ev Event) {
	r.Events = append(r.Events, ev)
	r.syncCounts()
}

// Replay delivers the recorded events, in order, to h.
func (r *Recorder) Replay(h Handler) {
	for _, ev := range r.Events {
		h.HandleEvent(ev)
	}
}

// HandleBatch implements BatchHandler: the recording itself is a batch
// consumer, so re-recording a replayed stream takes the fast path.
func (r *Recorder) HandleBatch(evs []Event) {
	r.Events = append(r.Events, evs...)
	r.syncCounts()
}

// Reset discards all recorded events but keeps the backing storage.
func (r *Recorder) Reset() {
	r.Events = r.Events[:0]
	r.counted = 0
	r.counts = [256]int{}
}

// Len returns the number of recorded events.
func (r *Recorder) Len() int { return len(r.Events) }

// Count returns how many recorded events have the given kind.
func (r *Recorder) Count(k Kind) int {
	r.syncCounts()
	return r.counts[k]
}

// Counts returns per-kind totals for the three fundamental operations the
// paper characterizes: stores, cache writebacks and fences.
func (r *Recorder) Counts() (stores, flushes, fences int) {
	r.syncCounts()
	return r.counts[KindStore], r.counts[KindFlush], r.counts[KindFence]
}
