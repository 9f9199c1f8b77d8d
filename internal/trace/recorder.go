package trace

// Recorder captures an event stream so it can be replayed to several
// detectors. Replaying one recorded trace to every detector is how the
// benchmark harness guarantees each tool sees the identical instruction
// stream (the paper achieves the same by running the identical binary under
// each Valgrind tool).
type Recorder struct {
	Events []Event
}

// NewRecorder returns a Recorder with capacity for n events.
func NewRecorder(n int) *Recorder {
	return &Recorder{Events: make([]Event, 0, n)}
}

// HandleEvent appends ev to the recording.
func (r *Recorder) HandleEvent(ev Event) {
	r.Events = append(r.Events, ev)
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
}

// Reset discards all recorded events but keeps the backing storage.
func (r *Recorder) Reset() {
	r.Events = r.Events[:0]
}

// Len returns the number of recorded events.
func (r *Recorder) Len() int { return len(r.Events) }

// Count returns how many recorded events have the given kind.
func (r *Recorder) Count(k Kind) int {
	n := 0
	for i := range r.Events {
		if r.Events[i].Kind == k {
			n++
		}
	}
	return n
}

// Counts returns per-kind totals for the three fundamental operations the
// paper characterizes: stores, cache writebacks and fences.
func (r *Recorder) Counts() (stores, flushes, fences int) {
	return r.Count(KindStore), r.Count(KindFlush), r.Count(KindFence)
}
