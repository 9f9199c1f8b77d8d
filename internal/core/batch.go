package core

import (
	"pmdebugger/internal/rules"
	"pmdebugger/internal/trace"
)

// HandleBatch implements trace.BatchHandler: it consumes a contiguous slice
// of events with the per-event dispatch overhead hoisted out of the inner
// loop. Stores dominate every trace the paper characterizes (§3), so the
// fast path specializes runs of consecutive stores: for a run on one strand
// the per-kind counter update, the space lookup and the epoch query are all
// loop-invariant and execute once per run instead of once per store. All
// other kinds, and every event when user rules are active, take the exact
// HandleEvent path.
func (d *Detector) HandleBatch(evs []trace.Event) {
	if len(d.userRules) > 0 {
		// User rules observe every event: keep the general path.
		for i := range evs {
			d.handle(&evs[i])
		}
		return
	}
	// Outside the strand model every strand folds into space 0, so a store
	// run may span strand ids.
	foldStrands := d.cfg.Model != rules.Strand
	var stores uint64
	for i := 0; i < len(evs); {
		ev := &evs[i]
		if ev.Kind != trace.KindStore {
			d.handle(ev)
			i++
			continue
		}
		s := d.spaceFor(ev.Strand)
		epoch := d.currentEpoch()
		j := i
		for j < len(evs) && evs[j].Kind == trace.KindStore &&
			(foldStrands || evs[j].Strand == ev.Strand) {
			s.store(&evs[j], epoch)
			j++
		}
		stores += uint64(j - i)
		i = j
	}
	d.rep.Counters.Stores += stores
}

var _ trace.BatchHandler = (*Detector)(nil)
