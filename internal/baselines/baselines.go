// Package baselines reimplements the detectors the paper compares against:
// Nulgrind (instrumentation-only), Pmemcheck (industry-quality, tree-only
// bookkeeping with eager reorganization), PMTest (annotation-driven
// selective checking) and XFDetector (cross-failure testing with per-
// failure-point analysis).
//
// Each baseline is faithful to its tool's documented mechanism and detects
// exactly the bug-type set Table 6 credits it with, so both the capability
// matrix and the relative performance shape of the evaluation are
// reproducible.
package baselines

import (
	"pmdebugger/internal/report"
	"pmdebugger/internal/trace"
)

// Detector is the uniform interface the benchmark harness drives: an event
// handler that produces a final bug report. core.Detector and every baseline
// satisfy it.
type Detector interface {
	trace.Handler
	Name() string
	Report() *report.Report
}

// Nulgrind is the no-op tool used to isolate instrumentation overhead
// (§7.2): it consumes the event stream, counts instructions, and performs no
// bookkeeping.
type Nulgrind struct {
	rep *report.Report
}

// NewNulgrind returns the instrumentation-only baseline.
func NewNulgrind() *Nulgrind {
	return &Nulgrind{rep: report.New("nulgrind")}
}

// Name returns "nulgrind".
func (n *Nulgrind) Name() string { return "nulgrind" }

// HandleEvent counts the instruction and discards it.
func (n *Nulgrind) HandleEvent(ev trace.Event) {
	switch ev.Kind {
	case trace.KindStore:
		n.rep.Counters.Stores++
	case trace.KindFlush:
		n.rep.Counters.Flushes++
	case trace.KindFence:
		n.rep.Counters.Fences++
	}
}

// Report returns an empty report with instruction counters.
func (n *Nulgrind) Report() *report.Report { return n.rep }

// HandleBatch implements trace.BatchHandler: the no-op tool only counts, so
// the whole batch reduces to three counter additions.
func (n *Nulgrind) HandleBatch(evs []trace.Event) {
	var stores, flushes, fences uint64
	for i := range evs {
		switch evs[i].Kind {
		case trace.KindStore:
			stores++
		case trace.KindFlush:
			flushes++
		case trace.KindFence:
			fences++
		}
	}
	n.rep.Counters.Stores += stores
	n.rep.Counters.Flushes += flushes
	n.rep.Counters.Fences += fences
}

var _ trace.BatchHandler = (*Nulgrind)(nil)
