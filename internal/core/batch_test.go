package core

import (
	"testing"

	"pmdebugger/internal/rules"
	"pmdebugger/internal/trace"
)

func TestHandleBatchMatchesHandleEvent(t *testing.T) {
	rec := recordStrandTrace(t, 50)
	for _, cfg := range []Config{
		{Model: rules.Strand},
		{Model: rules.Epoch},
		{Model: rules.Strict},
		{Model: rules.Strand, ArrayCapacity: 4}, // force array spills inside store runs
	} {
		seq := sequentialReport(rec.Events, cfg)
		d := New(cfg)
		trace.ReplayEvents(rec.Events, d) // takes the HandleBatch fast path
		assertSameReport(t, seq, d.Report(), "batch/"+cfg.Model.String())
	}
}

// eventTally counts every event it observes.
type eventTally struct{ events int }

func (r *eventTally) Name() string                    { return "event-tally" }
func (r *eventTally) OnEvent(ev trace.Event, q Query) { r.events++ }

func TestHandleBatchRunsUserRules(t *testing.T) {
	rec := recordStrandTrace(t, 10)
	d := New(Config{Model: rules.Strand})
	rule := &eventTally{}
	d.AddRule(rule)
	trace.ReplayEvents(rec.Events, d)
	if rule.events != rec.Len() {
		t.Fatalf("user rule saw %d events, want %d", rule.events, rec.Len())
	}
}
