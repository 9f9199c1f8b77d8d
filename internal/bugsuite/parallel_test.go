package bugsuite

import (
	"reflect"
	"testing"

	"pmdebugger/internal/core"
	"pmdebugger/internal/rules"
	"pmdebugger/internal/trace"
)

// TestParallelReplayMatchesSequentialOnSuite records every bug case's
// instruction stream and verifies that the sharded parallel replay produces
// a report identical — same bugs, same order, same counters — to the
// sequential replay. Strand cases exercise the strand-routed path (or
// its order-spec fallback); all other models exercise the batched
// sequential fallback, which must also match exactly.
func TestParallelReplayMatchesSequentialOnSuite(t *testing.T) {
	for _, c := range Cases() {
		c := c
		t.Run(c.ID, func(t *testing.T) {
			h := NewHarness(c)
			rec := trace.NewRecorder(0)
			h.PM.Attach(rec)
			if err := c.Run(h); err != nil {
				t.Fatal(err)
			}
			h.PM.End()

			cfg := core.Config{Model: c.Model, Orders: c.Orders}
			if c.Cross != nil {
				cfg.CrossFailureCheck = c.Cross
			}
			seq := core.New(cfg)
			rec.Replay(seq)
			seqRep := seq.Report()
			parRep := core.ReplayParallel(rec.Events, cfg, 4)
			if seqRep.Summary() != parRep.Summary() {
				t.Fatalf("parallel report differs from sequential\n--- sequential ---\n%s--- parallel ---\n%s",
					seqRep.Summary(), parRep.Summary())
			}
			if !reflect.DeepEqual(seqRep.Bugs, parRep.Bugs) {
				t.Fatalf("bug lists differ\nseq: %v\npar: %v", seqRep.Bugs, parRep.Bugs)
			}
			if seqRep.Counters != parRep.Counters {
				t.Fatalf("counters differ\nseq: %+v\npar: %+v", seqRep.Counters, parRep.Counters)
			}
		})
	}
}

// TestStrandCasesStillDetectInParallel pins that detection capability
// survives the parallel path for the strand cases specifically.
func TestStrandCasesStillDetectInParallel(t *testing.T) {
	n := 0
	for _, c := range Cases() {
		if c.Model != rules.Strand {
			continue
		}
		n++
		h := NewHarness(c)
		rec := trace.NewRecorder(0)
		h.PM.Attach(rec)
		if err := c.Run(h); err != nil {
			t.Fatal(err)
		}
		h.PM.End()
		cfg := core.Config{Model: c.Model, Orders: c.Orders}
		if !core.ReplayParallel(rec.Events, cfg, 4).Has(c.Type) {
			t.Errorf("case %s: parallel replay missed the planted %s bug", c.ID, c.Type)
		}
	}
	if n == 0 {
		t.Fatal("no strand cases in the suite")
	}
}
