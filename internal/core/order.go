package core

import (
	"fmt"
	"strings"

	"pmdebugger/internal/intervals"
	"pmdebugger/internal/report"
	"pmdebugger/internal/rules"
	"pmdebugger/internal/trace"
)

// orderTracker enforces programmer-supplied persist-order requirements. It
// implements two rules:
//
//   - No-order-guarantee (§4.5): when a fence makes Y durable, X must have
//     been made durable by a strictly earlier fence.
//   - Lack-ordering-in-strands (§5.2): when a CLF persists Y from one strand
//     while X is still non-durable in another running strand, the
//     cross-strand persist order cannot be guaranteed.
//
// The tracker is shared by all strand bookkeeping spaces: it is the "small
// array shared between the sections used to check persistency order" of
// §5.1. Variable names resolve through Register events emitted by
// pmem.RegisterNamed; scopes toggle through register names of the form
// "scope:<name>:begin" / "scope:<name>:end".
type orderTracker struct {
	d     *Detector
	specs []rules.OrderSpec

	names      map[string]intervals.Range
	watch      []watched // names referenced by any spec, densely iterated
	scopes     map[string]bool
	strandLive map[int32]bool
	fenceNo    uint64
}

type watched struct {
	name       string
	rng        intervals.Range
	haveRange  bool
	committed  bool
	commitAt   uint64 // fence number of full durability
	covered    []intervals.Range
	lastStrand int32
	hasStore   bool
}

func newOrderTracker(d *Detector, specs []rules.OrderSpec) *orderTracker {
	ot := &orderTracker{
		d:          d,
		specs:      specs,
		names:      map[string]intervals.Range{},
		scopes:     map[string]bool{},
		strandLive: map[int32]bool{},
	}
	seen := map[string]bool{}
	for _, sp := range specs {
		for _, n := range []string{sp.Before, sp.After} {
			if !seen[n] {
				seen[n] = true
				ot.watch = append(ot.watch, watched{name: n})
			}
		}
	}
	return ot
}

func (ot *orderTracker) lookup(name string) *watched {
	for i := range ot.watch {
		if ot.watch[i].name == name {
			return &ot.watch[i]
		}
	}
	return nil
}

// noteRegister resolves named ranges and scope toggles from Register events.
func (ot *orderTracker) noteRegister(ev *trace.Event) {
	if ev.Site == 0 {
		return
	}
	name := trace.SiteName(ev.Site)
	if rest, ok := strings.CutPrefix(name, "scope:"); ok {
		if s, ok := strings.CutSuffix(rest, ":begin"); ok {
			ot.scopes[s] = true
			return
		}
		if s, ok := strings.CutSuffix(rest, ":end"); ok {
			ot.scopes[s] = false
			return
		}
	}
	ot.names[name] = intervals.R(ev.Addr, ev.Size)
	if w := ot.lookup(name); w != nil {
		w.rng = intervals.R(ev.Addr, ev.Size)
		w.haveRange = true
	}
}

func (ot *orderTracker) scopeActive(sp rules.OrderSpec) bool {
	if sp.Scope == "" {
		return true
	}
	return ot.scopes[sp.Scope]
}

// noteStore records which strand last wrote each watched variable.
func (ot *orderTracker) noteStore(ev *trace.Event) {
	r := intervals.R(ev.Addr, ev.Size)
	for i := range ot.watch {
		w := &ot.watch[i]
		if w.haveRange && w.rng.Overlaps(r) {
			w.lastStrand = ev.Strand
			w.hasStore = true
			// A new store invalidates previous durability: the variable
			// must be persisted again.
			w.committed = false
			w.covered = w.covered[:0]
		}
	}
}

// noteCommit accumulates durable coverage for watched variables; a variable
// is committed when its whole range is durable.
func (ot *orderTracker) noteCommit(r intervals.Range) {
	for i := range ot.watch {
		w := &ot.watch[i]
		if w.committed || !w.haveRange || !w.rng.Overlaps(r) {
			continue
		}
		w.covered = append(w.covered, w.rng.Intersect(r))
		if intervals.Coverage(w.covered) >= w.rng.Size {
			w.committed = true
			w.commitAt = ot.fenceNo + 1 // commit attributed to the current fence
			w.covered = w.covered[:0]
		}
	}
}

// fenceDone runs the no-order rule after a fence's commits are recorded.
func (ot *orderTracker) fenceDone(ev *trace.Event) {
	ot.fenceNo++
	if !ot.d.cfg.Rules.Has(rules.RuleNoOrder) {
		return
	}
	for _, sp := range ot.specs {
		if !ot.scopeActive(sp) {
			continue
		}
		after := ot.lookup(sp.After)
		before := ot.lookup(sp.Before)
		if after == nil || before == nil || !after.committed || after.commitAt != ot.fenceNo {
			continue // Y did not just become durable
		}
		if before.committed && before.commitAt < after.commitAt {
			continue // X durable strictly earlier: order satisfied
		}
		fenceNo, tied := ot.fenceNo, before.committed
		ot.d.rep.AddLazy(report.Bug{
			Type: report.NoOrderGuarantee,
			Addr: after.rng.Addr, Size: after.rng.Size,
			Seq: ev.Seq, Strand: ev.Strand,
			Site: trace.RegisterSite("order:" + sp.Before + "<" + sp.After),
		}, func() string {
			if tied {
				return fmt.Sprintf("%q and %q became durable at the same fence %d: order not established",
					sp.After, sp.Before, fenceNo)
			}
			return fmt.Sprintf("%q became durable at fence %d but %q is not durable yet",
				sp.After, fenceNo, sp.Before)
		})
	}
}

// noteFlush runs the strand-ordering rule (§5.2): a CLF persisting Y from
// strand s while X is uncommitted and last written by a different, still
// running strand violates the cross-strand order requirement.
func (ot *orderTracker) noteFlush(ev *trace.Event) {
	if !ot.d.cfg.Rules.Has(rules.RuleLackOrderingInStrands) {
		return
	}
	fr := intervals.R(ev.Addr, ev.Size)
	for _, sp := range ot.specs {
		if !ot.scopeActive(sp) {
			continue
		}
		after := ot.lookup(sp.After)
		before := ot.lookup(sp.Before)
		if after == nil || before == nil || !after.haveRange || !after.rng.Overlaps(fr) {
			continue
		}
		if before.committed {
			continue
		}
		if !before.hasStore {
			continue
		}
		if before.lastStrand != ev.Strand && ot.strandLive[before.lastStrand] {
			strand, lastStrand := ev.Strand, before.lastStrand
			ot.d.rep.AddLazy(report.Bug{
				Type: report.LackOrderingInStrands,
				Addr: after.rng.Addr, Size: after.rng.Size,
				Seq: ev.Seq, Strand: ev.Strand,
				Site: trace.RegisterSite("strand-order:" + sp.Before + "<" + sp.After),
			}, func() string {
				return fmt.Sprintf(
					"strand %d persists %q while %q written by running strand %d is not durable",
					strand, sp.After, sp.Before, lastStrand)
			})
		}
	}
}

func (ot *orderTracker) strandBegin(id int32) { ot.strandLive[id] = true }

func (ot *orderTracker) strandEnd(id int32) { ot.strandLive[id] = false }

// joinStrand orders all current strands: after a join, their persists are
// explicitly ordered, so they no longer count as concurrently running.
func (ot *orderTracker) joinStrand() {
	for id := range ot.strandLive {
		ot.strandLive[id] = false
	}
}
