package core

import (
	"errors"
	"strings"
	"testing"

	"pmdebugger/internal/pmem"
	"pmdebugger/internal/report"
	"pmdebugger/internal/rules"
	"pmdebugger/internal/trace"
)

// run executes fn against a fresh pool instrumented with a PMDebugger
// detector and returns the final report.
func run(cfg Config, fn func(c *pmem.Ctx, p *pmem.Pool)) *report.Report {
	p := pmem.New(1 << 16)
	d := New(cfg)
	p.Attach(d)
	fn(p.Ctx(), p)
	p.End()
	return d.Report()
}

func wantBugs(t *testing.T, rep *report.Report, want map[report.BugType]int) {
	t.Helper()
	got := rep.CountByType()
	for typ, n := range want {
		if got[typ] != n {
			t.Errorf("%s: got %d, want %d\nreport:\n%s", typ, got[typ], n, rep.Summary())
		}
	}
	for typ, n := range got {
		if want[typ] == 0 && n > 0 {
			t.Errorf("unexpected %s x%d\nreport:\n%s", typ, n, rep.Summary())
		}
	}
}

func TestCleanStrictProgram(t *testing.T) {
	rep := run(Config{Model: rules.Strict}, func(c *pmem.Ctx, p *pmem.Pool) {
		a := p.Alloc(64)
		for i := 0; i < 10; i++ {
			c.Store64(a, uint64(i))
			c.Persist(a, 8)
		}
	})
	wantBugs(t, rep, nil)
	if rep.Counters.Stores != 10 || rep.Counters.Flushes != 10 || rep.Counters.Fences != 10 {
		t.Errorf("counters: %+v", rep.Counters)
	}
}

func TestNoDurabilityMissingCLF(t *testing.T) {
	rep := run(Config{Model: rules.Strict}, func(c *pmem.Ctx, p *pmem.Pool) {
		a := p.Alloc(64)
		c.Store64(a, 1) // never flushed
	})
	wantBugs(t, rep, map[report.BugType]int{report.NoDurability: 1})
	if !strings.Contains(rep.Bugs[0].Message, "missing CLF") {
		t.Errorf("message = %q", rep.Bugs[0].Message)
	}
}

func TestNoDurabilityMissingFence(t *testing.T) {
	rep := run(Config{Model: rules.Strict}, func(c *pmem.Ctx, p *pmem.Pool) {
		a := p.Alloc(64)
		c.Store64(a, 1)
		c.Flush(a, 8) // flushed but never fenced
	})
	wantBugs(t, rep, map[report.BugType]int{report.NoDurability: 1})
	if !strings.Contains(rep.Bugs[0].Message, "missing fence") {
		t.Errorf("message = %q", rep.Bugs[0].Message)
	}
}

func TestNoDurabilitySurvivesFences(t *testing.T) {
	// A location that is never flushed must still be reported even after
	// many fences moved it into the AVL tree.
	rep := run(Config{Model: rules.Strict}, func(c *pmem.Ctx, p *pmem.Pool) {
		a := p.Alloc(128)
		c.Store64(a, 1) // never flushed
		for i := 0; i < 10; i++ {
			c.Store64(a+64, uint64(i))
			c.Persist(a+64, 8)
		}
	})
	wantBugs(t, rep, map[report.BugType]int{report.NoDurability: 1})
}

func TestMultipleOverwrites(t *testing.T) {
	rep := run(Config{Model: rules.Strict}, func(c *pmem.Ctx, p *pmem.Pool) {
		a := p.Alloc(64)
		c.SetSite(trace.RegisterSite("overwrite-site"))
		c.Store64(a, 1)
		c.Store64(a, 2) // overwrite before durability
		c.Persist(a, 8)
	})
	wantBugs(t, rep, map[report.BugType]int{report.MultipleOverwrites: 1})
}

func TestMultipleOverwritesPartialOverlap(t *testing.T) {
	rep := run(Config{Model: rules.Strict}, func(c *pmem.Ctx, p *pmem.Pool) {
		a := p.Alloc(64)
		c.StoreBytes(a, make([]byte, 16))
		c.StoreBytes(a+8, make([]byte, 16)) // overlaps [a+8,a+16)
		c.Persist(a, 24)
	})
	wantBugs(t, rep, map[report.BugType]int{report.MultipleOverwrites: 1})
}

func TestMultipleOverwritesAllowedAfterDurability(t *testing.T) {
	rep := run(Config{Model: rules.Strict}, func(c *pmem.Ctx, p *pmem.Pool) {
		a := p.Alloc(64)
		c.Store64(a, 1)
		c.Persist(a, 8)
		c.Store64(a, 2) // fine: previous write durable
		c.Persist(a, 8)
	})
	wantBugs(t, rep, nil)
}

func TestMultipleOverwritesDisabledInRelaxedModels(t *testing.T) {
	rep := run(Config{Model: rules.Epoch}, func(c *pmem.Ctx, p *pmem.Pool) {
		a := p.Alloc(64)
		c.EpochBegin()
		c.Store64(a, 1)
		c.Store64(a, 2)
		c.Persist(a, 8)
		c.EpochEnd()
	})
	wantBugs(t, rep, nil)
}

func TestMultipleOverwritesDetectedInTree(t *testing.T) {
	// The first store survives a fence (moves to the tree); the overwrite
	// must still be detected there.
	rep := run(Config{Model: rules.Strict}, func(c *pmem.Ctx, p *pmem.Pool) {
		a := p.Alloc(128)
		c.Store64(a, 1) // not flushed
		c.Store64(a+64, 2)
		c.Persist(a+64, 8) // fence: a moves to tree
		c.Store64(a, 3)    // overwrite of tree-resident record
		c.Persist(a, 8)
	})
	if got := rep.CountByType()[report.MultipleOverwrites]; got != 1 {
		t.Errorf("multiple overwrites = %d\n%s", got, rep.Summary())
	}
}

func TestRedundantFlush(t *testing.T) {
	rep := run(Config{Model: rules.Strict}, func(c *pmem.Ctx, p *pmem.Pool) {
		a := p.Alloc(64)
		c.Store64(a, 1)
		c.Flush(a, 8)
		c.Flush(a, 8) // same line again before the fence
		c.Fence()
	})
	wantBugs(t, rep, map[report.BugType]int{report.RedundantFlush: 1})
}

func TestFlushNothing(t *testing.T) {
	rep := run(Config{Model: rules.Strict}, func(c *pmem.Ctx, p *pmem.Pool) {
		a := p.Alloc(128)
		c.Flush(a+64, 8) // nothing stored there
		c.Fence()
	})
	wantBugs(t, rep, map[report.BugType]int{report.FlushNothing: 1})
}

func TestFlushCoveringNewAndOldIsNotRedundant(t *testing.T) {
	rep := run(Config{Model: rules.Strict}, func(c *pmem.Ctx, p *pmem.Pool) {
		a := p.Alloc(128)
		c.Store64(a, 1)
		c.Flush(a, 8)
		c.Store64(a+64, 2)
		c.FlushKind(a, 128, trace.CLFLUSH) // re-covers a but persists a+64
		c.Fence()
	})
	wantBugs(t, rep, nil)
}

func TestNoOrderGuaranteeViolated(t *testing.T) {
	orders := []rules.OrderSpec{{Before: "value", After: "key"}}
	rep := run(Config{Model: rules.Strict, Orders: orders}, func(c *pmem.Ctx, p *pmem.Pool) {
		v := p.Alloc(64)
		k := p.Alloc(64)
		p.RegisterNamed("value", v, 8)
		p.RegisterNamed("key", k, 8)
		// Persist key first: violates value-before-key.
		c.Store64(k, 42)
		c.Persist(k, 8)
		c.Store64(v, 7)
		c.Persist(v, 8)
	})
	if !rep.Has(report.NoOrderGuarantee) {
		t.Fatalf("order violation not detected:\n%s", rep.Summary())
	}
}

func TestNoOrderGuaranteeSatisfied(t *testing.T) {
	orders := []rules.OrderSpec{{Before: "value", After: "key"}}
	rep := run(Config{Model: rules.Strict, Orders: orders}, func(c *pmem.Ctx, p *pmem.Pool) {
		v := p.Alloc(64)
		k := p.Alloc(64)
		p.RegisterNamed("value", v, 8)
		p.RegisterNamed("key", k, 8)
		c.Store64(v, 7)
		c.Persist(v, 8)
		c.Store64(k, 42)
		c.Persist(k, 8)
	})
	wantBugs(t, rep, nil)
}

func TestNoOrderGuaranteeSameFence(t *testing.T) {
	// Both become durable at the same fence: strict order not established.
	orders := []rules.OrderSpec{{Before: "value", After: "key"}}
	rep := run(Config{Model: rules.Strict, Orders: orders}, func(c *pmem.Ctx, p *pmem.Pool) {
		v := p.Alloc(64)
		k := p.Alloc(128)
		p.RegisterNamed("value", v, 8)
		p.RegisterNamed("key", k+64, 8)
		c.Store64(v, 7)
		c.Store64(k+64, 42)
		c.Flush(v, 8)
		c.Flush(k+64, 8)
		c.Fence()
	})
	if !rep.Has(report.NoOrderGuarantee) {
		t.Fatalf("same-fence order not flagged:\n%s", rep.Summary())
	}
}

func TestOrderScope(t *testing.T) {
	orders := []rules.OrderSpec{{Before: "value", After: "key", Scope: "update"}}
	// Outside the scope, the violating order is not checked.
	rep := run(Config{Model: rules.Strict, Orders: orders}, func(c *pmem.Ctx, p *pmem.Pool) {
		v := p.Alloc(64)
		k := p.Alloc(64)
		p.RegisterNamed("value", v, 8)
		p.RegisterNamed("key", k, 8)
		c.Store64(k, 42)
		c.Persist(k, 8)
		c.Store64(v, 7)
		c.Persist(v, 8)
	})
	wantBugs(t, rep, nil)

	// Inside the scope it is.
	rep = run(Config{Model: rules.Strict, Orders: orders}, func(c *pmem.Ctx, p *pmem.Pool) {
		v := p.Alloc(64)
		k := p.Alloc(64)
		p.RegisterNamed("value", v, 8)
		p.RegisterNamed("key", k, 8)
		p.RegisterNamed("scope:update:begin", p.Base(), 1)
		c.Store64(k, 42)
		c.Persist(k, 8)
		c.Store64(v, 7)
		c.Persist(v, 8)
		p.RegisterNamed("scope:update:end", p.Base(), 1)
	})
	if !rep.Has(report.NoOrderGuarantee) {
		t.Fatalf("scoped order violation not detected:\n%s", rep.Summary())
	}
}

func TestRedundantLogging(t *testing.T) {
	rep := run(Config{Model: rules.Epoch}, func(c *pmem.Ctx, p *pmem.Pool) {
		a := p.Alloc(64)
		c.EpochBegin()
		c.TxLogAdd(a, 16)
		c.TxLogAdd(a, 16) // same object logged twice in one TX
		c.Store64(a, 1)
		c.Persist(a, 8)
		c.EpochEnd()
	})
	wantBugs(t, rep, map[report.BugType]int{report.RedundantLogging: 1})
}

func TestLoggingOncePerEpochIsFine(t *testing.T) {
	rep := run(Config{Model: rules.Epoch}, func(c *pmem.Ctx, p *pmem.Pool) {
		a := p.Alloc(64)
		for i := 0; i < 2; i++ {
			c.EpochBegin()
			c.TxLogAdd(a, 16)
			c.Store64(a, uint64(i))
			c.Persist(a, 8)
			c.EpochEnd()
		}
	})
	wantBugs(t, rep, nil)
}

func TestLackDurabilityInEpoch(t *testing.T) {
	rep := run(Config{Model: rules.Epoch}, func(c *pmem.Ctx, p *pmem.Pool) {
		a := p.Alloc(128)
		c.EpochBegin()
		c.Store64(a, 1) // never flushed inside the epoch (Fig. 7c)
		c.Store64(a+64, 2)
		c.Persist(a+64, 8)
		c.EpochEnd()
	})
	// Only the epoch rule fires; the end-of-program rule must not
	// double-report the same location.
	wantBugs(t, rep, map[report.BugType]int{report.LackDurabilityInEpoch: 1})
}

func TestRedundantEpochFence(t *testing.T) {
	rep := run(Config{Model: rules.Epoch}, func(c *pmem.Ctx, p *pmem.Pool) {
		a := p.Alloc(128)
		c.EpochBegin()
		c.Store64(a, 1)
		c.Persist(a, 8) // fence #1 (Fig. 7a)
		c.Store64(a+64, 2)
		c.Persist(a+64, 8) // fence #2: redundant inside the epoch
		c.EpochEnd()
	})
	wantBugs(t, rep, map[report.BugType]int{report.RedundantEpochFence: 1})
}

func TestSingleFenceEpochIsFine(t *testing.T) {
	rep := run(Config{Model: rules.Epoch}, func(c *pmem.Ctx, p *pmem.Pool) {
		a := p.Alloc(128)
		c.EpochBegin()
		c.Store64(a, 1)
		c.Store64(a+64, 2)
		c.Flush(a, 8)
		c.Flush(a+64, 8)
		c.Fence()
		c.EpochEnd()
	})
	wantBugs(t, rep, nil)
}

func TestLackOrderingInStrands(t *testing.T) {
	orders := []rules.OrderSpec{{Before: "A", After: "B"}}
	rep := run(Config{Model: rules.Strand, Orders: orders}, func(c *pmem.Ctx, p *pmem.Pool) {
		a := p.Alloc(64)
		b := p.Alloc(64)
		p.RegisterNamed("A", a, 8)
		p.RegisterNamed("B", b, 8)
		// Fig. 7b: strand 0 writes A and B with A-before-B; strand 1
		// persists B while strand 0 is still running.
		s0 := c.StrandBegin()
		s1 := c.StrandBegin()
		s0.Store64(a, 1)
		s0.Store64(b, 2)
		s0.Flush(a, 8)
		s1.Store64(b, 3)
		s1.Flush(b, 8) // persists B while A (strand 0) is not durable
		s1.Fence()
		s1.StrandEnd()
		s0.Fence()
		s0.Flush(b, 8)
		s0.Fence()
		s0.StrandEnd()
	})
	if !rep.Has(report.LackOrderingInStrands) {
		t.Fatalf("strand ordering violation not detected:\n%s", rep.Summary())
	}
}

func TestStrandsWithJoinAreOrdered(t *testing.T) {
	orders := []rules.OrderSpec{{Before: "A", After: "B"}}
	rep := run(Config{Model: rules.Strand, Orders: orders}, func(c *pmem.Ctx, p *pmem.Pool) {
		a := p.Alloc(64)
		b := p.Alloc(64)
		p.RegisterNamed("A", a, 8)
		p.RegisterNamed("B", b, 8)
		s0 := c.StrandBegin()
		s0.Store64(a, 1)
		s0.Persist(a, 8)
		s0.StrandEnd()
		c.JoinStrand()
		s1 := c.StrandBegin()
		s1.Store64(b, 2)
		s1.Persist(b, 8)
		s1.StrandEnd()
	})
	if rep.Has(report.LackOrderingInStrands) {
		t.Fatalf("joined strands flagged:\n%s", rep.Summary())
	}
}

func TestStrandSpacesAreIndependent(t *testing.T) {
	// Two strands writing and persisting disjoint data cleanly.
	rep := run(Config{Model: rules.Strand}, func(c *pmem.Ctx, p *pmem.Pool) {
		a := p.Alloc(64)
		b := p.Alloc(64)
		s0 := c.StrandBegin()
		s1 := c.StrandBegin()
		s0.Store64(a, 1)
		s1.Store64(b, 2)
		s0.Flush(a, 8)
		s1.Flush(b, 8)
		s0.Fence()
		s1.Fence()
		s0.StrandEnd()
		s1.StrandEnd()
	})
	wantBugs(t, rep, nil)
}

func TestCrossFailureCheck(t *testing.T) {
	cfg := Config{
		Model:             rules.Strict,
		CrossFailureCheck: func() error { return errors.New("recovered value mismatch") },
	}
	rep := run(cfg, func(c *pmem.Ctx, p *pmem.Pool) {
		a := p.Alloc(64)
		c.Store64(a, 1)
		c.Persist(a, 8)
	})
	if !rep.Has(report.CrossFailureSemantic) {
		t.Fatalf("cross-failure not reported:\n%s", rep.Summary())
	}
}

func TestArrayOverflowSpillsToTree(t *testing.T) {
	cfg := Config{Model: rules.Strict, ArrayCapacity: 8, Rules: rules.RuleNoDurability}
	p := pmem.New(1 << 16)
	d := New(cfg)
	p.Attach(d)
	c := p.Ctx()
	a := p.Alloc(1024)
	for i := 0; i < 20; i++ {
		c.Store64(a+uint64(i)*8, uint64(i))
	}
	if d.ArrayLen(0) != 8 {
		t.Errorf("array len = %d, want 8", d.ArrayLen(0))
	}
	if d.TreeLen(0) != 12 {
		t.Errorf("tree len = %d, want 12", d.TreeLen(0))
	}
	if d.Counters().ArraySpills != 12 {
		t.Errorf("spills = %d", d.Counters().ArraySpills)
	}
	// All still lack durability.
	c.Flush(a, 1024)
	c.Fence()
	p.End()
	wantBugs(t, d.Report(), nil)
}

func TestPartialFlushSplits(t *testing.T) {
	// A 16-byte store flushed only in its first half: the second half must
	// still be reported as non-durable.
	p := pmem.New(1 << 16)
	d := New(Config{Model: rules.Strict, Rules: rules.RuleNoDurability})
	p.Attach(d)
	// Feed events directly: pmem always flushes whole lines, but detectors
	// accept arbitrary flush ranges (PIN/Valgrind report exact ranges).
	d.HandleEvent(trace.Event{Seq: 1, Kind: trace.KindStore, Addr: 0x100, Size: 16})
	d.HandleEvent(trace.Event{Seq: 2, Kind: trace.KindFlush, Addr: 0x100, Size: 8})
	d.HandleEvent(trace.Event{Seq: 3, Kind: trace.KindFence})
	d.HandleEvent(trace.Event{Seq: 4, Kind: trace.KindEnd})
	rep := d.Report()
	if got := rep.CountByType()[report.NoDurability]; got != 1 {
		t.Fatalf("split remainder not tracked:\n%s", rep.Summary())
	}
	b := rep.Bugs[0]
	if b.Addr != 0x108 || b.Size != 8 {
		t.Errorf("remainder range = %#x,+%d; want 0x108,+8", b.Addr, b.Size)
	}
}

func TestCollectiveIntervalFastPath(t *testing.T) {
	// Many stores in one CLF interval persisted by a single covering flush:
	// the interval metadata absorbs the update without touching entries.
	p := pmem.New(1 << 16)
	d := New(Config{Model: rules.Strict})
	p.Attach(d)
	c := p.Ctx()
	a := p.Alloc(64)
	for i := 0; i < 8; i++ {
		c.Store8(a+uint64(i), byte(i))
	}
	c.Flush(a, 8) // line flush covers all 8 stores
	c.Fence()
	p.End()
	wantBugs(t, d.Report(), nil)
	if d.Report().Counters.Redistributions != 0 {
		t.Errorf("collective path redistributed entries: %+v", d.Report().Counters)
	}
}

func TestMergeThreshold(t *testing.T) {
	cfg := Config{Model: rules.Strict, MergeThreshold: 10, Rules: rules.RuleNoDurability}
	p := pmem.New(1 << 20)
	d := New(cfg)
	p.Attach(d)
	c := p.Ctx()
	a := p.Alloc(1 << 12)
	// Create many adjacent unflushed records that survive fences.
	for i := 0; i < 64; i++ {
		c.Store8(a+uint64(i), 1)
		c.Fence() // nothing flushed; record moves to tree
	}
	if d.TreeStats(0).Reorgs == 0 {
		t.Errorf("merge never triggered: tree len %d stats %+v", d.TreeLen(0), d.TreeStats(0))
	}
	// Adjacent same-state records must have been coalesced.
	if d.TreeLen(0) > 16 {
		t.Errorf("tree len = %d after merges", d.TreeLen(0))
	}
}

func TestFig11Sampling(t *testing.T) {
	rep := run(Config{Model: rules.Strict}, func(c *pmem.Ctx, p *pmem.Pool) {
		a := p.Alloc(256)
		c.Store64(a, 1) // never flushed: stays in tree across fences
		for i := 0; i < 4; i++ {
			c.Store64(a+64, uint64(i))
			c.Persist(a+64, 8)
		}
	})
	if rep.Counters.Fences != 4 {
		t.Fatalf("fences = %d", rep.Counters.Fences)
	}
	// Sampling happens at fence arrival: during the first fence interval
	// the never-flushed record still sits in the array (tree = 0); during
	// the remaining three it has migrated to the tree (tree = 1).
	if got := rep.Counters.AvgTreeNodes(); got != 0.75 {
		t.Errorf("avg tree nodes = %v, want 0.75", got)
	}
}

type countingRule struct {
	stores int
	bugged bool
}

func (r *countingRule) Name() string { return "counting" }

func (r *countingRule) OnEvent(ev trace.Event, q Query) {
	if ev.Kind == trace.KindStore {
		r.stores++
		if st, ok := q.Tracked(ev.Strand, ev.Addr); !ok || st.Flushed {
			q.ReportBug(report.Bug{Type: report.NoDurability, Message: "user rule inconsistency"})
			r.bugged = true
		}
	}
}

func TestUserRule(t *testing.T) {
	p := pmem.New(1 << 16)
	d := New(Config{Model: rules.Strict})
	ur := &countingRule{}
	d.AddRule(ur)
	p.Attach(d)
	c := p.Ctx()
	a := p.Alloc(64)
	c.Store64(a, 1)
	c.Persist(a, 8)
	p.End()
	if ur.stores != 1 {
		t.Errorf("user rule saw %d stores", ur.stores)
	}
	if ur.bugged {
		t.Errorf("user rule query inconsistent with engine state")
	}
}

func TestTrackedQuery(t *testing.T) {
	p := pmem.New(1 << 16)
	d := New(Config{Model: rules.Strict})
	p.Attach(d)
	c := p.Ctx()
	a := p.Alloc(128)
	c.Store64(a, 1)
	st, ok := d.Tracked(0, a+4)
	if !ok || st.Flushed || !st.InArray || st.Size != 8 {
		t.Fatalf("Tracked after store = %+v %v", st, ok)
	}
	c.Flush(a, 8)
	st, ok = d.Tracked(0, a)
	if !ok || !st.Flushed {
		t.Fatalf("Tracked after flush = %+v %v", st, ok)
	}
	c.Fence()
	if _, ok := d.Tracked(0, a); ok {
		t.Fatalf("still tracked after fence")
	}
	// Unflushed data migrates to the tree at a fence.
	c.Store64(a+64, 2)
	c.Fence()
	st, ok = d.Tracked(0, a+64)
	if !ok || st.InArray {
		t.Fatalf("Tracked in tree = %+v %v", st, ok)
	}
}

func TestReportDedupBySite(t *testing.T) {
	// The same buggy site executed many times is one bug.
	rep := run(Config{Model: rules.Strict}, func(c *pmem.Ctx, p *pmem.Pool) {
		a := p.Alloc(4096)
		site := trace.RegisterSite("hot-bug-site")
		c.SetSite(site)
		for i := 0; i < 50; i++ {
			c.Store64(a+uint64(i)*64, uint64(i)) // 50 locations never persisted
		}
	})
	if got := rep.CountByType()[report.NoDurability]; got != 1 {
		t.Errorf("site dedup failed: %d bugs", got)
	}
}

func TestDetectorNameAndConfig(t *testing.T) {
	d := New(Config{Model: rules.Epoch})
	if d.Name() != "pmdebugger" {
		t.Errorf("Name = %q", d.Name())
	}
	cfg := d.Config()
	if cfg.ArrayCapacity != DefaultArrayCapacity || cfg.MergeThreshold != DefaultMergeThreshold {
		t.Errorf("defaults not applied: %+v", cfg)
	}
	if cfg.Rules != rules.Default(rules.Epoch) {
		t.Errorf("default rules not applied")
	}
}

func TestReportIdempotent(t *testing.T) {
	p := pmem.New(1 << 12)
	d := New(Config{Model: rules.Strict})
	p.Attach(d)
	c := p.Ctx()
	a := p.Alloc(64)
	c.Store64(a, 1)
	p.End()
	n1 := d.Report().Len()
	n2 := d.Report().Len()
	if n1 != n2 || n1 != 1 {
		t.Errorf("Report not idempotent: %d then %d", n1, n2)
	}
}

// TestLackDurabilityInEpochFromTree checks the epoch-end sweep over records
// that reached the AVL tree inside the epoch: an unflushed store moved to
// the tree by a fence's redistribution, and one spilled past a full array.
// The tree's epoch summary must not skip them, and records of an earlier
// epoch must not be reported again.
func TestLackDurabilityInEpochFromTree(t *testing.T) {
	for _, tc := range []struct {
		name     string
		capacity int
	}{
		{"redistributed", 0},
		{"spilled", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := New(Config{Model: rules.Epoch, ArrayCapacity: tc.capacity})
			var seq uint64
			emit := func(kind trace.Kind, addr, size uint64) {
				seq++
				d.HandleEvent(trace.Event{Seq: seq, Kind: kind, Addr: addr, Size: size})
			}
			for epoch := uint64(0); epoch < 2; epoch++ {
				a := 0x1000 + epoch*0x100
				emit(trace.KindEpochBegin, 0, 0)
				emit(trace.KindStore, a+64, 8) // durable: flushed and fenced
				emit(trace.KindStore, a, 8)    // never flushed
				emit(trace.KindFlush, a+64, 8)
				emit(trace.KindFence, 0, 0)
				if tc.capacity == 0 && d.TreeLen(0) != int(epoch)+1 {
					t.Fatalf("epoch %d: tree holds %d records, want the redistributed store", epoch, d.TreeLen(0))
				}
				emit(trace.KindEpochEnd, 0, 0)
			}
			emit(trace.KindEnd, 0, 0)
			rep := d.Report()
			wantBugs(t, rep, map[report.BugType]int{report.LackDurabilityInEpoch: 2})
			var addrs []uint64
			for _, b := range rep.Bugs {
				addrs = append(addrs, b.Addr)
			}
			if len(addrs) != 2 || addrs[0] != 0x1000 || addrs[1] != 0x1100 {
				t.Fatalf("reported addresses %#x, want the unflushed store of each epoch", addrs)
			}
		})
	}
}
