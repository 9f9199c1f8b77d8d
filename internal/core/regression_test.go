package core

import (
	"math/rand"
	"reflect"
	"testing"

	"pmdebugger/internal/intervals"
	"pmdebugger/internal/report"
	"pmdebugger/internal/rules"
	"pmdebugger/internal/trace"
)

// trackProbe is a user rule that queries the bookkeeping for every store it
// observes, exactly as the flexibility API documents: q.Tracked(ev.Strand,
// ev.Addr) right after the store must hit.
type trackProbe struct {
	hits, misses int
}

func (p *trackProbe) Name() string { return "track-probe" }
func (p *trackProbe) OnEvent(ev trace.Event, q Query) {
	if ev.Kind != trace.KindStore {
		return
	}
	if _, ok := q.Tracked(ev.Strand, ev.Addr); ok {
		p.hits++
	} else {
		p.misses++
	}
}

// Regression: the bookkeeping queries used to index d.spaces[strand]
// directly, bypassing the model fold — under sequential/epoch models every
// event is bookkept in space 0, so querying with the event's (nonzero)
// strand id returned a false miss.
func TestQueriesFollowModelFold(t *testing.T) {
	for _, model := range []rules.Model{rules.Strict, rules.Epoch} {
		d := New(Config{Model: model})
		probe := &trackProbe{}
		d.AddRule(probe)
		const addr = 0x4000
		d.HandleEvent(trace.Event{Seq: 1, Kind: trace.KindStore, Addr: addr, Size: 8, Strand: 5})
		if probe.misses != 0 || probe.hits != 1 {
			t.Errorf("%s: probe hits=%d misses=%d, want 1/0", model, probe.hits, probe.misses)
		}
		st, ok := d.Tracked(5, addr)
		if !ok || !st.InArray || st.Addr != addr {
			t.Errorf("%s: Tracked(5, %#x) = %+v, %v; want array hit", model, addr, st, ok)
		}
		if got := d.ArrayLen(5); got != 1 {
			t.Errorf("%s: ArrayLen(5) = %d, want 1", model, got)
		}
		if got, want := d.TreeLen(5), d.TreeLen(0); got != want {
			t.Errorf("%s: TreeLen(5) = %d, want %d (space 0)", model, got, want)
		}
		if got, want := d.TreeStats(5), d.TreeStats(0); got != want {
			t.Errorf("%s: TreeStats(5) = %+v, want %+v", model, got, want)
		}
	}
}

func TestQueriesStrandModelStillPerStrand(t *testing.T) {
	d := New(Config{Model: rules.Strand})
	d.HandleEvent(trace.Event{Seq: 1, Kind: trace.KindStore, Addr: 0x4000, Size: 8, Strand: 3})
	if _, ok := d.Tracked(3, 0x4000); !ok {
		t.Error("Tracked(3) should hit strand 3's space")
	}
	if _, ok := d.Tracked(4, 0x4000); ok {
		t.Error("Tracked(4) must not observe strand 3's records")
	}
	if got := d.ArrayLen(4); got != 0 {
		t.Errorf("ArrayLen(4) = %d, want 0 (space never materialized)", got)
	}
}

// Regression: a KindTxLogAdd outside any transaction used to be recorded in
// the redundant-logging shadow; the shadow is only cleared at epoch begin,
// so the stray entry misreported the next transaction's first legitimate
// log write of the same object as redundant.
func TestTxLogAddOutsideEpochIgnored(t *testing.T) {
	d := New(Config{Model: rules.Epoch})
	const addr = 0x2000
	seq := uint64(0)
	emit := func(k trace.Kind) {
		seq++
		d.HandleEvent(trace.Event{Seq: seq, Kind: k, Addr: addr, Size: 64})
	}
	emit(trace.KindTxLogAdd) // stray: no transaction active
	emit(trace.KindEpochBegin)
	emit(trace.KindTxLogAdd) // first log of the object in this transaction
	emit(trace.KindEpochEnd)
	d.HandleEvent(trace.Event{Seq: 99, Kind: trace.KindEnd})
	if d.Report().Has(report.RedundantLogging) {
		t.Fatalf("stray pre-transaction log add caused a spurious bug:\n%s", d.Report().Summary())
	}
}

func TestTxLogAddInsideEpochStillDetected(t *testing.T) {
	d := New(Config{Model: rules.Epoch})
	const addr = 0x2000
	d.HandleEvent(trace.Event{Seq: 1, Kind: trace.KindEpochBegin})
	d.HandleEvent(trace.Event{Seq: 2, Kind: trace.KindTxLogAdd, Addr: addr, Size: 64})
	d.HandleEvent(trace.Event{Seq: 3, Kind: trace.KindTxLogAdd, Addr: addr, Size: 64})
	d.HandleEvent(trace.Event{Seq: 4, Kind: trace.KindEpochEnd})
	if !d.Report().Has(report.RedundantLogging) {
		t.Fatalf("double log inside a transaction must still report:\n%s", d.Report().Summary())
	}
}

// linearLogRule is the redundant-logging rule as the detector first ran it,
// each log add against every range logged earlier in the transaction: the
// reference for the detector's sorted shadow.
type linearLogRule struct {
	rep    *report.Report
	active bool
	logged []intervals.Range
}

func (l *linearLogRule) HandleEvent(ev trace.Event) {
	switch ev.Kind {
	case trace.KindEpochBegin:
		l.active = true
		l.logged = l.logged[:0]
	case trace.KindEpochEnd:
		l.active = false
		l.logged = l.logged[:0]
	case trace.KindTxLogAdd:
		if !l.active {
			return
		}
		r := intervals.R(ev.Addr, ev.Size)
		for _, prev := range l.logged {
			if prev.Overlaps(r) {
				l.rep.Add(report.Bug{
					Type: report.RedundantLogging,
					Addr: ev.Addr, Size: ev.Size, Seq: ev.Seq,
					Site: ev.Site, Strand: ev.Strand,
					Message: "object logged more than once in a single transaction",
				})
				return
			}
		}
		l.logged = append(l.logged, r)
	}
}

// TestRedundantLoggingMatchesLinearScan drives random log-add streams
// through the detector and the linear reference and requires identical
// reports. Adds land on a small address span, so they overlap, abut and
// repeat; sizes include zero, which overlaps only a range it lies strictly
// inside; some adds fall outside any transaction, and epochs begin again
// while one is open.
func TestRedundantLoggingMatchesLinearScan(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := New(Config{Model: rules.Epoch, Rules: rules.RuleRedundantLogging})
		ref := &linearLogRule{rep: report.New("reference")}
		var seq uint64
		emit := func(ev trace.Event) {
			seq++
			ev.Seq = seq
			d.HandleEvent(ev)
			ref.HandleEvent(ev)
		}
		for i := 0; i < 400; i++ {
			switch x := rng.Intn(40); {
			case x == 0:
				emit(trace.Event{Kind: trace.KindEpochBegin}) // nested when one is open
			case x == 1:
				emit(trace.Event{Kind: trace.KindEpochEnd})
			default:
				size := uint64(rng.Intn(24))
				if rng.Intn(4) == 0 {
					size = 0
				}
				emit(trace.Event{
					Kind: trace.KindTxLogAdd,
					Addr: 0x1000 + uint64(rng.Intn(512)), Size: size,
					Strand: int32(rng.Intn(2)), Site: trace.SiteID(rng.Intn(3)),
				})
			}
		}
		emit(trace.Event{Kind: trace.KindEnd})
		got, want := d.Report().Bugs, ref.rep.Bugs
		if len(want) == 0 {
			t.Fatalf("seed %d: the reference reported nothing; the stream tests nothing", seed)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: detector reported %d bugs, linear reference %d:\n%v\n%v",
				seed, len(got), len(want), got, want)
		}
	}
}

// The spare-space recycling path resets the array and interval metadata and
// relies on the retired space's tree being empty (only empty spaces are
// retired). This pins that invariant: a recycled space must leak no stale
// records into its new strand's tree, metadata, or the final report.
func TestSpareSpaceRecyclingLeaksNothing(t *testing.T) {
	d := New(Config{Model: rules.Strand})
	const oldAddr, newAddr = 0x4000, 0x5000
	seq := uint64(0)
	emit := func(k trace.Kind, strand int32, addr, size uint64) {
		seq++
		d.HandleEvent(trace.Event{Seq: seq, Kind: k, Strand: strand, Addr: addr, Size: size})
	}
	// Strand 7 persists cleanly and retires.
	emit(trace.KindStrandBegin, 7, 0, 0)
	emit(trace.KindStore, 7, oldAddr, 8)
	emit(trace.KindFlush, 7, oldAddr, 64)
	emit(trace.KindFence, 7, 0, 0)
	emit(trace.KindStrandEnd, 7, 0, 0)
	if len(d.spareSpaces) != 1 {
		t.Fatalf("retired strand space not recycled: %d spares", len(d.spareSpaces))
	}
	retired := d.spareSpaces[0]

	// Strand 9 must reuse the retired space and start from a blank slate.
	emit(trace.KindStrandBegin, 9, 0, 0)
	if d.spaces[9] != retired {
		t.Fatal("strand 9 did not reuse the recycled space")
	}
	if got := d.ArrayLen(9); got != 0 {
		t.Fatalf("recycled space ArrayLen = %d, want 0", got)
	}
	if got := d.TreeLen(9); got != 0 {
		t.Fatalf("recycled space TreeLen = %d, want 0", got)
	}
	if _, ok := d.Tracked(9, oldAddr); ok {
		t.Fatal("recycled space still tracks the previous strand's record")
	}
	emit(trace.KindStore, 9, newAddr, 8) // never persisted
	emit(trace.KindStrandEnd, 9, 0, 0)
	emit(trace.KindEnd, 0, 0, 0)

	rep := d.Report()
	if got := rep.CountByType()[report.NoDurability]; got != 1 {
		t.Fatalf("want exactly 1 no-durability bug (the new strand's store), got:\n%s", rep.Summary())
	}
	if rep.Bugs[0].Addr != newAddr {
		t.Fatalf("reported bug at %#x, want %#x", rep.Bugs[0].Addr, newAddr)
	}
}

// TestStrandSpaceCacheDroppedAtRetirement: spaceFor caches the last strand
// it resolved, and StrandEnd can retire that strand's space to the spares
// for another strand to take. A store from the retired strand must then
// get a space of its own, in either order of the next strand's start and
// that store, and the report must equal the reference scan's and the
// oracle's. A stale cache entry files the store in the retired space,
// where strand 7 then resets it away.
func TestStrandSpaceCacheDroppedAtRetirement(t *testing.T) {
	const a, b = 0x4000, 0x8000
	type step struct {
		kind   trace.Kind
		strand int32
		addr   uint64
	}
	orders := map[string][]step{
		"store before the next strand": {
			{trace.KindStrandBegin, 5, 0}, {trace.KindStrandEnd, 5, 0},
			{trace.KindStore, 5, a},
			{trace.KindStrandBegin, 7, 0}, {trace.KindStore, 7, b},
		},
		"next strand takes the space first": {
			{trace.KindStrandBegin, 5, 0}, {trace.KindStrandEnd, 5, 0},
			{trace.KindStrandBegin, 7, 0},
			{trace.KindStore, 5, a}, {trace.KindStore, 7, b},
		},
	}
	for name, steps := range orders {
		t.Run(name, func(t *testing.T) {
			steps = append(steps,
				step{trace.KindFlush, 7, b}, step{trace.KindFence, 7, 0},
				step{trace.KindStrandEnd, 7, 0}, step{trace.KindEnd, 0, 0})
			var evs []trace.Event
			for i, st := range steps {
				ev := trace.Event{Seq: uint64(i + 1), Kind: st.kind, Strand: st.strand, Addr: st.addr}
				switch st.kind {
				case trace.KindStore:
					ev.Size = 8
				case trace.KindFlush:
					ev.Size = 64
				}
				evs = append(evs, ev)
			}
			cfg := Config{
				Model: rules.Strand,
				Rules: rules.RuleNoDurability | rules.RuleMultipleOverwrites |
					rules.RuleRedundantFlush | rules.RuleFlushNothing,
			}
			idx, scan := replayPair(t, cfg, scanLimit, evs)
			requireIdentical(t, idx, scan, name)
			o := newOracle()
			for _, ev := range evs {
				o.HandleEvent(ev)
			}
			for _, typ := range []report.BugType{
				report.NoDurability, report.MultipleOverwrites,
				report.RedundantFlush, report.FlushNothing,
			} {
				if idx.Has(typ) != o.bugs[typ] {
					t.Fatalf("%s: engine=%v oracle=%v\nreport:\n%s", typ, idx.Has(typ), o.bugs[typ], idx.Summary())
				}
			}
			if len(idx.Bugs) != 1 || idx.Bugs[0].Addr != a || idx.Bugs[0].Strand != 5 {
				t.Fatalf("want one no-durability bug for strand 5's store at %#x, got:\n%s", a, idx.Summary())
			}
		})
	}
}
