package core

import (
	"fmt"
	"math/rand"
	"testing"

	"pmdebugger/internal/report"
	"pmdebugger/internal/rules"
	"pmdebugger/internal/trace"
)

// testScanLimits are the scan limits the differential suites run the
// indexed detector at: 0 builds the index for every query the MRU probe
// cannot answer, 4 builds it part-way through short fence intervals (so
// catch-up follows flush splits and purges), and the default is what
// callers get.
var testScanLimits = []int{0, 4, scanLimit}

// newWithScanLimit returns a detector whose queries use the cache-line
// index once a fence interval's array holds more than limit entries.
func newWithScanLimit(cfg Config, limit int) *Detector {
	d := New(cfg)
	d.scanLimit = limit
	return d
}

// replayPair runs the same event stream through an indexed detector at the
// given scan limit and a DisableIndex (reference scan) detector and returns
// both reports.
func replayPair(t *testing.T, cfg Config, limit int, evs []trace.Event) (idx, scan *report.Report) {
	t.Helper()
	cfgScan := cfg
	cfgScan.DisableIndex = true
	di, ds := newWithScanLimit(cfg, limit), New(cfgScan)
	for _, ev := range evs {
		di.HandleEvent(ev)
		ds.HandleEvent(ev)
	}
	return di.Report(), ds.Report()
}

// requireIdentical asserts the two reports render byte-identically.
func requireIdentical(t *testing.T, idx, scan *report.Report, label string) {
	t.Helper()
	if got, want := idx.Summary(), scan.Summary(); got != want {
		t.Fatalf("%s: indexed and scan reports differ\n--- indexed ---\n%s\n--- scan ---\n%s",
			label, got, want)
	}
}

// streamFlavor selects which model markers a generated stream includes.
type streamFlavor int

const (
	flavorStrict streamFlavor = iota
	flavorEpoch
	flavorStrand
)

// genFlavorStream produces a deterministic pseudo-random event stream in a narrow
// address window so stores, flushes and splits overlap heavily —
// the regime where the indexed and scan paths could plausibly diverge.
func genFlavorStream(rng *rand.Rand, flavor streamFlavor, n int) []trace.Event {
	const base = 0x1000_0000
	const window = 4 << 10
	var evs []trace.Event
	var seq uint64
	strand := int32(0)
	emit := func(kind trace.Kind, addr, size uint64) {
		seq++
		evs = append(evs, trace.Event{Seq: seq, Kind: kind, Addr: addr, Size: size, Strand: strand})
	}
	addr := func() uint64 { return base + uint64(rng.Intn(window)) }
	epochOpen, strandOpen := false, false
	for i := 0; i < n; i++ {
		switch rng.Intn(21) {
		case 0, 1, 2, 3, 4, 5, 6:
			emit(trace.KindStore, addr(), uint64(rng.Intn(24))+1)
		case 7, 8:
			// Store crossing cache lines.
			emit(trace.KindStore, addr(), 64+uint64(rng.Intn(64)))
		case 9, 10, 11:
			// Aligned line flush.
			emit(trace.KindFlush, addr()&^63, 64)
		case 12, 13:
			// Arbitrary (possibly splitting) flush.
			emit(trace.KindFlush, addr(), uint64(rng.Intn(96))+1)
		case 14:
			// Zero-size flush: exercises the empty-range overlap quirk.
			emit(trace.KindFlush, addr(), 0)
		case 15, 16:
			emit(trace.KindFence, 0, 0)
		case 17:
			switch flavor {
			case flavorEpoch:
				if epochOpen {
					emit(trace.KindEpochEnd, 0, 0)
				} else {
					emit(trace.KindEpochBegin, 0, 0)
				}
				epochOpen = !epochOpen
			case flavorStrand:
				if strandOpen {
					emit(trace.KindStrandEnd, 0, 0)
					strand = 0
					strandOpen = false
				} else {
					strand = int32(rng.Intn(3) + 1)
					emit(trace.KindStrandBegin, 0, 0)
					strandOpen = true
				}
			default:
				emit(trace.KindStore, addr(), 8)
			}
		case 18:
			emit(trace.KindFlush, addr()&^63, 64)
		case 19:
			// Dispersed store far from the window: keeps old intervals
			// reachable so the MRU probe's negative filter is exercised.
			emit(trace.KindStore, base+uint64(window)*4+uint64(rng.Intn(window)), 8)
		case 20:
			// Zero-size store: tracked like any store, never reported.
			emit(trace.KindStore, addr(), 0)
		}
	}
	if epochOpen {
		emit(trace.KindEpochEnd, 0, 0)
	}
	if strandOpen {
		emit(trace.KindStrandEnd, 0, 0)
	}
	emit(trace.KindEnd, 0, 0)
	return evs
}

func flavorConfig(flavor streamFlavor) Config {
	switch flavor {
	case flavorEpoch:
		return Config{Model: rules.Epoch}
	case flavorStrand:
		return Config{Model: rules.Strand}
	default:
		return Config{Model: rules.Strict}
	}
}

// TestIndexedMatchesScanRandom is the property test for the index
// invariant: for random overlapping event streams across every persistency
// model — including epoch-end markReported sweeps and per-strand spaces —
// the indexed detector's report is byte-identical
// to the reference scan detector's at every test scan limit.
func TestIndexedMatchesScanRandom(t *testing.T) {
	flavors := []struct {
		name   string
		flavor streamFlavor
	}{
		{"strict", flavorStrict},
		{"epoch", flavorEpoch},
		{"strand", flavorStrand},
	}
	shapes := []struct {
		name     string
		capacity int
		merge    int
	}{
		{"default", 0, 0},
		{"tiny-array", 16, 2}, // force spills, redistribution and merges
	}
	for _, fl := range flavors {
		for _, sh := range shapes {
			for seed := int64(1); seed <= 8; seed++ {
				rng := rand.New(rand.NewSource(seed * 7919))
				evs := genFlavorStream(rng, fl.flavor, 600)
				cfg := flavorConfig(fl.flavor)
				cfg.ArrayCapacity = sh.capacity
				cfg.MergeThreshold = sh.merge
				for _, limit := range testScanLimits {
					idx, scan := replayPair(t, cfg, limit, evs)
					requireIdentical(t, idx, scan, fmt.Sprintf("%s/%s/limit=%d", fl.name, sh.name, limit))
				}
			}
		}
	}
}

// TestZeroSizeStoreNeverReported checks that a store of zero bytes, which
// pmem never emits but a decoded trace or a direct HandleEvent caller may,
// writes nothing that needs persisting: no no-durability bug at End whether it sits
// in the array, was moved to the tree by a fence, or spilled there from a
// full array, on the indexed detector at every test scan limit and on the
// reference scan.
func TestZeroSizeStoreNeverReported(t *testing.T) {
	const a = 0x1000_0000
	evs := []trace.Event{
		{Kind: trace.KindStore, Addr: a, Size: 0}, // unflushed at the fence
		{Kind: trace.KindFence},
		{Kind: trace.KindStore, Addr: a + 64, Size: 8},
		{Kind: trace.KindStore, Addr: a + 128, Size: 8},
		{Kind: trace.KindStore, Addr: a + 192, Size: 0}, // array full: spills
		{Kind: trace.KindFlush, Addr: a + 64, Size: 128},
		{Kind: trace.KindFence},
		{Kind: trace.KindStore, Addr: a + 256, Size: 0}, // in the array at End
		{Kind: trace.KindEnd},
	}
	for i := range evs {
		evs[i].Seq = uint64(i + 1)
	}
	cfg := Config{Model: rules.Strict, ArrayCapacity: 2}
	for _, limit := range testScanLimits {
		idx, scan := replayPair(t, cfg, limit, evs)
		requireIdentical(t, idx, scan, fmt.Sprintf("limit=%d", limit))
		if len(idx.Bugs) != 0 || idx.Counters.ArraySpills != 1 {
			t.Fatalf("limit %d: want no bugs and one spill, got %d spills:\n%s",
				limit, idx.Counters.ArraySpills, idx.Summary())
		}
	}
}

// TestIndexFastPathCounters checks the fast-path counters: a
// locality-friendly stream must take the MRU probe; an adversarial one must
// fall through to the line index once its fence interval outgrows the scan
// limit, and must leave the index unbuilt below it; and the scan fallback
// must report zero for both.
func TestIndexFastPathCounters(t *testing.T) {
	local := func() []trace.Event {
		var evs []trace.Event
		seq := uint64(0)
		for i := 0; i < 64; i++ {
			a := uint64(0x1000_0000 + i*64)
			seq++
			evs = append(evs, trace.Event{Seq: seq, Kind: trace.KindStore, Addr: a, Size: 8})
			seq++
			evs = append(evs, trace.Event{Seq: seq, Kind: trace.KindFlush, Addr: a, Size: 64})
		}
		seq++
		evs = append(evs, trace.Event{Seq: seq, Kind: trace.KindFence})
		return evs
	}()

	d := New(Config{Model: rules.Strict})
	for _, ev := range local {
		d.HandleEvent(ev)
	}
	if c := d.Counters(); c.MRUProbeHits == 0 {
		t.Fatalf("locality stream took no MRU fast path: %+v", c)
	}

	// Re-flushing old lines after many intervening intervals defeats the
	// MRU probe. Past the scan limit the line index must answer instead.
	dispersed := func(lines int) *Detector {
		d := New(Config{Model: rules.Strict})
		var seq uint64
		emit := func(kind trace.Kind, addr, size uint64) {
			seq++
			d.HandleEvent(trace.Event{Seq: seq, Kind: kind, Addr: addr, Size: size})
		}
		for i := 0; i < lines; i++ {
			emit(trace.KindStore, uint64(0x1000_0000+i*64), 8)
			emit(trace.KindFlush, uint64(0x1000_0000+i*64), 64)
		}
		for i := 0; i < lines; i++ {
			emit(trace.KindFlush, uint64(0x1000_0000+i*64), 64) // redundant, far from MRU
		}
		return d
	}
	d = dispersed(scanLimit + 64)
	if c := d.Counters(); c.IndexLineHits == 0 {
		t.Fatalf("dispersed re-flush stream past the scan limit never hit the line index: %+v", c)
	}
	// Below the limit the same misses take the interval scan: no index
	// lookups are counted and the line map is never populated.
	d = dispersed(32)
	if c := d.Counters(); c.MRUProbeHits == c.Stores+c.Flushes {
		t.Fatalf("dispersed re-flush stream never missed the MRU probe: %+v", c)
	}
	if c := d.Counters(); c.IndexLineHits != 0 || c.IndexLineMisses != 0 {
		t.Fatalf("dispersed re-flush stream under the scan limit used the line index: %+v", c)
	}
	if n := len(d.space0.idx.lists); n != 0 || len(d.space0.entryIv) != 0 {
		t.Fatalf("fence interval under the scan limit built the index: %d lines, %d entries",
			n, len(d.space0.entryIv))
	}

	ds := New(Config{Model: rules.Strict, DisableIndex: true})
	for _, ev := range local {
		ds.HandleEvent(ev)
	}
	if c := ds.Counters(); c.MRUProbeHits != 0 || c.IndexLineHits != 0 || c.IndexLineMisses != 0 {
		t.Fatalf("scan fallback touched index counters: %+v", c)
	}
}

// TestFenceArrayBulkRedistribution checks that fence-time redistribution
// through avl.InsertAll moves exactly the unflushed entries to the tree and
// counts them identically to the per-item reference path.
func TestFenceArrayBulkRedistribution(t *testing.T) {
	var treeLens [2]int
	var redists [2]uint64
	for mode, disable := range []bool{false, true} {
		d := New(Config{Model: rules.Strict, MergeThreshold: -1, DisableIndex: disable})
		var seq uint64
		for i := 0; i < 40; i++ {
			seq++
			d.HandleEvent(trace.Event{Seq: seq, Kind: trace.KindStore,
				Addr: uint64(0x2000_0000 + i*128), Size: 8})
		}
		// Flush only every fourth line: the rest redistribute at the fence.
		for i := 0; i < 40; i += 4 {
			seq++
			d.HandleEvent(trace.Event{Seq: seq, Kind: trace.KindFlush,
				Addr: uint64(0x2000_0000 + i*128), Size: 64})
		}
		seq++
		d.HandleEvent(trace.Event{Seq: seq, Kind: trace.KindFence})
		treeLens[mode] = d.space0.tree.Len()
		redists[mode] = d.Counters().Redistributions
	}
	if treeLens[0] != 30 || redists[0] != 30 {
		t.Fatalf("indexed: got tree=%d redistributions=%d, want 30/30", treeLens[0], redists[0])
	}
	if treeLens[0] != treeLens[1] || redists[0] != redists[1] {
		t.Fatalf("indexed (%d/%d) and scan (%d/%d) redistribution disagree",
			treeLens[0], redists[0], treeLens[1], redists[1])
	}
}
