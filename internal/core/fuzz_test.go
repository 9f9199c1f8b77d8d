package core

import (
	"testing"

	"pmdebugger/internal/report"
	"pmdebugger/internal/rules"
	"pmdebugger/internal/trace"
)

// aliasStride puts fuzzed addresses whose arg differs mod 3 on pages 64
// cache lines apart, so their lines share bits of a CLF interval's 64-line
// signature without sharing an address.
const aliasStride = 64 << lineShift

// txCommitSeed has the shape of a transaction commit: undo-log and data
// stores land in one CLF interval, are written back line by line, and
// older intervals are flushed again once the MRU probe no longer covers
// them. Both fuzz targets below take it; they scale addresses differently
// and read op 1 as a line flush (FuzzIndexedVsScan) or a flush of up to
// 64 bytes (FuzzDetectorVsOracle), so it keeps that shape in each.
var txCommitSeed = []byte{
	0, 3, 0, 2, 4, 5, 0, 6, // data (page 0), log entry and header (page 2)
	1, 3, 1, 2, 1, 14, // per-line writebacks of the log and the data
	0, 9, 0, 1, 1, 9, 0, 12, 4, 8, 1, 12, // two more intervals
	1, 3, 1, 2, 1, 8, 1, 1, // flush old intervals' lines again
	3, 0, 0, 3, 0, 5, 1, 5, 3, 0,
}

// FuzzDetectorVsOracle drives the engine and the brute-force oracle with an
// instruction stream decoded from fuzz input and requires identical
// bug-type outcomes. Run with `go test -fuzz FuzzDetectorVsOracle` for
// continuous exploration; the seed corpus runs in normal test mode.
func FuzzDetectorVsOracle(f *testing.F) {
	f.Add([]byte{0, 10, 1, 20, 3, 0, 0, 10, 2, 30})
	f.Add([]byte{0, 0, 0, 1, 0, 2, 1, 0, 2, 0, 3, 0})
	f.Add([]byte{4, 0, 0, 8, 1, 8, 2, 0, 5, 0})
	f.Add(txCommitSeed)
	f.Fuzz(func(t *testing.T, data []byte) {
		const base = 0x1000_0000
		var evs []trace.Event
		seq := uint64(0)
		emit := func(kind trace.Kind, addr, size uint64) {
			seq++
			evs = append(evs, trace.Event{Seq: seq, Kind: kind, Addr: addr, Size: size})
		}
		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i], uint64(data[i+1])
			addr := base + arg%3*aliasStride + arg
			switch op % 5 {
			case 0: // store
				emit(trace.KindStore, addr, arg%24+1)
			case 1: // arbitrary flush
				emit(trace.KindFlush, addr, arg%64+1)
			case 2: // line flush
				emit(trace.KindFlush, addr&^63, 64)
			case 3: // fence
				emit(trace.KindFence, 0, 0)
			case 4: // store crossing lines
				emit(trace.KindStore, addr, 64+arg%64)
			}
		}
		emit(trace.KindEnd, 0, 0)

		cfg := Config{
			Model: rules.Strict,
			Rules: rules.RuleNoDurability | rules.RuleMultipleOverwrites |
				rules.RuleRedundantFlush | rules.RuleFlushNothing,
			// Exercise spill and merge machinery under fuzzing too.
			ArrayCapacity:  8,
			MergeThreshold: 4,
		}
		cfgScan := cfg
		cfgScan.DisableIndex = true
		d, dScan := New(cfg), New(cfgScan)
		o := newOracle()
		for _, ev := range evs {
			d.HandleEvent(ev)
			dScan.HandleEvent(ev)
			o.HandleEvent(ev)
		}
		rep := d.Report()
		for _, typ := range []report.BugType{
			report.NoDurability, report.MultipleOverwrites,
			report.RedundantFlush, report.FlushNothing,
		} {
			if rep.Has(typ) != o.bugs[typ] {
				t.Fatalf("%s: engine=%v oracle=%v\nreport:\n%s",
					typ, rep.Has(typ), o.bugs[typ], rep.Summary())
			}
		}
		if got, want := rep.Summary(), dScan.Report().Summary(); got != want {
			t.Fatalf("indexed and scan reports differ\n--- indexed ---\n%s\n--- scan ---\n%s",
				got, want)
		}
	})
}

// FuzzIndexedVsScan fuzzes the index equivalence directly: arbitrary
// streams of stores, splitting flushes and fences must produce
// byte-identical reports from the cache-line-indexed detector, at every
// test scan limit, and the DisableIndex reference scan. Unlike the oracle
// fuzz above it includes zero-size stores and flushes to probe the
// empty-range overlap quirk.
func FuzzIndexedVsScan(f *testing.F) {
	f.Add([]byte{0, 16, 5, 8, 1, 16, 3, 0, 0, 16, 6, 0, 1, 16})
	f.Add([]byte{0, 0, 0, 64, 5, 32, 1, 0, 2, 0, 3, 0, 4, 192})
	f.Add([]byte{4, 7, 0, 7, 6, 7, 1, 7, 5, 7, 0, 7, 3, 7})
	f.Add(txCommitSeed)
	f.Fuzz(func(t *testing.T, data []byte) {
		const base = 0x1000_0000
		var evs []trace.Event
		seq := uint64(0)
		emit := func(kind trace.Kind, addr, size uint64) {
			seq++
			evs = append(evs, trace.Event{Seq: seq, Kind: kind, Addr: addr, Size: size})
		}
		emit(trace.KindRegister, base, 4*aliasStride)
		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i], uint64(data[i+1])
			addr := base + arg%3*aliasStride + arg*8
			switch op % 7 {
			case 0: // store
				emit(trace.KindStore, addr, arg%24+1)
			case 1: // line flush
				emit(trace.KindFlush, addr&^63, 64)
			case 2: // arbitrary flush (splits entries)
				emit(trace.KindFlush, base+arg, arg%96+1)
			case 3: // fence
				emit(trace.KindFence, 0, 0)
			case 4: // store crossing lines
				emit(trace.KindStore, addr, 64+arg%64)
			case 5: // zero-size store: tracked, never reported
				emit(trace.KindStore, addr, 0)
			case 6: // zero-size flush: empty-range overlap quirk
				emit(trace.KindFlush, addr, 0)
			}
		}
		emit(trace.KindEnd, 0, 0)

		cfg := Config{
			Model:          rules.Strict,
			ArrayCapacity:  8,
			MergeThreshold: 4,
		}
		for _, limit := range testScanLimits {
			idx, scan := replayPair(t, cfg, limit, evs)
			if got, want := idx.Summary(), scan.Summary(); got != want {
				t.Fatalf("limit %d: indexed and scan reports differ\n--- indexed ---\n%s\n--- scan ---\n%s",
					limit, got, want)
			}
		}
	})
}
