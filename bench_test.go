// Package bench regenerates every table and figure of the paper's
// evaluation as Go benchmarks: run
//
//	go test -bench=. -benchmem
//
// Each benchmark reports the relevant figure's metric via b.ReportMetric
// (slowdown factors, speedups, tree sizes, detection counts) in addition to
// the usual ns/op. Absolute times differ from the paper's Optane testbed;
// the reported ratios carry the reproduced shape.
package bench

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"pmdebugger/internal/baselines"
	"pmdebugger/internal/bugsuite"
	"pmdebugger/internal/core"
	"pmdebugger/internal/harness"
	"pmdebugger/internal/rules"
	"pmdebugger/internal/stats"
	"pmdebugger/internal/trace"
	"pmdebugger/internal/workloads"
	"pmdebugger/internal/ycsb"
)

// recordTrace captures the instruction stream of one workload run so
// detector benchmarks measure pure bookkeeping cost on identical input.
func recordTrace(b *testing.B, name string, ops int) *trace.Recorder {
	b.Helper()
	f, err := workloads.Lookup(name)
	if err != nil {
		b.Fatal(err)
	}
	app, pm, err := workloads.Build(f, ops)
	if err != nil {
		b.Fatal(err)
	}
	rec := trace.NewRecorder(ops * 16)
	pm.Attach(rec)
	if err := workloads.RunInserts(app, ops, 42); err != nil {
		b.Fatal(err)
	}
	if err := app.Close(); err != nil {
		b.Fatal(err)
	}
	pm.End()
	return rec
}

func modelOf(b *testing.B, name string) rules.Model {
	b.Helper()
	f, err := workloads.Lookup(name)
	if err != nil {
		b.Fatal(err)
	}
	return f.Model
}

// replayBench measures one detector over a recorded trace.
func replayBench(b *testing.B, rec *trace.Recorder, mk func() baselines.Detector) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det := mk()
		rec.Replay(det)
		_ = det.Report()
	}
	b.ReportMetric(float64(rec.Len()), "events/run")
}

// BenchmarkFigure2Characterization regenerates the §3 characterization cost
// and metrics (Fig. 2a/b/c) on the micro-benchmarks.
func BenchmarkFigure2Characterization(b *testing.B) {
	for _, name := range harness.Fig2MicroNames() {
		rec := recordTrace(b, name, 2000)
		b.Run(name, func(b *testing.B) {
			var r stats.Result
			for i := 0; i < b.N; i++ {
				ch := stats.New()
				rec.Replay(ch)
				r = ch.Result()
			}
			b.ReportMetric(r.DistancePercent(1), "dist1-%")
			b.ReportMetric(r.CollectivePercent(), "collective-%")
			s, _, _ := r.MixPercent()
			b.ReportMetric(s, "store-%")
		})
	}
}

// BenchmarkFigure2YCSB characterizes the YCSB loads over memcached.
func BenchmarkFigure2YCSB(b *testing.B) {
	for _, w := range ycsb.All() {
		b.Run(w.String(), func(b *testing.B) {
			var row harness.CharacterizationRow
			var err error
			for i := 0; i < b.N; i++ {
				row, err = harness.CharacterizeYCSB(w, 500, 2000)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(row.Result.CollectivePercent(), "collective-%")
		})
	}
}

// BenchmarkFigure8MicroBenchmarks regenerates the Fig. 8a–g slowdown
// comparison: each sub-benchmark replays one workload's trace through one
// tool, so ns/op ratios across tools are the figure's bars.
func BenchmarkFigure8MicroBenchmarks(b *testing.B) {
	for _, name := range harness.MicroBenchNames() {
		rec := recordTrace(b, name, 2000)
		model := modelOf(b, name)
		b.Run(name+"/nulgrind", func(b *testing.B) {
			replayBench(b, rec, func() baselines.Detector { return baselines.NewNulgrind() })
		})
		b.Run(name+"/pmdebugger", func(b *testing.B) {
			replayBench(b, rec, func() baselines.Detector {
				return core.New(core.Config{Model: model})
			})
		})
		b.Run(name+"/pmemcheck", func(b *testing.B) {
			replayBench(b, rec, func() baselines.Detector { return baselines.NewPmemcheck() })
		})
	}
}

// BenchmarkFigure8Memcached regenerates Fig. 8h (end-to-end, including the
// application, as in the paper).
func BenchmarkFigure8Memcached(b *testing.B) {
	for _, tool := range []harness.Tool{harness.Nulgrind, harness.PMDebugger, harness.Pmemcheck} {
		b.Run(tool.String(), func(b *testing.B) {
			var row harness.Row
			var err error
			for i := 0; i < b.N; i++ {
				row, err = harness.MeasureMemcached(2000, 1, []harness.Tool{tool})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(row.Slowdown(tool), "slowdown-x")
		})
	}
}

// BenchmarkFigure8Redis regenerates Fig. 8i.
func BenchmarkFigure8Redis(b *testing.B) {
	for _, tool := range []harness.Tool{harness.Nulgrind, harness.PMDebugger, harness.Pmemcheck} {
		b.Run(tool.String(), func(b *testing.B) {
			var row harness.Row
			var err error
			for i := 0; i < b.N; i++ {
				row, err = harness.MeasureRedis(2000, []harness.Tool{tool})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(row.Slowdown(tool), "slowdown-x")
		})
	}
}

// BenchmarkTable5Speedup reports the PMDebugger-over-Pmemcheck speedups.
func BenchmarkTable5Speedup(b *testing.B) {
	for _, name := range harness.MicroBenchNames() {
		b.Run(name, func(b *testing.B) {
			var row harness.Row
			var err error
			for i := 0; i < b.N; i++ {
				row, err = harness.MeasureMicro(name, 2000, harness.Fig8Tools())
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(row.SpeedupOverPmemcheck(), "speedup-x")
			b.ReportMetric(row.SpeedupOverPmemcheckNoInstr(), "speedup-noinstr-x")
		})
	}
}

// BenchmarkSOTAComparison regenerates the §7.2 comparison with PMTest and
// XFDetector on replayed traces.
func BenchmarkSOTAComparison(b *testing.B) {
	rec := recordTrace(b, "b_tree", 2000)
	model := modelOf(b, "b_tree")
	b.Run("pmdebugger", func(b *testing.B) {
		replayBench(b, rec, func() baselines.Detector {
			return core.New(core.Config{Model: model})
		})
	})
	b.Run("pmtest", func(b *testing.B) {
		replayBench(b, rec, func() baselines.Detector {
			return baselines.NewPMTest(baselines.PMTestConfig{
				Watch: []string{"c0", "c1", "c2", "c3"},
			})
		})
	})
	b.Run("xfdetector", func(b *testing.B) {
		replayBench(b, rec, func() baselines.Detector {
			return baselines.NewXFDetector(baselines.XFDetectorConfig{})
		})
	})
}

// BenchmarkTable6BugSuite runs the 78-case suite under each detector and
// reports the detection totals of Table 6.
func BenchmarkTable6BugSuite(b *testing.B) {
	for _, k := range bugsuite.AllDetectors() {
		b.Run(k.String(), func(b *testing.B) {
			total := 0
			for i := 0; i < b.N; i++ {
				total = 0
				for _, c := range bugsuite.Cases() {
					found, err := bugsuite.Detects(k, c)
					if err != nil {
						b.Fatal(err)
					}
					if found {
						total++
					}
				}
			}
			b.ReportMetric(float64(total), "bugs-detected")
		})
	}
}

// BenchmarkFigure10Scalability regenerates the memcached thread sweep.
func BenchmarkFigure10Scalability(b *testing.B) {
	for _, threads := range []int{1, 2, 4, 6} {
		b.Run(fmt.Sprintf("threads-%d", threads), func(b *testing.B) {
			var row harness.Row
			var err error
			for i := 0; i < b.N; i++ {
				row, err = harness.MeasureMemcached(4000, threads,
					[]harness.Tool{harness.PMDebugger, harness.Pmemcheck})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(row.Slowdown(harness.PMDebugger), "pmdebugger-x")
			b.ReportMetric(row.Slowdown(harness.Pmemcheck), "pmemcheck-x")
		})
	}
}

// BenchmarkFigure11TreeSize reports the average AVL tree nodes per fence
// interval for both tools.
func BenchmarkFigure11TreeSize(b *testing.B) {
	for _, name := range []string{"b_tree", "hashmap_tx", "hashmap_atomic"} {
		rec := recordTrace(b, name, 2000)
		model := modelOf(b, name)
		b.Run(name, func(b *testing.B) {
			var pd, pc float64
			for i := 0; i < b.N; i++ {
				det := core.New(core.Config{Model: model})
				rec.Replay(det)
				pd = det.Report().Counters.AvgTreeNodes()
				pck := baselines.NewPmemcheck()
				rec.Replay(pck)
				pc = pck.Report().Counters.AvgTreeNodes()
			}
			b.ReportMetric(pd, "pmdebugger-nodes")
			b.ReportMetric(pc, "pmemcheck-nodes")
		})
	}
}

// BenchmarkReorganizations reports the §7.5 tree-reorganization counts.
func BenchmarkReorganizations(b *testing.B) {
	rec := recordTrace(b, "hashmap_atomic", 2000)
	b.Run("pmdebugger", func(b *testing.B) {
		var n uint64
		for i := 0; i < b.N; i++ {
			det := core.New(core.Config{Model: rules.Epoch})
			rec.Replay(det)
			n = det.Report().Counters.TreeReorgs
		}
		b.ReportMetric(float64(n), "reorgs")
	})
	b.Run("pmemcheck", func(b *testing.B) {
		var n uint64
		for i := 0; i < b.N; i++ {
			det := baselines.NewPmemcheck()
			rec.Replay(det)
			n = det.Report().Counters.TreeReorgs
		}
		b.ReportMetric(float64(n), "reorgs")
	})
}

// BenchmarkParallelReplay measures the sharded parallel trace-replay
// pipeline on the synthetic strand benchmark: the trace partitions along
// strand boundaries onto a GOMAXPROCS worker pool and the merged report is
// identical to sequential replay. The batched and parallel sub-benchmarks
// report their speedup over the per-event sequential replay as speedup-x;
// with 4+ cores the shards replay concurrently and the speedup scales with
// the core count, while on a single core it stays near 1x.
func BenchmarkParallelReplay(b *testing.B) {
	rec := recordTrace(b, "synth_strand", 20000)
	cfg := core.Config{Model: rules.Strand}
	workers := runtime.GOMAXPROCS(0)

	// Sanity: the merged parallel report must match sequential exactly.
	seqDet := core.New(cfg)
	rec.Replay(seqDet)
	if want, got := seqDet.Report().Summary(), core.ReplayParallel(rec.Events, cfg, workers).Summary(); want != got {
		b.Fatalf("parallel report differs from sequential:\n--- sequential ---\n%s--- parallel ---\n%s", want, got)
	}

	sequential := func() {
		det := core.New(cfg)
		rec.Replay(det)
		det.Report()
	}
	// arm times replay against a sequential replay run beside it in the
	// same loop, with the benchmark timer stopped, so both see the same
	// machine state and ns/op and allocs stay the arm's own. speedup-x is
	// the ratio of the two sums, as in BenchmarkDelivery.
	arm := func(name string, replay func()) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var own, seq time.Duration
			for i := 0; i < b.N; i++ {
				start := time.Now()
				replay()
				own += time.Since(start)
				b.StopTimer()
				start = time.Now()
				sequential()
				seq += time.Since(start)
				b.StartTimer()
			}
			b.ReportMetric(float64(seq)/float64(own), "speedup-x")
		})
	}

	b.Run("sequential", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sequential()
		}
		b.ReportMetric(float64(rec.Len()), "events/run")
	})
	arm("batched", func() {
		det := core.New(cfg)
		trace.ReplayEvents(rec.Events, det)
		det.Report()
	})
	arm(fmt.Sprintf("parallel-%d", workers), func() {
		core.ReplayParallel(rec.Events, cfg, workers)
	})
}

// BenchmarkAblationHybridVsTreeOnly (A1): the same engine with the memory
// location array effectively disabled (capacity 1) degenerates to tree-only
// bookkeeping; the ns/op gap is the hybrid design's win.
func BenchmarkAblationHybridVsTreeOnly(b *testing.B) {
	rec := recordTrace(b, "hashmap_atomic", 2000)
	b.Run("hybrid", func(b *testing.B) {
		replayBench(b, rec, func() baselines.Detector {
			return core.New(core.Config{Model: rules.Epoch})
		})
	})
	b.Run("tree-only", func(b *testing.B) {
		replayBench(b, rec, func() baselines.Detector {
			return core.New(core.Config{Model: rules.Epoch, ArrayCapacity: 1})
		})
	})
}

// BenchmarkAblationFenceOrder (A3): tree-first vs array-first fence
// processing (§4.4 argues tree-first keeps insertions cheap).
func BenchmarkAblationFenceOrder(b *testing.B) {
	rec := recordTrace(b, "hashmap_tx", 2000)
	b.Run("tree-first", func(b *testing.B) {
		replayBench(b, rec, func() baselines.Detector {
			return core.New(core.Config{Model: rules.Epoch})
		})
	})
	b.Run("array-first", func(b *testing.B) {
		replayBench(b, rec, func() baselines.Detector {
			return core.New(core.Config{Model: rules.Epoch, ArrayFirstFence: true})
		})
	})
}

// BenchmarkAblationMergeThreshold (A4): sweep the reorganization threshold
// around the paper's 500.
func BenchmarkAblationMergeThreshold(b *testing.B) {
	rec := recordTrace(b, "hashmap_tx", 2000)
	for _, threshold := range []int{-1, 10, 500, 10000} {
		name := fmt.Sprintf("threshold-%d", threshold)
		if threshold == -1 {
			name = "threshold-never"
		}
		b.Run(name, func(b *testing.B) {
			replayBench(b, rec, func() baselines.Detector {
				return core.New(core.Config{Model: rules.Epoch, MergeThreshold: threshold})
			})
		})
	}
}

// BenchmarkAblationArrayCapacity (A5): sweep the memory location array
// capacity (the paper sizes it at 100,000).
func BenchmarkAblationArrayCapacity(b *testing.B) {
	rec := recordTrace(b, "b_tree", 2000)
	for _, capacity := range []int{16, 1024, core.DefaultArrayCapacity} {
		b.Run(fmt.Sprintf("capacity-%d", capacity), func(b *testing.B) {
			replayBench(b, rec, func() baselines.Detector {
				return core.New(core.Config{Model: rules.Epoch, ArrayCapacity: capacity})
			})
		})
	}
}

// BenchmarkAblationCollectiveMetadata (A2): quantifies the collective
// interval update by comparing a trace whose writebacks cover whole
// intervals (collective, the common case of Pattern 2) against the same
// store volume flushed field-by-field (dispersed), on the same engine.
func BenchmarkAblationCollectiveMetadata(b *testing.B) {
	mkTrace := func(dispersed bool) *trace.Recorder {
		rec := trace.NewRecorder(1 << 16)
		seq := uint64(0)
		emit := func(kind trace.Kind, addr, size uint64) {
			seq++
			rec.HandleEvent(trace.Event{Seq: seq, Kind: kind, Addr: addr, Size: size})
		}
		const base = 0x1000_0000
		for i := uint64(0); i < 2000; i++ {
			lineBase := base + (i%64)*64
			for f := uint64(0); f < 8; f++ {
				emit(trace.KindStore, lineBase+f*8, 8)
			}
			if dispersed {
				for f := uint64(0); f < 8; f++ {
					emit(trace.KindFlush, lineBase+f*8, 8)
				}
			} else {
				emit(trace.KindFlush, lineBase, 64)
			}
			emit(trace.KindFence, 0, 0)
		}
		emit(trace.KindEnd, 0, 0)
		return rec
	}
	collective := mkTrace(false)
	dispersed := mkTrace(true)
	b.Run("collective", func(b *testing.B) {
		replayBench(b, collective, func() baselines.Detector {
			return core.New(core.Config{Model: rules.Epoch})
		})
	})
	b.Run("dispersed", func(b *testing.B) {
		replayBench(b, dispersed, func() baselines.Detector {
			return core.New(core.Config{Model: rules.Epoch})
		})
	})
}

// hotPathKinds lists the shapes of the synthetic hot-path traces. Each
// trace stresses one per-event cost the cache-line index and MRU probe
// (core/index.go) remove: without them, every store's overlap query and
// every CLF walks the whole fence interval's CLF-interval list, so the
// per-event cost grows with the number of writebacks since the last fence.
func hotPathKinds() []string {
	return []string{"flush-overlap", "store-overwrite", "mru-locality"}
}

// hotPathTrace builds the named synthetic trace with the given number of
// fence-delimited rounds.
//
//   - flush-overlap: overlapping stores per line, per-line flushes plus
//     dispersed re-flushes of older lines and unflushed stragglers that
//     redistribute at the fence — the flush/overlap-heavy shape of the
//     acceptance microbench.
//   - store-overwrite: a burst of line flushes builds many CLF intervals,
//     then repeated overwrites of the same lines drive the
//     multiple-overwrites overlap query.
//   - mru-locality: the Fig. 2a common case — every store is flushed
//     immediately, at CLF distance one.
func hotPathTrace(kind string, rounds int) (*trace.Recorder, error) {
	rec := trace.NewRecorder(1 << 16)
	seq := uint64(0)
	emit := func(k trace.Kind, addr, size uint64) {
		seq++
		rec.HandleEvent(trace.Event{Seq: seq, Kind: k, Addr: addr, Size: size})
	}
	const base = 0x4000_0000
	switch kind {
	case "flush-overlap":
		const lines = 256
		for r := 0; r < rounds; r++ {
			for l := uint64(0); l < lines; l++ {
				a := base + l*64
				emit(trace.KindStore, a, 8)
				emit(trace.KindStore, a+8, 8)
				emit(trace.KindStore, a, 8) // overlaps: multiple-overwrites query
				if l%8 != 7 {
					emit(trace.KindFlush, a, 64)
				}
				if l%4 == 3 && l >= 16 {
					// Dispersed re-flush far behind the MRU intervals.
					emit(trace.KindFlush, base+(l-16)*64, 64)
				}
			}
			emit(trace.KindFence, 0, 0)
		}
	case "store-overwrite":
		const lines = 512
		for r := 0; r < rounds; r++ {
			for l := uint64(0); l < lines; l++ {
				a := base + l*64
				emit(trace.KindStore, a, 8)
				emit(trace.KindFlush, a, 64)
			}
			for i := uint64(0); i < 2*lines; i++ {
				emit(trace.KindStore, base+(i%lines)*64, 8)
			}
			// Collective flush over the whole window: the fence then drops
			// every entry by metadata invalidation, so the round's cost is
			// the overwrite overlap queries, not redistribution.
			emit(trace.KindFlush, base, lines*64)
			emit(trace.KindFence, 0, 0)
		}
	case "mru-locality":
		const lines = 512
		for r := 0; r < rounds; r++ {
			for l := uint64(0); l < lines; l++ {
				a := base + l*64
				emit(trace.KindStore, a, 8)
				emit(trace.KindFlush, a, 64)
			}
			emit(trace.KindFence, 0, 0)
		}
	default:
		return nil, fmt.Errorf("unknown hot-path trace %q", kind)
	}
	emit(trace.KindEnd, 0, 0)
	return rec, nil
}

// BenchmarkHotPath measures the detector's per-event hot loop on the three
// synthetic traces of hotPathTrace, with the cache-line index + MRU
// probe (indexed) and with the reference interval scan (scan,
// Config.DisableIndex). Both modes first replay once and must produce
// byte-identical reports; the indexed sub-benchmarks report their speedup
// over an inline-measured scan baseline as speedup-x.
func BenchmarkHotPath(b *testing.B) {
	for _, kind := range hotPathKinds() {
		rec, err := hotPathTrace(kind, 24)
		if err != nil {
			b.Fatal(err)
		}
		cfgIdx := core.Config{Model: rules.Strict}
		cfgScan := core.Config{Model: rules.Strict, DisableIndex: true}
		replay := func(cfg core.Config) {
			det := core.New(cfg)
			rec.Replay(det)
			det.Report()
		}

		// Sanity: the two paths must agree bug for bug.
		di, ds := core.New(cfgIdx), core.New(cfgScan)
		rec.Replay(di)
		rec.Replay(ds)
		if want, got := ds.Report().Summary(), di.Report().Summary(); want != got {
			b.Fatalf("%s: indexed and scan reports differ:\n--- scan ---\n%s--- indexed ---\n%s",
				kind, want, got)
		}

		baseline := func() time.Duration {
			best := time.Duration(0)
			for i := 0; i < 3; i++ {
				start := time.Now()
				replay(cfgScan)
				if d := time.Since(start); best == 0 || d < best {
					best = d
				}
			}
			return best
		}()

		b.Run(kind+"/scan", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				replay(cfgScan)
			}
			b.ReportMetric(float64(rec.Len()), "events/run")
		})
		b.Run(kind+"/indexed", func(b *testing.B) {
			b.ReportAllocs()
			var elapsed time.Duration
			for i := 0; i < b.N; i++ {
				start := time.Now()
				replay(cfgIdx)
				elapsed += time.Since(start)
			}
			b.ReportMetric(float64(rec.Len()), "events/run")
			b.ReportMetric(float64(baseline)/(float64(elapsed)/float64(b.N)), "speedup-x")
		})
	}
}
