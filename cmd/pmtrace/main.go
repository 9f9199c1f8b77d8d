// Command pmtrace records a workload's instrumented instruction stream to a
// trace file, inspects traces, and replays them through a detector. Trace
// files decouple capture from analysis, so the identical stream can be fed
// to several detectors — the same methodology the benchmark harness uses
// internally for fair comparisons.
//
// Replay is streaming end to end: traces are decoded in pooled batches and
// never materialized, so multi-GB captures replay in constant memory. With
// -parallel, strand-model traces are additionally partitioned along strand
// boundaries and replayed on a shard-per-core worker pool; the merged
// report is identical to the sequential one.
//
// Usage:
//
//	pmtrace -record b_tree -n 10000 -o btree.pmtrace
//	pmtrace -info btree.pmtrace
//	pmtrace -replay btree.pmtrace -detector pmdebugger -model epoch
//	pmtrace -replay strand.pmtrace -model strand -parallel -workers 8
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"pmdebugger/internal/baselines"
	"pmdebugger/internal/core"
	"pmdebugger/internal/rules"
	"pmdebugger/internal/trace"
	"pmdebugger/internal/workloads"
)

func main() {
	var (
		record   = flag.String("record", "", "workload to record (a Table 4 benchmark name)")
		n        = flag.Int("n", 10000, "operation count for -record")
		out      = flag.String("o", "trace.pmtrace", "output path for -record")
		info     = flag.String("info", "", "trace file to summarize")
		dump     = flag.String("dump", "", "trace file to print event by event")
		limit    = flag.Int("limit", 50, "maximum events for -dump (0 = all)")
		replay   = flag.String("replay", "", "trace file to replay")
		detector = flag.String("detector", "pmdebugger", "detector for -replay")
		model    = flag.String("model", "strict", "persistency model for -replay: strict, epoch, strand")
		parallel = flag.Bool("parallel", false, "replay strand-model traces on a sharded worker pool (pmdebugger only)")
		workers  = flag.Int("workers", 0, "worker count for -parallel (0 = GOMAXPROCS)")
	)
	flag.Parse()
	if err := run(*record, *n, *out, *info, *dump, *limit, *replay, *detector, *model, *parallel, *workers); err != nil {
		fmt.Fprintln(os.Stderr, "pmtrace:", err)
		os.Exit(1)
	}
}

func run(record string, n int, out, info, dump string, limit int, replay, detector, model string, parallel bool, workers int) error {
	switch {
	case record != "":
		return doRecord(record, n, out)
	case info != "":
		return doInfo(info)
	case dump != "":
		return doDump(dump, limit)
	case replay != "":
		return doReplay(replay, detector, model, parallel, workers)
	default:
		return fmt.Errorf("one of -record, -info, -dump or -replay is required")
	}
}

func doDump(path string, limit int) error {
	file, err := os.Open(path)
	if err != nil {
		return err
	}
	defer file.Close()
	tr, err := trace.NewReader(file)
	if err != nil {
		return err
	}
	defer tr.Close()
	batch := make([]trace.Event, trace.StreamBatchSize)
	printed, skipped := 0, 0
	for {
		n, rerr := tr.ReadBatch(batch)
		for _, ev := range batch[:n] {
			if limit > 0 && printed >= limit {
				skipped++
				continue
			}
			fmt.Println(ev)
			printed++
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return rerr
		}
	}
	if skipped > 0 {
		fmt.Printf("... %d more events\n", skipped)
	}
	return nil
}

func doRecord(name string, n int, out string) error {
	f, err := workloads.Lookup(name)
	if err != nil {
		return err
	}
	app, pm, err := workloads.Build(f, n)
	if err != nil {
		return err
	}
	file, err := os.Create(out)
	if err != nil {
		return err
	}
	defer file.Close()
	// Record straight to disk: the trace writer is itself a streaming batch
	// handler, so the capture never materializes the event stream either.
	tw, err := trace.NewWriter(file)
	if err != nil {
		return err
	}
	var stores, flushes, fences, total uint64
	counter := trace.HandlerFunc(func(ev trace.Event) {
		total++
		switch ev.Kind {
		case trace.KindStore:
			stores++
		case trace.KindFlush:
			flushes++
		case trace.KindFence:
			fences++
		}
	})
	pm.Attach(trace.MultiHandler{tw, counter})
	if err := workloads.RunInserts(app, n, 42); err != nil {
		return err
	}
	if err := app.Close(); err != nil {
		return err
	}
	pm.End()
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Printf("recorded %d events (%d stores, %d writebacks, %d fences) to %s\n",
		total, stores, flushes, fences, out)
	return nil
}

func doInfo(path string) error {
	file, err := os.Open(path)
	if err != nil {
		return err
	}
	defer file.Close()
	counts := map[trace.Kind]int{}
	total, err := trace.StreamTrace(file, trace.HandlerFunc(func(ev trace.Event) {
		counts[ev.Kind]++
	}))
	if err != nil {
		return err
	}
	fmt.Printf("%s: %d events\n", path, total)
	for k := trace.KindStore; k <= trace.KindEnd; k++ {
		if counts[k] > 0 {
			fmt.Printf("  %-14s %d\n", k, counts[k])
		}
	}
	return nil
}

func doReplay(path, detector, modelName string, parallel bool, workers int) error {
	model, err := rules.ParseModel(modelName)
	if err != nil {
		return err
	}
	if parallel {
		if detector != "pmdebugger" {
			return fmt.Errorf("-parallel supports only the pmdebugger detector (got %q)", detector)
		}
		cfg := core.Config{Model: model}
		if !core.Shardable(cfg) {
			fmt.Fprintf(os.Stderr, "pmtrace: model %s replays sequentially (only strand traces partition)\n", model)
		}
		file, err := os.Open(path)
		if err != nil {
			return err
		}
		defer file.Close()
		rep, err := core.ReplayStream(file, cfg, workers)
		if err != nil {
			return err
		}
		fmt.Print(rep.Summary())
		return nil
	}

	var det baselines.Detector
	switch detector {
	case "pmdebugger":
		det = core.New(core.Config{Model: model})
	case "pmemcheck":
		det = baselines.NewPmemcheck()
	case "pmtest":
		det = baselines.NewPMTest(baselines.PMTestConfig{})
	case "xfdetector":
		det = baselines.NewXFDetector(baselines.XFDetectorConfig{})
	case "persistence-inspector":
		det = baselines.NewPersistenceInspector()
	case "nulgrind":
		det = baselines.NewNulgrind()
	default:
		return fmt.Errorf("unknown detector %q", detector)
	}
	file, err := os.Open(path)
	if err != nil {
		return err
	}
	defer file.Close()
	// Stream in pooled batches; detectors with a batch fast path use it.
	if _, err := trace.StreamTrace(file, det); err != nil {
		return err
	}
	fmt.Print(det.Report().Summary())
	return nil
}
