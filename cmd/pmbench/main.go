// Command pmbench regenerates the paper's performance tables and figures as
// text tables.
//
// Usage:
//
//	pmbench -experiment table1        # qualitative comparison with existing work
//	pmbench -experiment fig8          # slowdowns, micro-benchmarks + real workloads
//	pmbench -experiment table5        # speedups over pmemcheck
//	pmbench -experiment sota          # §7.2 XFDetector / PMTest comparison
//	pmbench -experiment fig10         # memcached thread scalability
//	pmbench -experiment fig11         # average AVL tree nodes per fence interval
//	pmbench -experiment reorg         # §7.5 tree reorganization counts
//	pmbench -experiment all
//
// -n, -memops and -rediskeys size the workloads and -repeats sets the runs
// per measurement; absolute numbers depend on the host, the paper's shape
// does not.
//
// The repository's own engines are measured elsewhere: end to end by the
// pmledger benchmark (cmd/pmledger: crash-space exploration, asynchronous
// and served detection) and per component by go test benchmarks
// (BenchmarkHotPath, BenchmarkParallelReplay, BenchmarkDelivery,
// BenchmarkDispatcher, BenchmarkCrashSnapshot).
package main

import (
	"flag"
	"fmt"
	"os"

	"pmdebugger/internal/harness"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "table1, fig8, table5, sota, fig10, fig11, reorg, or all")
		inserts    = flag.Int("n", 10000, "micro-benchmark insert count (paper: 1K/10K/100K)")
		memOps     = flag.Int("memops", 10000, "memcached operation count (paper: 10K-100K)")
		redisKeys  = flag.Int("rediskeys", 10000, "redis LRU-test key count")
		repeats    = flag.Int("repeats", 3, "runs per (benchmark, tool); the minimum time is kept")
	)
	flag.Parse()
	harness.Repeats = *repeats
	if err := run(*experiment, *inserts, *memOps, *redisKeys); err != nil {
		fmt.Fprintln(os.Stderr, "pmbench:", err)
		os.Exit(1)
	}
}

func run(experiment string, inserts, memOps, redisKeys int) error {
	switch experiment {
	case "table1":
		return table1()
	case "fig8":
		return fig8(inserts, memOps, redisKeys)
	case "table5":
		return table5(inserts, memOps, redisKeys)
	case "sota":
		return sota(inserts, memOps)
	case "fig10":
		return fig10(memOps)
	case "fig11":
		return fig11(inserts, memOps, redisKeys)
	case "reorg":
		return reorg(inserts)
	case "all":
		for _, fn := range []func() error{
			table1,
			func() error { return fig8(inserts, memOps, redisKeys) },
			func() error { return table5(inserts, memOps, redisKeys) },
			func() error { return sota(inserts, memOps) },
			func() error { return fig10(memOps) },
			func() error { return fig11(inserts, memOps, redisKeys) },
			func() error { return reorg(inserts) },
		} {
			if err := fn(); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("unknown experiment %q", experiment)
	}
}

// table1 prints the qualitative comparison of Table 1. Every row is backed
// by an implementation in internal/baselines (plus internal/core), so the
// quantitative columns are demonstrated by the other experiments.
func table1() error {
	fmt.Println("=== Table 1: comparison between existing work and PMDebugger ===")
	fmt.Printf("%-22s %-10s %-9s %-8s %-8s %s\n",
		"", "perf.ovh.", "coverage", "target", "effort", "relaxed models?")
	rows := [][6]string{
		{"pmtest", "small", "low", "any", "high", "no"},
		{"pmemcheck", "high", "medium", "PMDK", "low", "no"},
		{"persistence-inspector", "high", "medium", "PMDK", "low", "no"},
		{"yat", "high", "medium", "PMFS", "low", "no  (not implemented: PMFS-specific)"},
		{"xfdetector", "high", "medium", "any", "low", "no"},
		{"pmdebugger", "small", "high", "any", "low", "yes"},
	}
	for _, r := range rows {
		fmt.Printf("%-22s %-10s %-9s %-8s %-8s %s\n", r[0], r[1], r[2], r[3], r[4], r[5])
	}
	return nil
}

// allRows measures every benchmark under the given tools.
func allRows(inserts, memOps, redisKeys int, tools []harness.Tool) ([]harness.Row, error) {
	var rows []harness.Row
	for _, name := range harness.MicroBenchNames() {
		row, err := harness.MeasureMicro(name, inserts, tools)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	mem, err := harness.MeasureMemcached(memOps, 1, tools)
	if err != nil {
		return nil, err
	}
	rows = append(rows, mem)
	rd, err := harness.MeasureRedis(redisKeys, tools)
	if err != nil {
		return nil, err
	}
	rows = append(rows, rd)
	return rows, nil
}

func fig8(inserts, memOps, redisKeys int) error {
	fmt.Println("=== Figure 8: slowdown over native (Nulgrind / PMDebugger / Pmemcheck) ===")
	// The paper sweeps 1K/10K/100K inserts; sweep around the configured n.
	for _, scale := range []int{inserts / 10, inserts, inserts * 10} {
		if scale < 100 {
			continue
		}
		fmt.Printf("\n--- %d operations ---\n", scale)
		rows, err := allRows(scale, scale, scale, harness.Fig8Tools())
		if err != nil {
			return err
		}
		fmt.Print(harness.FormatSlowdownTable(rows, harness.Fig8Tools()))
	}
	return nil
}

func table5(inserts, memOps, redisKeys int) error {
	fmt.Println("\n=== Table 5: PMDebugger speedup over Pmemcheck ===")
	rows, err := allRows(inserts, memOps, redisKeys, harness.Fig8Tools())
	if err != nil {
		return err
	}
	fmt.Print(harness.FormatTable5(rows))
	return nil
}

func sota(inserts, memOps int) error {
	fmt.Println("\n=== §7.2: comparison with XFDetector and PMTest (slowdown over native) ===")
	tools := harness.AllTools()
	var rows []harness.Row
	for _, name := range harness.MicroBenchNames() {
		if name == "r_tree" {
			continue // the paper excludes r_tree from this comparison
		}
		row, err := harness.MeasureMicro(name, inserts, tools)
		if err != nil {
			return err
		}
		rows = append(rows, row)
	}
	mem, err := harness.MeasureMemcached(memOps, 1, tools)
	if err != nil {
		return err
	}
	rows = append(rows, mem)
	fmt.Print(harness.FormatSlowdownTable(rows, tools))
	return nil
}

func fig10(memOps int) error {
	fmt.Println("\n=== Figure 10: memcached slowdown vs thread count ===")
	fmt.Printf("%-8s %12s %12s\n", "threads", "pmdebugger", "pmemcheck")
	for _, threads := range []int{1, 2, 4, 6} {
		row, err := harness.MeasureMemcached(memOps, threads,
			[]harness.Tool{harness.PMDebugger, harness.Pmemcheck})
		if err != nil {
			return err
		}
		fmt.Printf("%-8d %11.2fx %11.2fx\n", threads,
			row.Slowdown(harness.PMDebugger), row.Slowdown(harness.Pmemcheck))
	}
	return nil
}

func fig11(inserts, memOps, redisKeys int) error {
	fmt.Println("\n=== Figure 11: average AVL tree nodes per fence interval ===")
	rows, err := allRows(inserts, memOps, redisKeys,
		[]harness.Tool{harness.PMDebugger, harness.Pmemcheck})
	if err != nil {
		return err
	}
	fmt.Print(harness.FormatFig11(rows))
	return nil
}

func reorg(inserts int) error {
	fmt.Println("\n=== §7.5: tree reorganization counts ===")
	var rows []harness.Row
	for _, name := range harness.MicroBenchNames() {
		row, err := harness.MeasureMicro(name, inserts,
			[]harness.Tool{harness.PMDebugger, harness.Pmemcheck})
		if err != nil {
			return err
		}
		rows = append(rows, row)
	}
	fmt.Print(harness.FormatReorgs(rows))
	return nil
}
