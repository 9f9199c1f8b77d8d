// Command pmdebug runs a PM workload under a chosen detector and prints the
// bug report — the equivalent of `valgrind --tool=pmdebugger ./WORKLOAD`.
//
// Usage:
//
//	pmdebug -workload b_tree -n 10000 -detector pmdebugger
//	pmdebug -workload memcached -n 10000 -buggy -detector pmdebugger
//	pmdebug -workload memcached -n 10000 -threads 4 -async
//	pmdebug -workload memcached -n 10000 -threads 4 -strands -async -shards 4
//	pmdebug -workload redis -n 10000 -detector pmemcheck
//	pmdebug -workload b_tree -n 1000 -orders orders.conf
//
// -async attaches the detector through the asynchronous trace.Pipeline, so
// detection runs off the workload's critical path; reports are
// byte-identical to inline delivery (the pool drains the pipeline at every
// observation point).
//
// -shards N (pmdebugger only, implies -async) fans the pipeline out to N
// per-strand detector shards, each with its own consumer goroutine. The
// configuration must be shardable (strand persistency model, no order
// specs); otherwise pmdebug falls back to the single-consumer pipeline and
// says so on stderr. -strands runs each memcached operation in its own
// strand section, which makes the memcached workload shardable.
//
// -serve ADDR streams the workload's trace to a running pmserved instance
// instead of running a detector in-process: the detector session lives on
// the server, and pmdebug prints the report pulled back over the same
// connection. -drain and -shards then select the server session's drain
// discipline and shard fan-out (-drain exists only for served sessions;
// in-process -async and -shards always drain eagerly):
//
//	pmdebug -workload memcached -n 10000 -strands -serve 127.0.0.1:7487 -shards 4 -drain lazy
//
// The -orders file uses the configuration syntax of §4.5:
//
//	order value before key [in function]
package main

import (
	"flag"
	"fmt"
	"os"

	"pmdebugger/internal/baselines"
	"pmdebugger/internal/core"
	"pmdebugger/internal/memcached"
	"pmdebugger/internal/memslap"
	"pmdebugger/internal/pmem"
	"pmdebugger/internal/redis"
	"pmdebugger/internal/rules"
	"pmdebugger/internal/serve"
	"pmdebugger/internal/trace"
	"pmdebugger/internal/workloads"
)

func main() {
	var (
		workload = flag.String("workload", "b_tree", "workload: one of the Table 4 benchmarks, memcached, or redis")
		n        = flag.Int("n", 10000, "operation count")
		detector = flag.String("detector", "pmdebugger", "detector: pmdebugger, pmemcheck, pmtest, xfdetector, nulgrind")
		buggy    = flag.Bool("buggy", false, "memcached only: run the faithful port with its 19 bugs")
		threads  = flag.Int("threads", 1, "memcached only: client threads")
		ordersF  = flag.String("orders", "", "persist-order configuration file (order X before Y)")
		async    = flag.Bool("async", false, "attach the detector through the asynchronous pipeline")
		shards   = flag.Int("shards", 0, "pmdebugger only: fan detection out across this many per-strand shards (implies -async)")
		strands  = flag.Bool("strands", false, "memcached only: run each operation in its own strand section (strand model)")
		serveA   = flag.String("serve", "", "stream the trace to a pmserved instance at this address instead of detecting in-process")
		tenant   = flag.String("tenant", "pmdebug", "with -serve: tenant name for the server's per-tenant metrics")
		drain    = flag.String("drain", "", "with -serve: session drain discipline, eager or lazy")
	)
	flag.Parse()
	if err := run(runOpts{
		workload: *workload, n: *n, detector: *detector, buggy: *buggy,
		threads: *threads, ordersFile: *ordersF, async: *async,
		shards: *shards, strands: *strands,
		serveAddr: *serveA, tenant: *tenant, drain: *drain,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "pmdebug:", err)
		os.Exit(1)
	}
}

type runOpts struct {
	workload   string
	n          int
	detector   string
	buggy      bool
	threads    int
	ordersFile string
	async      bool
	shards     int
	strands    bool
	serveAddr  string
	tenant     string
	drain      string
}

func run(o runOpts) error {
	var orders []rules.OrderSpec
	if o.ordersFile != "" {
		f, err := os.Open(o.ordersFile)
		if err != nil {
			return err
		}
		defer f.Close()
		orders, err = rules.ParseOrderConfig(f)
		if err != nil {
			return err
		}
	}
	if o.shards > 1 {
		if o.detector != "pmdebugger" {
			return fmt.Errorf("-shards requires -detector pmdebugger (got %q)", o.detector)
		}
		if o.serveAddr == "" {
			o.async = true
		}
	}
	if o.serveAddr != "" {
		if o.detector != "pmdebugger" {
			return fmt.Errorf("-serve streams to the pmdebugger service; it cannot run -detector %q", o.detector)
		}
		if o.ordersFile != "" {
			return fmt.Errorf("-orders is not supported with -serve (order specs are not part of the session handshake)")
		}
		if o.async {
			return fmt.Errorf("-async is meaningless with -serve (the server pipelines per session); drop it")
		}
	} else if o.drain != "" {
		return fmt.Errorf("-drain selects a served session's drain discipline; it needs -serve (in-process -async always drains eagerly)")
	}

	// sess is the remote detector session when -serve is set; build then
	// returns a nil local detector and attach wires the session instead.
	var sess *serve.Session

	build := func(model rules.Model) (baselines.Detector, error) {
		if o.serveAddr != "" {
			s, err := serve.Dial(o.serveAddr, serve.Options{
				Tenant: o.tenant, Model: model, Drain: o.drain, Shards: o.shards,
			})
			if err != nil {
				return nil, err
			}
			sess = s
			return nil, nil
		}
		switch o.detector {
		case "pmdebugger":
			cfg := core.Config{Model: model, Orders: orders}
			if o.shards > 1 {
				sd := core.NewSharded(cfg, o.shards)
				if sd.Fallback() {
					// Never silently benchmark the wrong mode: the fallback
					// is functionally identical but has single-consumer
					// performance.
					fmt.Fprintf(os.Stderr,
						"pmdebug: -shards %d fell back to a single-consumer pipeline: %s\n",
						o.shards, sd.FallbackReason())
				}
				return sd, nil
			}
			return core.New(cfg), nil
		case "pmemcheck":
			return baselines.NewPmemcheck(), nil
		case "pmtest":
			return baselines.NewPMTest(baselines.PMTestConfig{Orders: orders}), nil
		case "xfdetector":
			return baselines.NewXFDetector(baselines.XFDetectorConfig{Orders: orders}), nil
		case "nulgrind":
			return baselines.NewNulgrind(), nil
		default:
			return nil, fmt.Errorf("unknown detector %q", o.detector)
		}
	}

	// Size pools to the requested operation count, capped at the paper's
	// 256 MiB real-workload pools.
	poolSize := uint64(o.n)*1024 + (8 << 20)
	if poolSize > 256<<20 {
		poolSize = 256 << 20
	}

	var (
		model rules.Model
		pm    *pmem.Pool
		work  func() error
	)
	switch o.workload {
	case "memcached":
		cache, err := memcached.New(memcached.Config{
			PoolSize: poolSize, HashBuckets: 1 << 16, UseCAS: true, Bugs: o.buggy,
			Strands: o.strands,
		})
		if err != nil {
			return err
		}
		model, pm = cache.Model(), cache.PM()
		work = func() error {
			if o.buggy {
				if err := memslap.ExerciseAll(cache); err != nil {
					return err
				}
			}
			return memslap.Run(cache, memslap.Config{Ops: o.n, Threads: o.threads, Seed: 42})
		}

	case "redis":
		srv, err := redis.New(redis.Config{PoolSize: poolSize, MaxKeys: o.n / 2, Seed: 42})
		if err != nil {
			return err
		}
		model, pm = srv.Model(), srv.PM()
		work = func() error { return srv.RunLRUTest(o.n, 42) }

	default:
		f, err := workloads.Lookup(o.workload)
		if err != nil {
			return err
		}
		app, p, err := workloads.Build(f, o.n)
		if err != nil {
			return err
		}
		model, pm = f.Model, p
		work = func() error {
			if err := workloads.RunInserts(app, o.n, 42); err != nil {
				return err
			}
			return app.Close()
		}
	}

	det, err := build(model)
	if err != nil {
		return err
	}
	if sess == nil {
		return detect(o, pm, det, work)
	}
	pm.Attach(sess)
	if err := work(); err != nil {
		return err
	}
	pm.End()
	sum, err := sess.Report()
	fmt.Print(sum)
	fmt.Printf("delivery: served by %s (session %s)\n", o.serveAddr, sess.ID())
	if err != nil {
		return err
	}
	printPoolStats(pm)
	return nil
}

// detect attaches det to pm as o selects (inline, through the pipeline, or
// sharded), runs work, ends the pool and prints the report. It fails,
// printing no report, when a detector or one of its shard engines panicked
// on a pipeline consumer goroutine: the pipeline dropped every later event
// of that ring, so the report would be truncated.
func detect(o runOpts, pm *pmem.Pool, det baselines.Detector, work func() error) error {
	var pipe *trace.Pipeline
	switch {
	case o.shards > 1:
		pipe = pm.AttachWith(det, pmem.AttachOptions{Async: true, Shards: o.shards})
	case o.async:
		pipe = pm.AttachAsync(det)
	default:
		pm.Attach(det)
	}
	if err := work(); err != nil {
		return err
	}
	pm.End()
	if pipe != nil {
		if err := pipe.Err(); err != nil {
			return err
		}
	}

	fmt.Print(det.Report().Summary())
	if sd, ok := det.(*core.ShardedDetector); ok {
		if sd.Fallback() {
			fmt.Printf("delivery: sharded attach FELL BACK to a single consumer (%s)\n",
				sd.FallbackReason())
		} else {
			fmt.Printf("delivery: sharded across %d detector shards\n", sd.Shards())
		}
	}
	printPoolStats(pm)
	return nil
}

func printPoolStats(pm *pmem.Pool) {
	st := pm.Stats()
	fmt.Printf("pool: %d stores (%d bytes), %d writebacks, %d fences, %d lines committed\n",
		st.Stores, st.BytesStored, st.Flushes, st.Fences, st.LinesCommitted)
}
