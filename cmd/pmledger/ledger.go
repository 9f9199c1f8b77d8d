package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

const (
	// defaultSeed is the seed whose reference digests are committed in
	// testdata/digests.json.
	defaultSeed = 1
	// A run builds its workload at least minSetupReps times, and keeps
	// rebuilding until setupBudget has passed (at most maxSetupReps times):
	// setup_s is the median of the repetitions, the last one is measured.
	// The first set-up of a process grows the heap and can read half again
	// as long as the rest, and single set-ups of a second moved by half on
	// a shared machine; five keep the median off both.
	minSetupReps = 5
	maxSetupReps = 50
	setupBudget  = 2 * time.Second
	// minRounds keeps at least this many rounds in a run however short its
	// measured phase, so every median has more than one sample behind it.
	minRounds = 2
	// procs is the GOMAXPROCS of a run. On a shared machine a tenant busy
	// on one CPU moved the two-P slowdowns of memcached-async and
	// crash-explore by about 65%, because their detected side runs on two
	// CPUs and their native side on one; on one P the same slowdowns moved
	// by under 1%. Shard consumers, checker workers and segments still run
	// as goroutines, interleaved, so their handoff and coordination costs
	// are measured, but no workload can see a gain or loss in parallel
	// scaling.
	procs = 1
)

// options selects one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	// tiny shrinks every job so tests can run each workload in well under
	// a second; its references have their own committed digests.
	tiny bool
	// tamper corrupts the references after set-up, so every check must fail.
	tamper bool
}

// workload is one named input set of the benchmark.
type workload interface {
	// setup derives the inputs from the seed and computes the references
	// every output is checked against.
	setup(l *ledger) error
	// tamper corrupts the references (negative tests).
	tamper()
	// measure runs timed jobs until the deadline and records metrics.
	measure(l *ledger, until time.Time) error
	// close stops whatever setup started.
	close()
}

type workloadDef struct {
	name, why string
	build     func(o options) workload
}

// workloadDefs lists the workloads; the names and reasons are the ones
// BENCHMARK.json carries.
var workloadDefs = []workloadDef{
	{"fig8-inline", "paper Fig. 8 set plus memcached and redis with the detector inline: app, pmem emission and core; bypasses pipeline, codec, serve and crashtest", newFig8},
	{"memcached-async", "strand memcached with 2-shard eager async detection on one P: pipeline handoff, sharded core and report merge, blind to parallel scaling; bypasses codec, serve and crashtest", newAsync},
	{"crash-explore", "record-once crash exploration of 5 scenarios against exhaustive re-execution, on one P: journal replay, COW images, fingerprints, checkers, no parallel scaling; bypasses core, pipeline, serve", newCrash},
	{"serve-open", "open-loop Poisson sessions to an in-process detection server at a quarter load, against in-process detection: codec, socket, single-consumer pipeline and core; pmem only in setup", newServe},
}

func lookupWorkload(name string) (workloadDef, bool) {
	for _, d := range workloadDefs {
		if d.name == name {
			return d, true
		}
	}
	return workloadDef{}, false
}

func workloadNames() []string {
	names := make([]string, len(workloadDefs))
	for i, d := range workloadDefs {
		names[i] = d.name
	}
	return names
}

// metricDef names one metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the detector sees, with regression
// bounds. Each workload defines them for its own unit of work (README.md
// has the table); none is ever zero on a correct run. Apart from setup_s
// they are ratios of jobs interleaved within one run, because the absolute
// speed of a shared machine drifts between runs by more than any useful
// bound; the absolute times and tails are the unbounded total.* metrics.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"slowdown", "x"},
	{"rss_peak_mb", "MiB"},
}

// fig8Names are the Fig. 8 benchmarks in figure order.
var fig8Names = []string{"b_tree", "c_tree", "r_tree", "rb_tree", "hashmap_tx",
	"hashmap_atomic", "synth_strand", "memcached", "redis"}

// perLayer are the metrics of single layers, printed by traced runs. A
// workload that bypasses a layer reports zero for it.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"total.verdict_s", "s"},
		{"total.tail_s", "s"},
		{"total.events_per_s", "ev/s"},
		{"app.native_s", "s"},
		{"app.live_s", "s"},
		{"app.self_s", "s"},
	}
	for _, name := range fig8Names {
		defs = append(defs, metricDef{"workloads.slowdown." + name, "x"})
	}
	return append(defs, []metricDef{
		{"pmem.emit_s", "s"},
		{"pmem.events", "count"},
		{"pmem.stores", "count"},
		{"pmem.flushes", "count"},
		{"pmem.fences", "count"},
		{"pmem.bytes_stored", "B"},
		{"pmem.sharded_fallbacks", "count"},

		{"trace.stage_s", "s"},
		{"trace.drain_s", "s"},
		{"trace.encode_ns_per_event", "ns/ev"},
		{"trace.decode_ns_per_event", "ns/ev"},
		{"trace.self_s", "s"},

		{"core.busy_s", "s"},
		{"core.ns_per_event", "ns/ev"},
		{"core.shard_skew", "ratio"},
		{"core.shards", "count"},
		{"core.tree_reorgs", "count"},
		{"core.avg_tree_nodes", "count"},
		{"core.bugs", "count"},
		{"core.index_hit_ratio", "ratio"},
		{"core.array_spill_ratio", "ratio"},
		{"core.offline_ns_per_event", "ns/ev"},
		{"core.self_s", "s"},

		{"report.build_s", "s"},
		{"report.merge_s", "s"},
		{"report.render_s", "s"},
		{"report.self_s", "s"},

		{"crashtest.serial_s", "s"},
		{"crashtest.record_s", "s"},
		{"crashtest.replay_s", "s"},
		{"crashtest.snapshot_s", "s"},
		{"crashtest.fingerprint_s", "s"},
		{"crashtest.check_s", "s"},
		{"crashtest.concurrency", "ratio"},
		{"crashtest.points", "count"},
		{"crashtest.images", "count"},
		{"crashtest.pruned", "count"},
		{"crashtest.dedup", "count"},
		{"crashtest.failures", "count"},
		{"crashtest.images_per_point", "ratio"},
		{"crashtest.self_s", "s"},
		{"checker.calls", "count"},
		{"checker.p50_s", "s"},

		{"serve.handshake_p50_s", "s"},
		{"serve.stream_p50_s", "s"},
		{"serve.report_wait_p50_s", "s"},
		{"serve.report_wait_p99_s", "s"},
		{"serve.inprocess_p50_s", "s"},
		{"serve.queue_p99_s", "s"},
		{"serve.backpressure_s", "s"},
		{"serve.decode_errors", "count"},
		{"serve.handler_panics", "count"},
		{"serve.events_total", "count"},
		{"serve.sessions", "count"},
		{"serve.self_s", "s"},

		{"runtime.alloc_mb_per_job", "MiB"},
		{"runtime.gc_cycles_per_job", "count"},
		{"runtime.gc_pause_s", "s"},

		{"loadgen.late_p99_s", "s"},
		{"loadgen.backlog_max", "count"},
		{"loadgen.offered_per_s", "1/s"},
		{"loadgen.self_s", "s"},

		{"ledger.trace_overhead", "x"},
		{"ledger.traced_units", "count"},
	}...)
}()

// ledger accumulates one run: checks, metric values and sample counts.
type ledger struct {
	opts      options
	attempted int
	failed    int
	// jobs counts timed jobs of every kind (native, detected, sessions,
	// explorations), the denominator of the runtime.* metrics.
	jobs    int
	values  map[string]float64
	samples map[string]int
	tr      *tracer // nil unless traced
	log     io.Writer
}

func newLedger(o options, log io.Writer) *ledger {
	l := &ledger{opts: o, values: map[string]float64{}, samples: map[string]int{}, log: log}
	if o.traced {
		l.tr = newTracer()
	}
	return l
}

// verify counts one checked output and reports whether it matched its
// reference. Failures are printed, never dropped silently.
func (l *ledger) verify(what string, err error) bool {
	l.attempted++
	if err != nil {
		l.failed++
		fmt.Fprintf(l.log, "pmledger: check failed: %s: %v\n", what, err)
		return false
	}
	return true
}

// set records a metric value and the number of samples behind it.
func (l *ledger) set(name string, v float64, samples int) {
	l.values[name] = v
	l.samples[name] = samples
}

// sameText returns nil when got equals want and otherwise an error naming
// the first differing line.
func sameText(got, want string) error {
	if got == want {
		return nil
	}
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Errorf("line %d: got %q, reference %q", i+1, gl, wl)
		}
	}
	return fmt.Errorf("outputs differ")
}

//go:embed testdata/digests.json
var digestsJSON []byte

// checkDigest compares the references of the default seed with the digest
// committed for this workload and size.
func (l *ledger) checkDigest(refs []string) {
	if l.opts.seed != defaultSeed {
		return
	}
	key := l.opts.workload
	if l.opts.tiny {
		key += "/tiny"
	}
	var want map[string]string
	if err := json.Unmarshal(digestsJSON, &want); err != nil {
		l.verify("reference digest", fmt.Errorf("testdata/digests.json: %w", err))
		return
	}
	h := sha256.Sum256([]byte(strings.Join(refs, "\x00")))
	got := hex.EncodeToString(h[:])
	var err error
	if got != want[key] {
		err = fmt.Errorf("references of seed %d hash to %s, testdata/digests.json has %q for %s",
			defaultSeed, got, want[key], key)
	}
	l.verify("reference digest "+key, err)
}

// runWorkload sets the workload up several times, then measures it for the
// configured number of seconds.
func runWorkload(o options, log io.Writer) (*ledger, error) {
	def, ok := lookupWorkload(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	l := newLedger(o, log)
	var w workload
	var setups []float64
	var spent time.Duration
	for len(setups) < minSetupReps || spent < setupBudget && len(setups) < maxSetupReps {
		if w != nil {
			w.close()
		}
		w = def.build(o)
		runtime.GC()
		start := time.Now()
		if err := w.setup(l); err != nil {
			w.close()
			return nil, fmt.Errorf("%s setup: %w", o.workload, err)
		}
		d := time.Since(start)
		spent += d
		setups = append(setups, d.Seconds())
	}
	defer w.close()
	l.set("setup_s", median(setups), len(setups))
	if o.tamper {
		w.tamper()
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	until := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	if err := w.measure(l, until); err != nil {
		return nil, fmt.Errorf("%s: %w", o.workload, err)
	}
	runtime.ReadMemStats(&after)
	if l.jobs > 0 {
		jobs := float64(l.jobs)
		l.set("runtime.alloc_mb_per_job", float64(after.TotalAlloc-before.TotalAlloc)/(1<<20)/jobs, l.jobs)
		gcs := (after.NumGC - before.NumGC) - (after.NumForcedGC - before.NumForcedGC)
		l.set("runtime.gc_cycles_per_job", float64(gcs)/jobs, l.jobs)
		l.set("runtime.gc_pause_s", float64(after.PauseTotalNs-before.PauseTotalNs)/1e9/jobs, l.jobs)
	}
	l.set("rss_peak_mb", peakRSSMiB(), 1)
	if l.tr != nil {
		l.tr.summarize(l)
	}
	return l, nil
}

// peakRSSMiB is the process's peak resident set size (ru_maxrss, the
// kernel's VmHWM), in MiB.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runRecord is what one run prints on its last line (the first four
// fields) and appends to a result set with -out (all of them).
type runRecord struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	Workload   string         `json:"workload,omitempty"`
	Seed       int64          `json:"seed,omitempty"`
	Seconds    float64        `json:"seconds,omitempty"`
	Traced     bool           `json:"traced,omitempty"`
	FailedFrac float64        `json:"failed_frac"`
	NumCPU     int            `json:"num_cpu,omitempty"`
	GOMAXPROCS int            `json:"gomaxprocs,omitempty"`
	GoVersion  string         `json:"go_version,omitempty"`
	Samples    map[string]int `json:"samples,omitempty"`
}

// record assembles the run's result: the end-to-end metrics of an untraced
// run, the per-layer metrics of a traced one.
func (l *ledger) record() runRecord {
	defs := endToEnd
	if l.opts.traced {
		defs = perLayer
	}
	rec := runRecord{
		Correct:    l.failed == 0 && l.attempted > 0,
		Attempted:  l.attempted,
		Failed:     l.failed,
		Metrics:    map[string]metricValue{},
		Workload:   l.opts.workload,
		Seed:       l.opts.seed,
		Seconds:    l.opts.seconds,
		Traced:     l.opts.traced,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: procs,
		GoVersion:  runtime.Version(),
		Samples:    map[string]int{},
	}
	if l.attempted > 0 {
		rec.FailedFrac = float64(l.failed) / float64(l.attempted)
	}
	for _, d := range defs {
		v := l.values[d.name]
		switch {
		case math.IsNaN(v):
			v = 0
		case math.IsInf(v, 1): // a failed session's latency; JSON has no infinity
			v = math.MaxFloat64
		}
		rec.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		if n, ok := l.samples[d.name]; ok {
			rec.Samples[d.name] = n
		}
	}
	return rec
}

// printRecord writes every metric with its name, unit and sample count, and
// then the result object as the last line.
func printRecord(w io.Writer, rec runRecord) error {
	fmt.Fprintf(w, "# pmledger workload=%s seed=%d seconds=%g traced=%v cpus=%d gomaxprocs=%d go=%s\n",
		rec.Workload, rec.Seed, rec.Seconds, rec.Traced, rec.NumCPU, rec.GOMAXPROCS, rec.GoVersion)
	names := make([]string, 0, len(rec.Metrics))
	for name := range rec.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := rec.Metrics[name]
		fmt.Fprintf(w, "%-34s %16.6g %-6s n=%d\n", name, m.Value, m.Unit, rec.Samples[name])
	}
	fmt.Fprintf(w, "# checks: %d attempted, %d failed (failed_frac %g)\n", rec.Attempted, rec.Failed, rec.FailedFrac)
	last, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", last)
	return err
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// geomean returns the geometric mean of positive values (0 when empty).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	logs := 0.0
	for _, x := range xs {
		logs += math.Log(x)
	}
	return math.Exp(logs / float64(len(xs)))
}

// subSeed derives an independent generator seed for input i from the run
// seed (splitmix64), so every generator changes with -seed.
func subSeed(seed int64, i int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}
