package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// benchFile is BENCHMARK.json at the repository root.
type benchFile struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

const benchPath = "../../BENCHMARK.json"

func readBench(t *testing.T) benchFile {
	t.Helper()
	data, err := os.ReadFile(benchPath)
	if err != nil {
		t.Fatal(err)
	}
	var b benchFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// tinyRun runs one workload at test size for a fraction of a second.
func tinyRun(t *testing.T, workload string, traced, tamper bool) runRecord {
	t.Helper()
	var log bytes.Buffer
	l, err := runWorkload(options{workload: workload, seed: defaultSeed, seconds: 0.2,
		traced: traced, tiny: true, tamper: tamper}, &log)
	if err != nil {
		t.Fatalf("%s: %v\n%s", workload, err, log.String())
	}
	rec := l.record()
	if !tamper && rec.Failed != 0 {
		t.Errorf("%s traced=%v: %d of %d checks failed:\n%s", workload, traced, rec.Failed, rec.Attempted, log.String())
	}
	return rec
}

// TestSmoke runs every workload untraced and traced at test size: every
// metric BENCHMARK.json names is printed with its unit, no check fails, and
// no end-to-end metric reads zero.
func TestSmoke(t *testing.T) {
	b := readBench(t)
	for _, w := range workloadNames() {
		t.Run(w, func(t *testing.T) {
			rec := tinyRun(t, w, false, false)
			if rec.Attempted == 0 || !rec.Correct || rec.FailedFrac != 0 {
				t.Errorf("untraced: attempted %d, correct %v, failed_frac %g", rec.Attempted, rec.Correct, rec.FailedFrac)
			}
			if len(rec.Metrics) != len(b.EndToEnd) {
				t.Errorf("untraced run prints %d metrics, BENCHMARK.json has %d end-to-end", len(rec.Metrics), len(b.EndToEnd))
			}
			for _, m := range b.EndToEnd {
				got, ok := rec.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("end-to-end %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
				}
				if !(got.Value > 0) || math.IsInf(got.Value, 0) {
					t.Errorf("end-to-end %s = %v, want a positive finite value", m.Name, got.Value)
				}
			}

			rec = tinyRun(t, w, true, false)
			if rec.Attempted == 0 || !rec.Correct {
				t.Errorf("traced: attempted %d, correct %v", rec.Attempted, rec.Correct)
			}
			if len(rec.Metrics) != len(b.PerLayer) {
				t.Errorf("traced run prints %d metrics, BENCHMARK.json has %d per-layer", len(rec.Metrics), len(b.PerLayer))
			}
			for _, m := range b.PerLayer {
				got, ok := rec.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("per-layer %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
				}
			}
			for _, name := range []string{"ledger.trace_overhead", "ledger.traced_units"} {
				if v := rec.Metrics[name].Value; !(v > 0) {
					t.Errorf("%s = %v, want > 0", name, v)
				}
			}
		})
	}
}

// TestTamperedReferenceFails corrupts each workload's references after
// set-up: every checked output must then count as failed.
func TestTamperedReferenceFails(t *testing.T) {
	for _, w := range workloadNames() {
		t.Run(w, func(t *testing.T) {
			rec := tinyRun(t, w, false, true)
			if rec.Failed == 0 || rec.Correct || rec.FailedFrac == 0 {
				t.Errorf("tampered references: %d of %d checks failed, correct %v", rec.Failed, rec.Attempted, rec.Correct)
			}
		})
	}
}

// TestBenchmarkJSONMatchesCode pins BENCHMARK.json to the workloads and
// metrics the command defines.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b := readBench(t)
	if !reflect.DeepEqual(b.Paths, []string{"cmd/pmledger"}) {
		t.Errorf("paths %v", b.Paths)
	}
	if len(b.Workloads) != len(workloadDefs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(b.Workloads), len(workloadDefs))
	}
	for i, w := range b.Workloads {
		if w.Name != workloadDefs[i].name || w.Why != workloadDefs[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q %q, code %q %q", i, w.Name, w.Why, workloadDefs[i].name, workloadDefs[i].why)
		}
	}
	check := func(kind string, got []metricDef, want []metricDef) {
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s metrics differ:\n BENCHMARK.json %v\n code           %v", kind, got, want)
		}
	}
	// Set-up time has the widest bound, 25%, so work moved into set-up
	// shows; every other bound is at most 20%.
	var e2e, layer []metricDef
	for _, m := range b.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
		limit := 0.2
		if m.Name == "setup_s" {
			limit = 0.25
		}
		if m.Bound <= 0 || m.Bound > limit {
			t.Errorf("%s bound %v outside (0, %v]", m.Name, m.Bound, limit)
		}
	}
	for _, m := range b.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	check("end-to-end", e2e, endToEnd)
	check("per-layer", layer, perLayer)
}

// TestResultLine checks the shape of the last output line.
func TestResultLine(t *testing.T) {
	l := newLedger(options{workload: "fig8-inline", seed: 3}, io.Discard)
	l.verify("ok", nil)
	l.set("slowdown", 1.5, 7)
	var out bytes.Buffer
	if err := printRecord(&out, l.record()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range last {
		keys = append(keys, k)
	}
	if len(keys) != 4 || last["correct"] == nil || last["attempted"] == nil || last["failed"] == nil || last["metrics"] == nil {
		t.Errorf("last line keys %v, want exactly correct, attempted, failed, metrics", keys)
	}
	if !strings.Contains(out.String(), "slowdown") || !strings.Contains(out.String(), "n=7") {
		t.Errorf("metric missing from the listing:\n%s", out.String())
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(data, n=4) for each input.
	cases := []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{2, 1}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
	}
	for _, c := range cases {
		if got := quartiles(c.in); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestCompare checks the verdicts of -compare on synthetic result sets.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, scale, jitter float64) string {
		var set resultSet
		for i := 0; i < 10; i++ {
			v := scale * (1 + jitter*float64(i%5-2))
			rec := runRecord{Workload: "crash-explore", Attempted: 1, Metrics: map[string]metricValue{}}
			for _, m := range endToEnd {
				rec.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
			}
			set.Runs = append(set.Runs, rec)
		}
		path := filepath.Join(dir, name)
		data, err := json.Marshal(set)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", 1, 0.001)
	cases := []struct {
		name     string
		b        string
		code     int
		contains string
	}{
		{"same", write("same.json", 1.01, 0.001), 0, "ok"},
		{"slower", write("slower.json", 1.5, 0.001), 1, "REGRESSION"},
		{"noisy", write("noisy.json", 1, 0.2), 1, "unresolved"},
	}
	for _, c := range cases {
		var out, errOut bytes.Buffer
		code := runCompare(benchPath, base, c.b, &out, &errOut)
		if code != c.code || !strings.Contains(out.String(), c.contains) {
			t.Errorf("%s: exit %d (want %d), output lacks %q:\n%s%s", c.name, code, c.code, c.contains, out.String(), errOut.String())
		}
	}
}
