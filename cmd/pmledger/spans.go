package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public function it calls. A root span (Parent 0) is one unit of
// work: a detected job, an exploration or a session. Async spans ran
// concurrently with their parent (shard consumers, checker workers) and
// are off the unit's critical path.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Job    int64  `json:"job"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Async  bool   `json:"async,omitempty"`
	// Calls and CallNs sum per-event calls made during the span (inline
	// HandleEvent) instead of recording a span per event; CallLayer names
	// the layer they belong to.
	Calls     int64  `json:"calls,omitempty"`
	CallNs    int64  `json:"call_ns,omitempty"`
	CallLayer string `json:"call_layer,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// selfLayers are the layers whose critical-path self time a traced run
// reports as <layer>.self_s.
var selfLayers = []string{"app", "trace", "core", "report", "crashtest", "serve", "loadgen"}

// layerOf maps a span name to its layer: the part before the first dot,
// with the recovery checker counted in crashtest.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	if layer == "checker" {
		return "crashtest"
	}
	return layer
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0   time.Time
	ids  atomic.Int64
	mu   sync.Mutex
	all  []span
	unit int // traced units of work (for per-unit means)
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) newID() int64 { return t.ids.Add(1) }

// add records a finished span; safe for concurrent use.
func (t *tracer) add(s span) {
	t.mu.Lock()
	t.all = append(t.all, s)
	t.mu.Unlock()
}

// at converts a timestamp to nanoseconds since the tracer started.
func (t *tracer) at(ts time.Time) int64 { return ts.Sub(t.t0).Nanoseconds() }

// child records a synchronous child span and returns its id.
func (t *tracer) child(job, parent int64, name string, start, end time.Time) int64 {
	id := t.newID()
	t.add(span{ID: id, Parent: parent, Job: job, Name: name, Start: t.at(start), End: t.at(end)})
	return id
}

// units adds n traced units of work.
func (t *tracer) units(n int) {
	t.mu.Lock()
	t.unit += n
	t.mu.Unlock()
}

// summarize turns the spans into the critical-path self time of each layer
// per traced unit. A span's self time is its duration minus its synchronous
// children and its summed per-event calls. The phases of a unit share their
// boundary timestamps, so the layer self times add up to the units' time.
func (t *tracer) summarize(l *ledger) {
	t.mu.Lock()
	defer t.mu.Unlock()
	childTime := map[int64]int64{}
	for _, s := range t.all {
		if s.Parent != 0 && !s.Async {
			childTime[s.Parent] += s.dur()
		}
	}
	self := map[string]int64{}
	for _, s := range t.all {
		if s.Async || s.Parent == 0 {
			continue
		}
		self[layerOf(s.Name)] += s.dur() - childTime[s.ID] - s.CallNs
		if s.CallNs > 0 {
			self[s.CallLayer] += s.CallNs
		}
	}
	l.set("ledger.traced_units", float64(t.unit), t.unit)
	if t.unit == 0 {
		return
	}
	for _, layer := range selfLayers {
		l.set(layer+".self_s", float64(self[layer])/1e9/float64(t.unit), t.unit)
	}
}

// write stores the spans as a JSON array.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.all)
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
