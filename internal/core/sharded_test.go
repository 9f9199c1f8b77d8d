package core

import (
	"strings"
	"testing"

	"pmdebugger/internal/pmem"
	"pmdebugger/internal/report"
	"pmdebugger/internal/rules"
	"pmdebugger/internal/trace"
)

func TestShardable(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want bool
	}{
		{"strand-default", Config{Model: rules.Strand}, true},
		{"strict", Config{Model: rules.Strict}, false},
		{"epoch", Config{Model: rules.Epoch}, false},
		{"strand-orders", Config{Model: rules.Strand,
			Orders: []rules.OrderSpec{{Before: "a", After: "b"}}}, false},
		{"strand-cross", Config{Model: rules.Strand,
			CrossFailureCheck: func() error { return nil }}, false},
		{"strand-epoch-rules", Config{Model: rules.Strand,
			Rules: rules.Default(rules.Strand) | rules.RuleRedundantLogging}, false},
	}
	for _, c := range cases {
		if got := Shardable(c.cfg); got != c.want {
			t.Errorf("%s: Shardable = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestShardedDetectorMatchesSequential routes the strand trace through a
// ShardedDetector inline (both per-event and batched) and requires the
// merged report to be identical to one sequential engine's.
func TestShardedDetectorMatchesSequential(t *testing.T) {
	rec := recordStrandTrace(t, 100)
	cfg := Config{Model: rules.Strand}
	seq := sequentialReport(rec.Events, cfg)
	if !seq.Has(report.NoDurability) || !seq.Has(report.RedundantFlush) {
		t.Fatalf("test trace should plant bugs, got:\n%s", seq.Summary())
	}
	for _, shards := range []int{2, 3, 4, 7} {
		sd := NewSharded(cfg, shards)
		if sd.Fallback() {
			t.Fatalf("shards=%d: unexpected fallback: %s", shards, sd.FallbackReason())
		}
		if sd.Shards() != shards {
			t.Fatalf("Shards() = %d, want %d", sd.Shards(), shards)
		}
		for _, ev := range rec.Events {
			sd.HandleEvent(ev)
		}
		assertSameReport(t, seq, sd.Report(), "sharded-events")

		sd = NewSharded(cfg, shards)
		sd.HandleBatch(rec.Events)
		assertSameReport(t, seq, sd.Report(), "sharded-batch")
	}
}

// TestShardedDetectorViaShardedPipeline is the live-delivery differential:
// the same trace pushed through a routed trace.Pipeline into the detector's
// ShardHandlers — per-shard consumer goroutines and all — must still merge
// to the byte-identical sequential report.
func TestShardedDetectorViaShardedPipeline(t *testing.T) {
	rec := recordStrandTrace(t, 100)
	cfg := Config{Model: rules.Strand}
	seq := sequentialReport(rec.Events, cfg)
	for _, lazy := range []bool{false, true} {
		sd := NewSharded(cfg, 4)
		sp := trace.NewPipeline(sd, trace.PipelineOptions{Lazy: lazy, Shards: sd.ShardHandlers()})
		sp.HandleBatch(rec.Events)
		sp.Close()
		if err := sp.Err(); err != nil {
			t.Fatalf("lazy=%v: pipeline error: %v", lazy, err)
		}
		assertSameReport(t, seq, sd.Report(), "sharded-pipeline")
	}
}

// TestShardedFallback checks every decline reason, and that the fallback
// detector still produces the exact sequential report (pass-through mode).
func TestShardedFallback(t *testing.T) {
	rec := recordStrandTrace(t, 24)
	cases := []struct {
		name   string
		cfg    Config
		shards int
		reason string
	}{
		{"too-few-shards", Config{Model: rules.Strand}, 1, "fewer than 2"},
		{"strict", Config{Model: rules.Strict}, 4, "not parallelizable"},
		{"epoch-rules", Config{Model: rules.Strand,
			Rules: rules.Default(rules.Strand) | rules.RuleLackDurabilityInEpoch}, 4, "epoch-scoped"},
	}
	for _, c := range cases {
		sd := NewSharded(c.cfg, c.shards)
		if !sd.Fallback() {
			t.Fatalf("%s: expected fallback", c.name)
		}
		if !strings.Contains(sd.FallbackReason(), c.reason) {
			t.Fatalf("%s: reason %q does not mention %q", c.name, sd.FallbackReason(), c.reason)
		}
		if sd.Shards() != 1 {
			t.Fatalf("%s: fallback should run 1 engine, has %d", c.name, sd.Shards())
		}
		if sd.ShardHandlers() != nil {
			t.Fatalf("%s: fallback ShardHandlers should be nil", c.name)
		}
		sd.HandleBatch(rec.Events)
		assertSameReport(t, sequentialReport(rec.Events, c.cfg), sd.Report(), c.name)
	}
}

// TestShardedPanicBecomesReportFailure breaks one shard engine and checks
// the recovery chain: the shard's ring catches the panic instead of losing
// its consumer goroutine, Sync and Close complete, Pipeline.Err names the
// shard, and the healthy shard's findings survive the merge.
func TestShardedPanicBecomesReportFailure(t *testing.T) {
	rec := recordStrandTrace(t, 60)
	cfg := Config{Model: rules.Strand}
	sd := NewSharded(cfg, 2)
	// A nil engine makes the first delivery panic exactly like an engine bug
	// would, on the shard's consumer goroutine.
	sd.handlers[1] = (*Detector)(nil)

	sp := trace.NewPipeline(sd, trace.PipelineOptions{Shards: sd.ShardHandlers()})
	sp.HandleBatch(rec.Events)
	sp.Sync()
	sp.Close()

	if err := sp.Err(); err == nil || !strings.Contains(err.Error(), "shard 1 handler panicked") {
		t.Fatalf("Err() = %v, want shard 1's recovered panic", err)
	}
	if rep := sd.Report(); !rep.Has(report.NoDurability) {
		t.Fatalf("healthy shard's bugs missing:\n%s", rep.Summary())
	}
}

// TestShardedPanicSurvivesPoolEnd is the same recovery chain end-to-end
// through a pool: a broken shard engine under a sharded async attach must
// not hang Pool.End's drain barrier, and the pipeline names the shard.
func TestShardedPanicSurvivesPoolEnd(t *testing.T) {
	p := pmem.New(1 << 20)
	cfg := Config{Model: rules.Strand}
	sd := NewSharded(cfg, 2)
	sd.handlers[1] = (*Detector)(nil) // first delivery on shard 1 panics
	pipe := p.AttachWith(sd, pmem.AttachOptions{Async: true, Shards: 2})
	c := p.Ctx()
	for i := 0; i < 100; i++ {
		st := c.StrandBegin()
		a := p.Base() + uint64(i%64)*pmem.LineSize
		st.Store64(a, uint64(i))
		st.Persist(a, 8)
		st.StrandEnd()
	}
	p.End() // must not hang on the broken shard
	if err := pipe.Err(); err == nil || !strings.Contains(err.Error(), "shard 1 handler panicked") {
		t.Fatalf("Err() = %v, want shard 1's recovered panic", err)
	}
}
