package core

import (
	"pmdebugger/internal/report"
	"pmdebugger/internal/rules"
	"pmdebugger/internal/trace"
)

// This file is the detector side of strand-sharded detection: a
// ShardedDetector owns one engine per shard and splits itself
// (trace.Sharder) into per-shard handlers that a strand-routed
// trace.Pipeline drives from its per-shard consumer goroutines, live or
// offline (ReplayParallel). Each shard sees exactly its strand subsequence,
// so Report — a report.Merge of the shard reports — is byte-identical to
// inline delivery.

// epochRules are the rule bits whose verdicts depend on epoch sections or
// transaction log events — the global (cross-strand) part of the stream,
// whose rules read every strand's records while a shard holds only its
// own. Configurations with any of them enabled are not shardable.
const epochRules = rules.RuleRedundantLogging | rules.RuleLackDurabilityInEpoch |
	rules.RuleRedundantEpochFence

// Shardable reports whether cfg permits strand-sharded detection: the
// strand persistency model with no cross-strand order specs, no
// cross-failure hook and no epoch-scoped rules. Every other configuration
// folds all bookkeeping into one space or correlates strands through
// shared state. rules.Default(rules.Strand) qualifies; a caller forcing
// epoch rules onto the strand model does not.
func Shardable(cfg Config) bool { return shardRefusal(cfg) == "" }

// shardRefusal says why cfg is not Shardable, or "" when it is.
func shardRefusal(cfg Config) string {
	cfg.fill()
	switch {
	case cfg.Model != rules.Strand || len(cfg.Orders) > 0 || cfg.CrossFailureCheck != nil:
		return "configuration is not parallelizable (needs the strand model, no order specs, no cross-failure hook)"
	case cfg.Rules.Has(epochRules):
		return "epoch-scoped rules are enabled (they read cross-strand state)"
	}
	return ""
}

// ShardedDetector fans detection out across per-strand shard engines. It
// implements trace.Handler/BatchHandler (synchronous routing, for inline
// use and differential tests) and trace.Sharder (per-shard handlers for a
// routed trace.Pipeline). When the configuration is not Shardable — or
// fewer than 2 shards are requested — it degrades to a single engine
// behind the same interface and says so via Fallback/FallbackReason, so
// callers can report the degradation loudly instead of benchmarking the
// wrong mode.
//
// A shard engine that panics on a routed pipeline's consumer goroutine is
// caught by that shard's ring like any other handler's panic: the ring
// drops its later deliveries and Pipeline.Err names the shard.
type ShardedDetector struct {
	cfg      Config
	dets     []*Detector
	handlers []trace.Handler // dets, as the trace.Sharder view
	fallback string          // non-empty: why sharding was declined
	one      [1]trace.Event  // HandleEvent's batch of one
}

// NewSharded returns a detector fanned out across the given number of
// shards, or a single-engine fallback when shards < 2 or the configuration
// is not Shardable.
func NewSharded(cfg Config, shards int) *ShardedDetector {
	sd := &ShardedDetector{cfg: cfg, fallback: shardRefusal(cfg)}
	if shards < 2 {
		sd.fallback = "fewer than 2 shards requested"
	}
	if sd.fallback != "" {
		shards = 1
	}
	sd.dets = make([]*Detector, shards)
	sd.handlers = make([]trace.Handler, shards)
	for i := range sd.dets {
		sd.dets[i] = New(cfg)
		sd.handlers[i] = sd.dets[i]
	}
	return sd
}

// Name returns "pmdebugger": the sharding is a delivery detail, not a
// different detector.
func (sd *ShardedDetector) Name() string { return "pmdebugger" }

// Shards returns the number of shard engines (1 in fallback mode).
func (sd *ShardedDetector) Shards() int { return len(sd.dets) }

// Fallback reports whether the detector declined to shard.
func (sd *ShardedDetector) Fallback() bool { return sd.fallback != "" }

// FallbackReason returns why sharding was declined ("" when sharded).
func (sd *ShardedDetector) FallbackReason() string { return sd.fallback }

// ShardHandlers implements trace.Sharder: the shard engines, in shard
// order. In fallback mode it returns nil, which makes a pipeline built from
// it a single ring around the ShardedDetector itself.
func (sd *ShardedDetector) ShardHandlers() []trace.Handler {
	if sd.Fallback() {
		return nil
	}
	return sd.handlers
}

// HandleEvent routes one event synchronously by trace.Route's rules. In
// fallback mode every event passes through to the single engine unchanged.
func (sd *ShardedDetector) HandleEvent(ev trace.Event) {
	sd.one[0] = ev
	sd.HandleBatch(sd.one[:])
}

// HandleBatch implements the batch fast path of HandleEvent.
func (sd *ShardedDetector) HandleBatch(evs []trace.Event) {
	if sd.Fallback() {
		sd.dets[0].HandleBatch(evs)
		return
	}
	trace.Route(evs, sd.dets)
}

// Report finalizes every shard engine and merges their reports into the
// deterministic global report (report.Merge — identical to a sequential
// replay for shardable configurations). Call it only after a delivery
// barrier (Pool.End, Sync or Detach) when attached asynchronously.
func (sd *ShardedDetector) Report() *report.Report {
	if len(sd.dets) == 1 {
		// Single engine: its report is already the sequential report; a
		// merge would only re-sort what is in order.
		return sd.dets[0].Report()
	}
	reports := make([]*report.Report, len(sd.dets))
	for i, d := range sd.dets {
		reports[i] = d.Report()
	}
	return report.Merge("pmdebugger", reports)
}

var (
	_ trace.BatchHandler = (*ShardedDetector)(nil)
	_ trace.Sharder      = (*ShardedDetector)(nil)
)
