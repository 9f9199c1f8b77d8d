package core

import (
	"io"
	"runtime"

	"pmdebugger/internal/report"
	"pmdebugger/internal/trace"
)

// Offline parallel replay is live sharded detection fed by a trace reader
// instead of a pool: a ShardedDetector behind a strand-routed
// trace.Pipeline, one ring and consumer goroutine per shard, whose shard
// reports merge back into the exact report a sequential replay produces.

// ReplayParallel replays a recorded event stream under cfg, routed by
// strand across up to workers shard detectors (workers <= 0 means
// GOMAXPROCS), and returns the merged report. The merge is deterministic:
// the result is identical — same bugs, same order, same counters — to
// replaying the stream sequentially into one Detector. Configurations that
// cannot shard (non-strand models, order specs, epoch-scoped rules) replay
// sequentially; global events in a strand trace (epoch markers, log adds)
// go to every shard, each at its point in that shard's subsequence. A shard
// engine that panics is listed in the report's Failures, whose Summary then
// warns that the bug list may be incomplete.
func ReplayParallel(events []trace.Event, cfg Config, workers int) *report.Report {
	rep, _ := replaySharded(newReplayDetector(cfg, workers), func(h trace.Handler) error {
		trace.ReplayEvents(events, h)
		return nil
	})
	return rep
}

// ReplayStream is ReplayParallel over an encoded trace read from r, decoded
// batch by batch without materializing it. A shard engine's panic is
// returned as an error naming the shard.
func ReplayStream(r io.Reader, cfg Config, workers int) (*report.Report, error) {
	rep, err := replaySharded(newReplayDetector(cfg, workers), func(h trace.Handler) error {
		_, err := trace.StreamTrace(r, h)
		return err
	})
	if err != nil {
		return nil, err
	}
	return rep, nil
}

func newReplayDetector(cfg Config, workers int) *ShardedDetector {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return NewSharded(cfg, workers)
}

// replaySharded runs feed into sd — through a strand-routed pipeline, or
// straight into the single engine when sd falls back — and returns the
// merged report. When a shard engine panicked on its ring, the report
// lists the pipeline's error among its Failures and the error is returned
// beside it.
func replaySharded(sd *ShardedDetector, feed func(trace.Handler) error) (*report.Report, error) {
	if sd.Fallback() {
		if err := feed(sd); err != nil {
			return nil, err
		}
		return sd.Report(), nil
	}
	pipe := trace.NewPipeline(sd, trace.PipelineOptions{Shards: sd.ShardHandlers()})
	err := feed(pipe)
	pipe.Close()
	if err != nil {
		return nil, err
	}
	rep := sd.Report()
	if err := pipe.Err(); err != nil {
		rep.AddFailure(err.Error())
		return rep, err
	}
	return rep, nil
}
