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
// drain every shard before they are delivered.
func ReplayParallel(events []trace.Event, cfg Config, workers int) *report.Report {
	rep, _ := replaySharded(cfg, workers, func(h trace.Handler) error {
		trace.ReplayEvents(events, h)
		return nil
	})
	return rep
}

// ReplayStream is ReplayParallel over an encoded trace read from r, decoded
// batch by batch without materializing it.
func ReplayStream(r io.Reader, cfg Config, workers int) (*report.Report, error) {
	return replaySharded(cfg, workers, func(h trace.Handler) error {
		_, err := trace.StreamTrace(r, h)
		return err
	})
}

// replaySharded runs feed into a sharded detector — through a strand-routed
// pipeline, or straight into the single engine when the detector falls
// back — and returns the merged report.
func replaySharded(cfg Config, workers int, feed func(trace.Handler) error) (*report.Report, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sd := NewSharded(cfg, workers)
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
	return sd.Report(), nil
}
