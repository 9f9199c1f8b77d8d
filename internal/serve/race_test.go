//go:build race

package serve

// raceEnabled reports a race-detector build, where sync.Pool drops a random
// quarter of the objects put back, so allocation totals vary run to run.
const raceEnabled = true
