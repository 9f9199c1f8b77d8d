//go:build race

package pmem

// raceEnabled reports a race-detector build, where sync.Pool drops a random
// quarter of the objects put back and allocation counts vary run to run.
const raceEnabled = true
