package pmem_test

import (
	"testing"

	"pmdebugger/internal/crashtest/scenarios"
	"pmdebugger/internal/pmem"
)

// TestScenarioImagesMatchReference replays the recorded journals of the
// crash-test scenarios into a shadow pool (ApplyRecorded, the explorer's
// replay path) and into the reference pool side by side, and at every
// strided boundary checks the shadow's crash images against the
// reference's under all three pending-line policies.
func TestScenarioImagesMatchReference(t *testing.T) {
	const size = 1 << 21
	const stride = 7
	for _, pc := range []struct {
		name   string
		policy pmem.CrashPolicy
		seeds  []int64
	}{
		{"drop", pmem.CrashDropPending, []int64{0}},
		{"apply", pmem.CrashApplyPending, []int64{0}},
		{"random", pmem.CrashRandomPending, []int64{1, 7}},
	} {
		t.Run(pc.name, func(t *testing.T) {
			for _, name := range scenarios.Names() {
				t.Run(name, func(t *testing.T) {
					prog, _, err := scenarios.Build(name, 2, false)
					if err != nil {
						t.Fatal(err)
					}
					full := pmem.New(size)
					journal := full.RecordJournal()
					if err := prog(full); err != nil {
						t.Fatal(err)
					}
					full.Release()
					shadow := pmem.New(size)
					defer shadow.Release()
					ref := pmem.NewRefPool(shadow.Base(), shadow.Size())
					for i, ev := range journal.Events {
						shadow.ApplyRecorded(ev, journal.Payload(i))
						ref.Apply(ev, journal.Payload(i))
						if (i+1)%stride != 0 {
							continue
						}
						for _, seed := range pc.seeds {
							img := shadow.Crash(pc.policy, seed)
							if err := ref.CheckCrash(img, pc.policy, seed); err != nil {
								t.Fatalf("boundary %d seed %d: %v", i+1, seed, err)
							}
							img.Release()
						}
					}
				})
			}
		})
	}
}
