package crashtest

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"pmdebugger/internal/pmem"
)

// TestSegmentedExploreMatchesSerial is the segment-parallel differential:
// for every policy and reducer combination, the explorer must report the
// same failure set as exhaustive re-execution at every segment count, and
// every counter (Points, PrunedPoints, Images, DedupImages) must be
// invariant in the segment count — cross-segment duplicates are reclassified
// at merge time, so splitting the boundary list is unobservable.
func TestSegmentedExploreMatchesSerial(t *testing.T) {
	for _, cfg := range []Config{
		{Policy: pmem.CrashDropPending},
		{Policy: pmem.CrashApplyPending, Stride: 2},
		// Sixteen seeds make seeds agree on outcomes, so the outcome-keyed
		// lookup fires within and across boundaries.
		{Policy: pmem.CrashRandomPending, Seeds: seedRange(11, 16)},
	} {
		ref, err := RunSerial(exploreProg, exploreCheck, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(ref.Failures) == 0 {
			t.Fatalf("policy %v: reference found no failures; the differential is vacuous", cfg.Policy)
		}
		for _, variant := range []struct {
			name         string
			prune, dedup bool
		}{
			{"plain", false, false},
			{"prune+dedup", true, true},
		} {
			var base *Result
			// 100 exceeds the boundary count: the explorer must clamp.
			for _, segs := range []int{1, 2, 3, 4, 8, 100} {
				c := cfg
				c.Workers = 4
				c.Prune = variant.prune
				c.Dedup = variant.dedup
				c.Segments = segs
				got, err := Run(exploreProg, exploreCheck, c)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got.FailureKeys(), ref.FailureKeys()) {
					t.Errorf("policy %v %s segments=%d: failure set diverges\n got: %v\n ref: %v",
						cfg.Policy, variant.name, segs, got.FailureKeys(), ref.FailureKeys())
				}
				if base == nil {
					base = got
					continue
				}
				if got.Points != base.Points || got.PrunedPoints != base.PrunedPoints ||
					got.Images != base.Images || got.DedupImages != base.DedupImages {
					t.Errorf("policy %v %s segments=%d: counters (%d,%d,%d,%d) != single-segment (%d,%d,%d,%d)",
						cfg.Policy, variant.name, segs,
						got.Points, got.PrunedPoints, got.Images, got.DedupImages,
						base.Points, base.PrunedPoints, base.Images, base.DedupImages)
				}
				nseeds := len(c.effectiveSeeds())
				if got.Images+got.DedupImages != (got.Points-got.PrunedPoints)*nseeds {
					t.Errorf("policy %v %s segments=%d: Images=%d + Dedup=%d != (Points=%d - Pruned=%d) x %d seeds",
						cfg.Policy, variant.name, segs, got.Images, got.DedupImages,
						got.Points, got.PrunedPoints, nseeds)
				}
			}
		}
	}
}

// seedRange returns n consecutive seeds starting at first.
func seedRange(first int64, n int) []int64 {
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = first + int64(i)
	}
	return seeds
}

// TestDedupCountsDistinctImages is the brute-force oracle for the dedup
// counters: it crashes a trapped re-execution at every (point, seed)
// coordinate and fingerprints each image. Images must equal the number of
// distinct fingerprints and DedupImages the remaining materialized
// coordinates, at every segment count, for every policy, with and without
// pruning — a pruned boundary's image equals the previous materialized
// one's, so pruning removes coordinates but never a distinct image.
func TestDedupCountsDistinctImages(t *testing.T) {
	for _, policy := range []pmem.CrashPolicy{pmem.CrashDropPending, pmem.CrashApplyPending, pmem.CrashRandomPending} {
		cfg := Config{Policy: policy, Seeds: seedRange(1, 16)}
		cfg.fill()
		seeds := cfg.effectiveSeeds()
		distinct := map[[32]byte]bool{}
		for point := uint64(1); ; point++ {
			pool, trapped, err := runTrapped(exploreProg, &cfg, point)
			if err != nil {
				t.Fatal(err)
			}
			if !trapped {
				pool.Release()
				break
			}
			for _, seed := range seeds {
				img := pool.Crash(policy, seed)
				distinct[img.Fingerprint()] = true
				img.Release()
			}
			pool.Release()
		}
		for _, prune := range []bool{false, true} {
			for _, segs := range []int{1, 2, 4} {
				c := cfg
				c.Workers = 2
				c.Segments = segs
				c.Prune = prune
				c.Dedup = true
				got, err := Run(exploreProg, exploreCheck, c)
				if err != nil {
					t.Fatal(err)
				}
				materialized := (got.Points - got.PrunedPoints) * len(seeds)
				if got.Images != len(distinct) || got.DedupImages != materialized-len(distinct) {
					t.Errorf("policy %v prune=%v segments=%d: Images=%d DedupImages=%d, brute force %d distinct of %d materialized",
						policy, prune, segs, got.Images, got.DedupImages, len(distinct), materialized)
				}
			}
		}
	}
}

// TestSegmentedPhaseCounters checks the per-phase observability satellite:
// a record-once run reports nonzero record and snapshot time, fingerprint
// time only under Dedup, and RunSerial leaves all phases zero.
func TestSegmentedPhaseCounters(t *testing.T) {
	got, err := Run(exploreProg, exploreCheck, Config{Workers: 2, Segments: 2, Prune: true, Dedup: true})
	if err != nil {
		t.Fatal(err)
	}
	if got.RecordNanos <= 0 || got.SnapshotNanos <= 0 || got.CheckNanos <= 0 {
		t.Fatalf("phase counters missing: record=%d snapshot=%d check=%d",
			got.RecordNanos, got.SnapshotNanos, got.CheckNanos)
	}
	if got.FingerprintNanos <= 0 {
		t.Fatalf("Dedup enabled but FingerprintNanos=%d", got.FingerprintNanos)
	}
	plain, err := Run(exploreProg, exploreCheck, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if plain.FingerprintNanos != 0 {
		t.Fatalf("Dedup disabled but FingerprintNanos=%d", plain.FingerprintNanos)
	}
	ref, err := RunSerial(exploreProg, exploreCheck, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if ref.RecordNanos != 0 || ref.ReplayNanos != 0 || ref.CheckNanos != 0 {
		t.Fatal("RunSerial reported record-once phase counters")
	}
}

// buildFuzzProg turns fuzz bytes into a deterministic PM program over a few
// cache lines plus a dedicated payload/flag cell pair, so generated
// schedules can (and in the seed corpus, do) break the payload-before-flag
// invariant fuzzCheck enforces.
func buildFuzzProg(ops []byte) Program {
	return func(pm *pmem.Pool) error {
		c := pm.Ctx()
		base := pm.Base()
		payload, flag := base+2048, base+2112
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i], uint64(ops[i+1])
			switch op % 8 {
			case 0:
				c.Store64(base+(arg%24)*64, arg+1)
			case 1:
				c.StoreBytes(base+(arg%24)*64, []byte{byte(arg), byte(arg >> 4), 0xee})
			case 2:
				c.Flush(base+(arg%24)*64, 8)
			case 3:
				c.Fence()
			case 4:
				c.Store64(payload, arg+1)
			case 5:
				c.Store64(flag, arg+1)
			case 6:
				if arg%2 == 0 {
					c.Flush(payload, 8)
				} else {
					c.Flush(flag, 8)
				}
			case 7:
				pm.RegisterNamed(fmt.Sprintf("r%d", arg%4), base+(arg%4)*256, 64)
			}
		}
		c.Fence()
		return nil
	}
}

// fuzzCheck enforces the payload-before-flag invariant on buildFuzzProg's
// dedicated cell pair.
func fuzzCheck(img *pmem.Pool) error {
	c := img.Ctx()
	base := img.Base()
	if c.Load64(base+2112) != 0 && c.Load64(base+2048) == 0 {
		return errors.New("flag persisted before payload")
	}
	return nil
}

// FuzzForkedVsSerial fuzzes the segment-parallel explorer against the
// serial reference: for generated programs, policies and segment counts the
// failure sets must match RunSerial exactly and every counter must be
// invariant in the segment count; additionally a mid-journal Fork must
// produce crash images fingerprint-identical to a trapped re-execution at
// the same boundary — both before and after the fork continues replaying.
func FuzzForkedVsSerial(f *testing.F) {
	// The misordered-pair schedule: flag persisted strictly before payload,
	// opening a failure window for every policy.
	f.Add([]byte{2, 5}, []byte{5, 1, 6, 1, 3, 0, 4, 1, 6, 0, 3, 0})
	// Redundant fences and restages around shared lines: prune and dedup
	// both fire, and RandomPending sees a multi-line pending set.
	f.Add([]byte{1, 3}, []byte{0, 3, 2, 3, 0, 4, 2, 4, 3, 0, 3, 0, 2, 3, 3, 0, 1, 9, 2, 9, 0, 9, 2, 9, 3, 0})
	// Names churn plus payload/flag traffic across all policies.
	f.Add([]byte{0, 2}, []byte{7, 1, 4, 2, 6, 0, 3, 0, 5, 7, 6, 1, 3, 0, 7, 3, 0, 11, 2, 11, 3, 0})
	f.Fuzz(func(t *testing.T, knobs, ops []byte) {
		if len(knobs) < 2 || len(ops) < 4 {
			return
		}
		if len(ops) > 96 {
			ops = ops[:96] // bound the serial reference's O(events²) cost
		}
		cfg := Config{Workers: 3, Prune: true, Dedup: true}
		switch knobs[0] % 3 {
		case 1:
			cfg.Policy = pmem.CrashApplyPending
		case 2:
			cfg.Policy = pmem.CrashRandomPending
			cfg.Seeds = seedRange(3, 8)
		}
		prog := buildFuzzProg(ops)

		ref, err := RunSerial(prog, fuzzCheck, cfg)
		if err != nil {
			t.Skip("program rejected by reference:", err)
		}
		var base *Result
		for _, segs := range []int{1, 2 + int(knobs[1])%6} {
			c := cfg
			c.Segments = segs
			got, err := Run(prog, fuzzCheck, c)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.FailureKeys(), ref.FailureKeys()) {
				t.Fatalf("segments=%d: failure set diverges\n got: %v\n ref: %v",
					segs, got.FailureKeys(), ref.FailureKeys())
			}
			if base == nil {
				base = got
			} else if got.Points != base.Points || got.PrunedPoints != base.PrunedPoints ||
				got.Images != base.Images || got.DedupImages != base.DedupImages {
				t.Fatalf("segments=%d: counters (%d,%d,%d,%d) != single-segment (%d,%d,%d,%d)",
					segs, got.Points, got.PrunedPoints, got.Images, got.DedupImages,
					base.Points, base.PrunedPoints, base.Images, base.DedupImages)
			}
		}

		// Fork-vs-trapped image equality at a mid boundary and after the
		// fork continues replaying on its own.
		if ref.TotalEvents < 4 {
			return
		}
		cfg.fill()
		full := pmem.New(cfg.PoolSize)
		journal := full.RecordJournal()
		if err := prog(full); err != nil {
			t.Fatal(err)
		}
		total := int(full.EventCount())
		full.Release()
		mid, late := total/2, 3*total/4
		rep := pmem.New(cfg.PoolSize)
		for i := 0; i < mid; i++ {
			rep.ApplyRecorded(journal.Events[i], journal.Payload(i))
		}
		fork := rep.Fork()
		rep.Release() // the fork must outlive its parent
		seed := int64(knobs[1])
		points := []int{mid}
		if late > mid {
			points = append(points, late)
		}
		for _, point := range points {
			for int(fork.EventCount()) < point {
				i := int(fork.EventCount())
				fork.ApplyRecorded(journal.Events[i], journal.Payload(i))
			}
			pool, trapped, err := runTrapped(prog, &cfg, uint64(point))
			if err != nil || !trapped {
				t.Fatalf("point %d: trapped=%v err=%v", point, trapped, err)
			}
			fimg := fork.Crash(cfg.Policy, seed)
			timg := pool.Crash(cfg.Policy, seed)
			if fimg.Fingerprint() != timg.Fingerprint() {
				t.Fatalf("point %d: forked replay image differs from trapped image", point)
			}
			fimg.Release()
			timg.Release()
			pool.Release()
		}
		fork.Release()
	})
}
