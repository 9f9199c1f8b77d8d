package crashtest

import (
	"bytes"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"pmdebugger/internal/pmem"
)

// exploreProg is a small deterministic program with a mix of image-changing
// and image-neutral boundaries: stores and markers between persists leave
// stretches of the event stream where pruning should fire.
func exploreProg(pm *pmem.Pool) error {
	c := pm.Ctx()
	base := pm.Base()
	pm.RegisterNamed("cells", base, 1024)
	for i := uint64(0); i < 12; i++ {
		c.Store64(base+i*64, i+1)
		c.Store64(base+i*64+8, (i+1)*10)
		c.Flush(base+i*64, 16)
		if i%3 == 2 {
			c.Fence()
		}
	}
	c.Fence()
	// A deliberately misordered pair: the "valid" flag (B) is persisted
	// before its payload (A), so a crash between the two fences violates
	// the payload-before-flag invariant under every policy.
	a, b := base+2048, base+2112
	c.Store64(a, 0xa11ce)
	c.Store64(b, 1)
	c.Flush(b, 8)
	c.Fence()
	c.Flush(a, 8)
	c.Fence()
	return nil
}

// exploreCheck enforces the payload-before-flag invariant exploreProg
// deliberately breaks in its tail, so a window of crash images fails.
func exploreCheck(img *pmem.Pool) error {
	c := img.Ctx()
	base := img.Base()
	if c.Load64(base+2112) != 0 && c.Load64(base+2048) == 0 {
		return errors.New("flag persisted before payload")
	}
	return nil
}

// TestExploreMatchesSerial is the in-package differential check on the
// building blocks themselves: the record-once engine must report the same
// counts and failure set as exhaustive re-execution, with and without the
// reducers, across all three policies.
func TestExploreMatchesSerial(t *testing.T) {
	for _, tc := range []struct {
		cfg Config
		// wantReduced marks configs whose event stream has prunable or
		// deduplicable boundaries (stride-3 apply has a flush in every
		// window, so the reducers legitimately find nothing there).
		wantReduced bool
	}{
		{Config{Policy: pmem.CrashDropPending}, true},
		{Config{Policy: pmem.CrashApplyPending, Stride: 3}, false},
		{Config{Policy: pmem.CrashRandomPending, Seeds: []int64{11, 22}}, true},
	} {
		cfg := tc.cfg
		ref, err := RunSerial(exploreProg, exploreCheck, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(ref.Failures) == 0 {
			t.Fatalf("policy %v: reference found no failures; the differential is vacuous", cfg.Policy)
		}
		nseeds := len(cfg.effectiveSeeds())
		if ref.Images != ref.Points*nseeds {
			t.Fatalf("policy %v: reference Images=%d, Points=%d x %d seeds", cfg.Policy, ref.Images, ref.Points, nseeds)
		}
		for _, variant := range []struct {
			name         string
			prune, dedup bool
		}{
			{"plain", false, false},
			{"prune", true, false},
			{"dedup", false, true},
			{"prune+dedup", true, true},
		} {
			c := cfg
			c.Workers = 4
			c.Prune = variant.prune
			c.Dedup = variant.dedup
			got, err := Run(exploreProg, exploreCheck, c)
			if err != nil {
				t.Fatal(err)
			}
			if got.TotalEvents != ref.TotalEvents || got.Points != ref.Points {
				t.Errorf("policy %v %s: events/points %d/%d, reference %d/%d",
					cfg.Policy, variant.name, got.TotalEvents, got.Points, ref.TotalEvents, ref.Points)
			}
			if !reflect.DeepEqual(got.FailureKeys(), ref.FailureKeys()) {
				t.Errorf("policy %v %s: failure set diverges\n got: %v\n ref: %v",
					cfg.Policy, variant.name, got.FailureKeys(), ref.FailureKeys())
			}
			// Accounting identity: every non-pruned boundary materializes one
			// image per seed, each either checked or deduplicated.
			if got.Images+got.DedupImages != (got.Points-got.PrunedPoints)*nseeds {
				t.Errorf("policy %v %s: Images=%d + Dedup=%d != (Points=%d - Pruned=%d) x %d seeds",
					cfg.Policy, variant.name, got.Images, got.DedupImages, got.Points, got.PrunedPoints, nseeds)
			}
			if !variant.prune && got.PrunedPoints != 0 {
				t.Errorf("policy %v %s: pruning disabled but PrunedPoints=%d", cfg.Policy, variant.name, got.PrunedPoints)
			}
			if !variant.dedup && got.DedupImages != 0 {
				t.Errorf("policy %v %s: dedup disabled but DedupImages=%d", cfg.Policy, variant.name, got.DedupImages)
			}
			reduced := got.PrunedPoints > 0 || got.DedupImages > 0
			if (variant.prune || variant.dedup) && tc.wantReduced && !reduced {
				t.Errorf("policy %v %s: reducers enabled but nothing reduced", cfg.Policy, variant.name)
			}
			if reduced && got.Images >= ref.Images {
				t.Errorf("policy %v %s: reduced but %d images checked, not below reference %d",
					cfg.Policy, variant.name, got.Images, ref.Images)
			}
			if !variant.prune && !variant.dedup && got.Images != ref.Images {
				t.Errorf("policy %v plain: %d images, reference %d", cfg.Policy, got.Images, ref.Images)
			}
			// Copy-on-write images of a sparse pool are dominated by zero
			// and shared pages.
			if got.Images > 0 && got.ZeroPages+got.SharedPages == 0 {
				t.Errorf("policy %v %s: images report no zero or shared pages", cfg.Policy, variant.name)
			}
		}
	}
}

// TestExploreDeepCopyMatchesCOW runs the checker on a deep copy of every
// copy-on-write image the engines build — ReadImage(WriteImage(img)), a
// pool sharing no chunk with the shadow, the parent or any other image —
// and checks that the verdicts do not depend on the sharing: under all
// three policies, with 4 workers and both reducers, the deep-copy failure
// sets equal the COW run's and RunSerial's, and RunSerial on deep copies
// equals RunSerial on COW images. Every copy must carry its image's
// fingerprint, and the COW images must report mostly zero and shared
// pages.
func TestExploreDeepCopyMatchesCOW(t *testing.T) {
	var copies, mismatches atomic.Int64
	deepCheck := func(img *pmem.Pool) error {
		var buf bytes.Buffer
		if err := img.WriteImage(&buf); err != nil {
			return err
		}
		deep, err := pmem.ReadImage(&buf)
		if err != nil {
			return err
		}
		defer deep.Release()
		copies.Add(1)
		if deep.Fingerprint() != img.Fingerprint() {
			mismatches.Add(1)
		}
		return exploreCheck(deep)
	}
	for _, policy := range []pmem.CrashPolicy{
		pmem.CrashDropPending, pmem.CrashApplyPending, pmem.CrashRandomPending,
	} {
		cfg := Config{Policy: policy, Seeds: []int64{3, 9}, Workers: 4, Prune: true, Dedup: true}
		serial, err := RunSerial(exploreProg, exploreCheck, cfg)
		if err != nil {
			t.Fatalf("policy %v: serial: %v", policy, err)
		}
		cowRes, err := Run(exploreProg, exploreCheck, cfg)
		if err != nil {
			t.Fatalf("policy %v: cow: %v", policy, err)
		}
		deepRes, err := Run(exploreProg, deepCheck, cfg)
		if err != nil {
			t.Fatalf("policy %v: deepcopy: %v", policy, err)
		}
		deepSerial, err := RunSerial(exploreProg, deepCheck, cfg)
		if err != nil {
			t.Fatalf("policy %v: deepcopy serial: %v", policy, err)
		}
		if len(serial.Failures) == 0 {
			t.Fatalf("policy %v: serial found no failures; the differential is vacuous", policy)
		}
		if !reflect.DeepEqual(cowRes.FailureKeys(), serial.FailureKeys()) {
			t.Errorf("policy %v: COW failure set differs from serial\ncow:    %v\nserial: %v",
				policy, cowRes.FailureKeys(), serial.FailureKeys())
		}
		if !reflect.DeepEqual(deepRes.FailureKeys(), cowRes.FailureKeys()) {
			t.Errorf("policy %v: deep-copy failure set differs from COW\ndeep: %v\ncow:  %v",
				policy, deepRes.FailureKeys(), cowRes.FailureKeys())
		}
		if !reflect.DeepEqual(deepSerial.FailureKeys(), serial.FailureKeys()) {
			t.Errorf("policy %v: deep-copy serial failure set differs from COW serial", policy)
		}
		if deepRes.Images != cowRes.Images || deepRes.DedupImages != cowRes.DedupImages {
			t.Errorf("policy %v: deep-copy run checked %d images (%d deduplicated), COW run %d (%d)",
				policy, deepRes.Images, deepRes.DedupImages, cowRes.Images, cowRes.DedupImages)
		}
		if cowRes.Images > 0 && cowRes.ZeroPages+cowRes.SharedPages == 0 {
			t.Errorf("policy %v: COW run reports no zero or shared pages", policy)
		}
	}
	if copies.Load() == 0 {
		t.Fatal("no image was deep-copied")
	}
	if n := mismatches.Load(); n != 0 {
		t.Errorf("%d of %d deep copies have a fingerprint other than their image's", n, copies.Load())
	}
}

// TestExploreImageEqualsTrapped cross-checks the engines at the image level:
// the shadow-replayed image at a boundary is byte-identical to the image of
// a trapped re-execution (runTrapped, the serial engine's primitive).
func TestExploreImageEqualsTrapped(t *testing.T) {
	cfg := Config{Policy: pmem.CrashRandomPending, Seeds: []int64{5}}
	cfg.fill()

	full := pmem.New(cfg.PoolSize)
	journal := full.RecordJournal()
	if err := exploreProg(full); err != nil {
		t.Fatal(err)
	}
	total := int(full.EventCount())

	shadow := pmem.New(cfg.PoolSize)
	next := 0
	for point := 4; point <= total; point += 9 {
		for next < point {
			shadow.ApplyRecorded(journal.Events[next], journal.Payload(next))
			next++
		}
		pool, trapped, err := runTrapped(exploreProg, &cfg, uint64(point))
		if err != nil || !trapped {
			t.Fatalf("point %d: trapped=%v err=%v", point, trapped, err)
		}
		if shadow.Crash(cfg.Policy, 5).Fingerprint() != pool.Crash(cfg.Policy, 5).Fingerprint() {
			t.Fatalf("point %d: replayed image differs from trapped image", point)
		}
	}
}

// TestCrashRandomPendingDeterminism checks the property pruning and image
// reuse lean on: Crash is a pure function of (state, policy, seed) — the
// same seed twice gives byte-identical images, and different seeds explore
// different pending outcomes.
func TestCrashRandomPendingDeterminism(t *testing.T) {
	pool, trapped, err := runTrapped(exploreProg, &Config{PoolSize: 1 << 20}, 30)
	if err != nil || !trapped {
		t.Fatalf("trapped=%v err=%v", trapped, err)
	}
	distinct := map[[32]byte]bool{}
	for seed := int64(1); seed <= 8; seed++ {
		a := pool.Crash(pmem.CrashRandomPending, seed).Fingerprint()
		b := pool.Crash(pmem.CrashRandomPending, seed).Fingerprint()
		if a != b {
			t.Fatalf("seed %d: two images from one state differ", seed)
		}
		distinct[a] = true
	}
	if len(distinct) < 2 {
		t.Fatalf("8 seeds produced %d distinct images; pending randomization inert", len(distinct))
	}
}

// TestCheckerPanicBecomesFailure checks both engines convert checker panics
// into Failure entries carrying the crash coordinates (the process must not
// die, and the point must not be silently skipped).
func TestCheckerPanicBecomesFailure(t *testing.T) {
	// Panics exactly in the mid-execution window (first cell persisted,
	// last cell not yet), so the completed program still passes the sanity
	// check both engines run before exploring.
	panicky := func(img *pmem.Pool) error {
		c := img.Ctx()
		base := img.Base()
		if c.Load64(base) != 0 && c.Load64(base+11*64) == 0 {
			panic("recovery chased a wild pointer")
		}
		return nil
	}
	cfg := Config{Stride: 2, Workers: 3}
	ref, err := RunSerial(exploreProg, panicky, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(exploreProg, panicky, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Failures) == 0 {
		t.Fatal("panicking checker produced no failures")
	}
	if !reflect.DeepEqual(got.FailureKeys(), ref.FailureKeys()) {
		t.Fatalf("panic failure sets diverge\n got: %v\n ref: %v", got.FailureKeys(), ref.FailureKeys())
	}
	for _, f := range ref.Failures {
		if f.AfterEvents == 0 {
			t.Fatal("failure lost its crash point")
		}
	}
}

// TestSerialCountsOnlyTrappedPoints pins the Points accounting fix: with a
// stride larger than the program, no trap ever fires, so no point may be
// counted.
func TestSerialCountsOnlyTrappedPoints(t *testing.T) {
	full := pmem.New(1 << 20)
	if err := exploreProg(full); err != nil {
		t.Fatal(err)
	}
	total := int(full.EventCount())

	res, err := RunSerial(exploreProg, exploreCheck, Config{Stride: total + 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Points != 0 || res.Images != 0 {
		t.Fatalf("no trap fired but Points=%d Images=%d", res.Points, res.Images)
	}
}
