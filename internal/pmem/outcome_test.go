package pmem

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestCrashCoinsMatchRand pins CrashCoins to the coin sequence
// CrashRandomPending has always drawn — one rand.Intn(2) per pending line
// from a source seeded with the crash seed, zero meaning apply — however
// far and in whatever order the sequence is consulted.
func TestCrashCoinsMatchRand(t *testing.T) {
	for _, seed := range []int64{0, 1, 99, -7} {
		rng := rand.New(rand.NewSource(seed))
		want := make([]bool, 200)
		for i := range want {
			want[i] = rng.Intn(2) == 0
		}
		coins := NewCrashCoins(seed)
		for _, i := range []int{3, 0, 64, 63, 199, 130, 1} {
			if coins.apply(i) != want[i] {
				t.Fatalf("seed %d: coin %d drawn out of order differs from rand", seed, i)
			}
		}
		for i := range want {
			if coins.apply(i) != want[i] {
				t.Fatalf("seed %d: coin %d differs from rand", seed, i)
			}
		}
	}
}

// FuzzCrashOutcome drives a line-state program — stores and flushes over
// lines in four table chunks, content-equal restages, stores into pending
// lines (dirty-pending), two-line stores and flushes, name churn — and after
// every operation crashes the pool under every policy and several seeds two
// ways: Crash, and SelectCrash with one long-lived CrashCoins per seed
// followed by CrashWith. The two images must have equal fingerprints, and
// over the whole run two crashes whose outcome keys agree must have equal
// fingerprints — the property the record-once explorer's outcome-keyed
// deduplication rests on.
func FuzzCrashOutcome(f *testing.F) {
	// Stage four lines in two chunks, restage one with equal bytes, fence.
	f.Add([]byte{0, 1, 0, 2, 2, 1, 2, 2, 0, 5, 3, 5, 0, 1, 2, 1, 4, 0})
	// Dirty-pending lines: store after flush, before the fence.
	f.Add([]byte{0, 17, 2, 17, 1, 17, 0, 33, 3, 33, 1, 49, 4, 0, 2, 17, 4, 0})
	// Restage one line with different bytes over the same persistent image:
	// the two outcomes differ only in their staged bytes.
	f.Add([]byte{0, 1, 2, 1, 0, 65, 2, 65})
	// Name churn between crashes over a multi-line pending set.
	f.Add([]byte{5, 1, 0, 1, 1, 6, 3, 6, 5, 2, 0, 9, 2, 9, 5, 1, 4, 0, 5, 3})
	f.Fuzz(func(t *testing.T, program []byte) {
		const size = 1 << 23 // 4 chunks
		if len(program) > 96 {
			program = program[:96] // bound the per-input cost
		}
		p := New(size)
		c := p.Ctx()
		seeds := []int64{1, 2, 3, 4, 5, 6}
		coins := make([]*CrashCoins, len(seeds))
		for i, seed := range seeds {
			coins[i] = NewCrashCoins(seed)
		}
		// line picks one of 64 lines: 4 chunks x 4 pages x 4 lines.
		line := func(arg byte) uint64 {
			return p.Base() + uint64(arg%4)*chunkSpan + uint64(arg/4%4)*PageSize + uint64(arg/16%4)*LineSize
		}
		seen := map[[32]byte][32]byte{} // outcome key -> image fingerprint
		var o CrashOutcome
		for i := 0; i+1 < len(program); i += 2 {
			op, arg := program[i], program[i+1]
			a := line(arg)
			switch op % 6 {
			case 0:
				// Few distinct values, so restaged lines often equal the
				// persisted bytes.
				c.Store64(a, uint64(arg%3))
			case 1:
				c.StoreBytes(a+LineSize-4, []byte{arg, arg, 1, 1, arg, arg, 1, 1}) // two lines
			case 2:
				c.Flush(a, 8)
			case 3:
				c.Flush(a, 2*LineSize)
			case 4:
				c.Fence()
			case 5:
				p.RegisterNamed(fmt.Sprintf("n%d", arg%3), a, uint64(arg%4+1)*8)
			}
			fp := p.Fingerprint()
			for policy := CrashDropPending; policy <= CrashRandomPending; policy++ {
				for si, seed := range seeds {
					if policy != CrashRandomPending && si > 0 {
						break // deterministic policies ignore the seed
					}
					want := p.Crash(policy, seed)
					p.SelectCrash(policy, coins[si], &o)
					got := p.CrashWith(&o)
					wfp, gfp := want.Fingerprint(), got.Fingerprint()
					if wfp != gfp {
						t.Fatalf("op %d policy %d seed %d: outcome-built image differs from Crash", i/2, policy, seed)
					}
					key := o.Key(fp)
					if prev, ok := seen[key]; ok && prev != gfp {
						t.Fatalf("op %d policy %d seed %d: equal outcome keys, different images", i/2, policy, seed)
					}
					seen[key] = gfp
					want.Release()
					got.Release()
				}
			}
		}
	})
}
