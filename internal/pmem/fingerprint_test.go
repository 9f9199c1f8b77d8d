package pmem

import (
	"bytes"
	"testing"
)

// fpFuzzSize is FuzzFingerprintIncremental's pool size: one full chunk, then
// a partial chunk of 17 pages whose last page holds only three lines, so the
// directory's tail chunk and the pool's tail page are both short.
const fpFuzzSize = chunkSpan + 17*PageSize + 3*LineSize

// fpStep encodes one FuzzFingerprintIncremental step: an operation, the
// live pool it acts on, a 24-bit offset into the pool and an argument.
func fpStep(op, pool byte, off uint64, arg byte) []byte {
	return []byte{op, pool, byte(off >> 16), byte(off >> 8), byte(off), arg}
}

// FuzzFingerprintIncremental drives a program of byte-level stores of up to
// 300 bytes at arbitrary offsets, flushes, fences, Crash and
// SelectCrash+CrashWith under all three policies, Fork, stores into the
// images and forks so taken, and Release, over a set of live pools sharing
// chunks and pages, on a pool whose size is not a multiple of the 2 MiB
// chunk. After every step, each live pool's Fingerprint — maintained
// incrementally through the hashes cached on its pages, chunks and itself,
// and inherited from whatever it was cloned from — must equal that of its
// cache-less copy ReadImage(WriteImage(p)), and persisting one flipped byte
// at the step's offset into that copy must change it.
func FuzzFingerprintIncremental(f *testing.F) {
	add := func(steps ...[]byte) {
		f.Add(bytes.Join(steps, nil))
	}
	// A store across a 512-byte leaf boundary, persisted, then crashed
	// with the line applied and written again in the image.
	add(fpStep(3, 0, 500, 40), fpStep(0, 0, 1000, 30), fpStep(1, 0, 1000, 8),
		fpStep(4, 0, 0, 1), fpStep(3, 1, 510, 9), fpStep(2, 0, 0, 0))
	// A parent write to a page its crash image shares: the parent's copy
	// keeps the source's hashes of the leaves the write leaves alone.
	add(fpStep(4, 0, 1072, 0x80), fpStep(3, 0, 304, 48))
	// Across the 16-page group boundary, from a parent whose caches are
	// stale when the image and the fork are taken.
	const group = groupPages * PageSize
	add(fpStep(0, 0, group-100, 200), fpStep(1, 0, group-100, 200),
		fpStep(5, 0, group-40, 0x82), fpStep(6, 0, 3*PageSize, 0x80),
		fpStep(2, 0, 0, 0), fpStep(3, 2, group+7, 77), fpStep(7, 1, 0, 0))
	// Across the 2 MiB chunk boundary, in the parent and in a fork, and a
	// release of the parent while the fork still shares its chunks.
	add(fpStep(3, 0, chunkSpan-150, 255), fpStep(6, 0, 0, 0), fpStep(3, 1, chunkSpan-20, 60),
		fpStep(0, 0, chunkSpan-64, 100), fpStep(1, 0, chunkSpan-64, 100), fpStep(7, 0, 0, 0),
		fpStep(4, 0, 0, 2), fpStep(5, 1, chunkSpan, 0x81))
	// Onto the pool's last, three-line page, under each policy.
	add(fpStep(3, 0, fpFuzzSize-100, 90), fpStep(0, 0, fpFuzzSize-64, 60),
		fpStep(1, 0, fpFuzzSize-64, 60), fpStep(4, 0, fpFuzzSize-1, 0),
		fpStep(4, 0, fpFuzzSize-1, 1), fpStep(4, 0, fpFuzzSize-1, 2),
		fpStep(3, 3, fpFuzzSize-192, 191))
	f.Fuzz(func(t *testing.T, program []byte) {
		const maxSteps, maxPools = 24, 5
		if len(program) > 6*maxSteps {
			program = program[:6*maxSteps]
		}
		pools := []*Pool{New(fpFuzzSize)}
		defer func() {
			for _, p := range pools {
				p.Release()
			}
		}()
		var img bytes.Buffer
		for step := 0; len(program) >= 6; step++ {
			op, pi, arg := program[0], int(program[1])%len(pools), program[5]
			off := (uint64(program[2])<<16 | uint64(program[3])<<8 | uint64(program[4])) % fpFuzzSize
			program = program[6:]
			p := pools[pi]
			c := p.Ctx()
			addr := p.Base() + off
			n := min(1+uint64(arg)%300, fpFuzzSize-off)
			data := bytes.Repeat([]byte{arg ^ byte(step)}, int(n))
			policy := CrashPolicy(arg % 3)
			switch op % 8 {
			case 0:
				c.StoreBytes(addr, data)
			case 1:
				c.Flush(addr, n)
			case 2:
				c.Fence()
			case 3:
				persist(c, addr, data)
			case 4, 5, 6:
				if len(pools) == maxPools {
					break
				}
				if arg&0x80 != 0 {
					// Dirty the source first, so the clone inherits stale
					// hashes along the written path.
					persist(c, addr, data[:min(n, 8)])
				}
				var q *Pool
				switch op % 8 {
				case 4:
					q = p.Crash(policy, int64(arg))
				case 5:
					var o CrashOutcome
					p.SelectCrash(policy, NewCrashCoins(int64(arg)), &o)
					q = p.CrashWith(&o)
				default:
					q = p.Fork()
				}
				pools = append(pools, q)
			case 7:
				if len(pools) > 1 {
					p.Release()
					pools = append(pools[:pi], pools[pi+1:]...)
				}
			}
			for i, q := range pools {
				fp := q.Fingerprint()
				img.Reset()
				if err := q.WriteImage(&img); err != nil {
					t.Fatal(err)
				}
				cold, err := ReadImage(&img)
				if err != nil {
					t.Fatal(err)
				}
				if cold.Fingerprint() != fp {
					t.Fatalf("step %d: pool %d's fingerprint differs from its cache-less copy's", step, i)
				}
				a := cold.Base() + off
				persist(cold.Ctx(), a, []byte{^cold.PersistedBytes(a, 1)[0]})
				if cold.Fingerprint() == fp {
					t.Fatalf("step %d: pool %d's fingerprint ignores a flipped byte at offset %d", step, i, off)
				}
				cold.Release()
			}
		}
	})
}
