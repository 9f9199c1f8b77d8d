package workloads

import (
	"errors"

	"pmdebugger/internal/pmdk"
	"pmdebugger/internal/trace"
)

// SynthStrand is the synthetic strand-persistency benchmark of Table 4:
// since no hardware or application supports strand persistency, the paper
// composes one from two independent index structures placed in separate
// strands. Here each insert routes to one of two append-only persistent
// indexes by key parity; each index's updates run in their own strand
// section with per-strand persist barriers, and a JoinStrand every
// joinEvery operations establishes periodic cross-strand ordering.
//
// Region layout per side: +0 count, +8.. entries of {key u64, value u64}.
type SynthStrand struct {
	p    *pmdk.Pool
	side [2]uint64 // region addresses
	cap  uint64    // entries per side
	ops  int
	site trace.SiteID
}

const ssJoinEvery = 64

// NewSynthStrand builds the two-sided strand benchmark sized from the free
// pool space.
func NewSynthStrand(p *pmdk.Pool) (*SynthStrand, error) {
	free := p.PM().FreeBytes()
	per := free / 4
	if per < 4096 {
		return nil, errors.New("synth_strand: pool too small")
	}
	capEntries := (per - 64) / 16
	s := &SynthStrand{p: p, cap: capEntries, site: trace.RegisterSite("synth_strand.c")}
	c := p.Ctx()
	for i := 0; i < 2; i++ {
		s.side[i] = p.Alloc(per)
		c.Store64(s.side[i], 0)
		p.Persist(s.side[i], 8)
	}
	return s, nil
}

// Name returns "synth_strand".
func (s *SynthStrand) Name() string { return "synth_strand" }

func (s *SynthStrand) ld(addr uint64) uint64 { return s.p.Ctx().Load64(addr) }

// Insert appends the pair to the key's side inside a strand section:
// write entry, writeback, persist barrier, publish count, writeback,
// persist barrier.
func (s *SynthStrand) Insert(key, value uint64) error {
	region := s.side[key&1]
	count := s.ld(region)
	if count >= s.cap {
		return errors.New("synth_strand: region full")
	}
	st := s.p.Ctx().At(s.site).StrandBegin()
	entry := region + 8 + count*16
	st.Store64(entry, key)
	st.Store64(entry+8, value)
	st.Flush(entry, 16)
	st.Fence() // persist barrier: entry durable before publication
	st.Store64(region, count+1)
	st.Flush(region, 8)
	st.Fence()
	st.StrandEnd()

	s.ops++
	if s.ops%ssJoinEvery == 0 {
		s.p.Ctx().JoinStrand()
	}
	return nil
}

// Get scans the key's side for its most recent value.
func (s *SynthStrand) Get(key uint64) (uint64, bool) {
	region := s.side[key&1]
	count := s.ld(region)
	for i := count; i > 0; i-- {
		entry := region + 8 + (i-1)*16
		if s.ld(entry) == key {
			v := s.ld(entry + 8)
			if v == ^uint64(0) {
				return 0, false // tombstone
			}
			return v, true
		}
	}
	return 0, false
}

// Remove appends a tombstone (value max) for the key.
func (s *SynthStrand) Remove(key uint64) (bool, error) {
	if _, ok := s.Get(key); !ok {
		return false, nil
	}
	if err := s.Insert(key, ^uint64(0)); err != nil {
		return false, err
	}
	return true, nil
}

// Close joins any outstanding strands.
func (s *SynthStrand) Close() error {
	s.p.Ctx().JoinStrand()
	return nil
}
