// Package report defines bug records and detection reports shared by every
// detector: the ten bug types of the paper (Table 6), per-bug provenance,
// deduplication, and the bookkeeping counters the evaluation quantifies
// (tree size per fence interval, reorganizations — §7.5).
package report

import (
	"fmt"
	"sort"
	"strings"

	"pmdebugger/internal/trace"
)

// BugType enumerates the ten crash-consistency bug types of Table 6. The
// first five are common to all persistency models (§4.5); the next four are
// specific to the relaxed models (§5.2); the last is the cross-failure
// semantic bug of XFDetector that PMDebugger detects via a manually invoked
// recovery pass (§7.3).
type BugType uint8

// The ten bug types.
const (
	// NoDurability: a persistent memory location is not persisted after the
	// last write to it (missing CLF or missing fence).
	NoDurability BugType = iota
	// MultipleOverwrites: the same location is written multiple times before
	// its durability is guaranteed (strict model only).
	MultipleOverwrites
	// NoOrderGuarantee: a programmer-specified persist order X-before-Y is
	// violated.
	NoOrderGuarantee
	// RedundantFlush: a store's cache line is flushed more than once before
	// the nearest fence (performance bug).
	RedundantFlush
	// FlushNothing: a CLF persists no prior store.
	FlushNothing
	// RedundantLogging: a data object is updated once but logged multiple
	// times in a logging-based transaction (performance bug).
	RedundantLogging
	// LackDurabilityInEpoch: at epoch end, stores from the epoch are not yet
	// durable.
	LackDurabilityInEpoch
	// RedundantEpochFence: more than one fence inside an epoch section
	// (performance bug).
	RedundantEpochFence
	// LackOrderingInStrands: persists across strands violate a required
	// cross-strand order.
	LackOrderingInStrands
	// CrossFailureSemantic: post-failure execution reads semantically
	// inconsistent data.
	CrossFailureSemantic

	// NumBugTypes is the number of defined bug types.
	NumBugTypes = int(CrossFailureSemantic) + 1
)

// String returns the paper's name for the bug type.
func (b BugType) String() string {
	switch b {
	case NoDurability:
		return "no durability guarantee"
	case MultipleOverwrites:
		return "multiple overwrites"
	case NoOrderGuarantee:
		return "no order guarantee"
	case RedundantFlush:
		return "redundant flushes"
	case FlushNothing:
		return "flush nothing"
	case RedundantLogging:
		return "redundant logging"
	case LackDurabilityInEpoch:
		return "lack durability in epoch"
	case RedundantEpochFence:
		return "redundant epoch fence"
	case LackOrderingInStrands:
		return "lack ordering in strands"
	case CrossFailureSemantic:
		return "cross-failure semantic"
	default:
		return fmt.Sprintf("bugtype(%d)", uint8(b))
	}
}

// AllBugTypes lists every bug type in Table 6 column order.
func AllBugTypes() []BugType {
	out := make([]BugType, NumBugTypes)
	for i := range out {
		out[i] = BugType(i)
	}
	return out
}

// Performance reports whether the bug type is a performance bug (does not
// break crash consistency, only wastes cycles), following the convention of
// §4.5.
func (b BugType) Performance() bool {
	switch b {
	case RedundantFlush, RedundantLogging, RedundantEpochFence:
		return true
	}
	return false
}

// EndOfProgram reports whether bugs of this type are emitted by the
// end-of-program finalization (the §4.5 no-durability sweep and the
// cross-failure recovery check) rather than at the offending instruction.
// Merge uses this to keep finalization bugs after stream bugs, matching the
// order a sequential replay produces.
func (b BugType) EndOfProgram() bool {
	return b == NoDurability || b == CrossFailureSemantic
}

// Bug is one detected bug instance.
type Bug struct {
	Type    BugType
	Addr    uint64
	Size    uint64
	Seq     uint64       // sequence number of the offending instruction
	Site    trace.SiteID // source site of the store that created the record
	Strand  int32
	Message string
}

// String formats the bug for the report output.
func (b Bug) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "[%s]", b.Type)
	if b.Size > 0 {
		fmt.Fprintf(&sb, " addr=%#x size=%d", b.Addr, b.Size)
	}
	if b.Site != 0 {
		fmt.Fprintf(&sb, " site=%s", b.Site)
	}
	if b.Strand != 0 {
		fmt.Fprintf(&sb, " strand=%d", b.Strand)
	}
	if b.Message != "" {
		fmt.Fprintf(&sb, ": %s", b.Message)
	}
	return sb.String()
}

// Counters records the bookkeeping statistics the evaluation quantifies.
type Counters struct {
	Stores  uint64
	Flushes uint64
	Fences  uint64

	// TreeNodeSamples accumulates the tree size observed at each fence so
	// the average number of tree nodes per fence interval (Fig. 11) can be
	// derived: TreeNodeSamples / Fences.
	TreeNodeSamples uint64
	// TreeReorgs counts expensive tree reorganizations (§7.5).
	TreeReorgs uint64
	// ArrayAppends counts stores absorbed by the memory-location array.
	ArrayAppends uint64
	// ArraySpills counts stores that overflowed the array into the tree.
	ArraySpills uint64
	// Redistributions counts array entries moved to the tree at fences.
	Redistributions uint64

	// IndexLineHits and IndexLineMisses count cache-line index lookups on
	// the detector hot path that found / did not find candidate records.
	// The index is built only for fence intervals whose array outgrows the
	// detector's scan limit, so both stay zero when no interval does, and
	// when the index is disabled (core.Config.DisableIndex).
	IndexLineHits   uint64
	IndexLineMisses uint64
	// MRUProbeHits counts store and CLF events answered entirely by the
	// most-recent CLF intervals (the Fig. 2a locality fast path), skipping
	// both the index lookup and the full interval scan.
	MRUProbeHits uint64
}

// Merge accumulates another counter set into c (used when combining shard
// reports: shards see disjoint event subsequences, so sums reproduce the
// sequential totals).
func (c *Counters) Merge(o Counters) {
	c.Stores += o.Stores
	c.Flushes += o.Flushes
	c.Fences += o.Fences
	c.TreeNodeSamples += o.TreeNodeSamples
	c.TreeReorgs += o.TreeReorgs
	c.ArrayAppends += o.ArrayAppends
	c.ArraySpills += o.ArraySpills
	c.Redistributions += o.Redistributions
	c.IndexLineHits += o.IndexLineHits
	c.IndexLineMisses += o.IndexLineMisses
	c.MRUProbeHits += o.MRUProbeHits
}

// AvgTreeNodes returns the average tree size per fence interval (Fig. 11).
func (c Counters) AvgTreeNodes() float64 {
	if c.Fences == 0 {
		return 0
	}
	return float64(c.TreeNodeSamples) / float64(c.Fences)
}

// Report is a detector's final output: the deduplicated bug list plus
// counters.
type Report struct {
	Detector string
	Bugs     []Bug
	Counters Counters

	// Failures records detection-infrastructure failures — a shard
	// consumer's detector panicking mid-stream, for example. They are not
	// bugs in the program under test: a non-empty Failures means the bug
	// list may be incomplete and the run should not be trusted as a clean
	// pass.
	Failures []string

	seen map[bugKey]bool
}

type bugKey struct {
	typ  BugType
	addr uint64
	size uint64
	site trace.SiteID
}

// New returns an empty report for the named detector.
func New(detector string) *Report {
	return &Report{Detector: detector, seen: map[bugKey]bool{}}
}

func keyOf(b Bug) bugKey {
	k := bugKey{typ: b.Type, addr: b.Addr, size: b.Size, site: b.Site}
	if b.Site != 0 {
		// When a site is known, dedup by site alone within the type: the
		// same buggy line touches many addresses across iterations.
		k.addr, k.size = 0, 0
	}
	return k
}

// Add records a bug, deduplicating by (type, addr, size, site): a buggy
// store site executed a million times is one bug, as in the paper's counting
// of application bugs.
func (r *Report) Add(b Bug) {
	k := keyOf(b)
	if r.seen[k] {
		return
	}
	r.seen[k] = true
	r.Bugs = append(r.Bugs, b)
}

// AddLazy records a bug like Add but defers building its message: msg runs
// only when the bug survives deduplication, so hot-path rule sites do not
// format (or allocate) a string for the millionth duplicate of a
// known bug. b.Message is ignored; a nil msg leaves the message empty.
func (r *Report) AddLazy(b Bug, msg func() string) {
	k := keyOf(b)
	if r.seen[k] {
		return
	}
	r.seen[k] = true
	if msg != nil {
		b.Message = msg()
	}
	r.Bugs = append(r.Bugs, b)
}

// AddFailure records a detection-infrastructure failure (see Failures).
func (r *Report) AddFailure(msg string) {
	r.Failures = append(r.Failures, msg)
}

// Merge combines shard reports produced by a partitioned replay into one
// deterministic report. Bugs are re-deduplicated in global stream order —
// stream-phase bugs by the sequence number of the offending instruction,
// then end-of-program bugs by the sequence number of the unpersisted store
// (ties broken by address, which only split records can produce) — so the
// merged report is identical, bug for bug and in the same order, to the one
// a sequential replay of the unpartitioned stream produces. Counters are
// summed.
func Merge(detector string, shards []*Report) *Report {
	out := New(detector)
	var bugs []Bug
	for _, sh := range shards {
		if sh == nil {
			continue
		}
		bugs = append(bugs, sh.Bugs...)
		out.Counters.Merge(sh.Counters)
		out.Failures = append(out.Failures, sh.Failures...)
	}
	sort.SliceStable(bugs, func(i, j int) bool {
		bi, bj := bugs[i], bugs[j]
		if pi, pj := bi.Type.EndOfProgram(), bj.Type.EndOfProgram(); pi != pj {
			return !pi
		}
		if bi.Seq != bj.Seq {
			return bi.Seq < bj.Seq
		}
		return bi.Addr < bj.Addr
	})
	for _, b := range bugs {
		out.Add(b)
	}
	return out
}

// CountByType returns how many distinct bugs of each type were found.
func (r *Report) CountByType() map[BugType]int {
	out := map[BugType]int{}
	for _, b := range r.Bugs {
		out[b.Type]++
	}
	return out
}

// Has reports whether at least one bug of the given type was found.
func (r *Report) Has(t BugType) bool {
	for _, b := range r.Bugs {
		if b.Type == t {
			return true
		}
	}
	return false
}

// Len returns the number of distinct bugs.
func (r *Report) Len() int { return len(r.Bugs) }

// Summary renders the report in the style of the tool's end-of-run output.
func (r *Report) Summary() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "=== %s report ===\n", r.Detector)
	fmt.Fprintf(&sb, "instructions: %d stores, %d writebacks, %d fences\n",
		r.Counters.Stores, r.Counters.Flushes, r.Counters.Fences)
	if len(r.Failures) > 0 {
		fmt.Fprintf(&sb, "%d detection failure(s) — the bug list may be incomplete:\n", len(r.Failures))
		for _, f := range r.Failures {
			fmt.Fprintf(&sb, "  ! %s\n", f)
		}
	}
	if len(r.Bugs) == 0 {
		sb.WriteString("no bugs detected\n")
		return sb.String()
	}
	byType := r.CountByType()
	types := make([]BugType, 0, len(byType))
	for t := range byType {
		types = append(types, t)
	}
	sort.Slice(types, func(i, j int) bool { return types[i] < types[j] })
	fmt.Fprintf(&sb, "%d bug(s) detected:\n", len(r.Bugs))
	for _, t := range types {
		fmt.Fprintf(&sb, "  %-28s %d\n", t.String()+":", byType[t])
	}
	for _, b := range r.Bugs {
		fmt.Fprintf(&sb, "  %s\n", b)
	}
	return sb.String()
}
