// Package core implements PMDebugger, the paper's primary contribution: a
// fast, flexible and comprehensive crash-consistency bug detector for
// persistent memory programs.
//
// The detector consumes the instrumented instruction stream (trace.Events)
// and maintains a hybrid bookkeeping space per strand: a fixed-capacity
// memory location array absorbing the short-lived records that Pattern 1
// predicts (§3), CLF-interval metadata enabling the collective status
// updates Pattern 2 justifies, and an AVL tree for the minority of records
// that survive fences. Nine generalized rules (plus a cross-failure hook and
// arbitrary user rules) run on top of the bookkeeping operations.
package core

import (
	"fmt"
	"sort"

	"pmdebugger/internal/avl"
	"pmdebugger/internal/intervals"
	"pmdebugger/internal/report"
	"pmdebugger/internal/rules"
	"pmdebugger/internal/trace"
)

// Defaults for Config fields left zero.
const (
	// DefaultArrayCapacity bounds the memory location array; the paper
	// observes fence intervals typically hold fewer than 100,000 stores
	// (§4.1).
	DefaultArrayCapacity = 100_000
	// DefaultMergeThreshold is the tree size past which fence processing
	// performs a merge reorganization (§4.4).
	DefaultMergeThreshold = 500
)

// Config parameterizes a Detector.
type Config struct {
	// Model is the persistency model of the program under test.
	Model rules.Model
	// Rules selects the active detection rules; zero means
	// rules.Default(Model).
	Rules rules.Set
	// ArrayCapacity bounds the memory location array (0 = default).
	ArrayCapacity int
	// MergeThreshold is the tree-size threshold for merge reorganization
	// (0 = default; negative = never merge, used by ablation benches).
	MergeThreshold int
	// Orders are the programmer-supplied persist-order requirements from
	// the debugger configuration file (§4.5).
	Orders []rules.OrderSpec
	// CrossFailureCheck, when set and RuleCrossFailure is enabled, is the
	// manually invoked recovery program of §7.3: it runs at program end and
	// returns an error when post-failure execution would read semantically
	// inconsistent data.
	CrossFailureCheck func() error
	// ArrayFirstFence reverses the fence processing order of §4.4 (tree
	// first, then array) for the A3 ablation benchmark: processing the
	// array first inserts into a larger tree.
	ArrayFirstFence bool
	// DisableIndex turns off the per-space cache-line index and MRU
	// interval probe (index.go) and falls back to the reference
	// interval-scan hot path. The two paths are behaviorally identical —
	// differential-tested in index_test.go and fuzz_test.go — so this
	// exists for that comparison and for the hotpath benchmarks.
	DisableIndex bool
	// RequireRegistration restricts tracking to regions registered with
	// Register_pmem (§6): stores and writebacks outside every registered
	// region are ignored. The pmem substrate auto-registers the whole pool
	// on Attach, so this only changes behavior for detectors fed selective
	// Register events (the artifact's address_specific function tests).
	RequireRegistration bool
}

func (c *Config) fill() {
	if c.Rules == 0 {
		c.Rules = rules.Default(c.Model)
	}
	if c.ArrayCapacity == 0 {
		c.ArrayCapacity = DefaultArrayCapacity
	}
	if c.MergeThreshold == 0 {
		c.MergeThreshold = DefaultMergeThreshold
	}
	if c.CrossFailureCheck != nil {
		c.Rules |= rules.RuleCrossFailure
	}
}

// Detector is the PMDebugger engine. It implements trace.Handler; feed it
// the instruction stream and call Report (or send a KindEnd event) for the
// final bug summary.
type Detector struct {
	cfg    Config
	rep    *report.Report
	spaces map[int32]*space
	space0 *space
	order  *orderTracker

	// epoch rule state (§5)
	epochID     int32
	epochActive bool
	epochFences int
	epochBegan  uint64 // seq of the active epoch's begin event

	// redundant-logging shadow (§5.2): object ranges logged in the current
	// epoch section.
	logged []avl.Item

	userRules []UserRule
	ended     bool

	// regions are the registered PM regions when RequireRegistration is
	// set, kept merged and address-ordered.
	regions []intervals.Range

	// spareSpaces recycles bookkeeping spaces of retired strand sections:
	// strand-heavy programs open sections at operation rate, and
	// re-allocating the array and tree each time would dominate.
	spareSpaces []*space

	// scanLimit is the array length past which queries build and use the
	// cache-line index (index.go). New sets it to the package constant;
	// tests lower it to drive the indexed path on short fence intervals.
	scanLimit int
}

// New returns a PMDebugger detector with the given configuration.
func New(cfg Config) *Detector {
	cfg.fill()
	d := &Detector{
		cfg:       cfg,
		rep:       report.New("pmdebugger"),
		spaces:    map[int32]*space{},
		epochID:   -1,
		scanLimit: scanLimit,
	}
	d.space0 = newSpace(d, 0)
	d.spaces[0] = d.space0
	if len(cfg.Orders) > 0 {
		d.order = newOrderTracker(d, cfg.Orders)
	}
	return d
}

// Config returns the detector's effective configuration.
func (d *Detector) Config() Config { return d.cfg }

// Name returns "pmdebugger".
func (d *Detector) Name() string { return "pmdebugger" }

// spaceFor returns the bookkeeping space for an event's strand. Only the
// strand model keeps separate spaces (§5.1); other models fold everything
// into space 0.
func (d *Detector) spaceFor(strand int32) *space {
	if d.cfg.Model != rules.Strand || strand == 0 {
		return d.space0
	}
	s, ok := d.spaces[strand]
	if !ok {
		if n := len(d.spareSpaces); n > 0 {
			s = d.spareSpaces[n-1]
			d.spareSpaces = d.spareSpaces[:n-1]
			s.strand = strand
			s.arr = s.arr[:0]
			s.meta = s.meta[:0]
			s.meta = append(s.meta, clfMeta{minAddr: ^uint64(0)})
			// A retired space is empty, so the fence that emptied its array
			// already reset its index — reset anyway so a recycled space
			// never inherits stale line lists.
			s.resetIndex()
		} else {
			s = newSpace(d, strand)
		}
		d.spaces[strand] = s
	}
	return s
}

// lookupSpace is the read-only counterpart of spaceFor: it applies the same
// model fold (every non-strand model bookkeeps in space 0 regardless of the
// event's strand id) without materializing a space that does not exist yet.
// All bookkeeping queries go through it so user rules observe exactly the
// space an event was bookkept in.
func (d *Detector) lookupSpace(strand int32) (*space, bool) {
	if d.cfg.Model != rules.Strand || strand == 0 {
		return d.space0, true
	}
	s, ok := d.spaces[strand]
	return s, ok
}

// currentEpoch returns the id of the active epoch section, or -1.
func (d *Detector) currentEpoch() int32 {
	if d.epochActive {
		return d.epochID
	}
	return -1
}

// HandleEvent consumes one instrumented instruction.
func (d *Detector) HandleEvent(ev trace.Event) {
	switch ev.Kind {
	case trace.KindStore:
		d.rep.Counters.Stores++
		if !d.inRegisteredRegion(ev.Addr, ev.Size) {
			break
		}
		d.spaceFor(ev.Strand).store(ev, d.currentEpoch())

	case trace.KindFlush:
		d.rep.Counters.Flushes++
		if !d.inRegisteredRegion(ev.Addr, ev.Size) {
			break
		}
		anyNew, anyOld := d.spaceFor(ev.Strand).flush(ev)
		if d.order != nil {
			d.order.noteFlush(ev)
		}
		if !anyNew && anyOld && d.cfg.Rules.Has(rules.RuleRedundantFlush) {
			d.rep.Add(report.Bug{
				Type: report.RedundantFlush,
				Addr: ev.Addr, Size: ev.Size, Seq: ev.Seq,
				Site: ev.Site, Strand: ev.Strand,
				Message: "writeback persists only data that is already flushed",
			})
		}
		if !anyNew && !anyOld && d.cfg.Rules.Has(rules.RuleFlushNothing) {
			d.rep.Add(report.Bug{
				Type: report.FlushNothing,
				Addr: ev.Addr, Size: ev.Size, Seq: ev.Seq,
				Site: ev.Site, Strand: ev.Strand,
				Message: "writeback does not persist any prior store",
			})
		}

	case trace.KindFence:
		d.rep.Counters.Fences++
		if d.epochActive {
			d.epochFences++
		}
		d.spaceFor(ev.Strand).fence(ev)

	case trace.KindEpochBegin:
		d.epochActive = true
		d.epochID++
		d.epochFences = 0
		d.epochBegan = ev.Seq
		d.logged = d.logged[:0]

	case trace.KindEpochEnd:
		d.finishEpoch(ev)

	case trace.KindStrandBegin:
		if d.order != nil {
			d.order.strandBegin(ev.Strand)
		}
		// Materialize the strand's bookkeeping space.
		d.spaceFor(ev.Strand)

	case trace.KindStrandEnd:
		if d.order != nil {
			d.order.strandEnd(ev.Strand)
		}
		// Retire the strand's bookkeeping space if it tracks nothing; a
		// non-empty space must survive for the end-of-program rules.
		if s, ok := d.spaces[ev.Strand]; ok && ev.Strand != 0 && s.empty() {
			delete(d.spaces, ev.Strand)
			if len(d.spareSpaces) < 64 {
				d.spareSpaces = append(d.spareSpaces, s)
			}
		}

	case trace.KindJoinStrand:
		if d.order != nil {
			d.order.joinStrand()
		}

	case trace.KindRegister:
		if d.order != nil {
			d.order.noteRegister(ev)
		}
		if d.cfg.RequireRegistration && ev.Size > 0 {
			d.regions = intervals.Merge(append(d.regions, intervals.R(ev.Addr, ev.Size)))
		}

	case trace.KindUnregister:
		if d.cfg.RequireRegistration && ev.Size > 0 {
			d.unregister(intervals.R(ev.Addr, ev.Size))
		}

	case trace.KindTxLogAdd:
		d.txLogAdd(ev)

	case trace.KindEnd:
		d.finish()
	}

	for _, r := range d.userRules {
		r.OnEvent(ev, d)
	}
}

// finishEpoch runs the epoch rules at TX_END (§5.2).
func (d *Detector) finishEpoch(ev trace.Event) {
	if !d.epochActive {
		return
	}
	d.epochActive = false

	if d.epochFences > 1 && d.cfg.Rules.Has(rules.RuleRedundantEpochFence) {
		d.rep.Add(report.Bug{
			Type: report.RedundantEpochFence,
			Seq:  ev.Seq, Strand: ev.Strand,
			Site: trace.RegisterSite(fmt.Sprintf("epoch#%d", d.epochID)),
			Message: fmt.Sprintf("epoch section contains %d fences; one suffices",
				d.epochFences),
		})
	}

	if d.cfg.Rules.Has(rules.RuleLackDurabilityInEpoch) {
		epoch := d.epochID
		var undurable []avl.Item
		for _, s := range d.spaces {
			s.visitEpoch(epoch, func(it avl.Item) {
				if !it.Reported {
					undurable = append(undurable, it)
				}
			})
		}
		sortItemsBySeq(undurable)
		for _, it := range undurable {
			d.rep.Add(report.Bug{
				Type: report.LackDurabilityInEpoch,
				Addr: it.Addr, Size: it.Size, Seq: ev.Seq,
				Site: it.Site, Strand: it.Strand,
				Message: "store inside epoch section is not durable at epoch end",
			})
			for _, s := range d.spaces {
				s.markReported(it.Range())
			}
		}
	}
	d.logged = d.logged[:0]
}

// txLogAdd runs the redundant-logging rule (§5.2): log writes are treated
// as stores to the logged object's address, and an "overwrite" — logging a
// range that was already logged in this transaction — is the bug. A log add
// outside any transaction is ignored: the rule is scoped to a single
// transaction, and recording a stray add would pollute the next epoch's
// shadow and misreport its first legitimate log write as redundant.
func (d *Detector) txLogAdd(ev trace.Event) {
	if !d.cfg.Rules.Has(rules.RuleRedundantLogging) || !d.epochActive {
		return
	}
	r := intervals.R(ev.Addr, ev.Size)
	for _, prev := range d.logged {
		if prev.Range().Overlaps(r) {
			d.rep.Add(report.Bug{
				Type: report.RedundantLogging,
				Addr: ev.Addr, Size: ev.Size, Seq: ev.Seq,
				Site: ev.Site, Strand: ev.Strand,
				Message: "object logged more than once in a single transaction",
			})
			return
		}
	}
	d.logged = append(d.logged, avl.Item{Addr: ev.Addr, Size: ev.Size, Seq: ev.Seq, Site: ev.Site})
}

// finish runs the end-of-program rules (§4.5): remaining records are
// durability bugs — flushed records lack a fence, unflushed records lack a
// CLF — and the cross-failure check is invoked.
func (d *Detector) finish() {
	if d.ended {
		return
	}
	d.ended = true

	if d.cfg.Rules.Has(rules.RuleNoDurability) {
		// Collect, then report in sequence-number order: d.spaces is a map,
		// and a map-ordered sweep would make the report's bug order (and
		// therefore which duplicate wins deduplication) vary run to run under
		// the strand model. Deterministic order is also what lets a
		// strand-routed parallel replay merge shard reports back into the exact
		// sequential report.
		type remaining struct {
			it      avl.Item
			flushed bool
		}
		var left []remaining
		for _, s := range d.spaces {
			s.visitRemaining(func(it avl.Item, flushed bool) {
				if !it.Reported {
					left = append(left, remaining{it, flushed})
				}
			})
		}
		sort.Slice(left, func(i, j int) bool {
			if left[i].it.Seq != left[j].it.Seq {
				return left[i].it.Seq < left[j].it.Seq
			}
			return left[i].it.Addr < left[j].it.Addr
		})
		for _, rem := range left {
			it := rem.it
			msg := "location never flushed: missing CLF"
			if rem.flushed {
				msg = "location flushed but not fenced: missing fence"
			}
			d.rep.Add(report.Bug{
				Type: report.NoDurability,
				Addr: it.Addr, Size: it.Size, Seq: it.Seq,
				Site: it.Site, Strand: it.Strand,
				Message: msg,
			})
		}
	}

	if d.cfg.Rules.Has(rules.RuleCrossFailure) && d.cfg.CrossFailureCheck != nil {
		if err := d.cfg.CrossFailureCheck(); err != nil {
			d.rep.Add(report.Bug{
				Type:    report.CrossFailureSemantic,
				Site:    trace.RegisterSite("recovery"),
				Message: err.Error(),
			})
		}
	}
}

// sortItemsBySeq orders bookkeeping records by store sequence number with
// address as the tie-breaker (records sharing a Seq can only come from one
// store split by partial persists).
func sortItemsBySeq(items []avl.Item) {
	sort.Slice(items, func(i, j int) bool {
		if items[i].Seq != items[j].Seq {
			return items[i].Seq < items[j].Seq
		}
		return items[i].Addr < items[j].Addr
	})
}

// Report finalizes (if no KindEnd event arrived) and returns the bug report.
func (d *Detector) Report() *report.Report {
	d.finish()
	return d.rep
}

// Counters returns the current bookkeeping counters without finalizing the
// report.
func (d *Detector) Counters() report.Counters { return d.rep.Counters }

// inRegisteredRegion reports whether [addr, addr+size) should be tracked.
func (d *Detector) inRegisteredRegion(addr, size uint64) bool {
	if !d.cfg.RequireRegistration {
		return true
	}
	r := intervals.R(addr, size)
	for _, reg := range d.regions {
		if reg.Overlaps(r) {
			return true
		}
	}
	return false
}

// unregister removes a region and purges its bookkeeping: an unregistered
// location is no longer a debugging target, so pending records for it must
// not surface as end-of-program bugs.
func (d *Detector) unregister(r intervals.Range) {
	var kept []intervals.Range
	for _, reg := range d.regions {
		kept = append(kept, reg.Subtract(r)...)
	}
	d.regions = intervals.Merge(kept)
	for _, s := range d.spaces {
		s.purge(r)
	}
}

// TreeLen returns the current AVL tree size of the given strand's space
// (strand 0 outside the strand model). Exposed for the Fig. 11 analysis and
// for user rules.
func (d *Detector) TreeLen(strand int32) int {
	if s, ok := d.lookupSpace(strand); ok {
		return s.tree.Len()
	}
	return 0
}

// ArrayLen returns the current memory-location-array length of the given
// strand's space.
func (d *Detector) ArrayLen(strand int32) int {
	if s, ok := d.lookupSpace(strand); ok {
		return len(s.arr)
	}
	return 0
}

// TreeStats returns the AVL maintenance counters of the given strand's
// space.
func (d *Detector) TreeStats(strand int32) avl.Stats {
	if s, ok := d.lookupSpace(strand); ok {
		return s.tree.Stats()
	}
	return avl.Stats{}
}

// TrackStatus describes a tracked location returned by Tracked.
type TrackStatus struct {
	Addr    uint64
	Size    uint64
	Seq     uint64
	Site    trace.SiteID
	Flushed bool
	InArray bool // true if held in the memory location array, false if in the tree
}

// Tracked reports whether addr is currently tracked in strand's bookkeeping
// space and, if so, its status. Part of the flexibility API for user rules.
func (d *Detector) Tracked(strand int32, addr uint64) (TrackStatus, bool) {
	s, ok := d.lookupSpace(strand)
	if !ok {
		return TrackStatus{}, false
	}
	for mi := range s.meta {
		m := &s.meta[mi]
		if m.empty() || !m.rng().ContainsAddr(addr) {
			continue
		}
		for i := m.start; i < m.end; i++ {
			if s.arr[i].Range().ContainsAddr(addr) {
				it := s.arr[i]
				return TrackStatus{
					Addr: it.Addr, Size: it.Size, Seq: it.Seq, Site: it.Site,
					Flushed: it.Flushed || m.state == allFlushed,
					InArray: true,
				}, true
			}
		}
	}
	if it, ok := s.tree.Lookup(addr); ok {
		return TrackStatus{
			Addr: it.Addr, Size: it.Size, Seq: it.Seq, Site: it.Site,
			Flushed: it.Flushed,
		}, true
	}
	return TrackStatus{}, false
}

// ReportBug lets a user rule add a bug to the report.
func (d *Detector) ReportBug(b report.Bug) { d.rep.Add(b) }

// Query is the bookkeeping-inspection interface available to user rules:
// the hierarchical design's middle layer (data-structure operations) exposed
// so arbitrary new rules can be written without modifying the engine.
type Query interface {
	Tracked(strand int32, addr uint64) (TrackStatus, bool)
	TreeLen(strand int32) int
	ArrayLen(strand int32) int
	ReportBug(b report.Bug)
}

var _ Query = (*Detector)(nil)

// UserRule is a user-defined detection rule invoked after the engine's
// built-in processing of every event.
type UserRule interface {
	Name() string
	OnEvent(ev trace.Event, q Query)
}

// AddRule registers a user rule.
func (d *Detector) AddRule(r UserRule) { d.userRules = append(d.userRules, r) }
