// Package trace defines the persistent-memory instruction event model that
// connects instrumented PM programs to bug detectors.
//
// In the paper, Valgrind intercepts memory store, cache-line flush (CLWB,
// CLFLUSH, CLFLUSHOPT) and fence (SFENCE) instructions and invokes a callback
// per instruction. Here the simulated PM substrate (package pmem) emits the
// same callbacks as trace.Events. A detector is anything that implements
// Handler; traces can also be recorded and replayed so that the same
// instruction stream can be fed to several detectors for fair comparison.
package trace

import "fmt"

// Kind identifies the instrumented instruction or program marker an Event
// carries.
type Kind uint8

// Event kinds. Store, Flush and Fence are the three fundamental operations
// the paper characterizes (§3); the remaining kinds are the program markers
// used by the persistency-model extensions (§5) and by bug rules.
const (
	// KindStore is a memory store to a registered PM location.
	KindStore Kind = iota
	// KindFlush is a cache-line writeback (CLF): CLWB, CLFLUSH or CLFLUSHOPT.
	KindFlush
	// KindFence is an ordering fence (SFENCE). It guarantees completion of
	// prior writebacks.
	KindFence
	// KindEpochBegin marks the start of an epoch section (TX_BEGIN).
	KindEpochBegin
	// KindEpochEnd marks the end of an epoch section (TX_END).
	KindEpochEnd
	// KindStrandBegin marks the start of a strand (NewStrand).
	KindStrandBegin
	// KindStrandEnd marks the end of a strand.
	KindStrandEnd
	// KindJoinStrand establishes explicit persist ordering across strands.
	KindJoinStrand
	// KindRegister registers a PM region for debugging (Register_pmem).
	KindRegister
	// KindUnregister removes a PM region from debugging
	// (Unregister_pmem). Decoders accept it and user rules see it, but no
	// detector here acts on it: tracking always covers the whole pool.
	KindUnregister
	// KindTxLogAdd records an undo-log append for a data object inside a
	// logging-based transaction. Used by the redundant-logging rule (§5.2).
	KindTxLogAdd
	// KindEnd marks the end of the program; detectors run their final checks
	// (e.g. the no-durability-guarantee rule, §4.5).
	KindEnd
)

// String returns the conventional mnemonic for the event kind.
func (k Kind) String() string {
	switch k {
	case KindStore:
		return "store"
	case KindFlush:
		return "clf"
	case KindFence:
		return "fence"
	case KindEpochBegin:
		return "epoch-begin"
	case KindEpochEnd:
		return "epoch-end"
	case KindStrandBegin:
		return "strand-begin"
	case KindStrandEnd:
		return "strand-end"
	case KindJoinStrand:
		return "join-strand"
	case KindRegister:
		return "register"
	case KindUnregister:
		return "unregister"
	case KindTxLogAdd:
		return "tx-log-add"
	case KindEnd:
		return "end"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// FlushKind distinguishes the three cache writeback instructions. The
// detectors in this repository treat them identically for durability (all
// become durable at the next fence) but record the kind for reports.
type FlushKind uint8

// Writeback instruction variants.
const (
	CLWB FlushKind = iota
	CLFLUSH
	CLFLUSHOPT
)

// String returns the instruction mnemonic.
func (f FlushKind) String() string {
	switch f {
	case CLWB:
		return "clwb"
	case CLFLUSH:
		return "clflush"
	case CLFLUSHOPT:
		return "clflushopt"
	default:
		return fmt.Sprintf("flush(%d)", uint8(f))
	}
}

// Event is one instrumented instruction or program marker.
//
// Addr/Size describe the affected address range: the stored bytes for
// KindStore, the flushed range for KindFlush (the substrate always flushes
// whole cache lines, but detectors accept arbitrary ranges), the registered
// region for KindRegister, and the logged object for KindTxLogAdd.
//
// Strand identifies the strand section the instruction comes from; 0 is the
// implicit default strand. Thread identifies the issuing application thread.
// Seq is a global sequence number assigned by the emitter.
type Event struct {
	Seq    uint64
	Addr   uint64
	Size   uint64
	Kind   Kind
	Flush  FlushKind
	Strand int32
	Thread int32
	Site   SiteID
}

// End returns the first address past the event's range.
func (e Event) End() uint64 { return e.Addr + e.Size }

// Overlaps reports whether the event's range intersects [addr, addr+size).
func (e Event) Overlaps(addr, size uint64) bool {
	return e.Addr < addr+size && addr < e.Addr+e.Size
}

// String formats the event compactly for logs and test failures.
func (e Event) String() string {
	switch e.Kind {
	case KindStore, KindRegister, KindUnregister, KindTxLogAdd:
		return fmt.Sprintf("#%d %s [%#x,+%d) strand=%d site=%s",
			e.Seq, e.Kind, e.Addr, e.Size, e.Strand, e.Site)
	case KindFlush:
		return fmt.Sprintf("#%d %s [%#x,+%d) strand=%d",
			e.Seq, e.Flush, e.Addr, e.Size, e.Strand)
	default:
		return fmt.Sprintf("#%d %s strand=%d", e.Seq, e.Kind, e.Strand)
	}
}

// Handler consumes the instrumented instruction stream. Implementations
// include every detector in internal/core and internal/baselines, the
// characterization pass in internal/stats, and the Recorder in this package.
//
// HandleEvent is invoked synchronously from the instrumented program;
// handlers that need cross-thread safety (multi-threaded workloads) receive
// events already serialized by the emitting Pool.
type Handler interface {
	HandleEvent(ev Event)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(Event)

// HandleEvent calls f(ev).
func (f HandlerFunc) HandleEvent(ev Event) { f(ev) }

// MultiHandler fans an event out to each handler in order.
type MultiHandler []Handler

// HandleEvent delivers ev to every handler in the slice.
func (m MultiHandler) HandleEvent(ev Event) {
	for _, h := range m {
		h.HandleEvent(ev)
	}
}

// HandleBatch implements BatchHandler: children that implement the batch
// fast path receive the slice whole, the rest get per-event delivery. A tee
// (e.g. record + detect on a trace server) therefore keeps every
// batch-capable consumer on the fast path instead of silently degrading
// the whole fan-out to per-event dispatch, which is what happened when
// MultiHandler implemented only HandleEvent.
func (m MultiHandler) HandleBatch(evs []Event) {
	for _, h := range m {
		if bh, ok := h.(BatchHandler); ok {
			bh.HandleBatch(evs)
		} else {
			for _, ev := range evs {
				h.HandleEvent(ev)
			}
		}
	}
}

var _ BatchHandler = (MultiHandler)(nil)
