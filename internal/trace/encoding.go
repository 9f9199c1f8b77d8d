package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
)

// Trace file format: a 8-byte magic header followed by fixed-width
// little-endian records. Site names are not serialized; site IDs are
// preserved verbatim, so decoded traces report numeric sites unless the same
// process registered the names. This matches the role traces play here:
// shuttling an instruction stream between the cmd/ tools in one session.
//
// Encoding and decoding are streaming: Writer and Reader move
// StreamBatchSize-record slabs through a shared buffer pool, so multi-GB
// traces flow between disk and the replay pipeline in constant memory.

var traceMagic = [8]byte{'P', 'M', 'T', 'R', 'A', 'C', 'E', '1'}

const recordSize = 8 + 8 + 8 + 1 + 1 + 4 + 4 + 4 // Seq Addr Size Kind Flush Strand Thread Site

// StreamBatchSize is the number of records moved per I/O slab by the
// streaming encoder/decoder and the batch size StreamTrace delivers.
const StreamBatchSize = DefaultBatchSize

// slabPool recycles the byte slabs used to stage encoded records, so
// concurrent streams (e.g. several shard writers) do not each hold a
// freshly allocated buffer per batch.
var slabPool = sync.Pool{
	New: func() any { return make([]byte, StreamBatchSize*recordSize) },
}

func putEvent(buf []byte, ev Event) {
	binary.LittleEndian.PutUint64(buf[0:], ev.Seq)
	binary.LittleEndian.PutUint64(buf[8:], ev.Addr)
	binary.LittleEndian.PutUint64(buf[16:], ev.Size)
	buf[24] = byte(ev.Kind)
	buf[25] = byte(ev.Flush)
	binary.LittleEndian.PutUint32(buf[26:], uint32(ev.Strand))
	binary.LittleEndian.PutUint32(buf[30:], uint32(ev.Thread))
	binary.LittleEndian.PutUint32(buf[34:], uint32(ev.Site))
}

func getEvent(buf []byte) Event {
	return Event{
		Seq:    binary.LittleEndian.Uint64(buf[0:]),
		Addr:   binary.LittleEndian.Uint64(buf[8:]),
		Size:   binary.LittleEndian.Uint64(buf[16:]),
		Kind:   Kind(buf[24]),
		Flush:  FlushKind(buf[25]),
		Strand: int32(binary.LittleEndian.Uint32(buf[26:])),
		Thread: int32(binary.LittleEndian.Uint32(buf[30:])),
		Site:   SiteID(binary.LittleEndian.Uint32(buf[34:])),
	}
}

// Writer streams events to an underlying io.Writer in the trace file
// format. Events are staged in pooled slabs and written StreamBatchSize
// records at a time; call Flush once at the end.
//
// Write errors are sticky: the first failure is retained, every subsequent
// write becomes a no-op returning it, and Flush reports it — so a Writer
// attached as a (Batch)Handler, whose per-event errors have nowhere to go,
// still surfaces the failure at the end of the run.
type Writer struct {
	bw   *bufio.Writer
	slab []byte
	n    int   // staged records in slab
	err  error // first write error; sticky
}

// NewWriter writes the trace header and returns a streaming encoder.
func NewWriter(w io.Writer) (*Writer, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(traceMagic[:]); err != nil {
		return nil, fmt.Errorf("trace: write header: %w", err)
	}
	return &Writer{bw: bw, slab: slabPool.Get().([]byte)}, nil
}

// WriteEvent appends one event to the stream. After a write error it is a
// no-op returning that error.
func (tw *Writer) WriteEvent(ev Event) error {
	if tw.err != nil {
		return tw.err
	}
	putEvent(tw.slab[tw.n*recordSize:], ev)
	tw.n++
	if tw.n == StreamBatchSize {
		return tw.flushSlab()
	}
	return nil
}

// WriteBatch appends a slice of events to the stream.
func (tw *Writer) WriteBatch(evs []Event) error {
	for _, ev := range evs {
		if err := tw.WriteEvent(ev); err != nil {
			return err
		}
	}
	return nil
}

// HandleEvent implements Handler, so a Writer can be attached directly to an
// instrumented pool to record straight to disk. Errors are sticky and
// surfaced by Err and Flush.
func (tw *Writer) HandleEvent(ev Event) { _ = tw.WriteEvent(ev) }

// HandleBatch implements BatchHandler.
func (tw *Writer) HandleBatch(evs []Event) { _ = tw.WriteBatch(evs) }

// Err returns the sticky write error, or nil if every write so far
// succeeded.
func (tw *Writer) Err() error { return tw.err }

func (tw *Writer) flushSlab() error {
	if tw.err != nil {
		return tw.err
	}
	if tw.n == 0 {
		return nil
	}
	if _, err := tw.bw.Write(tw.slab[:tw.n*recordSize]); err != nil {
		tw.err = fmt.Errorf("trace: write records: %w", err)
		return tw.err
	}
	tw.n = 0
	return nil
}

// Flush drains staged records and the underlying buffer, returns the
// pooled slab, and reports the first write error of the Writer's lifetime.
// The Writer must not be used afterwards.
func (tw *Writer) Flush() error {
	if err := tw.flushSlab(); err == nil {
		if ferr := tw.bw.Flush(); ferr != nil {
			tw.err = fmt.Errorf("trace: flush records: %w", ferr)
		}
	}
	if tw.slab != nil {
		slabPool.Put(tw.slab)
		tw.slab = nil
	}
	return tw.err
}

// Reader streams events from an underlying io.Reader.
type Reader struct {
	br   *bufio.Reader
	slab []byte
	buf  []byte // unconsumed decoded bytes within slab
}

// NewReader validates the trace header and returns a streaming decoder.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("trace: read header: %w", err)
	}
	if magic != traceMagic {
		return nil, fmt.Errorf("trace: bad magic %q", magic[:])
	}
	return &Reader{br: br, slab: slabPool.Get().([]byte)}, nil
}

// ReadBatch fills dst with decoded events and returns how many were read.
// It blocks only until at least one whole record is available: a partial
// batch is returned as soon as the buffered bytes run out, so a reader over
// a live connection delivers events as they arrive instead of stalling
// until a whole slab has buffered. It returns 0, io.EOF at a clean end of
// stream and an error for a truncated or corrupt trace. A record no emitter
// produces (see checkRecord) is an error too: the events before it are
// returned with the error, and the record itself is never consumed.
func (tr *Reader) ReadBatch(dst []Event) (int, error) {
	n := 0
	for n < len(dst) {
		if len(tr.buf) < recordSize {
			if n > 0 {
				// Deliver what already arrived rather than blocking on a
				// refill; the next call fills again.
				return n, nil
			}
			if err := tr.fill(); err != nil {
				return n, err
			}
		}
		dst[n] = getEvent(tr.buf)
		if err := checkRecord(&dst[n]); err != nil {
			return n, err
		}
		tr.buf = tr.buf[recordSize:]
		n++
	}
	return n, nil
}

// checkRecord rejects a decoded record that no emitter produces: an
// unknown kind, which a strand router would treat as global and drain
// every shard for, or a range whose end wraps past 2^64 (the test
// pmem.Pool applies to every access), which would send the detector's
// cache-line index walking about 2^64 lines.
func checkRecord(ev *Event) error {
	switch {
	case ev.Kind > KindEnd:
		return fmt.Errorf("trace: corrupt record (seq %d): unknown kind %d", ev.Seq, uint8(ev.Kind))
	case ev.Addr+ev.Size < ev.Addr:
		return fmt.Errorf("trace: corrupt record (seq %d): range [%#x,+%#x) wraps past 2^64",
			ev.Seq, ev.Addr, ev.Size)
	}
	return nil
}

// fill reads the next run of whole records from the underlying reader. It
// waits only for one record (io.ReadAtLeast) and takes whatever else came
// with it, so socket streams trickle through record by record while file
// reads still move near-slab-sized runs per call. A read boundary that cuts
// a record mid-way is not an error: the partial bytes are carried over to
// the next fill. A cut at end-of-stream is the truncated-record error.
func (tr *Reader) fill() error {
	if tr.slab == nil {
		return io.EOF
	}
	// Carry partial-record bytes to the slab head; buf aliases the slab, so
	// the ranges may overlap (copy handles that).
	rem := len(tr.buf)
	if rem > 0 {
		copy(tr.slab, tr.buf)
	}
	tr.buf = nil
	read, err := io.ReadAtLeast(tr.br, tr.slab[rem:], recordSize-rem)
	total := rem + read
	if err == io.ErrUnexpectedEOF || err == io.EOF {
		if total == 0 {
			tr.Close()
			return io.EOF
		}
		if total%recordSize != 0 {
			return fmt.Errorf("trace: truncated record (%d trailing bytes)", total%recordSize)
		}
		err = nil
	}
	if err != nil {
		return fmt.Errorf("trace: read records: %w", err)
	}
	tr.buf = tr.slab[:total]
	return nil
}

// Close returns the pooled slab. Reading past EOF closes implicitly; Close
// is only needed when abandoning a stream early.
func (tr *Reader) Close() {
	if tr.slab != nil {
		slabPool.Put(tr.slab)
		tr.slab = nil
		tr.buf = nil
	}
}

// StreamTrace decodes a trace from r and delivers it to h in batches of up
// to StreamBatchSize events without materializing the trace, using the
// batch fast path when h implements BatchHandler. It returns the number of
// events delivered.
func StreamTrace(r io.Reader, h Handler) (int, error) {
	tr, err := NewReader(r)
	if err != nil {
		return 0, err
	}
	defer tr.Close()
	total := 0
	batch := getSlab()
	defer putSlab(batch)
	bh, batched := h.(BatchHandler)
	for {
		n, err := tr.ReadBatch(batch)
		if n > 0 {
			if batched {
				bh.HandleBatch(batch[:n])
			} else {
				for _, ev := range batch[:n] {
					h.HandleEvent(ev)
				}
			}
			total += n
		}
		if err == io.EOF {
			return total, nil
		}
		if err != nil {
			return total, err
		}
	}
}

// WriteTrace serializes events to w in the trace file format.
func WriteTrace(w io.Writer, events []Event) error {
	tw, err := NewWriter(w)
	if err != nil {
		return err
	}
	if err := tw.WriteBatch(events); err != nil {
		return err
	}
	return tw.Flush()
}

// ReadTrace deserializes a trace previously written by WriteTrace,
// materializing it fully. Prefer StreamTrace or Reader for large traces.
func ReadTrace(r io.Reader) ([]Event, error) {
	var events []Event
	_, err := StreamTrace(r, HandlerFunc(func(ev Event) {
		events = append(events, ev)
	}))
	if err != nil {
		return nil, err
	}
	return events, nil
}
