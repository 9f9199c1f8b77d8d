package trace

import (
	"bytes"
	"io"
	"net"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
	"time"
)

// encode serializes events and returns the raw trace bytes (header included).
func encode(t *testing.T, evs []Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteTrace(&buf, evs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReaderSlowTrickle is the regression for the full-slab blocking read:
// a writer delivering one record per network write must see each record
// come out of ReadBatch immediately, not after StreamBatchSize records have
// buffered (which over a live connection meant "never").
func TestReaderSlowTrickle(t *testing.T) {
	evs := mkEncTrace(16)
	raw := encode(t, evs)

	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()

	type step struct {
		n   int
		evs []Event
		err error
	}
	got := make(chan step)
	go func() {
		tr, err := NewReader(server)
		if err != nil {
			got <- step{err: err}
			return
		}
		defer tr.Close()
		dst := make([]Event, StreamBatchSize)
		for {
			n, err := tr.ReadBatch(dst)
			got <- step{n: n, evs: append([]Event(nil), dst[:n]...), err: err}
			if err != nil {
				return
			}
		}
	}()

	// Header, then one record per write. net.Pipe is synchronous, so every
	// write rendezvouses with a read on the decoder side.
	if _, err := client.Write(raw[:8]); err != nil {
		t.Fatal(err)
	}
	body := raw[8:]
	for i := 0; i < len(evs); i++ {
		if _, err := client.Write(body[i*recordSize : (i+1)*recordSize]); err != nil {
			t.Fatal(err)
		}
		select {
		case s := <-got:
			if s.err != nil {
				t.Fatalf("record %d: %v", i, s.err)
			}
			if s.n != 1 || !reflect.DeepEqual(s.evs, evs[i:i+1]) {
				t.Fatalf("record %d: got %d events %v, want 1 event %v", i, s.n, s.evs, evs[i])
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("record %d: decoder stalled waiting for a full slab", i)
		}
	}
	client.Close()
	s := <-got
	if s.err != io.EOF || s.n != 0 {
		t.Fatalf("after close: n=%d err=%v, want 0, io.EOF", s.n, s.err)
	}
}

// TestReaderMidRecordCut: a connection cut mid-record must surface the
// truncated-record error — loudly, once, with the whole records before the
// cut still delivered and no garbage events after it.
func TestReaderMidRecordCut(t *testing.T) {
	evs := mkEncTrace(5)
	raw := encode(t, evs)
	cut := raw[:8+2*recordSize+11] // 2 whole records + 11 bytes of the third

	tr, err := NewReader(bytes.NewReader(cut))
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	var got []Event
	dst := make([]Event, StreamBatchSize)
	var readErr error
	for {
		n, err := tr.ReadBatch(dst)
		got = append(got, dst[:n]...)
		if err != nil {
			readErr = err
			break
		}
	}
	if readErr == nil || !strings.Contains(readErr.Error(), "truncated record") {
		t.Fatalf("err = %v, want a truncated-record error", readErr)
	}
	if !reflect.DeepEqual(got, evs[:2]) {
		t.Fatalf("delivered %d events before the cut, want the 2 whole records", len(got))
	}
	// The error is sticky-shaped: further reads keep failing, never spin or
	// fabricate events.
	if n, err := tr.ReadBatch(dst); n != 0 || err == nil {
		t.Fatalf("read after truncation: n=%d err=%v, want 0 and an error", n, err)
	}
}

// TestReaderCorruptMagicLiveConn: bad magic from a live connection fails
// NewReader immediately — it must not wait for more bytes or deliver
// garbage.
func TestReaderCorruptMagicLiveConn(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()

	errc := make(chan error, 1)
	go func() {
		_, err := NewReader(server)
		errc <- err
	}()
	if _, err := client.Write([]byte("NOTTRACE")); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if err == nil || !strings.Contains(err.Error(), "bad magic") {
			t.Fatalf("err = %v, want bad magic", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("NewReader stalled on corrupt magic")
	}
}

// TestStreamTraceDisconnectMidSlab: StreamTrace over a connection that dies
// mid-record returns every whole record plus a non-nil error.
func TestStreamTraceDisconnectMidSlab(t *testing.T) {
	evs := mkEncTrace(40)
	raw := encode(t, evs)

	client, server := net.Pipe()
	defer server.Close()

	type result struct {
		n   int
		err error
	}
	done := make(chan result, 1)
	var got []Event
	go func() {
		n, err := StreamTrace(server, HandlerFunc(func(ev Event) {
			got = append(got, ev)
		}))
		done <- result{n, err}
	}()

	if _, err := client.Write(raw[:8+40*recordSize-7]); err != nil {
		t.Fatal(err)
	}
	client.Close() // abrupt disconnect, record 40 cut 7 bytes short
	select {
	case r := <-done:
		if r.err == nil {
			t.Fatal("StreamTrace returned nil error on a mid-record disconnect")
		}
		if r.n != 39 || !reflect.DeepEqual(got, evs[:39]) {
			t.Fatalf("delivered %d events, want the 39 whole records", r.n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("StreamTrace stalled on a dead connection")
	}
}

// TestReaderCloseAfterError: Close after a decode error returns the pooled
// slab exactly once and further reads report EOF (whitebox: the slab field
// is nil'd on the first Close, so a second Put is impossible).
func TestReaderCloseAfterError(t *testing.T) {
	evs := mkEncTrace(3)
	raw := encode(t, evs)
	tr, err := NewReader(bytes.NewReader(raw[:len(raw)-5]))
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]Event, StreamBatchSize)
	for {
		if _, err := tr.ReadBatch(dst); err != nil {
			break
		}
	}
	tr.Close()
	if tr.slab != nil || tr.buf != nil {
		t.Fatal("Close did not release the slab")
	}
	tr.Close() // second Close is a no-op, not a double pool Put
	if n, err := tr.ReadBatch(dst); n != 0 || err != io.EOF {
		t.Fatalf("read after Close: n=%d err=%v, want 0, io.EOF", n, err)
	}
}

// TestReaderOneByteReads drives the decoder through a reader that returns a
// single byte per call, exercising the partial-record carry across every
// possible boundary; the decode must be byte-identical to the direct one.
func TestReaderOneByteReads(t *testing.T) {
	evs := mkEncTrace(257)
	raw := encode(t, evs)
	got, err := ReadTrace(iotest.OneByteReader(bytes.NewReader(raw)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, evs) {
		t.Fatal("one-byte-at-a-time decode differs from the written trace")
	}
}

// TestMultiHandlerBatchFastPath: a MultiHandler tee must keep StreamTrace
// and ReplayEvents on the batch fast path for batch-capable children while
// still feeding per-event children — the regression for the tee silently
// knocking every consumer off the fast path.
func TestMultiHandlerBatchFastPath(t *testing.T) {
	evs := mkEncTrace(StreamBatchSize + 57)

	bc := &batchCounter{}
	var perEvent []Event
	m := MultiHandler{bc, HandlerFunc(func(ev Event) { perEvent = append(perEvent, ev) })}
	if _, ok := any(m).(BatchHandler); !ok {
		t.Fatal("MultiHandler does not implement BatchHandler")
	}

	var buf bytes.Buffer
	if err := WriteTrace(&buf, evs); err != nil {
		t.Fatal(err)
	}
	n, err := StreamTrace(bytes.NewReader(buf.Bytes()), m)
	if err != nil || n != len(evs) {
		t.Fatalf("StreamTrace: n=%d err=%v", n, err)
	}
	if bc.batches == 0 {
		t.Fatal("batched child never saw a batch: tee fell off the fast path")
	}
	if !reflect.DeepEqual(bc.events, evs) {
		t.Fatal("batched child events differ")
	}
	if !reflect.DeepEqual(perEvent, evs) {
		t.Fatal("per-event child events differ")
	}

	// Recorder (batched) + plain func through ReplayEvents: same split.
	rec := NewRecorder(len(evs))
	perEvent = nil
	ReplayEvents(evs, MultiHandler{rec, HandlerFunc(func(ev Event) { perEvent = append(perEvent, ev) })})
	if !reflect.DeepEqual(rec.Events, evs) || !reflect.DeepEqual(perEvent, evs) {
		t.Fatal("ReplayEvents through MultiHandler lost events")
	}
}

// TestReaderRejectsImpossibleRecords: a record whose range wraps past 2^64
// or whose kind is past KindEnd is a decode error. The events before it
// are delivered, the record itself is never consumed, and StreamTrace stops
// there instead of handing it to a detector.
func TestReaderRejectsImpossibleRecords(t *testing.T) {
	for _, c := range []struct {
		name string
		bad  Event
		want string
	}{
		{"wrapping-store", Event{Seq: 3, Kind: KindStore, Addr: 1<<64 - 8, Size: 16}, "wraps past 2^64"},
		{"flush-ending-at-2^64", Event{Seq: 3, Kind: KindFlush, Addr: 1<<64 - 64, Size: 64}, "wraps past 2^64"},
		{"unknown-kind", Event{Seq: 3, Kind: KindEnd + 1}, "unknown kind"},
	} {
		t.Run(c.name, func(t *testing.T) {
			raw := encode(t, append(mkEncTrace(2), c.bad, Event{Seq: 4, Kind: KindFence}))
			tr, err := NewReader(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			dst := make([]Event, 8)
			n, err := tr.ReadBatch(dst)
			if n != 2 || err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("ReadBatch = %d, %v; want the 2 good events and a %q error", n, err, c.want)
			}
			if n, err := tr.ReadBatch(dst); n != 0 || err == nil {
				t.Fatalf("ReadBatch after the error = %d, %v; want the error again", n, err)
			}
			tr.Close()

			var got []Event
			total, err := StreamTrace(bytes.NewReader(raw), HandlerFunc(func(ev Event) { got = append(got, ev) }))
			if total != 2 || len(got) != 2 || err == nil {
				t.Fatalf("StreamTrace delivered %d events, err %v; want 2 and an error", total, err)
			}
		})
	}
}

// FuzzReader feeds arbitrary bytes after the magic to the decoder.
// ReadBatch must never panic, and every call either fails or returns events
// that re-encode to exactly the bytes it consumed — each of a known kind,
// with a range that does not wrap. A clean EOF means every byte was
// consumed.
func FuzzReader(f *testing.F) {
	record := func(ev Event) []byte {
		b := make([]byte, recordSize)
		putEvent(b, ev)
		return b
	}
	good := record(Event{Seq: 1, Kind: KindStore, Addr: 0x1000, Size: 8, Strand: 2, Site: 5})
	f.Add(good)
	f.Add(append(record(Event{Seq: 1, Kind: KindRegister, Addr: 0x1000, Size: 1 << 20}),
		record(Event{Seq: 2, Kind: KindStore, Addr: 1<<64 - 8, Size: 16})...))
	f.Add(append(record(Event{Seq: 1, Kind: KindEnd + 1}), good...))
	f.Add(append(append([]byte{}, good...), good[:recordSize/2]...))
	f.Fuzz(func(t *testing.T, body []byte) {
		tr, err := NewReader(bytes.NewReader(append(traceMagic[:], body...)))
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		dst := make([]Event, 3) // small, so one input takes several calls
		buf := make([]byte, recordSize)
		consumed := 0
		for {
			n, err := tr.ReadBatch(dst)
			for _, ev := range dst[:n] {
				if ev.Kind > KindEnd || ev.Addr+ev.Size < ev.Addr {
					t.Fatalf("decoded an impossible event %v", ev)
				}
				putEvent(buf, ev)
				if end := consumed + recordSize; end > len(body) || !bytes.Equal(buf, body[consumed:end]) {
					t.Fatalf("event %v does not re-encode to the bytes at offset %d", ev, consumed)
				}
				consumed += recordSize
			}
			switch {
			case err == io.EOF:
				if consumed != len(body) {
					t.Fatalf("clean EOF after %d of %d bytes", consumed, len(body))
				}
				return
			case err != nil:
				return
			case n == 0:
				t.Fatal("ReadBatch returned no events and no error")
			}
		}
	})
}
