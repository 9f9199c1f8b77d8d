package pmem

import (
	"bytes"
	"fmt"
	"testing"
)

func TestImageRoundTrip(t *testing.T) {
	p := New(1 << 12)
	c := p.Ctx()
	a := p.Alloc(64)
	c.Store64(a, 0x1234)
	c.Persist(a, 8)
	c.Store64(a+8, 0x5678) // volatile only: must NOT survive the image
	p.RegisterNamed("counter", a, 8)

	var buf bytes.Buffer
	if err := p.WriteImage(&buf); err != nil {
		t.Fatal(err)
	}
	p2, err := ReadImage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Size() != p.Size() || p2.Base() != p.Base() {
		t.Fatalf("geometry changed: %d@%#x", p2.Size(), p2.Base())
	}
	c2 := p2.Ctx()
	if c2.Load64(a) != 0x1234 {
		t.Fatalf("durable data lost: %#x", c2.Load64(a))
	}
	if c2.Load64(a+8) != 0 {
		t.Fatalf("volatile data leaked into the image: %#x", c2.Load64(a+8))
	}
	if r, ok := p2.NamedRange("counter"); !ok || r.Addr != a {
		t.Fatalf("named range lost: %v %v", r, ok)
	}
}

func TestImageAfterCrashEquivalence(t *testing.T) {
	// Loading a written image is equivalent to opening after a crash with
	// pending lines dropped.
	p := New(1 << 12)
	c := p.Ctx()
	a := p.Base()
	c.Store64(a, 7)
	c.Persist(a, 8)
	c.Store64(a+64, 9)
	c.Flush(a+64, 8) // pending, not fenced

	var buf bytes.Buffer
	if err := p.WriteImage(&buf); err != nil {
		t.Fatal(err)
	}
	img, err := ReadImage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	crash := p.Crash(CrashDropPending, 0)
	for _, addr := range []uint64{a, a + 64} {
		if img.Ctx().Load64(addr) != crash.Ctx().Load64(addr) {
			t.Fatalf("image and crash disagree at %#x: %d vs %d",
				addr, img.Ctx().Load64(addr), crash.Ctx().Load64(addr))
		}
	}
}

func TestImageBadInput(t *testing.T) {
	if _, err := ReadImage(bytes.NewReader([]byte("junk"))); err == nil {
		t.Fatal("junk accepted")
	}
	if _, err := ReadImage(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
	// Truncated body.
	p := New(1 << 12)
	var buf bytes.Buffer
	if err := p.WriteImage(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-100]
	if _, err := ReadImage(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated image accepted")
	}
}

// TestWriteImageDeterministic writes a pool with several named regions
// twice, and once more after a ReadImage round trip: all three byte
// streams must be identical, whatever order the names map yields.
func TestWriteImageDeterministic(t *testing.T) {
	p := New(1 << 16)
	for i := 0; i < 8; i++ {
		p.RegisterNamed(fmt.Sprintf("region%d", i), p.Base()+uint64(i)*512, 64)
	}
	persist(p.Ctx(), p.Base()+100, []byte("payload"))
	var a, b, c bytes.Buffer
	if err := p.WriteImage(&a); err != nil {
		t.Fatal(err)
	}
	if err := p.WriteImage(&b); err != nil {
		t.Fatal(err)
	}
	q, err := ReadImage(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := q.WriteImage(&c); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) || !bytes.Equal(a.Bytes(), c.Bytes()) {
		t.Fatal("equal pools serialize to different bytes")
	}
}
