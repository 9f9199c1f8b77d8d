package pmem

import (
	"testing"

	"pmdebugger/internal/trace"
)

func TestAllocAt(t *testing.T) {
	p := New(1 << 12)
	base := p.Base()
	// Reserve a middle range, then confirm overlapping reservations fail
	// and surrounding space still allocates.
	if !p.AllocAt(base+256, 128) {
		t.Fatal("AllocAt on free range failed")
	}
	if p.AllocAt(base+300, 16) {
		t.Fatal("overlapping AllocAt succeeded")
	}
	if !p.AllocAt(base, 256) {
		t.Fatal("AllocAt on head range failed")
	}
	if !p.AllocAt(base+384, 128) {
		t.Fatal("AllocAt after reserved range failed")
	}
	// Exact-fit reservation of a remaining hole.
	if !p.AllocAt(base+512, p.Size()-512) {
		t.Fatal("tail reservation failed")
	}
	if _, ok := p.TryAlloc(16); ok {
		t.Fatal("pool should be fully reserved")
	}
	p.Free(base+256, 128)
	if got, ok := p.TryAlloc(128); !ok || got != base+256 {
		t.Fatalf("freed reservation not reusable: %#x %v", got, ok)
	}
}

func TestCrashTrap(t *testing.T) {
	p := New(1 << 12)
	c := p.Ctx()
	p.SetCrashTrap(3)
	trapped := func() (trapped bool) {
		defer func() {
			if r := recover(); r != nil {
				ct, ok := r.(CrashTrap)
				if !ok {
					t.Fatalf("unexpected panic %v", r)
				}
				if ct.Seq != 3 {
					t.Fatalf("trap at seq %d, want 3", ct.Seq)
				}
				trapped = true
			}
		}()
		for i := 0; i < 10; i++ {
			c.Store64(p.Base(), uint64(i))
		}
		return false
	}()
	if !trapped {
		t.Fatal("trap never fired")
	}
	// The pool stays usable after the unwind and the trap self-disarms.
	c.Store64(p.Base()+64, 1)
	c.Persist(p.Base()+64, 8)
	if p.EventCount() < 5 {
		t.Fatalf("EventCount = %d", p.EventCount())
	}
}

func TestCtxAccessors(t *testing.T) {
	p := New(1 << 12)
	c := p.ThreadCtx(5)
	if c.Pool() != p || c.Thread() != 5 {
		t.Fatal("ctx accessors wrong")
	}
	site := trace.RegisterSite("accessor-test")
	d := c.At(site)
	if d == c {
		t.Fatal("At returned the same ctx")
	}
	if c.Strand() != 0 {
		t.Fatal("default strand not 0")
	}
}

func TestPersistedBytes(t *testing.T) {
	p := New(1 << 12)
	c := p.Ctx()
	c.Store64(p.Base(), 0x11)
	c.Persist(p.Base(), 8)
	got := p.PersistedBytes(p.Base(), 8)
	if got[0] != 0x11 {
		t.Fatalf("PersistedBytes = %v", got)
	}
}

func TestPoolStats(t *testing.T) {
	p := New(1 << 12)
	c := p.Ctx()
	a := p.Base()
	c.Store64(a, 1)
	c.StoreBytes(a+64, make([]byte, 16))
	c.Flush(a, 8)
	c.Flush(a+64, 16)
	c.Fence()
	c.Flush(a, 8) // clean line: no commit at next fence
	c.Fence()
	st := p.Stats()
	if st.Stores != 2 || st.Flushes != 3 || st.Fences != 2 {
		t.Fatalf("counts = %+v", st)
	}
	if st.BytesStored != 24 {
		t.Fatalf("bytes = %d", st.BytesStored)
	}
	if st.LinesCommitted != 2 {
		t.Fatalf("lines committed = %d", st.LinesCommitted)
	}
}
