package pmem

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"sort"

	"pmdebugger/internal/intervals"
	"pmdebugger/internal/trace"
)

// RefPool is the reference model crash images are checked against: the
// pool's cache-line semantics written as plainly as possible, sharing no
// code with the copy-on-write tables under test. Both images are flat byte
// slices, line states and staged line bytes are maps keyed by line index,
// and the model is driven by recorded journal events (stores with their
// payloads, flush spans, fences, named registrations). There is no page,
// chunk or mut type, no sharing and no incremental counter. It is exported
// for the external scenario test in this directory.
type RefPool struct {
	base uint64
	// volatile is nil while it equals persist: after a crash, until the
	// first store.
	volatile []byte
	persist  []byte
	state    map[uint64]lineState // absent: clean
	staged   map[uint64][]byte    // flushed bytes of pending lines
	names    map[string]intervals.Range
	// touched holds every page a store ever reached. Bytes outside it are
	// zero in both images, which lets check compare the rest of an image
	// by hash once its full bytes have been verified.
	touched map[uint64]bool
	// checks is shared by every reference derived from one NewRefPool.
	checks *refChecks
}

// refChecks is the state check keeps across the references of one run.
type refChecks struct {
	// verified maps a reference image's digest to the fingerprint of a
	// pool image already compared byte for byte against it.
	verified map[[32]byte][32]byte
	// image is WriteImage's output buffer, reused from check to check.
	image bytes.Buffer
}

// NewRefPool returns an all-zero reference of the given pool geometry.
func NewRefPool(base, size uint64) *RefPool {
	return &RefPool{
		base:    base,
		persist: make([]byte, size),
		state:   map[uint64]lineState{},
		staged:  map[uint64][]byte{},
		names:   map[string]intervals.Range{},
		touched: map[uint64]bool{},
		checks:  &refChecks{verified: map[[32]byte][32]byte{}},
	}
}

// Apply advances the reference by one journal event.
func (r *RefPool) Apply(ev trace.Event, payload []byte) {
	off, end := ev.Addr-r.base, ev.Addr-r.base+ev.Size // store and flush spans
	switch ev.Kind {
	case trace.KindStore:
		if r.volatile == nil {
			r.volatile = append([]byte(nil), r.persist...)
		}
		copy(r.volatile[off:end], payload)
		for pg := off / PageSize; pg <= (end-1)/PageSize; pg++ {
			r.touched[pg] = true
		}
		for l := off / LineSize; l <= (end-1)/LineSize; l++ {
			switch r.state[l] {
			case lineClean:
				r.state[l] = lineDirty
			case linePending:
				r.state[l] = lineDirtyPending
			}
		}
	case trace.KindFlush:
		for l := off / LineSize; l <= (end-1)/LineSize; l++ {
			if st := r.state[l]; st == lineDirty || st == lineDirtyPending {
				r.staged[l] = append([]byte(nil), r.volatile[l*LineSize:(l+1)*LineSize]...)
				r.state[l] = linePending
			}
		}
	case trace.KindFence:
		for l, st := range r.state {
			switch st {
			case linePending:
				copy(r.persist[l*LineSize:], r.staged[l])
				delete(r.state, l)
			case lineDirtyPending:
				copy(r.persist[l*LineSize:], r.staged[l])
				r.state[l] = lineDirty
			}
		}
	case trace.KindRegister:
		if ev.Site != 0 {
			r.names[trace.SiteName(ev.Site)] = intervals.R(ev.Addr, ev.Size)
		}
	}
}

// crashLines returns the pending lines a crash under policy applies, in
// ascending line order, drawing one rand.Intn(2) coin per pending line
// under CrashRandomPending (0 applies the line).
func (r *RefPool) crashLines(policy CrashPolicy, seed int64) []uint64 {
	var pending []uint64
	for l, st := range r.state {
		if st == linePending || st == lineDirtyPending {
			pending = append(pending, l)
		}
	}
	sort.Slice(pending, func(i, j int) bool { return pending[i] < pending[j] })
	switch policy {
	case CrashApplyPending:
		return pending
	case CrashRandomPending:
		rng := rand.New(rand.NewSource(seed))
		applied := pending[:0]
		for _, l := range pending {
			if rng.Intn(2) == 0 {
				applied = append(applied, l)
			}
		}
		return applied
	}
	return nil
}

// Crash returns the reference crash image under policy: the persistent
// bytes plus the staged bytes of the lines crashLines applies. The image
// starts clean, with the names carried over.
func (r *RefPool) Crash(policy CrashPolicy, seed int64) *RefPool {
	img := append([]byte(nil), r.persist...)
	for _, l := range r.crashLines(policy, seed) {
		copy(img[l*LineSize:], r.staged[l])
	}
	n := &RefPool{
		base:    r.base,
		persist: img,
		state:   map[uint64]lineState{},
		staged:  map[uint64][]byte{},
		names:   map[string]intervals.Range{},
		touched: map[uint64]bool{},
		checks:  r.checks,
	}
	for name, rg := range r.names {
		n.names[name] = rg
	}
	for pg := range r.touched {
		n.touched[pg] = true
	}
	return n
}

// CheckCrash returns an error unless img equals the reference crash image
// Crash(policy, seed). It builds no copy: the applied lines are written
// into the persistent image for the comparison and restored afterwards.
func (r *RefPool) CheckCrash(img *Pool, policy CrashPolicy, seed int64) error {
	lines := r.crashLines(policy, seed)
	saved := make([]byte, 0, len(lines)*LineSize)
	for _, l := range lines {
		saved = append(saved, r.persist[l*LineSize:(l+1)*LineSize]...)
		copy(r.persist[l*LineSize:], r.staged[l])
	}
	defer func() {
		for i, l := range lines {
			copy(r.persist[l*LineSize:], saved[i*LineSize:(i+1)*LineSize])
		}
	}()
	return r.check(img)
}

// check returns an error unless img's persistent image and named regions
// equal the reference's. Touched pages and names are compared directly.
// The first time an image equal to this reference is seen, every byte is
// compared too, and img's Fingerprint must equal that of its cache-less
// copy ReadImage(WriteImage(img)); later images equal to it need only
// match that verified fingerprint.
func (r *RefPool) check(img *Pool) error {
	if img.Base() != r.base || img.Size() != uint64(len(r.persist)) {
		return fmt.Errorf("image geometry [%#x,+%d), reference [%#x,+%d)",
			img.Base(), img.Size(), r.base, len(r.persist))
	}
	pages := r.touchedPages()
	for _, pg := range pages {
		lo, hi := r.pageSpan(pg)
		if !img.PersistedEquals(r.base+lo, r.persist[lo:hi]) {
			return fmt.Errorf("page %d differs from the reference", pg)
		}
	}
	img.mu.Lock()
	sameNames := reflect.DeepEqual(img.names, r.names)
	img.mu.Unlock()
	if !sameNames {
		return fmt.Errorf("names differ from the reference's %v", r.names)
	}

	fp := img.Fingerprint()
	digest := r.digest(pages)
	if want, ok := r.checks.verified[digest]; ok {
		if fp != want {
			return fmt.Errorf("fingerprint differs from a verified image with the same reference bytes")
		}
		return nil
	}
	if !img.PersistedEquals(r.base, r.persist) {
		return fmt.Errorf("bytes outside the touched pages differ from the reference")
	}
	buf := &r.checks.image
	buf.Reset()
	buf.Grow(len(r.persist) + 1<<16) // the image, and its header and names
	if err := img.WriteImage(buf); err != nil {
		return err
	}
	fresh, err := ReadImage(buf)
	if err != nil {
		return err
	}
	if fresh.Fingerprint() != fp {
		return fmt.Errorf("fingerprint differs from the cache-less ReadImage(WriteImage(img))")
	}
	fresh.Release()
	r.checks.verified[digest] = fp
	return nil
}

// touchedPages returns the touched page indexes in ascending order.
func (r *RefPool) touchedPages() []uint64 {
	pages := make([]uint64, 0, len(r.touched))
	for pg := range r.touched {
		pages = append(pages, pg)
	}
	sort.Slice(pages, func(i, j int) bool { return pages[i] < pages[j] })
	return pages
}

// pageSpan returns the byte range of page pg, clipped to the pool.
func (r *RefPool) pageSpan(pg uint64) (lo, hi uint64) {
	lo, hi = pg*PageSize, (pg+1)*PageSize
	if hi > uint64(len(r.persist)) {
		hi = uint64(len(r.persist))
	}
	return lo, hi
}

// digest hashes the reference's persistent image and names canonically:
// the names in sorted order, then the index and bytes of every non-zero
// touched page. Untouched pages are zero, so equal digests mean equal
// images however the two references were reached.
func (r *RefPool) digest(pages []uint64) [32]byte {
	h := sha256.New()
	fmt.Fprint(h, r.names) // fmt prints maps in key order
	for _, pg := range pages {
		lo, hi := r.pageSpan(pg)
		if bytes.Equal(r.persist[lo:hi], refZeros[:hi-lo]) {
			continue
		}
		var idx [8]byte
		binary.LittleEndian.PutUint64(idx[:], pg)
		h.Write(idx[:])
		h.Write(r.persist[lo:hi])
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

var refZeros [PageSize]byte
