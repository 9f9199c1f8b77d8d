package pmem

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"pmdebugger/internal/intervals"
)

// Pool image serialization: the persistent image can be written to and read
// back from a file, standing in for the DAX-mounted pool file of a real PM
// deployment (the artifact's /mnt/pmem pools). Only the *persistent* image
// is saved — exactly what would survive on media — so loading an image is
// equivalent to opening the pool after a clean shutdown or crash.

var imageMagic = [8]byte{'P', 'M', 'I', 'M', 'A', 'G', 'E', '1'}

// WriteImage serializes the pool's persistent image.
func (p *Pool) WriteImage(w io.Writer) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	// Like Crash: the snapshot must not outrun asynchronous detectors.
	p.syncLocked()
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(imageMagic[:]); err != nil {
		return fmt.Errorf("pmem: write image header: %w", err)
	}
	var hdr [16]byte
	binary.LittleEndian.PutUint64(hdr[0:], p.base)
	binary.LittleEndian.PutUint64(hdr[8:], p.Size())
	if _, err := bw.Write(hdr[:]); err != nil {
		return fmt.Errorf("pmem: write image header: %w", err)
	}
	// Named ranges survive restart (they model program symbols). They are
	// written in sorted order, so equal pools serialize to equal bytes.
	var cnt [4]byte
	binary.LittleEndian.PutUint32(cnt[:], uint32(len(p.names)))
	if _, err := bw.Write(cnt[:]); err != nil {
		return err
	}
	for _, name := range p.sortedNamesLocked() {
		r := p.names[name]
		var rec [20]byte
		binary.LittleEndian.PutUint32(rec[0:], uint32(len(name)))
		binary.LittleEndian.PutUint64(rec[4:], r.Addr)
		binary.LittleEndian.PutUint64(rec[12:], r.Size)
		if _, err := bw.Write(rec[:]); err != nil {
			return err
		}
		if _, err := bw.WriteString(name); err != nil {
			return err
		}
	}
	// The persistent image is written page by page (zero pages from the
	// shared zero buffer), keeping the flat on-disk format of a DAX pool
	// file while never materializing absent pages.
	remaining := p.size
	for pi := 0; pi < p.npages; pi++ {
		chunk := uint64(PageSize)
		if chunk > remaining {
			chunk = remaining
		}
		src := zeroPage[:chunk]
		if pg := pageAt(p.persist, pi); pg != nil {
			src = pg.data[:chunk]
		}
		if _, err := bw.Write(src); err != nil {
			return fmt.Errorf("pmem: write image data: %w", err)
		}
		remaining -= chunk
	}
	return bw.Flush()
}

// ReadImage reconstructs a pool from a serialized persistent image. The
// new pool starts clean (volatile == persistent, no handlers, full
// allocator) — the state of a freshly opened pool file.
func ReadImage(r io.Reader) (*Pool, error) {
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("pmem: read image header: %w", err)
	}
	if magic != imageMagic {
		return nil, fmt.Errorf("pmem: bad image magic %q", magic[:])
	}
	var hdr [16]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("pmem: read image header: %w", err)
	}
	base := binary.LittleEndian.Uint64(hdr[0:])
	size := binary.LittleEndian.Uint64(hdr[8:])
	const maxImage = 1 << 32
	if size == 0 || size > maxImage || size%LineSize != 0 {
		return nil, fmt.Errorf("pmem: implausible image size %d", size)
	}
	p := New(size)
	p.base = base
	p.alloc.init(base, size)

	var cnt [4]byte
	if _, err := io.ReadFull(br, cnt[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(cnt[:])
	for i := uint32(0); i < n; i++ {
		var rec [20]byte
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			return nil, err
		}
		nameLen := binary.LittleEndian.Uint32(rec[0:])
		if nameLen > 4096 {
			return nil, fmt.Errorf("pmem: implausible name length %d", nameLen)
		}
		nameBuf := make([]byte, nameLen)
		if _, err := io.ReadFull(br, nameBuf); err != nil {
			return nil, err
		}
		p.names[string(nameBuf)] = intervals.R(
			binary.LittleEndian.Uint64(rec[4:]),
			binary.LittleEndian.Uint64(rec[12:]),
		)
	}
	// Read the flat image page by page, leaving all-zero pages (and whole
	// all-zero chunks) absent so a sparse image stays sparse in memory; the
	// volatile directory then aliases the persistent chunks, as after a
	// crash.
	var buf [PageSize]byte
	remaining := size
	for pi := 0; pi < p.npages; pi++ {
		chunk := uint64(PageSize)
		if chunk > remaining {
			chunk = remaining
		}
		if _, err := io.ReadFull(br, buf[:chunk]); err != nil {
			return nil, fmt.Errorf("pmem: read image data: %w", err)
		}
		remaining -= chunk
		if bytes.Equal(buf[:chunk], zeroPage[:chunk]) {
			continue
		}
		pg := p.persistWritable(uint64(pi) << lineShift)
		copy(pg.data[:], buf[:chunk])
		pg.dropHashes() // the whole page changed, not one line
	}
	shareChunks(p.volatile, p.persist)
	// The chunk aliasing just re-shared every materialized page.
	p.pageShared += p.pagePrivate
	p.pagePrivate = 0
	return p, nil
}
