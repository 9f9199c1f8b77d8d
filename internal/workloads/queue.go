package workloads

import (
	"errors"

	"pmdebugger/internal/pmdk"
)

// Queue is a persistent circular-buffer FIFO, the Go counterpart of PMDK's
// queue example. It is not part of the Table 4 benchmark set; it extends
// the workload collection in the spirit of the paper's §9 claim that the
// mechanisms generalize beyond the evaluated programs.
//
// Root layout: +0 buf addr, +8 capacity, +16 head, +24 count.
// Slot layout: one u64 value per slot.
type Queue struct {
	p    *pmdk.Pool
	root uint64
}

const (
	quFBuf   = 0
	quFCap   = 8
	quFHead  = 16
	quFCount = 24
)

// NewQueue builds a queue with the given capacity in the pool.
func NewQueue(p *pmdk.Pool, capacity uint64) (*Queue, error) {
	if capacity == 0 {
		return nil, errors.New("queue: capacity must be positive")
	}
	rootObj, size := p.Root()
	if size < 32 {
		return nil, errors.New("queue: root object too small")
	}
	q := &Queue{p: p, root: rootObj}
	tx := p.Begin()
	buf := p.Alloc(capacity * 8)
	tx.StoreBytes(buf, make([]byte, capacity*8))
	tx.Add(q.root, 32)
	tx.Store64(q.root+quFBuf, buf)
	tx.Store64(q.root+quFCap, capacity)
	tx.Store64(q.root+quFHead, 0)
	tx.Store64(q.root+quFCount, 0)
	tx.Commit()
	return q, nil
}

func (q *Queue) ld(addr uint64) uint64 { return q.p.Ctx().Load64(addr) }

// Len returns the number of enqueued values.
func (q *Queue) Len() uint64 { return q.ld(q.root + quFCount) }

// Cap returns the queue capacity.
func (q *Queue) Cap() uint64 { return q.ld(q.root + quFCap) }

// Enqueue appends v transactionally.
func (q *Queue) Enqueue(v uint64) error {
	buf := q.ld(q.root + quFBuf)
	capacity := q.ld(q.root + quFCap)
	head := q.ld(q.root + quFHead)
	count := q.ld(q.root + quFCount)
	if count == capacity {
		return errors.New("queue: full")
	}
	slot := buf + (head+count)%capacity*8
	tx := q.p.Begin()
	tx.Set(slot, v)
	tx.Set(q.root+quFCount, count+1)
	tx.Commit()
	return nil
}

// Dequeue removes and returns the oldest value.
func (q *Queue) Dequeue() (uint64, error) {
	buf := q.ld(q.root + quFBuf)
	capacity := q.ld(q.root + quFCap)
	head := q.ld(q.root + quFHead)
	count := q.ld(q.root + quFCount)
	if count == 0 {
		return 0, errors.New("queue: empty")
	}
	v := q.ld(buf + head*8)
	tx := q.p.Begin()
	tx.Set(q.root+quFHead, (head+1)%capacity)
	tx.Set(q.root+quFCount, count-1)
	tx.Commit()
	return v, nil
}

// Peek returns the oldest value without removing it.
func (q *Queue) Peek() (uint64, bool) {
	count := q.ld(q.root + quFCount)
	if count == 0 {
		return 0, false
	}
	buf := q.ld(q.root + quFBuf)
	head := q.ld(q.root + quFHead)
	return q.ld(buf + head*8), true
}
