package workloads

import (
	"errors"

	"pmdebugger/internal/pmdk"
)

// RTree is a persistent 16-ary radix tree over 64-bit keys, the Go
// counterpart of PMDK's rtree_map example. Keys are consumed nibble by
// nibble from the most significant end; the bottom level stores 16 value
// slots per leaf, so sequential keys share leaves and upper levels heavily.
//
//	internal node: child[16] u64                   (128 bytes)
//	leaf node:     values[16] u64, bitmap u64      (136 bytes)
type RTree struct {
	p    *pmdk.Pool
	root uint64 // address of the root pointer cell
}

const (
	rtLevels   = 15 // internal levels; the 16th nibble indexes the leaf
	rtNodeSize = 128
	rtLeafSize = 136
)

// NewRTree builds an empty radix tree rooted in the pool's root object.
func NewRTree(p *pmdk.Pool) (*RTree, error) {
	rootObj, size := p.Root()
	if size < 8 {
		return nil, errors.New("rtree: root object too small")
	}
	t := &RTree{p: p, root: rootObj}
	tx := p.Begin()
	tx.Set(t.root, 0)
	tx.Commit()
	return t, nil
}

// Name returns "r_tree".
func (t *RTree) Name() string { return "r_tree" }

func (t *RTree) load(addr uint64) uint64 { return t.p.Ctx().Load64(addr) }

// nibble returns the level-th nibble of key from the most significant end.
func nibble(key uint64, level int) uint64 {
	return (key >> (60 - 4*level)) & 0xf
}

// Get looks up key.
func (t *RTree) Get(key uint64) (uint64, bool) {
	node := t.load(t.root)
	for lvl := 0; lvl < rtLevels; lvl++ {
		if node == 0 {
			return 0, false
		}
		node = t.load(node + nibble(key, lvl)*8)
	}
	if node == 0 {
		return 0, false
	}
	slot := nibble(key, rtLevels)
	bitmap := t.load(node + 128)
	if bitmap&(1<<slot) == 0 {
		return 0, false
	}
	return t.load(node + slot*8), true
}

// Insert adds or updates key.
func (t *RTree) Insert(key, value uint64) error {
	tx := t.p.Begin()
	defer tx.Commit()

	slotAddr := t.root
	node := t.load(slotAddr)
	for lvl := 0; lvl < rtLevels; lvl++ {
		if node == 0 {
			node = t.newNode(tx, rtNodeSize)
			tx.Set(slotAddr, node)
		}
		slotAddr = node + nibble(key, lvl)*8
		node = t.load(slotAddr)
	}
	if node == 0 {
		node = t.newNode(tx, rtLeafSize)
		tx.Set(slotAddr, node)
	}
	slot := nibble(key, rtLevels)
	tx.Set(node+slot*8, value)
	tx.Set(node+128, t.load(node+128)|1<<slot)
	return nil
}

func (t *RTree) newNode(tx *pmdk.Tx, size uint64) uint64 {
	addr := t.p.Alloc(size)
	tx.Add(addr, size)
	tx.StoreBytes(addr, make([]byte, size))
	return addr
}

// Remove deletes key, pruning emptied nodes bottom-up.
func (t *RTree) Remove(key uint64) (bool, error) {
	// Record the path of (slot address, node) pairs for pruning.
	var slots [rtLevels + 1]uint64
	var nodes [rtLevels + 1]uint64
	slotAddr := t.root
	node := t.load(slotAddr)
	for lvl := 0; lvl < rtLevels; lvl++ {
		if node == 0 {
			return false, nil
		}
		slots[lvl] = slotAddr
		nodes[lvl] = node
		slotAddr = node + nibble(key, lvl)*8
		node = t.load(slotAddr)
	}
	if node == 0 {
		return false, nil
	}
	slots[rtLevels] = slotAddr
	nodes[rtLevels] = node
	slot := nibble(key, rtLevels)
	bitmap := t.load(node + 128)
	if bitmap&(1<<slot) == 0 {
		return false, nil
	}

	tx := t.p.Begin()
	tx.Set(node+128, bitmap&^(1<<slot))
	tx.Set(node+slot*8, 0)

	// Prune: free the leaf if it emptied, then empty internal nodes upward.
	if bitmap&^(1<<slot) == 0 {
		tx.Set(slots[rtLevels], 0)
		t.p.Free(node, rtLeafSize)
		for lvl := rtLevels - 1; lvl >= 0; lvl-- {
			n := nodes[lvl]
			empty := true
			for i := uint64(0); i < 16; i++ {
				if t.load(n+i*8) != 0 {
					empty = false
					break
				}
			}
			if !empty {
				break
			}
			tx.Set(slots[lvl], 0)
			t.p.Free(n, rtNodeSize)
		}
	}
	tx.Commit()
	return true, nil
}

// Close is a no-op: every transaction left the tree durable.
func (t *RTree) Close() error { return nil }
