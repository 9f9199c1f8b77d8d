package workloads

import (
	"errors"
	"math/bits"

	"pmdebugger/internal/pmdk"
)

// CTree is a persistent crit-bit tree, the Go counterpart of PMDK's
// ctree_map example. Internal nodes record the most significant bit where
// their two subtrees differ; leaves carry key/value pairs. All mutations run
// inside one transaction per operation.
//
// Node pointers are tagged: bit 0 set means the pointer refers to a leaf.
//
//	leaf:     +0 key u64, +8 value u64            (16 bytes)
//	internal: +0 diff u64, +8 child[2] u64        (24 bytes)
type CTree struct {
	p    *pmdk.Pool
	root uint64 // address of the root pointer cell
}

const (
	ctLeafTag  = 1
	ctLeafSize = 16
	ctNodeSize = 24
)

// NewCTree builds an empty crit-bit tree rooted in the pool's root object.
func NewCTree(p *pmdk.Pool) (*CTree, error) {
	rootObj, size := p.Root()
	if size < 8 {
		return nil, errors.New("ctree: root object too small")
	}
	t := &CTree{p: p, root: rootObj}
	tx := p.Begin()
	tx.Set(t.root, 0)
	tx.Commit()
	return t, nil
}

// Name returns "c_tree".
func (t *CTree) Name() string { return "c_tree" }

func isLeaf(ptr uint64) bool     { return ptr&ctLeafTag != 0 }
func leafAddr(ptr uint64) uint64 { return ptr &^ ctLeafTag }

func (t *CTree) load(addr uint64) uint64 { return t.p.Ctx().Load64(addr) }

// closestLeaf walks to the leaf the key would collide with.
func (t *CTree) closestLeaf(ptr, key uint64) uint64 {
	for !isLeaf(ptr) {
		diff := t.load(ptr)
		bit := (key >> diff) & 1
		ptr = t.load(ptr + 8 + bit*8)
	}
	return ptr
}

// Get looks up key.
func (t *CTree) Get(key uint64) (uint64, bool) {
	root := t.load(t.root)
	if root == 0 {
		return 0, false
	}
	leaf := leafAddr(t.closestLeaf(root, key))
	if t.load(leaf) == key {
		return t.load(leaf + 8), true
	}
	return 0, false
}

// Insert adds or updates key.
func (t *CTree) Insert(key, value uint64) error {
	tx := t.p.Begin()
	defer tx.Commit()

	root := t.load(t.root)
	if root == 0 {
		leaf := t.newLeaf(tx, key, value)
		tx.Set(t.root, leaf|ctLeafTag)
		return nil
	}
	closest := leafAddr(t.closestLeaf(root, key))
	ck := t.load(closest)
	if ck == key {
		tx.Set(closest+8, value)
		return nil
	}
	diff := uint64(63 - bits.LeadingZeros64(ck^key))
	newBit := (key >> diff) & 1

	// Find the insertion point: descend while the current internal node
	// discriminates a more significant bit than diff.
	slot := t.root
	ptr := t.load(slot)
	for !isLeaf(ptr) && t.load(ptr) > diff {
		bit := (key >> t.load(ptr)) & 1
		slot = ptr + 8 + bit*8
		ptr = t.load(slot)
	}

	leaf := t.newLeaf(tx, key, value)
	node := t.p.Alloc(ctNodeSize)
	tx.Add(node, ctNodeSize)
	tx.Store64(node, diff)
	tx.Store64(node+8+newBit*8, leaf|ctLeafTag)
	tx.Store64(node+8+(1-newBit)*8, ptr)
	tx.Set(slot, node)
	return nil
}

func (t *CTree) newLeaf(tx *pmdk.Tx, key, value uint64) uint64 {
	leaf := t.p.Alloc(ctLeafSize)
	tx.Add(leaf, ctLeafSize)
	tx.Store64(leaf, key)
	tx.Store64(leaf+8, value)
	return leaf
}

// Remove deletes key.
func (t *CTree) Remove(key uint64) (bool, error) {
	root := t.load(t.root)
	if root == 0 {
		return false, nil
	}
	// Track the slot holding the pointer to the current node, and the slot
	// holding the pointer to its parent internal node.
	slot := t.root
	var parentSlot uint64
	ptr := t.load(slot)
	for !isLeaf(ptr) {
		diff := t.load(ptr)
		bit := (key >> diff) & 1
		parentSlot = slot
		slot = ptr + 8 + bit*8
		ptr = t.load(slot)
	}
	leaf := leafAddr(ptr)
	if t.load(leaf) != key {
		return false, nil
	}

	tx := t.p.Begin()
	if parentSlot == 0 {
		// The leaf is the root.
		tx.Set(t.root, 0)
	} else {
		// Replace the parent internal node with the leaf's sibling.
		parent := t.load(parentSlot)
		var sibling uint64
		if t.load(parent+8) == ptr {
			sibling = t.load(parent + 16)
		} else {
			sibling = t.load(parent + 8)
		}
		tx.Set(parentSlot, sibling)
		t.p.Free(parent, ctNodeSize)
	}
	tx.Commit()
	t.p.Free(leaf, ctLeafSize)
	return true, nil
}

// Close is a no-op: every transaction left the tree durable.
func (t *CTree) Close() error { return nil }
