package workloads

import (
	"errors"

	"pmdebugger/internal/pmdk"
	"pmdebugger/internal/trace"
)

// BTree is a persistent B-tree of order 8 (up to 7 keys per node), the Go
// counterpart of PMDK's btree_map example. Every structural mutation runs
// inside a single undo-log transaction, so each insert/remove is one epoch
// with one fence.
//
// Node layout (all fields little-endian u64):
//
//	+0    n          number of keys
//	+8    leaf       1 if leaf
//	+16   keys[7]
//	+72   vals[7]
//	+128  child[8]   node addresses (0 = none)
//	= 192 bytes
type BTree struct {
	p    *pmdk.Pool
	root uint64 // address of the cell holding the root node address
	site trace.SiteID
}

const (
	btOrder    = 8 // max children
	btMaxKeys  = btOrder - 1
	btMinKeys  = btMaxKeys / 2 // 3
	btFN       = 0
	btFLeaf    = 8
	btFKeys    = 16
	btFVals    = 72
	btFChild   = 128
	btNodeSize = 192
)

// NewBTree builds an empty B-tree rooted in the pool's root object.
func NewBTree(p *pmdk.Pool) (*BTree, error) {
	rootObj, size := p.Root()
	if size < 8 {
		return nil, errors.New("btree: root object too small")
	}
	t := &BTree{p: p, root: rootObj, site: trace.RegisterSite("btree_map.c")}
	tx := p.Begin()
	node := t.newNode(tx, true)
	tx.Set(t.root, node)
	tx.Commit()
	return t, nil
}

// ReattachBTree binds to an existing tree after crash recovery: rootCell is
// the address of the cell holding the root node pointer (the pool's root
// object, as NewBTree laid it out).
func ReattachBTree(p *pmdk.Pool, rootCell uint64) *BTree {
	return &BTree{p: p, root: rootCell, site: trace.RegisterSite("btree_map.c")}
}

// Name returns "b_tree".
func (t *BTree) Name() string { return "b_tree" }

func (t *BTree) newNode(tx *pmdk.Tx, leaf bool) uint64 {
	addr := t.p.Alloc(btNodeSize)
	tx.Add(addr, btNodeSize)
	tx.StoreBytes(addr, make([]byte, btNodeSize))
	if leaf {
		tx.Store64(addr+btFLeaf, 1)
	}
	return addr
}

func (t *BTree) c() ctxLoader { return ctxLoader{t.p} }

// ctxLoader wraps read access so tree code reads naturally.
type ctxLoader struct{ p *pmdk.Pool }

func (c ctxLoader) u64(addr uint64) uint64 { return c.p.Ctx().Load64(addr) }

func (t *BTree) n(node uint64) int     { return int(t.c().u64(node + btFN)) }
func (t *BTree) leaf(node uint64) bool { return t.c().u64(node+btFLeaf) == 1 }
func (t *BTree) key(node uint64, i int) uint64 {
	return t.c().u64(node + btFKeys + uint64(i)*8)
}
func (t *BTree) val(node uint64, i int) uint64 {
	return t.c().u64(node + btFVals + uint64(i)*8)
}
func (t *BTree) child(node uint64, i int) uint64 {
	return t.c().u64(node + btFChild + uint64(i)*8)
}

func (t *BTree) setN(tx *pmdk.Tx, node uint64, n int) {
	tx.Set(node+btFN, uint64(n))
}
func (t *BTree) setKey(tx *pmdk.Tx, node uint64, i int, k uint64) {
	tx.Set(node+btFKeys+uint64(i)*8, k)
}
func (t *BTree) setVal(tx *pmdk.Tx, node uint64, i int, v uint64) {
	tx.Set(node+btFVals+uint64(i)*8, v)
}
func (t *BTree) setChild(tx *pmdk.Tx, node uint64, i int, c uint64) {
	tx.Set(node+btFChild+uint64(i)*8, c)
}

// Get looks up key.
func (t *BTree) Get(key uint64) (uint64, bool) {
	node := t.c().u64(t.root)
	for node != 0 {
		n := t.n(node)
		i := 0
		for i < n && key > t.key(node, i) {
			i++
		}
		if i < n && key == t.key(node, i) {
			return t.val(node, i), true
		}
		if t.leaf(node) {
			return 0, false
		}
		node = t.child(node, i)
	}
	return 0, false
}

// Insert adds or updates key.
func (t *BTree) Insert(key, value uint64) error {
	tx := t.p.Begin()
	root := t.c().u64(t.root)
	if t.n(root) == btMaxKeys {
		// Preemptive root split.
		newRoot := t.newNode(tx, false)
		t.setChild(tx, newRoot, 0, root)
		t.splitChild(tx, newRoot, 0)
		tx.Set(t.root, newRoot)
		root = newRoot
	}
	t.insertNonFull(tx, root, key, value)
	tx.Commit()
	return nil
}

// splitChild splits the full i-th child of parent.
func (t *BTree) splitChild(tx *pmdk.Tx, parent uint64, i int) {
	full := t.child(parent, i)
	right := t.newNode(tx, t.leaf(full))
	mid := btMaxKeys / 2 // 3

	// Move upper keys to the new right node.
	tx.Add(right, btNodeSize)
	for j := 0; j < btMaxKeys-mid-1; j++ {
		t.setKey(tx, right, j, t.key(full, mid+1+j))
		t.setVal(tx, right, j, t.val(full, mid+1+j))
	}
	if !t.leaf(full) {
		for j := 0; j < btMaxKeys-mid; j++ {
			t.setChild(tx, right, j, t.child(full, mid+1+j))
		}
	}
	t.setN(tx, right, btMaxKeys-mid-1)

	// Shift the parent to make room.
	tx.Add(parent, btNodeSize)
	pn := t.n(parent)
	for j := pn; j > i; j-- {
		t.setKey(tx, parent, j, t.key(parent, j-1))
		t.setVal(tx, parent, j, t.val(parent, j-1))
	}
	for j := pn + 1; j > i+1; j-- {
		t.setChild(tx, parent, j, t.child(parent, j-1))
	}
	t.setKey(tx, parent, i, t.key(full, mid))
	t.setVal(tx, parent, i, t.val(full, mid))
	t.setChild(tx, parent, i+1, right)
	t.setN(tx, parent, pn+1)

	tx.Add(full, btNodeSize)
	t.setN(tx, full, mid)
}

func (t *BTree) insertNonFull(tx *pmdk.Tx, node, key, value uint64) {
	for {
		n := t.n(node)
		i := 0
		for i < n && key > t.key(node, i) {
			i++
		}
		if i < n && key == t.key(node, i) {
			tx.Set(node+btFVals+uint64(i)*8, value)
			return
		}
		if t.leaf(node) {
			tx.Add(node, btNodeSize)
			for j := n; j > i; j-- {
				t.setKey(tx, node, j, t.key(node, j-1))
				t.setVal(tx, node, j, t.val(node, j-1))
			}
			t.setKey(tx, node, i, key)
			t.setVal(tx, node, i, value)
			t.setN(tx, node, n+1)
			return
		}
		if t.n(t.child(node, i)) == btMaxKeys {
			t.splitChild(tx, node, i)
			if key > t.key(node, i) {
				i++
			} else if key == t.key(node, i) {
				tx.Set(node+btFVals+uint64(i)*8, value)
				return
			}
		}
		node = t.child(node, i)
	}
}

// Remove deletes key, rebalancing with borrow/merge so every node except
// the root keeps at least btMinKeys keys.
func (t *BTree) Remove(key uint64) (bool, error) {
	if _, ok := t.Get(key); !ok {
		return false, nil
	}
	tx := t.p.Begin()
	root := t.c().u64(t.root)
	t.remove(tx, root, key)
	// Shrink the root if it emptied.
	if t.n(root) == 0 && !t.leaf(root) {
		tx.Set(t.root, t.child(root, 0))
		t.p.Free(root, btNodeSize)
	}
	tx.Commit()
	return true, nil
}

func (t *BTree) remove(tx *pmdk.Tx, node, key uint64) {
	n := t.n(node)
	i := 0
	for i < n && key > t.key(node, i) {
		i++
	}
	if i < n && key == t.key(node, i) {
		if t.leaf(node) {
			t.removeFromLeaf(tx, node, i)
			return
		}
		t.removeInternal(tx, node, i, key)
		return
	}
	// Key lives in subtree i.
	child := t.child(node, i)
	if t.n(child) == btMinKeys {
		child = t.fill(tx, node, i)
	}
	t.remove(tx, child, key)
}

func (t *BTree) removeFromLeaf(tx *pmdk.Tx, node uint64, i int) {
	tx.Add(node, btNodeSize)
	n := t.n(node)
	for j := i; j < n-1; j++ {
		t.setKey(tx, node, j, t.key(node, j+1))
		t.setVal(tx, node, j, t.val(node, j+1))
	}
	t.setN(tx, node, n-1)
}

func (t *BTree) removeInternal(tx *pmdk.Tx, node uint64, i int, key uint64) {
	left := t.child(node, i)
	right := t.child(node, i+1)
	switch {
	case t.n(left) > btMinKeys:
		// Replace with the predecessor, then delete it from the left
		// subtree (which has spare keys, so no pre-fill is needed).
		pk, pv := t.maxOf(left)
		tx.Add(node, btNodeSize)
		t.setKey(tx, node, i, pk)
		t.setVal(tx, node, i, pv)
		t.remove(tx, left, pk)
	case t.n(right) > btMinKeys:
		sk, sv := t.minOf(right)
		tx.Add(node, btNodeSize)
		t.setKey(tx, node, i, sk)
		t.setVal(tx, node, i, sv)
		t.remove(tx, right, sk)
	default:
		merged := t.merge(tx, node, i)
		t.remove(tx, merged, key)
	}
}

func (t *BTree) maxOf(node uint64) (uint64, uint64) {
	for !t.leaf(node) {
		node = t.child(node, t.n(node))
	}
	n := t.n(node)
	return t.key(node, n-1), t.val(node, n-1)
}

func (t *BTree) minOf(node uint64) (uint64, uint64) {
	for !t.leaf(node) {
		node = t.child(node, 0)
	}
	return t.key(node, 0), t.val(node, 0)
}

// fill grows child i of node to more than btMinKeys keys by borrowing or
// merging, returning the node that now covers the key space of child i.
func (t *BTree) fill(tx *pmdk.Tx, node uint64, i int) uint64 {
	n := t.n(node)
	if i > 0 && t.n(t.child(node, i-1)) > btMinKeys {
		t.borrowFromPrev(tx, node, i)
		return t.child(node, i)
	}
	if i < n && t.n(t.child(node, i+1)) > btMinKeys {
		t.borrowFromNext(tx, node, i)
		return t.child(node, i)
	}
	if i < n {
		return t.merge(tx, node, i)
	}
	return t.merge(tx, node, i-1)
}

func (t *BTree) borrowFromPrev(tx *pmdk.Tx, node uint64, i int) {
	child := t.child(node, i)
	sib := t.child(node, i-1)
	tx.Add(child, btNodeSize)
	tx.Add(sib, btNodeSize)
	tx.Add(node, btNodeSize)
	cn := t.n(child)
	for j := cn; j > 0; j-- {
		t.setKey(tx, child, j, t.key(child, j-1))
		t.setVal(tx, child, j, t.val(child, j-1))
	}
	if !t.leaf(child) {
		for j := cn + 1; j > 0; j-- {
			t.setChild(tx, child, j, t.child(child, j-1))
		}
	}
	t.setKey(tx, child, 0, t.key(node, i-1))
	t.setVal(tx, child, 0, t.val(node, i-1))
	sn := t.n(sib)
	if !t.leaf(child) {
		t.setChild(tx, child, 0, t.child(sib, sn))
	}
	t.setKey(tx, node, i-1, t.key(sib, sn-1))
	t.setVal(tx, node, i-1, t.val(sib, sn-1))
	t.setN(tx, child, cn+1)
	t.setN(tx, sib, sn-1)
}

func (t *BTree) borrowFromNext(tx *pmdk.Tx, node uint64, i int) {
	child := t.child(node, i)
	sib := t.child(node, i+1)
	tx.Add(child, btNodeSize)
	tx.Add(sib, btNodeSize)
	tx.Add(node, btNodeSize)
	cn := t.n(child)
	t.setKey(tx, child, cn, t.key(node, i))
	t.setVal(tx, child, cn, t.val(node, i))
	if !t.leaf(child) {
		t.setChild(tx, child, cn+1, t.child(sib, 0))
	}
	t.setKey(tx, node, i, t.key(sib, 0))
	t.setVal(tx, node, i, t.val(sib, 0))
	sn := t.n(sib)
	for j := 0; j < sn-1; j++ {
		t.setKey(tx, sib, j, t.key(sib, j+1))
		t.setVal(tx, sib, j, t.val(sib, j+1))
	}
	if !t.leaf(sib) {
		for j := 0; j < sn; j++ {
			t.setChild(tx, sib, j, t.child(sib, j+1))
		}
	}
	t.setN(tx, child, cn+1)
	t.setN(tx, sib, sn-1)
}

// merge folds child i+1 and the separator key into child i and returns
// child i.
func (t *BTree) merge(tx *pmdk.Tx, node uint64, i int) uint64 {
	child := t.child(node, i)
	sib := t.child(node, i+1)
	tx.Add(child, btNodeSize)
	tx.Add(node, btNodeSize)
	cn := t.n(child)
	sn := t.n(sib)
	t.setKey(tx, child, cn, t.key(node, i))
	t.setVal(tx, child, cn, t.val(node, i))
	for j := 0; j < sn; j++ {
		t.setKey(tx, child, cn+1+j, t.key(sib, j))
		t.setVal(tx, child, cn+1+j, t.val(sib, j))
	}
	if !t.leaf(child) {
		for j := 0; j <= sn; j++ {
			t.setChild(tx, child, cn+1+j, t.child(sib, j))
		}
	}
	t.setN(tx, child, cn+1+sn)
	nn := t.n(node)
	for j := i; j < nn-1; j++ {
		t.setKey(tx, node, j, t.key(node, j+1))
		t.setVal(tx, node, j, t.val(node, j+1))
	}
	for j := i + 1; j < nn; j++ {
		t.setChild(tx, node, j, t.child(node, j+1))
	}
	t.setN(tx, node, nn-1)
	t.p.Free(sib, btNodeSize)
	return child
}

// Close is a no-op: every transaction left the tree durable.
func (t *BTree) Close() error { return nil }
