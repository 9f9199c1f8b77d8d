package workloads

import (
	"errors"

	"pmdebugger/internal/pmdk"
)

// RBTree is a persistent red-black tree, the Go counterpart of PMDK's
// rbtree_map example: a classic CLRS red-black tree with parent pointers and
// a shared black sentinel, every mutation inside one transaction.
//
//	node: +0 key, +8 value, +16 left, +24 right, +32 parent, +40 color
//	      (48 bytes; color 0 = black, 1 = red)
type RBTree struct {
	p    *pmdk.Pool
	root uint64 // address of the root pointer cell
	nilN uint64 // sentinel node address
}

const (
	rbFKey     = 0
	rbFVal     = 8
	rbFLeft    = 16
	rbFRight   = 24
	rbFParent  = 32
	rbFColor   = 40
	rbNodeSize = 48

	rbBlack = 0
	rbRed   = 1
)

// NewRBTree builds an empty red-black tree rooted in the pool's root object.
func NewRBTree(p *pmdk.Pool) (*RBTree, error) {
	rootObj, size := p.Root()
	if size < 8 {
		return nil, errors.New("rbtree: root object too small")
	}
	t := &RBTree{p: p, root: rootObj}
	tx := p.Begin()
	t.nilN = p.Alloc(rbNodeSize)
	tx.Add(t.nilN, rbNodeSize)
	tx.StoreBytes(t.nilN, make([]byte, rbNodeSize))
	tx.Store64(t.nilN+rbFLeft, t.nilN)
	tx.Store64(t.nilN+rbFRight, t.nilN)
	tx.Store64(t.nilN+rbFParent, t.nilN)
	tx.Set(t.root, t.nilN)
	tx.Commit()
	return t, nil
}

// Name returns "rb_tree".
func (t *RBTree) Name() string { return "rb_tree" }

func (t *RBTree) ld(addr uint64) uint64 { return t.p.Ctx().Load64(addr) }

func (t *RBTree) key(n uint64) uint64    { return t.ld(n + rbFKey) }
func (t *RBTree) left(n uint64) uint64   { return t.ld(n + rbFLeft) }
func (t *RBTree) right(n uint64) uint64  { return t.ld(n + rbFRight) }
func (t *RBTree) parent(n uint64) uint64 { return t.ld(n + rbFParent) }
func (t *RBTree) color(n uint64) uint64  { return t.ld(n + rbFColor) }

func (t *RBTree) setLeft(tx *pmdk.Tx, n, v uint64)   { tx.Set(n+rbFLeft, v) }
func (t *RBTree) setRight(tx *pmdk.Tx, n, v uint64)  { tx.Set(n+rbFRight, v) }
func (t *RBTree) setParent(tx *pmdk.Tx, n, v uint64) { tx.Set(n+rbFParent, v) }
func (t *RBTree) setColor(tx *pmdk.Tx, n, v uint64)  { tx.Set(n+rbFColor, v) }

func (t *RBTree) rootNode() uint64 { return t.ld(t.root) }

func (t *RBTree) setRoot(tx *pmdk.Tx, n uint64) { tx.Set(t.root, n) }

// Get looks up key.
func (t *RBTree) Get(key uint64) (uint64, bool) {
	n := t.rootNode()
	for n != t.nilN {
		k := t.key(n)
		switch {
		case key == k:
			return t.ld(n + rbFVal), true
		case key < k:
			n = t.left(n)
		default:
			n = t.right(n)
		}
	}
	return 0, false
}

func (t *RBTree) rotateLeft(tx *pmdk.Tx, x uint64) {
	y := t.right(x)
	t.setRight(tx, x, t.left(y))
	if t.left(y) != t.nilN {
		t.setParent(tx, t.left(y), x)
	}
	t.setParent(tx, y, t.parent(x))
	switch {
	case t.parent(x) == t.nilN:
		t.setRoot(tx, y)
	case x == t.left(t.parent(x)):
		t.setLeft(tx, t.parent(x), y)
	default:
		t.setRight(tx, t.parent(x), y)
	}
	t.setLeft(tx, y, x)
	t.setParent(tx, x, y)
}

func (t *RBTree) rotateRight(tx *pmdk.Tx, x uint64) {
	y := t.left(x)
	t.setLeft(tx, x, t.right(y))
	if t.right(y) != t.nilN {
		t.setParent(tx, t.right(y), x)
	}
	t.setParent(tx, y, t.parent(x))
	switch {
	case t.parent(x) == t.nilN:
		t.setRoot(tx, y)
	case x == t.right(t.parent(x)):
		t.setRight(tx, t.parent(x), y)
	default:
		t.setLeft(tx, t.parent(x), y)
	}
	t.setRight(tx, y, x)
	t.setParent(tx, x, y)
}

// Insert adds or updates key.
func (t *RBTree) Insert(key, value uint64) error {
	tx := t.p.Begin()
	defer tx.Commit()

	parent := t.nilN
	cur := t.rootNode()
	for cur != t.nilN {
		parent = cur
		k := t.key(cur)
		switch {
		case key == k:
			tx.Set(cur+rbFVal, value)
			return nil
		case key < k:
			cur = t.left(cur)
		default:
			cur = t.right(cur)
		}
	}
	z := t.p.Alloc(rbNodeSize)
	tx.Add(z, rbNodeSize)
	tx.Store64(z+rbFKey, key)
	tx.Store64(z+rbFVal, value)
	tx.Store64(z+rbFLeft, t.nilN)
	tx.Store64(z+rbFRight, t.nilN)
	tx.Store64(z+rbFParent, parent)
	tx.Store64(z+rbFColor, rbRed)
	switch {
	case parent == t.nilN:
		t.setRoot(tx, z)
	case key < t.key(parent):
		t.setLeft(tx, parent, z)
	default:
		t.setRight(tx, parent, z)
	}
	t.insertFixup(tx, z)
	return nil
}

func (t *RBTree) insertFixup(tx *pmdk.Tx, z uint64) {
	for t.color(t.parent(z)) == rbRed {
		gp := t.parent(t.parent(z))
		if t.parent(z) == t.left(gp) {
			y := t.right(gp)
			if t.color(y) == rbRed {
				t.setColor(tx, t.parent(z), rbBlack)
				t.setColor(tx, y, rbBlack)
				t.setColor(tx, gp, rbRed)
				z = gp
				continue
			}
			if z == t.right(t.parent(z)) {
				z = t.parent(z)
				t.rotateLeft(tx, z)
			}
			t.setColor(tx, t.parent(z), rbBlack)
			t.setColor(tx, t.parent(t.parent(z)), rbRed)
			t.rotateRight(tx, t.parent(t.parent(z)))
		} else {
			y := t.left(gp)
			if t.color(y) == rbRed {
				t.setColor(tx, t.parent(z), rbBlack)
				t.setColor(tx, y, rbBlack)
				t.setColor(tx, gp, rbRed)
				z = gp
				continue
			}
			if z == t.left(t.parent(z)) {
				z = t.parent(z)
				t.rotateRight(tx, z)
			}
			t.setColor(tx, t.parent(z), rbBlack)
			t.setColor(tx, t.parent(t.parent(z)), rbRed)
			t.rotateLeft(tx, t.parent(t.parent(z)))
		}
	}
	t.setColor(tx, t.rootNode(), rbBlack)
}

// transplant replaces subtree u with subtree v.
func (t *RBTree) transplant(tx *pmdk.Tx, u, v uint64) {
	switch {
	case t.parent(u) == t.nilN:
		t.setRoot(tx, v)
	case u == t.left(t.parent(u)):
		t.setLeft(tx, t.parent(u), v)
	default:
		t.setRight(tx, t.parent(u), v)
	}
	t.setParent(tx, v, t.parent(u))
}

func (t *RBTree) minimum(n uint64) uint64 {
	for t.left(n) != t.nilN {
		n = t.left(n)
	}
	return n
}

// Remove deletes key.
func (t *RBTree) Remove(key uint64) (bool, error) {
	z := t.rootNode()
	for z != t.nilN && t.key(z) != key {
		if key < t.key(z) {
			z = t.left(z)
		} else {
			z = t.right(z)
		}
	}
	if z == t.nilN {
		return false, nil
	}

	tx := t.p.Begin()
	y := z
	yColor := t.color(y)
	var x uint64
	switch {
	case t.left(z) == t.nilN:
		x = t.right(z)
		t.transplant(tx, z, x)
	case t.right(z) == t.nilN:
		x = t.left(z)
		t.transplant(tx, z, x)
	default:
		y = t.minimum(t.right(z))
		yColor = t.color(y)
		x = t.right(y)
		if t.parent(y) == z {
			t.setParent(tx, x, y)
		} else {
			t.transplant(tx, y, x)
			t.setRight(tx, y, t.right(z))
			t.setParent(tx, t.right(y), y)
		}
		t.transplant(tx, z, y)
		t.setLeft(tx, y, t.left(z))
		t.setParent(tx, t.left(y), y)
		t.setColor(tx, y, t.color(z))
	}
	if yColor == rbBlack {
		t.deleteFixup(tx, x)
	}
	tx.Commit()
	t.p.Free(z, rbNodeSize)
	return true, nil
}

func (t *RBTree) deleteFixup(tx *pmdk.Tx, x uint64) {
	for x != t.rootNode() && t.color(x) == rbBlack {
		if x == t.left(t.parent(x)) {
			w := t.right(t.parent(x))
			if t.color(w) == rbRed {
				t.setColor(tx, w, rbBlack)
				t.setColor(tx, t.parent(x), rbRed)
				t.rotateLeft(tx, t.parent(x))
				w = t.right(t.parent(x))
			}
			if t.color(t.left(w)) == rbBlack && t.color(t.right(w)) == rbBlack {
				t.setColor(tx, w, rbRed)
				x = t.parent(x)
				continue
			}
			if t.color(t.right(w)) == rbBlack {
				t.setColor(tx, t.left(w), rbBlack)
				t.setColor(tx, w, rbRed)
				t.rotateRight(tx, w)
				w = t.right(t.parent(x))
			}
			t.setColor(tx, w, t.color(t.parent(x)))
			t.setColor(tx, t.parent(x), rbBlack)
			t.setColor(tx, t.right(w), rbBlack)
			t.rotateLeft(tx, t.parent(x))
			x = t.rootNode()
		} else {
			w := t.left(t.parent(x))
			if t.color(w) == rbRed {
				t.setColor(tx, w, rbBlack)
				t.setColor(tx, t.parent(x), rbRed)
				t.rotateRight(tx, t.parent(x))
				w = t.left(t.parent(x))
			}
			if t.color(t.right(w)) == rbBlack && t.color(t.left(w)) == rbBlack {
				t.setColor(tx, w, rbRed)
				x = t.parent(x)
				continue
			}
			if t.color(t.left(w)) == rbBlack {
				t.setColor(tx, t.right(w), rbBlack)
				t.setColor(tx, w, rbRed)
				t.rotateLeft(tx, w)
				w = t.left(t.parent(x))
			}
			t.setColor(tx, w, t.color(t.parent(x)))
			t.setColor(tx, t.parent(x), rbBlack)
			t.setColor(tx, t.left(w), rbBlack)
			t.rotateRight(tx, t.parent(x))
			x = t.rootNode()
		}
	}
	t.setColor(tx, x, rbBlack)
}

// Close is a no-op: every transaction left the tree durable.
func (t *RBTree) Close() error { return nil }

// checkInvariants validates red-black properties; used by tests.
func (t *RBTree) checkInvariants() error {
	root := t.rootNode()
	if root != t.nilN && t.color(root) != rbBlack {
		return errors.New("rbtree: root is red")
	}
	_, err := t.checkNode(root)
	return err
}

func (t *RBTree) checkNode(n uint64) (blackHeight int, err error) {
	if n == t.nilN {
		return 1, nil
	}
	l, r := t.left(n), t.right(n)
	if t.color(n) == rbRed {
		if t.color(l) == rbRed || t.color(r) == rbRed {
			return 0, errors.New("rbtree: red node with red child")
		}
	}
	if l != t.nilN && t.key(l) >= t.key(n) {
		return 0, errors.New("rbtree: left key order violated")
	}
	if r != t.nilN && t.key(r) <= t.key(n) {
		return 0, errors.New("rbtree: right key order violated")
	}
	lh, err := t.checkNode(l)
	if err != nil {
		return 0, err
	}
	rh, err := t.checkNode(r)
	if err != nil {
		return 0, err
	}
	if lh != rh {
		return 0, errors.New("rbtree: black height mismatch")
	}
	if t.color(n) == rbBlack {
		lh++
	}
	return lh, nil
}
