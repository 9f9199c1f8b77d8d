// Package avl implements an address-range-keyed, self-balancing AVL tree
// used for bookkeeping memory-location persistency status.
//
// Every detector in this repository that keeps long-lived location records
// uses this tree: PMDebugger stores locations whose durability is not
// guaranteed in the short term (§4.1), while the Pmemcheck baseline keeps
// every location here. Nodes are augmented with the maximum range end of
// their subtree so overlap queries prune aggressively (an interval tree).
//
// The tree counts its structural maintenance work (rotations, merges,
// reorganizations) because the paper's key insight (§7.5) is quantified in
// exactly those terms.
package avl

import (
	"sort"

	"pmdebugger/internal/intervals"
	"pmdebugger/internal/trace"
)

// Item is one tracked memory location: the address range written by a store
// together with its persistency status and provenance.
type Item struct {
	Addr    uint64
	Size    uint64
	Seq     uint64       // sequence number of the store that created it
	Site    trace.SiteID // source site of the store
	Strand  int32        // strand section the store came from
	Flushed bool         // persisted by a CLF since the last store
	Epoch   bool         // store happened inside an epoch section (§5.1)
	Epochs  int32        // id of the epoch section, -1 outside any epoch
	// Reported marks records a rule has already reported a bug for, so
	// later rules do not double-report the same missing durability.
	Reported bool
}

// Range returns the item's address range.
func (it Item) Range() intervals.Range { return intervals.R(it.Addr, it.Size) }

// End returns the first address past the item.
func (it Item) End() uint64 { return it.Addr + it.Size }

type node struct {
	item        Item
	left, right *node
	height      int32
	maxEnd      uint64
}

// Stats counts the structural work the tree has performed. Rotations and
// merge reorganizations are the "tree reorganization" overhead of §2.2/§7.5.
type Stats struct {
	Inserts   uint64
	Deletes   uint64
	Rotations uint64
	Merges    uint64 // nodes coalesced by Merge
	Reorgs    uint64 // reorganization passes (rotations + merge passes)
}

// Tree is an AVL interval tree of Items keyed by start address. Items with
// equal start addresses are not allowed; Insert resolves overlaps first, so
// the tree always holds pairwise-disjoint ranges.
type Tree struct {
	root  *node
	size  int
	stats Stats

	// Conservative summaries of every record that entered the tree, so
	// whole-tree sweeps that cannot match return at once: mayFlushed is
	// false only when no record is flushed, and maxEpochs is the largest
	// Epochs ever inserted. Neither is lowered by deletes.
	mayFlushed bool
	maxEpochs  int32
}

// New returns an empty tree.
func New() *Tree { return &Tree{maxEpochs: -1} }

// Len returns the number of items in the tree.
func (t *Tree) Len() int { return t.size }

// Stats returns a copy of the maintenance counters.
func (t *Tree) Stats() Stats { return t.stats }

// MaxEpochs returns an upper bound on the Epochs of every record: the
// largest ever inserted since the tree was created or cleared, or -1.
func (t *Tree) MaxEpochs() int32 { return t.maxEpochs }

// note folds a record entering the tree into the sweep summaries.
func (t *Tree) note(it Item) {
	if it.Flushed {
		t.mayFlushed = true
	}
	if it.Epochs > t.maxEpochs {
		t.maxEpochs = it.Epochs
	}
}

// Height returns the height of the tree (0 for empty).
func (t *Tree) Height() int { return int(height(t.root)) }

func height(n *node) int32 {
	if n == nil {
		return 0
	}
	return n.height
}

func maxEnd(n *node) uint64 {
	if n == nil {
		return 0
	}
	return n.maxEnd
}

func (n *node) update() {
	n.height = 1 + max32(height(n.left), height(n.right))
	n.maxEnd = n.item.End()
	if l := maxEnd(n.left); l > n.maxEnd {
		n.maxEnd = l
	}
	if r := maxEnd(n.right); r > n.maxEnd {
		n.maxEnd = r
	}
}

func (t *Tree) rotateLeft(n *node) *node {
	t.stats.Rotations++
	r := n.right
	n.right = r.left
	r.left = n
	n.update()
	r.update()
	return r
}

func (t *Tree) rotateRight(n *node) *node {
	t.stats.Rotations++
	l := n.left
	n.left = l.right
	l.right = n
	n.update()
	l.update()
	return l
}

func (t *Tree) balance(n *node) *node {
	n.update()
	switch bf := height(n.left) - height(n.right); {
	case bf > 1:
		if height(n.left.left) < height(n.left.right) {
			n.left = t.rotateLeft(n.left)
		}
		return t.rotateRight(n)
	case bf < -1:
		if height(n.right.right) < height(n.right.left) {
			n.right = t.rotateRight(n.right)
		}
		return t.rotateLeft(n)
	}
	return n
}

// insertRaw inserts an item assuming its range is disjoint from every item
// already in the tree.
func (t *Tree) insertRaw(n *node, it Item) *node {
	if n == nil {
		t.size++
		t.stats.Inserts++
		t.note(it)
		nn := &node{item: it}
		nn.update()
		return nn
	}
	if it.Addr < n.item.Addr {
		n.left = t.insertRaw(n.left, it)
	} else {
		n.right = t.insertRaw(n.right, it)
	}
	return t.balance(n)
}

// Insert adds a location record. Any existing records overlapping the new
// range are truncated or removed first: a fresh store supersedes older
// bookkeeping for the bytes it covers (the overlapped bytes take the new
// store's status; non-overlapped remainders keep the old status).
func (t *Tree) Insert(it Item) {
	if it.Size == 0 {
		return
	}
	r := it.Range()
	overlapped := t.CollectOverlapping(r)
	for _, old := range overlapped {
		t.deleteExact(old.Addr)
		for _, rem := range old.Range().Subtract(r) {
			keep := old
			keep.Addr, keep.Size = rem.Addr, rem.Size
			t.root = t.insertRaw(t.root, keep)
		}
	}
	t.root = t.insertRaw(t.root, it)
}

// InsertAll adds a batch of records with the same semantics as calling
// Insert for each item in order (a later item supersedes earlier bookkeeping
// for the bytes it covers, including earlier items of the same batch). Large
// batches whose records are pairwise disjoint and disjoint from the existing
// tree take a bulk build-from-sorted path that pays tree maintenance once —
// no per-item rebalancing — which is the common shape of fence-time array
// redistribution (§4.4). Conflicting or small batches fall back to per-item
// insertion.
func (t *Tree) InsertAll(items []Item) {
	const bulkMin = 16
	if len(items) >= bulkMin && len(items)*8 >= t.size {
		if merged, ok := t.disjointUnion(items); ok {
			t.stats.Inserts += uint64(len(merged) - t.size)
			t.rebuild(merged)
			return
		}
	}
	for _, it := range items {
		t.Insert(it)
	}
}

// disjointUnion returns the address-sorted union of the tree's records and
// the non-empty items, or ok=false when any two records overlap (the bulk
// path does not apply and the caller must fold items in one at a time).
func (t *Tree) disjointUnion(items []Item) ([]Item, bool) {
	batch := make([]Item, 0, len(items))
	for _, it := range items {
		if it.Size > 0 {
			batch = append(batch, it)
		}
	}
	sort.Slice(batch, func(i, j int) bool { return batch[i].Addr < batch[j].Addr })
	for i := 1; i < len(batch); i++ {
		if batch[i].Addr < batch[i-1].End() {
			return nil, false
		}
	}
	existing := t.Items()
	merged := make([]Item, 0, len(existing)+len(batch))
	i, j := 0, 0
	for i < len(existing) && j < len(batch) {
		if existing[i].Addr < batch[j].Addr {
			merged = append(merged, existing[i])
			i++
		} else {
			merged = append(merged, batch[j])
			j++
		}
	}
	merged = append(merged, existing[i:]...)
	merged = append(merged, batch[j:]...)
	for k := 1; k < len(merged); k++ {
		if merged[k].Addr < merged[k-1].End() {
			return nil, false
		}
	}
	return merged, true
}

// InsertDisjoint adds a record the caller guarantees does not overlap any
// existing record. It skips the overlap resolution pass; the guarantee is
// the caller's responsibility (used on the hot path when re-distributing
// array entries that were already resolved against the tree).
func (t *Tree) InsertDisjoint(it Item) {
	if it.Size == 0 {
		return
	}
	t.root = t.insertRaw(t.root, it)
}

// deleteExact removes the node whose item starts at addr. It reports whether
// a node was removed.
func (t *Tree) deleteExact(addr uint64) bool {
	var removed bool
	t.root = t.deleteNode(t.root, addr, &removed)
	if removed {
		t.size--
		t.stats.Deletes++
	}
	return removed
}

func (t *Tree) deleteNode(n *node, addr uint64, removed *bool) *node {
	if n == nil {
		return nil
	}
	switch {
	case addr < n.item.Addr:
		n.left = t.deleteNode(n.left, addr, removed)
	case addr > n.item.Addr:
		n.right = t.deleteNode(n.right, addr, removed)
	default:
		*removed = true
		if n.left == nil {
			return n.right
		}
		if n.right == nil {
			return n.left
		}
		succ := n.right
		for succ.left != nil {
			succ = succ.left
		}
		n.item = succ.item
		var dummy bool
		n.right = t.deleteNode(n.right, succ.item.Addr, &dummy)
	}
	return t.balance(n)
}

// Delete removes the record starting exactly at addr, reporting success.
func (t *Tree) Delete(addr uint64) bool { return t.deleteExact(addr) }

// Lookup returns the record containing addr, if any.
func (t *Tree) Lookup(addr uint64) (Item, bool) {
	n := t.root
	for n != nil {
		if n.item.Range().ContainsAddr(addr) {
			return n.item, true
		}
		if n.left != nil && n.left.maxEnd > addr {
			// The containing record, if it exists, starts at or before addr;
			// records to the right start after addr and cannot contain it
			// unless addr >= their start, so descend left first.
			if addr < n.item.Addr {
				n = n.left
				continue
			}
			// addr is past this node's range: it could be in either subtree.
			if it, ok := lookupRec(n.left, addr); ok {
				return it, true
			}
			n = n.right
			continue
		}
		if addr < n.item.Addr {
			n = n.left
		} else {
			n = n.right
		}
	}
	return Item{}, false
}

func lookupRec(n *node, addr uint64) (Item, bool) {
	if n == nil || n.maxEnd <= addr {
		return Item{}, false
	}
	if it, ok := lookupRec(n.left, addr); ok {
		return it, true
	}
	if n.item.Range().ContainsAddr(addr) {
		return n.item, true
	}
	if addr >= n.item.Addr {
		return lookupRec(n.right, addr)
	}
	return Item{}, false
}

// VisitOverlapping calls fn for every record overlapping r, in address
// order. fn must not mutate the tree; use CollectOverlapping to gather
// records before mutating.
func (t *Tree) VisitOverlapping(r intervals.Range, fn func(Item)) {
	visitOverlap(t.root, r, fn)
}

func visitOverlap(n *node, r intervals.Range, fn func(Item)) {
	if n == nil || n.maxEnd <= r.Addr {
		return
	}
	visitOverlap(n.left, r, fn)
	if n.item.Range().Overlaps(r) {
		fn(n.item)
	}
	if n.item.Addr < r.End() {
		visitOverlap(n.right, r, fn)
	}
}

// CollectOverlapping returns all records overlapping r in address order.
func (t *Tree) CollectOverlapping(r intervals.Range) []Item {
	var out []Item
	t.VisitOverlapping(r, func(it Item) { out = append(out, it) })
	return out
}

// Visit calls fn for every record in address order.
func (t *Tree) Visit(fn func(Item)) { visitAll(t.root, fn) }

func visitAll(n *node, fn func(Item)) {
	if n == nil {
		return
	}
	visitAll(n.left, fn)
	fn(n.item)
	visitAll(n.right, fn)
}

// Items returns all records in address order.
func (t *Tree) Items() []Item {
	out := make([]Item, 0, t.size)
	t.Visit(func(it Item) { out = append(out, it) })
	return out
}

// MarkFlushed updates the flush status of every record overlapping r.
// Fully covered records are marked flushed in place. Partially covered
// records are split: the covered sub-range becomes a flushed record, the
// remainder keeps its previous status (§4.3). It returns the number of
// records whose bytes were (at least partially) newly flushed and the number
// of overlapped records that were already entirely flushed (redundant-flush
// rule input).
func (t *Tree) MarkFlushed(r intervals.Range) (newlyFlushed, alreadyFlushed int) {
	overlapped := t.CollectOverlapping(r)
	for _, old := range overlapped {
		if old.Flushed {
			alreadyFlushed++
			continue
		}
		newlyFlushed++
		t.deleteExact(old.Addr)
		covered := old.Range().Intersect(r)
		fl := old
		fl.Addr, fl.Size = covered.Addr, covered.Size
		fl.Flushed = true
		t.root = t.insertRaw(t.root, fl)
		for _, rem := range old.Range().Subtract(r) {
			keep := old
			keep.Addr, keep.Size = rem.Addr, rem.Size
			t.root = t.insertRaw(t.root, keep)
		}
	}
	return newlyFlushed, alreadyFlushed
}

// RemoveFlushed deletes every record marked flushed (fence processing,
// §4.4) and returns them. A tree that has held no flushed record since the
// last sweep returns at once without a walk.
func (t *Tree) RemoveFlushed() []Item {
	if !t.mayFlushed {
		return nil
	}
	var flushed []Item
	t.Visit(func(it Item) {
		if it.Flushed {
			flushed = append(flushed, it)
		}
	})
	for _, it := range flushed {
		t.deleteExact(it.Addr)
	}
	t.mayFlushed = false
	return flushed
}

// RemoveIf deletes every record for which pred returns true and returns the
// removed records in address order.
func (t *Tree) RemoveIf(pred func(Item) bool) []Item {
	var hit []Item
	t.Visit(func(it Item) {
		if pred(it) {
			hit = append(hit, it)
		}
	})
	for _, it := range hit {
		t.deleteExact(it.Addr)
	}
	return hit
}

// Merge coalesces adjacent records that share flush status, epoch flag,
// strand and source site into single records covering the union range. This
// is the expensive reorganization the paper performs only past a node-count
// threshold (§4.4). Site equality is required so that merging never
// destroys bug attribution: two distinct buggy sites must stay two records.
// It returns the number of nodes eliminated.
func (t *Tree) Merge() int {
	if t.size < 2 {
		return 0
	}
	t.stats.Reorgs++
	items := t.Items()
	merged := make([]Item, 0, len(items))
	cur := items[0]
	eliminated := 0
	for _, it := range items[1:] {
		if cur.End() == it.Addr &&
			cur.Flushed == it.Flushed &&
			cur.Epoch == it.Epoch &&
			cur.Epochs == it.Epochs &&
			cur.Strand == it.Strand &&
			cur.Site == it.Site &&
			cur.Reported == it.Reported {
			cur.Size += it.Size
			if it.Seq > cur.Seq {
				cur.Seq = it.Seq
			}
			eliminated++
			continue
		}
		merged = append(merged, cur)
		cur = it
	}
	merged = append(merged, cur)
	if eliminated == 0 {
		return 0
	}
	t.stats.Merges += uint64(eliminated)
	t.rebuild(merged)
	return eliminated
}

// rebuild replaces the tree contents with the given address-ordered disjoint
// items, producing a perfectly balanced tree.
func (t *Tree) rebuild(items []Item) {
	for _, it := range items {
		t.note(it)
	}
	t.root = buildBalanced(items)
	t.size = len(items)
}

func buildBalanced(items []Item) *node {
	if len(items) == 0 {
		return nil
	}
	mid := len(items) / 2
	n := &node{item: items[mid]}
	n.left = buildBalanced(items[:mid])
	n.right = buildBalanced(items[mid:][1:])
	n.update()
	return n
}

// Clear removes all records but keeps the statistics counters.
func (t *Tree) Clear() {
	t.root = nil
	t.size = 0
	t.mayFlushed = false
	t.maxEpochs = -1
}

func max32(a, b int32) int32 {
	if a > b {
		return a
	}
	return b
}
