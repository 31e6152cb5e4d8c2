//! The index-based node arena of the IsTa prefix tree.
//!
//! The paper's C implementation links nodes with raw pointers (Fig. 1);
//! here nodes live in one `Vec` and link through `u32` indices, which keeps
//! the structure compact, cache-friendly, and free of `unsafe`. Freed nodes
//! are kept on an intrusive free list threaded through the `sibling` field
//! so pruning can recycle them.
//!
//! [`SegArena`] backs the path-compressed Patricia
//! [`PrefixTree`](crate::tree::PrefixTree), whose nodes store an item
//! *segment* — a `(offset, length)` slice into one shared item vector — so
//! unary chains collapse into single nodes (paper §3.3's Patricia variant).
//! Each node also keeps its segment's first item inline: sibling walks and
//! membership probes of a length-1 segment, the paper's one-item node and
//! by far the most common node on dense data, never read the item store.

use fim_core::Item;
use fim_obs::{Counter, Counters};

/// Sentinel index meaning "no node".
pub const NONE: u32 = u32::MAX;

/// One path-compressed prefix tree node (paper Fig. 1 with §3.3's path
/// compression): a strictly descending item *segment* (slice into the
/// arena's shared item store) plus the paper's node bookkeeping. The
/// segment represents a unary chain of one-item nodes that all share one
/// `supp` and one `step` (the tree splits a node before any update that
/// would touch only a proper prefix of its segment, so the invariant is
/// maintained eagerly); `raw` belongs to the *deepest* conceptual node —
/// the set "path plus full segment".
#[derive(Clone, Copy, Debug)]
pub struct PatNode {
    /// First (largest) item of the segment, kept inline so sibling walks
    /// and length-1 probes need no item-store read; `Item::MAX` for the
    /// pseudo-root, which sits above every real item.
    pub first: Item,
    /// Offset of the segment in the arena's item store.
    pub seg_off: u32,
    /// Number of items in the segment (0 only for the pseudo-root).
    pub seg_len: u32,
    /// Support of the represented item set(s) within the processed prefix.
    pub supp: u32,
    /// Most recent update step: the index of the transaction whose
    /// processing last touched this node, the paper's incremental-update
    /// flag. Uniform over the segment's conceptual nodes.
    pub step: u32,
    /// Total weight of raw transactions whose (possibly pruning-reduced)
    /// item set is exactly the set of the deepest conceptual node. Terminal
    /// counts let a tree be replayed into another one with correct additive
    /// support semantics (see [`PrefixTree::merge`]); the sum of `raw` over
    /// all nodes (plus the root's, which absorbs transactions pruned to the
    /// empty set) equals the processed transaction weight.
    ///
    /// [`PrefixTree::merge`]: crate::tree::PrefixTree::merge
    pub raw: u32,
    /// Next node in the sibling list (descending first item), or [`NONE`].
    pub sibling: u32,
    /// Head of the child list (first items < the segment's last item), or
    /// [`NONE`].
    pub children: u32,
}

/// Growable arena of [`PatNode`]s with index links, a free list, and the
/// shared segment item store.
///
/// Segment storage is append-only between [`compact`](Self::compact)ions:
/// freeing a node or rewriting its segment to a subsequence leaves garbage
/// items behind ([`garbage_items`](Self::garbage_items)); compaction
/// relocates both the nodes (depth-first) and the live segment bytes.
#[derive(Clone, Debug)]
pub struct SegArena {
    nodes: Vec<PatNode>,
    free_head: u32,
    live: usize,
    items: Vec<Item>,
    live_items: usize,
    counters: Counters,
}

impl Default for SegArena {
    fn default() -> Self {
        SegArena::new()
    }
}

impl SegArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        SegArena {
            nodes: Vec::new(),
            free_head: NONE,
            live: 0,
            items: Vec::new(),
            live_items: 0,
            counters: Counters::new(),
        }
    }

    /// Allocates a node whose segment region is described by the node
    /// itself (used for the pseudo-root and by [`split`](Self::split),
    /// which reuses the split node's existing item region). Does not touch
    /// the item store.
    pub fn alloc_node(&mut self, node: PatNode) -> u32 {
        self.counters.bump(Counter::NodeAllocs);
        self.live += 1;
        if self.free_head != NONE {
            let idx = self.free_head;
            self.free_head = self.nodes[idx as usize].sibling;
            self.nodes[idx as usize] = node;
            idx
        } else {
            let idx = self.nodes.len() as u32;
            assert!(idx < NONE, "node arena exhausted");
            self.nodes.push(node);
            idx
        }
    }

    /// Allocates a node holding a copy of the strictly descending segment
    /// `seg` (appended to the item store).
    pub fn alloc_seg(
        &mut self,
        seg: &[Item],
        supp: u32,
        step: u32,
        raw: u32,
        sibling: u32,
        children: u32,
    ) -> u32 {
        debug_assert!(seg.windows(2).all(|w| w[0] > w[1]));
        let seg_off = self.items.len() as u32;
        self.items.extend_from_slice(seg);
        self.live_items += seg.len();
        self.alloc_node(PatNode {
            first: seg[0],
            seg_off,
            seg_len: seg.len() as u32,
            supp,
            step,
            raw,
            sibling,
            children,
        })
    }

    /// Returns a node slot to the free list; its segment items become
    /// garbage (reclaimed by [`compact`](Self::compact)).
    ///
    /// The caller must ensure no live links point to `idx`.
    pub fn free(&mut self, idx: u32) {
        debug_assert!(self.live > 0);
        self.live -= 1;
        let n = &mut self.nodes[idx as usize];
        self.live_items -= n.seg_len as usize;
        n.seg_len = 0;
        n.sibling = self.free_head;
        n.children = NONE;
        self.free_head = idx;
    }

    /// Splits node `idx` after the first `k` segment items (`0 < k <
    /// seg_len`): the *head* keeps the slot — every incoming sibling or
    /// child link stays valid — and its first `k` items, with `raw` 0 and
    /// the *tail* as only child; the new tail node holds the remaining
    /// items, the head's former `raw`, and the head's former children.
    /// Both halves keep `supp` and `step` (uniform over the segment), and
    /// no item is copied: head and tail describe disjoint halves of the
    /// original item region. Returns the tail index.
    pub fn split(&mut self, idx: u32, k: u32) -> u32 {
        self.counters.bump(Counter::Splits);
        let n = self.nodes[idx as usize];
        debug_assert!(k > 0 && k < n.seg_len);
        let tail = self.alloc_node(PatNode {
            first: self.items[(n.seg_off + k) as usize],
            seg_off: n.seg_off + k,
            seg_len: n.seg_len - k,
            supp: n.supp,
            step: n.step,
            raw: n.raw,
            sibling: NONE,
            children: n.children,
        });
        let h = &mut self.nodes[idx as usize];
        h.seg_len = k;
        h.raw = 0;
        h.children = tail;
        tail
    }

    /// Rewrites the node's segment to `kept` — a non-empty subsequence of
    /// the current segment (pruning eliminated the other items). The
    /// shrinkage becomes garbage.
    pub fn rewrite_seg(&mut self, idx: u32, kept: &[Item]) {
        let n = self.nodes[idx as usize];
        let off = n.seg_off as usize;
        let old = n.seg_len as usize;
        debug_assert!(!kept.is_empty() && kept.len() <= old);
        self.items[off..off + kept.len()].copy_from_slice(kept);
        let n = &mut self.nodes[idx as usize];
        n.first = kept[0];
        n.seg_len = kept.len() as u32;
        self.live_items -= old - kept.len();
    }

    /// The node's segment (strictly descending item codes).
    #[inline]
    pub fn seg(&self, idx: u32) -> &[Item] {
        let n = &self.nodes[idx as usize];
        &self.items[n.seg_off as usize..(n.seg_off + n.seg_len) as usize]
    }

    /// The `j`-th item of the node's segment.
    #[inline]
    pub fn item_at(&self, idx: u32, j: usize) -> Item {
        self.items[self.nodes[idx as usize].seg_off as usize + j]
    }

    /// First (largest) item of the node's segment, read inline. Must not
    /// be called on the zero-length pseudo-root.
    #[inline]
    pub fn first_item(&self, idx: u32) -> Item {
        debug_assert!(self.nodes[idx as usize].seg_len > 0);
        self.nodes[idx as usize].first
    }

    /// Last (smallest) item of the node's segment, or `Item::MAX` for the
    /// zero-length pseudo-root (every item fits below it).
    #[inline]
    pub fn last_item(&self, idx: u32) -> Item {
        let n = &self.nodes[idx as usize];
        if n.seg_len == 0 {
            Item::MAX
        } else {
            self.items[(n.seg_off + n.seg_len - 1) as usize]
        }
    }

    /// Number of live (allocated, not freed) nodes.
    pub fn live_count(&self) -> usize {
        self.live
    }

    /// Total slots ever allocated (live + free-listed).
    pub fn capacity_used(&self) -> usize {
        self.nodes.len()
    }

    /// Number of slots currently parked on the free list.
    pub fn free_count(&self) -> usize {
        self.nodes.len() - self.live
    }

    /// Items referenced by live segments (= conceptual node count,
    /// excluding the pseudo-root).
    pub fn live_items(&self) -> usize {
        self.live_items
    }

    /// Size of the segment item store, live and garbage alike.
    pub fn items_len(&self) -> usize {
        self.items.len()
    }

    /// Garbage items left behind by [`free`](Self::free) and
    /// [`rewrite_seg`](Self::rewrite_seg).
    pub fn garbage_items(&self) -> usize {
        self.items.len() - self.live_items
    }

    /// Hot-loop counters accumulated by this arena (allocations, splits,
    /// plus the segment-scan counts `isect` pushes in). Survives
    /// [`compact`](Self::compact); snapshot loads start from zero.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Mutable counter access for the owning tree's traversal loops.
    #[inline]
    pub fn counters_mut(&mut self) -> &mut Counters {
        &mut self.counters
    }

    /// Adds another arena's counters into this one (shard-merge
    /// aggregation: replayed work lands here, the donor's own history is
    /// absorbed explicitly).
    pub fn absorb_counters(&mut self, other: &Counters) {
        self.counters.merge(other);
    }

    /// Relocates the live nodes reachable from `root` into depth-first
    /// order — each node directly followed by its subtree, then by its
    /// next sibling — truncating freed slots and emptying the free list,
    /// *and* rebuilds the item store, copying each live node's segment into
    /// the same depth-first order. After heavy pruning churn the free list
    /// scatters live nodes across the slot vector; compaction gives the
    /// node walk and the segment reads of `isect`/`report` nearly-sequential
    /// memory again, drops garbage items, and returns the freed tail to the
    /// allocator. All `sibling`/`children` links are remapped; every other
    /// node field is preserved. Returns the new index of `root` (always
    /// `0`).
    ///
    /// The caller must ensure every live node is reachable from `root`
    /// (checked in debug builds).
    pub fn compact(&mut self, root: u32) -> u32 {
        debug_assert!(root != NONE);
        let mut order: Vec<u32> = Vec::with_capacity(self.live);
        let mut remap: Vec<u32> = vec![NONE; self.nodes.len()];
        let mut stack: Vec<u32> = vec![root];
        while let Some(mut node) = stack.pop() {
            while node != NONE {
                remap[node as usize] = order.len() as u32;
                order.push(node);
                let n = &self.nodes[node as usize];
                if n.sibling != NONE {
                    stack.push(n.sibling);
                }
                node = n.children;
            }
        }
        debug_assert_eq!(order.len(), self.live, "unreachable live nodes");
        let mut nodes: Vec<PatNode> = Vec::with_capacity(order.len());
        let mut items: Vec<Item> = Vec::with_capacity(self.live_items);
        for &old in &order {
            let mut n = self.nodes[old as usize];
            let off = n.seg_off as usize;
            let len = n.seg_len as usize;
            n.seg_off = items.len() as u32;
            items.extend_from_slice(&self.items[off..off + len]);
            if n.sibling != NONE {
                n.sibling = remap[n.sibling as usize];
            }
            if n.children != NONE {
                n.children = remap[n.children as usize];
            }
            nodes.push(n);
        }
        self.nodes = nodes;
        self.items = items;
        self.live_items = self.items.len();
        self.free_head = NONE;
        remap[root as usize]
    }

    /// All node slots in index order (snapshot writer; callers must
    /// [`compact`](Self::compact) first so every slot is live).
    pub fn slots(&self) -> &[PatNode] {
        &self.nodes
    }

    /// The whole item store in index order (snapshot writer; compact
    /// first so it holds exactly the live segments, in node order).
    pub fn items_slice(&self) -> &[Item] {
        &self.items
    }

    /// Appends a node slot verbatim (snapshot loader). The arena only
    /// keeps its counters consistent; structural validity and the inline
    /// first item are the caller's job (`PrefixTree::from_raw_parts`
    /// validates fully, then derives `first` from the segment).
    pub fn load_node(&mut self, node: PatNode) -> u32 {
        let idx = self.nodes.len() as u32;
        assert!(idx < NONE, "node arena exhausted");
        self.live += 1;
        self.live_items += node.seg_len as usize;
        self.nodes.push(node);
        idx
    }

    /// Appends one item to the segment store (snapshot loader).
    pub fn load_item(&mut self, item: Item) {
        self.items.push(item);
    }

    /// Immutable node access.
    #[inline]
    pub fn get(&self, idx: u32) -> &PatNode {
        &self.nodes[idx as usize]
    }

    /// Mutable node access.
    #[inline]
    pub fn get_mut(&mut self, idx: u32) -> &mut PatNode {
        &mut self.nodes[idx as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pat_root(a: &mut SegArena) -> u32 {
        a.alloc_node(PatNode {
            first: Item::MAX,
            seg_off: 0,
            seg_len: 0,
            supp: 0,
            step: 0,
            raw: 0,
            sibling: NONE,
            children: NONE,
        })
    }

    #[test]
    fn seg_split_shares_the_item_region() {
        let mut a = SegArena::new();
        let root = pat_root(&mut a);
        let n = a.alloc_seg(&[9, 7, 5], 3, 2, 1, NONE, NONE);
        a.get_mut(root).children = n;
        let items_before = a.items_len();
        let tail = a.split(n, 1);
        // no item copied, accounting unchanged
        assert_eq!(a.items_len(), items_before);
        assert_eq!(a.live_items(), 3);
        assert_eq!(a.seg(n), &[9]);
        assert_eq!(a.seg(tail), &[7, 5]);
        // the head keeps the slot; raw and children move to the tail
        assert_eq!(a.get(n).raw, 0);
        assert_eq!(a.get(n).children, tail);
        assert_eq!(a.get(tail).raw, 1);
        assert_eq!(a.get(tail).children, NONE);
        // supp and step are uniform over the former segment
        assert_eq!((a.get(n).supp, a.get(n).step), (3, 2));
        assert_eq!((a.get(tail).supp, a.get(tail).step), (3, 2));
        assert_eq!(a.first_item(tail), 7);
        assert_eq!(a.last_item(tail), 5);
        assert_eq!(a.last_item(root), Item::MAX);
    }

    #[test]
    fn seg_rewrite_and_free_track_garbage() {
        let mut a = SegArena::new();
        let root = pat_root(&mut a);
        let n = a.alloc_seg(&[8, 6, 4, 2], 1, 0, 0, NONE, NONE);
        a.get_mut(root).children = n;
        assert_eq!(a.garbage_items(), 0);
        a.rewrite_seg(n, &[6, 4]);
        assert_eq!(a.seg(n), &[6, 4]);
        assert_eq!(
            a.first_item(n),
            6,
            "the inline first item follows the rewrite"
        );
        assert_eq!(a.live_items(), 2);
        assert_eq!(a.garbage_items(), 2);
        let m = a.alloc_seg(&[3], 1, 0, 0, NONE, NONE);
        a.get_mut(n).children = m;
        a.get_mut(n).children = NONE;
        a.free(m);
        assert_eq!(a.live_items(), 2);
        assert_eq!(a.garbage_items(), 3);
        // compaction drops the garbage and relocates the live segment
        let root = a.compact(root);
        assert_eq!(root, 0);
        assert_eq!(a.items_len(), 2);
        assert_eq!(a.garbage_items(), 0);
        assert_eq!(a.seg(a.get(root).children), &[6, 4]);
        assert_eq!(a.first_item(a.get(root).children), 6);
    }

    #[test]
    fn seg_free_list_reuses_slots_lifo() {
        let mut a = SegArena::new();
        let root = pat_root(&mut a);
        let x = a.alloc_seg(&[3], 1, 0, 0, NONE, NONE);
        let y = a.alloc_seg(&[2], 1, 0, 0, NONE, NONE);
        a.free(x);
        a.free(y);
        assert_eq!(a.live_count(), 1);
        assert_eq!(a.free_count(), 2);
        assert_eq!(a.alloc_seg(&[9], 1, 0, 0, NONE, NONE), y);
        let z = a.alloc_seg(&[8, 7], 1, 0, 0, NONE, NONE);
        assert_eq!(z, x);
        assert_eq!((a.first_item(z), a.seg(z)), (8, &[8, 7][..]));
        assert_eq!(a.capacity_used(), 3);
        // after a compaction the free list is gone: allocation extends
        a.get_mut(root).children = y;
        a.get_mut(y).sibling = z;
        let root = a.compact(root);
        assert_eq!(a.alloc_seg(&[1], 1, 0, 0, NONE, NONE), 3);
        let head = a.get(root).children;
        assert_eq!(
            (a.first_item(head), a.first_item(a.get(head).sibling)),
            (9, 8)
        );
    }

    #[test]
    fn seg_compact_orders_nodes_and_items_depth_first() {
        let mut a = SegArena::new();
        let root = pat_root(&mut a);
        let b = a.alloc_seg(&[5, 3], 2, 0, 1, NONE, NONE);
        let c = a.alloc_seg(&[1], 1, 0, 1, NONE, NONE);
        let d = a.alloc_seg(&[4], 1, 0, 1, NONE, NONE);
        a.get_mut(root).children = b;
        a.get_mut(b).sibling = d;
        a.get_mut(b).children = c;
        let junk = a.alloc_seg(&[9], 0, 0, 0, NONE, NONE);
        a.free(junk);
        let root = a.compact(root);
        assert_eq!(root, 0);
        assert_eq!(a.capacity_used(), 4);
        assert_eq!(a.free_count(), 0);
        // depth-first: root, b, c (child), d (sibling); items follow suit
        assert_eq!(a.seg(1), &[5, 3]);
        assert_eq!(a.seg(2), &[1]);
        assert_eq!(a.seg(3), &[4]);
        assert_eq!(a.items_slice(), &[5, 3, 1, 4]);
        assert_eq!(a.get(0).children, 1);
        assert_eq!(a.get(1).children, 2);
        assert_eq!(a.get(1).sibling, 3);
    }
}
