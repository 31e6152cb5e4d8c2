//! The path-compressed (Patricia) IsTa prefix tree: insertion, the
//! segment-aware `isect` traversal (paper Fig. 2 over whole segments),
//! reporting (paper Fig. 4), and item-elimination pruning (paper §3.2).
//!
//! This is the paper's §3.3 Patricia variant — the implementation the
//! authors report as the most memory- and time-efficient on sparse data.
//! Each node holds a strictly descending item *segment* (a slice into the
//! [`SegArena`]'s shared item store) instead of a single item, so unary
//! chains collapse into one node. A length-1 segment is the paper's
//! one-item node, and on dense data nearly every node is one: `isect`
//! walks it as the paper's per-item walk (Fig. 2) does, probing its inline
//! first item and updating the target directly, so the segment machinery
//! costs nothing where it compresses nothing.
//!
//! The core invariant that makes segment-at-a-time updates sound: all
//! conceptual (per-item) nodes within one segment share the same `supp`
//! and the same `step`, and the terminal count `raw` belongs to the
//! deepest conceptual node. Any update that would touch only a proper
//! prefix of a segment *splits* the node first (both halves keep `supp`
//! and `step`), so the invariant is maintained eagerly.

use crate::arena::{PatNode, SegArena, NONE};
use fim_core::{FoundSet, Item, ItemSet, RankKey, RankTable, RankedResult};
use fim_obs::{Counter, Counters};

/// Snapshot of a [`PrefixTree`]'s arena occupancy, for memory accounting
/// in benchmarks and the CLI `--stats` report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TreeMemoryStats {
    /// Live nodes, including the pseudo-root.
    pub live_nodes: usize,
    /// Total arena slots (live + free-listed).
    pub total_slots: usize,
    /// Slots parked on the free list (reclaimable by [`PrefixTree::compact`]).
    pub free_slots: usize,
    /// Items referenced by live segments — the *conceptual* node count
    /// (excluding the pseudo-root); `seg_items / (live_nodes - 1)` is the
    /// average segment length, the path-compression ratio.
    pub seg_items: usize,
    /// Bytes held by the segment item store, live and garbage alike.
    pub seg_bytes: usize,
    /// Approximate resident bytes: slot storage plus segment storage plus
    /// the per-item membership-stamp array.
    pub approx_bytes: usize,
}

impl TreeMemoryStats {
    /// This snapshot as the fim-metrics/1 `tree` section, with the given
    /// peak node count (pass the arena high-water when no peak was
    /// tracked). One conversion point keeps every path of the CLI metrics
    /// documents rendering identical field sets.
    pub fn to_metrics(self, peak_nodes: usize) -> fim_obs::TreeMetrics {
        fim_obs::TreeMetrics {
            peak_nodes: peak_nodes as u64,
            live_nodes: self.live_nodes as u64,
            total_slots: self.total_slots as u64,
            free_slots: self.free_slots as u64,
            seg_items: self.seg_items as u64,
            seg_bytes: self.seg_bytes as u64,
            approx_bytes: self.approx_bytes as u64,
        }
    }
}

/// A position in the tree where a sibling list can be read or spliced:
/// either the `children` field of a node or the `sibling` field of a node.
/// This is the arena equivalent of the C implementation's `NODE **ins`.
#[derive(Clone, Copy, Debug)]
enum Slot {
    /// The `children` field of the given node.
    Child(u32),
    /// The `sibling` field of the given node.
    Sib(u32),
}

#[inline]
fn slot_get(a: &SegArena, s: Slot) -> u32 {
    match s {
        Slot::Child(n) => a.get(n).children,
        Slot::Sib(n) => a.get(n).sibling,
    }
}

#[inline]
fn slot_set(a: &mut SegArena, s: Slot, v: u32) {
    match s {
        Slot::Child(n) => a.get_mut(n).children = v,
        Slot::Sib(n) => a.get_mut(n).sibling = v,
    }
}

/// The descending-merge segment intersection kernel: appends to `out` the
/// items of the strictly descending segment `seg` that are members of the
/// current transaction (epoch-stamped: item `i` is in the transaction iff
/// `trans[i] == step`). The scan stops at the first item `<= imin` — the
/// transaction's minimum item; nothing below it can be a member, and
/// nothing below it in the tree needs visiting (PR 2's early-stop idea
/// applied per segment). Returns whether the scan stopped early, i.e. the
/// traversal must not descend below this segment.
#[inline]
pub fn intersect_segment(
    seg: &[Item],
    trans: &[u32],
    step: u32,
    imin: Item,
    out: &mut Vec<Item>,
) -> bool {
    for &i in seg {
        if trans[i as usize] == step {
            out.push(i);
            if i <= imin {
                return true;
            }
        } else if i <= imin {
            return true;
        }
    }
    false
}

/// Word-probe variant of [`intersect_segment`]: the transaction is a packed
/// bitset (`words[i/64]` bit `i%64`), so membership is one shift-and-mask,
/// and a segment that is a *contiguous* descending run is intersected whole
/// — the transaction words covering the run's range are masked (word-AND
/// against the range mask) and their surviving bits iterated from the top
/// via `leading_zeros` — instead of one probe per item. Output and
/// early-stop behaviour are bit-for-bit identical to [`intersect_segment`].
///
/// Returns `(stopped, words_anded)` where `words_anded` counts the words
/// the contiguous fast path masked (the per-item probes touch one word each
/// but perform no AND).
#[inline]
pub fn intersect_segment_words(
    seg: &[Item],
    words: &[u64],
    imin: Item,
    out: &mut Vec<Item>,
) -> (bool, u64) {
    let len = seg.len();
    if len == 0 {
        return (false, 0);
    }
    let (hi, lo) = (seg[0], seg[len - 1]);
    if (hi - lo) as usize + 1 == len {
        // Contiguous descending run [lo..=hi]. The scalar walk processes
        // items from `hi` down to the first item `<= imin` inclusive (every
        // integer in the range is present, so that boundary is
        // `min(hi, imin)`), or the whole run when `lo > imin`.
        let stopped = lo <= imin;
        let bound = if stopped { imin.min(hi) } else { lo };
        let wh = (hi / 64) as usize;
        let wl = (bound / 64) as usize;
        let mut words_anded = 0u64;
        for wi in (wl..=wh).rev() {
            let mut word = words.get(wi).copied().unwrap_or(0);
            if wi == wh && hi % 64 < 63 {
                word &= (1u64 << (hi % 64 + 1)) - 1;
            }
            if wi == wl {
                word &= !0u64 << (bound % 64);
            }
            words_anded += 1;
            while word != 0 {
                let b = 63 - word.leading_zeros();
                out.push(wi as u32 * 64 + b);
                word &= !(1u64 << b);
            }
        }
        return (stopped, words_anded);
    }
    for &i in seg {
        if words[i as usize / 64] >> (i % 64) & 1 != 0 {
            out.push(i);
            if i <= imin {
                return (true, 0);
            }
        } else if i <= imin {
            return (true, 0);
        }
    }
    (false, 0)
}

/// The segment-scan kernel `isect` is monomorphized over: scalar epoch
/// probes ([`EpochKernel`]) or packed-word probes ([`WordKernel`]). Both
/// must produce bit-for-bit identical runs and early stops — the traversal
/// and `merge_run` are representation-blind.
trait SegKernel {
    /// Appends the segment items present in the current transaction to
    /// `out`; returns whether the scan stopped at the `imin` bound.
    fn scan(&mut self, seg: &[Item], imin: Item, out: &mut Vec<Item>) -> bool;

    /// Whether item `i` is in the current transaction: the scan of a
    /// length-1 segment, without the run buffer.
    fn contains(&mut self, i: Item) -> bool;
}

/// The scalar kernel: epoch-stamped membership array (the reference path).
struct EpochKernel<'a> {
    trans: &'a [u32],
    step: u32,
}

impl SegKernel for EpochKernel<'_> {
    #[inline]
    fn scan(&mut self, seg: &[Item], imin: Item, out: &mut Vec<Item>) -> bool {
        intersect_segment(seg, self.trans, self.step, imin, out)
    }

    #[inline]
    fn contains(&mut self, i: Item) -> bool {
        self.trans[i as usize] == self.step
    }
}

/// The bitset kernel: packed transaction words, accumulating word-kernel
/// counters locally (folded into the arena counters once per transaction,
/// keeping the hot loop free of a second mutable borrow).
struct WordKernel<'a> {
    words: &'a [u64],
    words_anded: u64,
}

impl SegKernel for WordKernel<'_> {
    #[inline]
    fn scan(&mut self, seg: &[Item], imin: Item, out: &mut Vec<Item>) -> bool {
        let (stopped, anded) = intersect_segment_words(seg, self.words, imin, out);
        self.words_anded += anded;
        stopped
    }

    #[inline]
    fn contains(&mut self, i: Item) -> bool {
        // a one-item segment is a contiguous run: one word masked, as
        // `intersect_segment_words` counts it
        self.words_anded += 1;
        self.words[i as usize / 64] >> (i % 64) & 1 != 0
    }
}

/// The cumulative-intersection prefix tree (paper §3.3, Patricia layout).
///
/// Invariants (checked by [`PrefixTree::validate_invariants`]):
///
/// * every segment is strictly descending in item code, non-empty except
///   at the pseudo-root, with uniform `supp` and `step` per segment,
/// * every sibling list is strictly descending in first item,
/// * every child's first item is strictly smaller than its parent's
///   *last* item,
/// * after processing `k` transactions, each node's `supp` equals the
///   exact support of every item set its segment prefixes represent
///   within those `k` transactions (modulo the §3.2 pruning caveat).
#[derive(Clone, Debug)]
pub struct PrefixTree {
    arena: SegArena,
    root: u32,
    /// Monotone per-call stamp used by `isect` to detect nodes already
    /// updated while processing the current transaction, and as the epoch
    /// of the `trans` membership array.
    step: u32,
    /// Total weight of transactions processed (= transaction count when
    /// every call uses weight 1).
    weight: u32,
    /// Epoch-stamped membership flags of the transaction currently being
    /// processed: item `i` is in the transaction iff `trans[i] == step`.
    trans: Vec<u32>,
    /// Reusable run buffer for the segment scans of `isect` (stack
    /// discipline: each recursion level truncates back to its base).
    scratch: Vec<Item>,
    /// Packed-word transaction buffer: `Some` switches `isect` to the
    /// bitset segment kernel ([`intersect_segment_words`]); `None` (the
    /// default) runs the scalar epoch kernel. Output-invariant.
    twords: Option<Vec<u64>>,
}

impl PrefixTree {
    /// Creates an empty tree over an item universe of `num_items` codes.
    pub fn new(num_items: u32) -> Self {
        let mut arena = SegArena::new();
        let root = arena.alloc_node(PatNode {
            first: Item::MAX,
            seg_off: 0,
            seg_len: 0, // the empty segment sits above every real item
            supp: 0,
            step: 0,
            raw: 0,
            sibling: NONE,
            children: NONE,
        });
        PrefixTree {
            arena,
            root,
            step: 0,
            weight: 0,
            trans: vec![0; num_items as usize],
            scratch: Vec::new(),
            twords: None,
        }
    }

    /// Switches the segment-scan kernel: `true` selects the bitset kernel
    /// (packed-word transaction, [`intersect_segment_words`]), `false` the
    /// scalar epoch kernel. Output-invariant (proptested); safe to flip
    /// between transactions.
    pub fn set_bitset(&mut self, on: bool) {
        if on {
            let words = self.trans.len().div_ceil(64);
            match self.twords.as_mut() {
                Some(w) => w.resize(words, 0),
                None => self.twords = Some(vec![0u64; words]),
            }
        } else {
            self.twords = None;
        }
    }

    /// Total weight of transactions processed so far (the plain
    /// transaction count when no weighted insertion was used).
    pub fn transactions_processed(&self) -> u32 {
        self.weight
    }

    /// Number of item codes in the universe this tree was created over.
    pub fn num_items(&self) -> u32 {
        self.trans.len() as u32
    }

    /// Extends the item universe to `num_items` codes (streaming use:
    /// later transactions may introduce items unseen when the tree — or
    /// the snapshot it was reloaded from — was created). Shrinking is not
    /// possible; a smaller value is ignored.
    pub fn grow_universe(&mut self, num_items: u32) {
        if num_items as usize > self.trans.len() {
            self.trans.resize(num_items as usize, 0);
            if let Some(w) = self.twords.as_mut() {
                w.resize(self.trans.len().div_ceil(64), 0);
            }
        }
    }

    /// The arena and the root index, for the snapshot writer.
    pub(crate) fn arena(&self) -> &SegArena {
        &self.arena
    }

    /// Rebuilds a tree from reloaded parts (snapshot reader), running the
    /// full structural validation instead of trusting the input: the arena
    /// must hold no free slots, `root` must be the pseudo-root, every slot
    /// must be reachable exactly once with ordered links, in-bounds
    /// in-universe segments that exactly cover the item store, and the
    /// terminal counts must partition `weight`. Per-node `step` stamps are
    /// reset; the first transaction added afterwards starts a fresh epoch.
    /// The inline first items are derived from the validated segments.
    pub(crate) fn from_raw_parts(
        mut arena: SegArena,
        root: u32,
        weight: u32,
        num_items: u32,
    ) -> Result<Self, String> {
        if arena.capacity_used() == 0 || root as usize >= arena.capacity_used() {
            return Err("missing root node".into());
        }
        if arena.free_count() != 0 {
            return Err("arena holds free slots".into());
        }
        if arena.get(root).seg_len != 0 {
            return Err("root slot does not hold the pseudo-root".into());
        }
        if arena.get(root).sibling != NONE {
            return Err("root must not have siblings".into());
        }
        if arena.get(root).supp != weight {
            return Err("root support must equal the processed weight".into());
        }
        check_structure(&arena, root, num_items, weight)?;
        for idx in 0..arena.capacity_used() as u32 {
            let first = arena.seg(idx).first().copied().unwrap_or(Item::MAX);
            let n = arena.get_mut(idx);
            n.first = first;
            n.step = 0;
        }
        Ok(PrefixTree {
            arena,
            root,
            step: 0,
            weight,
            trans: vec![0; num_items as usize],
            scratch: Vec::new(),
            twords: None,
        })
    }

    /// Number of live tree nodes (excluding the root). With path
    /// compression this counts *physical* nodes; the conceptual (per-item)
    /// node count is [`memory_stats`](Self::memory_stats)`.seg_items`.
    pub fn node_count(&self) -> usize {
        self.arena.live_count() - 1
    }

    /// Current arena occupancy (live nodes, slots, free list, segment
    /// storage, approximate bytes). Free slots and garbage segment items
    /// accumulate through pruning churn; [`compact`](Self::compact)
    /// returns both to the allocator.
    ///
    /// [`compact`]: Self::compact
    pub fn memory_stats(&self) -> TreeMemoryStats {
        let total_slots = self.arena.capacity_used();
        let seg_bytes = self.arena.items_len() * std::mem::size_of::<Item>();
        TreeMemoryStats {
            live_nodes: self.arena.live_count(),
            total_slots,
            free_slots: self.arena.free_count(),
            seg_items: self.arena.live_items(),
            seg_bytes,
            approx_bytes: total_slots * std::mem::size_of::<PatNode>()
                + seg_bytes
                + self.trans.len() * std::mem::size_of::<u32>(),
        }
    }

    /// Relocates the live nodes into depth-first order — and their
    /// segments into the same order in a garbage-free item store — and
    /// drops the freed slots (see [`SegArena::compact`]). Reported sets,
    /// supports, and stored transactions are unchanged.
    pub fn compact(&mut self) {
        self.root = self.arena.compact(self.root);
    }

    /// Hot-loop counters accumulated while building this tree: segment
    /// scans and early exits of the `isect` kernel, splits, and node
    /// allocations. Merge replays count in the receiving tree; use
    /// [`absorb_counters`](Self::absorb_counters) to also carry over the
    /// donor's history.
    pub fn counters(&self) -> &Counters {
        self.arena.counters()
    }

    /// Adds another tree's counters into this one (shard aggregation
    /// after a merge).
    pub fn absorb_counters(&mut self, other: &Counters) {
        self.arena.absorb_counters(other);
    }

    /// [`compact`](Self::compact)s only when the free list or the segment
    /// garbage is non-empty (a fresh or already-compact arena is left
    /// untouched). Returns whether a compaction ran.
    pub fn compact_if_fragmented(&mut self) -> bool {
        if self.arena.free_count() > 0 || self.arena.garbage_items() > 0 {
            self.compact();
            true
        } else {
            false
        }
    }

    /// Processes one transaction: inserts it as a path, then intersects it
    /// with every stored set in a single `isect` traversal.
    ///
    /// `t` must be strictly ascending and non-empty; item codes must be
    /// below the `num_items` the tree was created with.
    pub fn add_transaction(&mut self, t: &[Item]) {
        self.add_transaction_weighted(t, 1);
    }

    /// Processes `t` as `weight` identical transactions in one pass.
    ///
    /// Equivalent to calling [`add_transaction`](Self::add_transaction)
    /// `weight` times, but every support update adds `weight` at once —
    /// the workhorse of [`merge`](Self::merge), where the deduplicated
    /// transactions of another tree are replayed with their multiplicity.
    pub fn add_transaction_weighted(&mut self, t: &[Item], weight: u32) {
        debug_assert!(t.windows(2).all(|w| w[0] < w[1]));
        if t.is_empty() || weight == 0 {
            return;
        }
        self.step += 1;
        let terminal = self.insert_path(t);
        self.arena.get_mut(terminal).raw += weight;
        let imin = t[0];
        let head = self.arena.get(self.root).children;
        let ins = Slot::Child(self.root);
        let PrefixTree {
            arena,
            trans,
            step,
            scratch,
            twords,
            ..
        } = self;
        scratch.clear();
        if let Some(words) = twords.as_mut() {
            words.fill(0);
            for &i in t {
                words[i as usize / 64] |= 1u64 << (i % 64);
            }
            let mut kernel = WordKernel {
                words,
                words_anded: 0,
            };
            isect(arena, head, ins, &mut kernel, imin, *step, weight, scratch);
            arena
                .counters_mut()
                .add(Counter::WordsAnded, kernel.words_anded);
        } else {
            for &i in t {
                trans[i as usize] = *step;
            }
            let mut kernel = EpochKernel { trans, step: *step };
            isect(arena, head, ins, &mut kernel, imin, *step, weight, scratch);
        }
        self.weight += weight;
        self.arena.get_mut(self.root).supp = self.weight;
    }

    /// Inserts the path for transaction `t` (items consumed in descending
    /// order), splitting a node when `t` diverges inside its segment and
    /// creating at most one new node — the whole unmatched suffix becomes
    /// a single segment. Created nodes start with support 0 and are
    /// counted by the subsequent `isect` self-intersection. Returns the
    /// terminal node (its segment ends at the deepest item of `t`).
    fn insert_path(&mut self, t: &[Item]) -> u32 {
        let a = &mut self.arena;
        let mut parent = self.root;
        let mut pos = t.len();
        loop {
            debug_assert!(pos > 0);
            let item = t[pos - 1];
            let mut ins = Slot::Child(parent);
            let d = seek(a, &mut ins, item);
            if d != NONE && a.first_item(d) == item {
                // consume the matching prefix of d's segment
                let len = a.get(d).seg_len as usize;
                let mut k = 1usize;
                pos -= 1;
                while k < len && pos > 0 && a.item_at(d, k) == t[pos - 1] {
                    k += 1;
                    pos -= 1;
                }
                if k == len {
                    if pos == 0 {
                        return d; // t ends exactly at this segment's end
                    }
                    parent = d;
                    continue;
                }
                // t diverged from (or ended inside) d's segment: split so
                // the shared prefix becomes its own node
                let tail = a.split(d, k as u32);
                if pos == 0 {
                    return d; // t ends at the split point: the head
                }
                // hang the remaining suffix as one node beside the tail,
                // keeping the child list descending by first item
                let seg: Vec<Item> = t[..pos].iter().rev().copied().collect();
                return if seg[0] > a.first_item(tail) {
                    let new = a.alloc_seg(&seg, 0, 0, 0, tail, NONE);
                    a.get_mut(d).children = new;
                    new
                } else {
                    let new = a.alloc_seg(&seg, 0, 0, 0, NONE, NONE);
                    a.get_mut(tail).sibling = new;
                    new
                };
            }
            // no child starts with `item`: one node takes the whole suffix
            let seg: Vec<Item> = t[..pos].iter().rev().copied().collect();
            let new = a.alloc_seg(&seg, 0, 0, 0, d, NONE);
            slot_set(a, ins, new);
            return new;
        }
    }

    /// Item-elimination pruning (paper §3.2): removes every item `i` from
    /// every stored set whose node support plus `remaining[i]` (occurrences
    /// of `i` in the yet-unprocessed transactions) cannot reach `minsupp`.
    /// Since supports are uniform per segment, the test runs per segment
    /// item: fully hopeless nodes are freed (subtrees merged into the
    /// parent's child list), partially hopeless segments are rewritten to
    /// their kept subsequence in place.
    pub fn prune(&mut self, remaining: &[u32], minsupp: u32) {
        let head = self.arena.get(self.root).children;
        let root = self.root;
        let mut buf = Vec::new();
        let new_head = prune_list(&mut self.arena, head, remaining, minsupp, root, &mut buf);
        self.arena.get_mut(self.root).children = new_head;
    }

    /// Item-elimination pruning that never reduces a stored transaction:
    /// every node whose subtree carries a terminal count (`raw > 0`) is
    /// kept whole even when its set is hopeless, so
    /// [`weighted_transactions`](Self::weighted_transactions) still lists
    /// the processed transactions verbatim afterwards.
    ///
    /// This is the variant a shard of a partitioned database must use
    /// before being [`merge`](Self::merge)d: the plain [`prune`](Self::prune)
    /// may eliminate an item from a transaction because the *set at the
    /// node* is locally hopeless even though the item itself is still
    /// globally viable — sound for this tree's own supports, but the
    /// reduced transaction would then under-count viable subsets in the
    /// tree it is replayed into. Items that are globally hopeless should
    /// instead be filtered out of transactions before insertion, which is
    /// what the out-of-core shard miner ([`crate::outofcore`]) does.
    pub fn prune_keeping_terminals(&mut self, remaining: &[u32], minsupp: u32) {
        let head = self.arena.get(self.root).children;
        let mut buf = Vec::new();
        let (new_head, _) = prune_list_keep(&mut self.arena, head, remaining, minsupp, &mut buf);
        self.arena.get_mut(self.root).children = new_head;
    }

    /// Reports all closed item sets with support ≥ `minsupp` (paper Fig. 4):
    /// a node is emitted iff its support reaches `minsupp` and strictly
    /// exceeds the support of every child. Only the deepest conceptual
    /// node of a segment can be closed — every interior prefix has exactly
    /// one (conceptual) child with the same support — so the walk stays
    /// physical and pushes whole segments.
    pub fn report(&self, minsupp: u32) -> Vec<FoundSet> {
        let mut out = Vec::new();
        let mut path = Vec::new();
        let mut c = self.arena.get(self.root).children;
        while c != NONE {
            report_rec(&self.arena, c, minsupp, &mut path, &mut out);
            c = self.arena.get(c).sibling;
        }
        out
    }

    /// [`report`](Self::report) as rank-mask keys over `table`, the
    /// table of the tree's item codes: the walk ORs each segment's rank
    /// bits into a mask it passes down by value, and pushes one key per
    /// reported node. No item vector is built. The keys come in walk
    /// order, for [`RankedResult::canonicalize`] to sort.
    pub fn report_ranked(&self, minsupp: u32, table: &RankTable) -> RankedResult {
        let mut keys = Vec::new();
        let mut c = self.arena.get(self.root).children;
        while c != NONE {
            report_ranked_rec(&self.arena, c, minsupp, table, [0; 4], 0, &mut keys);
            c = self.arena.get(c).sibling;
        }
        RankedResult::new(table.clone(), keys)
    }

    /// Checks the structural invariants; panics with a description on
    /// violation. Used by tests and debug assertions.
    pub fn validate_invariants(&self) {
        let mut visited = 0usize;
        let mut raw_sum = u64::from(self.arena.get(self.root).raw);
        let mut seg_items = 0usize;
        validate_rec(
            &self.arena,
            self.arena.get(self.root).children,
            Item::MAX,
            self.weight,
            &mut visited,
            &mut raw_sum,
            &mut seg_items,
        );
        assert_eq!(
            visited + 1,
            self.arena.live_count(),
            "node count mismatch (cycle or leak)"
        );
        assert_eq!(
            raw_sum,
            u64::from(self.weight),
            "terminal raw counts must partition the processed weight"
        );
        assert_eq!(
            seg_items,
            self.arena.live_items(),
            "live segment item accounting out of sync"
        );
    }

    /// The maximum support over all stored sets that contain `items` —
    /// which equals the exact support of `items` in the processed prefix
    /// whenever `items` occurs at all, because the closure of `items` is
    /// stored with that support (paper §2.3). Returns `None` when no
    /// stored set contains `items`.
    pub fn max_support_of_superset(&self, items: &ItemSet) -> Option<u32> {
        if items.is_empty() {
            return (self.weight > 0).then_some(self.weight);
        }
        let desc: Vec<Item> = items.iter().rev().collect();
        superset_rec(&self.arena, self.arena.get(self.root).children, &desc)
    }

    /// Lists every stored *conceptual* node as `(item set, support)` in
    /// depth-first order — each prefix of each segment, exactly the node
    /// enumeration of the uncompressed tree. Used by the Fig. 3 experiment
    /// runner and by tests that inspect interior (non-closed) nodes.
    pub fn dump(&self) -> Vec<(ItemSet, u32)> {
        fn rec(a: &SegArena, mut node: u32, path: &mut Vec<Item>, out: &mut Vec<(ItemSet, u32)>) {
            while node != NONE {
                let n = a.get(node);
                let len = n.seg_len as usize;
                for j in 0..len {
                    path.push(a.item_at(node, j));
                    let mut items = path.clone();
                    items.reverse();
                    out.push((ItemSet::from_sorted(items), n.supp));
                }
                rec(a, n.children, path, out);
                path.truncate(path.len() - len);
                node = n.sibling;
            }
        }
        let mut out = Vec::new();
        rec(
            &self.arena,
            self.arena.get(self.root).children,
            &mut Vec::new(),
            &mut out,
        );
        out
    }

    /// Exact support lookup for an item set, by walking its descending
    /// path through the segments. Returns `None` if the set is not (or no
    /// longer) stored.
    pub fn lookup(&self, items: &ItemSet) -> Option<u32> {
        let a = &self.arena;
        let mut node = self.root;
        let mut jpos = 0u32; // position inside node's segment; root len is 0
        for item in items.iter().rev() {
            if jpos < a.get(node).seg_len {
                // mid-segment: the only continuation is the next item
                if a.item_at(node, jpos as usize) != item {
                    return None;
                }
                jpos += 1;
                continue;
            }
            let mut c = a.get(node).children;
            loop {
                if c == NONE {
                    return None;
                }
                match a.first_item(c).cmp(&item) {
                    std::cmp::Ordering::Greater => c = a.get(c).sibling,
                    std::cmp::Ordering::Equal => break,
                    std::cmp::Ordering::Less => return None,
                }
            }
            node = c;
            jpos = 1;
        }
        Some(a.get(node).supp)
    }

    /// The distinct (pruning-reduced) transactions stored in this tree,
    /// each with its multiplicity, in ascending item order per transaction.
    /// Transactions pruned down to the empty set are *not* listed; their
    /// weight is [`empty_weight`](Self::empty_weight).
    ///
    /// The multiset these pairs describe is support-equivalent to the
    /// processed input for every item set that can still reach the minimum
    /// support the tree was pruned against (see §3.2 of the paper for the
    /// pruning caveat).
    pub fn weighted_transactions(&self) -> Vec<(Vec<Item>, u32)> {
        fn rec(a: &SegArena, mut node: u32, path: &mut Vec<Item>, out: &mut Vec<(Vec<Item>, u32)>) {
            while node != NONE {
                let n = a.get(node);
                let len = n.seg_len as usize;
                path.extend_from_slice(a.seg(node));
                if n.raw > 0 {
                    let mut t = path.clone();
                    t.reverse(); // path is descending; transactions ascend
                    out.push((t, n.raw));
                }
                rec(a, n.children, path, out);
                path.truncate(path.len() - len);
                node = n.sibling;
            }
        }
        let mut out = Vec::new();
        rec(
            &self.arena,
            self.arena.get(self.root).children,
            &mut Vec::new(),
            &mut out,
        );
        out
    }

    /// Weight of processed transactions whose stored form is the empty set
    /// (only possible after pruning eliminated all their items).
    pub fn empty_weight(&self) -> u32 {
        self.arena.get(self.root).raw
    }

    /// Folds every transaction stored in `other` into `self`, so that
    /// afterwards `self` represents the concatenation of both input
    /// databases: for every item set `S`,
    ///
    /// ```text
    /// supp_merged(S) = supp_self(S) + supp_other(S)
    /// ```
    ///
    /// because the closed sets of `D₁ ∪ D₂` are exactly the closed sets of
    /// `D₁`, the closed sets of `D₂`, and their pairwise intersections,
    /// with additive support. The merge replays `other`'s deduplicated
    /// (and pruning-reduced) transaction multiset through the ordinary
    /// cumulative-intersection update, smallest transactions first
    /// (paper §3.4); replay cost therefore shrinks with how much `other`
    /// was pruned. Replaying over segments needs no special casing: each
    /// replayed transaction is re-inserted and re-intersected, splitting
    /// and extending segments exactly as ordinary insertion does.
    ///
    /// If `other` was pruned with the plain [`prune`](Self::prune), its
    /// stored transactions may have been reduced by items that are only
    /// *locally* hopeless, and replaying them can under-count viable
    /// subsets here; use
    /// [`prune_keeping_terminals`](Self::prune_keeping_terminals) on trees
    /// that will be merged (combined with filtering globally hopeless
    /// items out of transactions before insertion).
    ///
    /// Both trees must be over the same item universe.
    pub fn merge(&mut self, other: &PrefixTree) {
        // the callback never fails, so neither does the replay
        let _ = self.try_merge_with(other, |_, _, _| Ok::<(), std::convert::Infallible>(()));
    }

    /// Like [`merge`](Self::merge), but invokes `after_each(self, t, w)`
    /// after every replayed weighted transaction, letting the caller
    /// interleave pruning with the replay — for large merges an unpruned
    /// combined tree can grow far beyond what the per-shard pruning kept
    /// bounded. `after_each` may return `Err` to stop the replay (a
    /// governed merge checkpoint). On an early stop the tree is left in a
    /// consistent state representing `self` plus the replayed prefix of
    /// `other`'s transactions — its reported sets are the exact closed
    /// sets of that combined multiset — and `other`'s remaining
    /// transactions (including its empty-set weight) are *not* accounted.
    pub fn try_merge_with<E, F>(&mut self, other: &PrefixTree, mut after_each: F) -> Result<(), E>
    where
        F: FnMut(&mut PrefixTree, &[Item], u32) -> Result<(), E>,
    {
        assert_eq!(
            self.trans.len(),
            other.trans.len(),
            "merge requires identical item universes"
        );
        let mut txs = other.weighted_transactions();
        txs.sort_unstable_by(|a, b| fim_core::cmp_size_then_desc_lex(&a.0, &b.0));
        for (t, w) in &txs {
            self.add_transaction_weighted(t, *w);
            after_each(self, t, *w)?;
        }
        // transactions of `other` that pruning reduced to the empty set
        // carry no items but still count toward the total weight
        self.weight += other.empty_weight();
        self.arena.get_mut(self.root).raw += other.empty_weight();
        self.arena.get_mut(self.root).supp = self.weight;
        Ok(())
    }
}

/// Non-panicking structural validation used by the snapshot reader: the
/// same invariants as [`PrefixTree::validate_invariants`], reported as
/// `Err` descriptions instead of panics, plus link- and segment-bounds
/// checking (a corrupt snapshot can contain arbitrary indices) and the
/// requirement that the segments exactly cover the item store (a snapshot
/// is written compacted, so no garbage items can hide in it).
fn check_structure(a: &SegArena, root: u32, num_items: u32, weight: u32) -> Result<(), String> {
    let slots = a.capacity_used();
    let mut visited = 1usize; // the root
    let mut raw_sum = u64::from(a.get(root).raw);
    let mut seg_total = 0usize;
    // (node, parent's last item, preceding sibling's first item) work list
    let mut stack: Vec<(u32, Item, Item)> = Vec::new();
    if a.get(root).children != NONE {
        stack.push((a.get(root).children, Item::MAX, Item::MAX));
    }
    while let Some((node, parent_last, prev_first)) = stack.pop() {
        if node as usize >= slots {
            return Err(format!("link {node} out of bounds ({slots} slots)"));
        }
        visited += 1;
        if visited > slots {
            return Err("cycle detected".into());
        }
        let n = a.get(node);
        if n.seg_len == 0 {
            return Err("empty segment outside the root".into());
        }
        if u64::from(n.seg_off) + u64::from(n.seg_len) > a.items_len() as u64 {
            return Err("segment out of bounds of the item store".into());
        }
        let seg = a.seg(node);
        if !seg.windows(2).all(|w| w[0] > w[1]) {
            return Err("segment must be strictly descending".into());
        }
        if seg[0] >= num_items {
            return Err(format!("item {} outside universe {num_items}", seg[0]));
        }
        if seg[0] >= parent_last {
            return Err("child item must be below parent item".into());
        }
        if prev_first != Item::MAX && seg[0] >= prev_first {
            return Err("sibling list must be strictly descending".into());
        }
        if n.supp > weight {
            return Err("support exceeds processed weight".into());
        }
        if n.raw > n.supp {
            return Err("terminal count exceeds support".into());
        }
        raw_sum += u64::from(n.raw);
        seg_total += seg.len();
        if n.sibling != NONE {
            stack.push((n.sibling, parent_last, seg[0]));
        }
        if n.children != NONE {
            stack.push((n.children, seg[seg.len() - 1], Item::MAX));
        }
    }
    if visited != slots {
        return Err(format!("{} of {slots} slots reachable", visited));
    }
    if seg_total != a.items_len() {
        return Err("segments do not exactly cover the item store".into());
    }
    if raw_sum != u64::from(weight) {
        return Err("terminal counts do not partition the weight".into());
    }
    Ok(())
}

/// The intersection traversal (paper Fig. 2), generalized to a transaction
/// weight `w` and to whole segments: each source node contributes the
/// *run* of its segment items that are in the transaction, and the run is
/// merged into the intersection tree in one pass (`merge_run`) instead of
/// one recursion level per item. A length-1 source — the paper's one-item
/// node — skips the run: its inline item is probed and merged directly
/// (`merge_item`), exactly as the paper's per-item walk does.
///
/// Walks the sibling list starting at `node`; `ins` tracks the position in
/// the tree representing the intersection of the processed path prefix with
/// the current transaction, advancing (as in the per-item walk) only
/// when a run starts at a segment's *first* item — deeper run items update
/// positions local to `merge_run`, mirroring how the per-item recursion
/// kept deeper `ins` values in callee frames.
#[allow(clippy::too_many_arguments)]
fn isect<K: SegKernel>(
    a: &mut SegArena,
    mut node: u32,
    mut ins: Slot,
    kernel: &mut K,
    imin: Item,
    step: u32,
    w: u32,
    scratch: &mut Vec<Item>,
) {
    while node != NONE {
        let first = a.first_item(node);
        if a.get(node).seg_len == 1 {
            // the scan of a one-item segment stops exactly when its item
            // is at or below `imin`, member or not
            let c = a.counters_mut();
            c.bump(Counter::SegScans);
            if first <= imin {
                c.bump(Counter::IsectEarlyExits);
            }
            let target = kernel
                .contains(first)
                .then(|| merge_item(a, &mut ins, node, first, step, w));
            if first <= imin {
                return; // no smaller item can be in the transaction
            }
            let child = a.get(node).children;
            let child_ins = target.map_or(ins, Slot::Child);
            isect(a, child, child_ins, kernel, imin, step, w, scratch);
            node = a.get(node).sibling;
            continue;
        }
        let base = scratch.len();
        let stopped = kernel.scan(a.seg(node), imin, scratch);
        let c = a.counters_mut();
        c.bump(Counter::SegScans);
        if stopped {
            c.bump(Counter::IsectEarlyExits);
        }
        if scratch.len() > base {
            // the advance of `ins` persists to this sibling walk only when
            // the run starts at the segment head (= this sibling level)
            let mut local = ins;
            let ins_ref = if scratch[base] == first {
                &mut ins
            } else {
                &mut local
            };
            let (target, src_cont) = merge_run(a, ins_ref, &scratch[base..], node, step, w);
            scratch.truncate(base);
            if first <= imin {
                return; // later siblings only carry smaller items
            }
            if !stopped {
                // descend through the source *continuation*: if an aliased
                // split relocated this node's deeper items to the tail, the
                // children now hang off the tail
                let child = a.get(src_cont).children;
                isect(
                    a,
                    child,
                    Slot::Child(target),
                    kernel,
                    imin,
                    step,
                    w,
                    scratch,
                );
            }
        } else {
            if first <= imin {
                return;
            }
            if !stopped {
                let child = a.get(node).children;
                isect(a, child, ins, kernel, imin, step, w, scratch);
            }
        }
        // the sibling link stays on the original slot: a split keeps the
        // head (and its links) in place
        node = a.get(node).sibling;
    }
}

/// Advances `ins` past the siblings whose first item exceeds `i` and
/// returns the node then at `ins`: the one starting with `i`, or the node
/// (possibly [`NONE`]) a new node for `i` goes in front of.
#[inline]
fn seek(a: &SegArena, ins: &mut Slot, i: Item) -> u32 {
    loop {
        let d = slot_get(a, *ins);
        if d != NONE && a.first_item(d) > i {
            *ins = Slot::Sib(d);
        } else {
            return d;
        }
    }
}

/// The per-target update of the paper's per-item `isect` (Fig. 2) for the
/// source `src`: discount (`step >= cur_step ⇒ supp -= w`), max-merge
/// with the source support, `+w`, stamp. The discount comes first, so the
/// source support is read only afterwards: when `d` is the source itself
/// (the revisit the C original handles with `d == node`), a full revisit
/// is a no-op.
#[inline]
fn absorb(a: &mut SegArena, d: u32, src: u32, step: u32, w: u32) {
    if a.get(d).step >= step {
        a.get_mut(d).supp -= w;
    }
    let s = a.get(src).supp;
    let dn = a.get_mut(d);
    if dn.supp < s {
        dn.supp = s;
    }
    dn.supp += w;
    dn.step = step;
}

/// [`merge_run`] for the one-item run `[i]` of the length-1 source `src`,
/// without the run buffer: `ins` advances to the target's slot, a longer
/// target is split after its first item (it cannot be the source), and a
/// missing target becomes a fresh one-item node. Returns the target.
/// Always inlined into `isect`: as a call it cost about 5% of the
/// insert-and-intersect time on dense data (EXPERIMENTS.md E12).
#[inline(always)]
fn merge_item(a: &mut SegArena, ins: &mut Slot, src: u32, i: Item, step: u32, w: u32) -> u32 {
    let d = seek(a, ins, i);
    if d != NONE && a.first_item(d) == i {
        if a.get(d).seg_len > 1 {
            a.split(d, 1);
        }
        absorb(a, d, src, step, w);
        d
    } else {
        let new = a.alloc_seg(&[i], a.get(src).supp + w, step, 0, d, NONE);
        slot_set(a, *ins, new);
        new
    }
}

/// Merges `run` — the members of one source segment in the current
/// transaction, in descending order — into the intersection tree at slot
/// position `ins`, replicating the per-item find / discount / max-merge /
/// `+w` update of the per-item `isect` one whole matched segment
/// prefix at a time:
///
/// * a target matching a *proper prefix* of its segment is split first
///   (both halves keep `supp` and `step`, preserving the uniformity
///   invariant); when that target aliases the source node itself — the
///   revisit case the C original handles with `d == node` — the source
///   continuation relocates to the split tail,
/// * the update itself is [`absorb`], so a full aliased revisit is a no-op
///   exactly as in the per-item walk,
/// * a run suffix with no matching target becomes a *single* fresh node
///   holding the whole remaining run.
///
/// Returns `(deepest updated-or-created target, source continuation)`.
fn merge_run(
    a: &mut SegArena,
    ins: &mut Slot,
    run: &[Item],
    src: u32,
    step: u32,
    w: u32,
) -> (u32, u32) {
    let mut src_cur = src;
    let mut cur_ins = *ins;
    let mut pos = 0usize;
    let mut target = NONE;
    while pos < run.len() {
        let i = run[pos];
        let d = seek(a, &mut cur_ins, i);
        if pos == 0 {
            *ins = cur_ins;
        }
        if d != NONE && a.first_item(d) == i {
            // longest common prefix of d's segment and the remaining run
            let dlen = a.get(d).seg_len as usize;
            let mut k = 1usize;
            while k < dlen && pos + k < run.len() && a.item_at(d, k) == run[pos + k] {
                k += 1;
            }
            if k < dlen {
                // an aliased source updated this step is always fully
                // matched (its whole segment is in the transaction), so
                // the split cannot race the discount in `absorb`
                debug_assert!(d != src_cur || a.get(d).step < step);
                let tail = a.split(d, k as u32);
                if d == src_cur {
                    src_cur = tail;
                }
            }
            absorb(a, d, src_cur, step, w);
            target = d;
            pos += k;
            cur_ins = Slot::Child(d);
        } else {
            // no target starts with i: the whole remaining run becomes one
            // fresh segment node
            let s = a.get(src_cur).supp;
            let new = a.alloc_seg(&run[pos..], s + w, step, 0, d, NONE);
            slot_set(a, cur_ins, new);
            target = new;
            pos = run.len();
        }
    }
    (target, src_cur)
}

/// Finds the maximum support of any path extending through `needed`
/// (descending item codes) within the sibling list at `node`, consuming
/// needed items against whole segments.
fn superset_rec(a: &SegArena, mut node: u32, needed: &[Item]) -> Option<u32> {
    debug_assert!(!needed.is_empty());
    let target = needed[0];
    let mut best: Option<u32> = None;
    while node != NONE {
        if a.first_item(node) < target {
            // sibling lists are descending: nothing further can contain it
            break;
        }
        // scan the segment: a needed item is consumed on match, skipped
        // items only extend the set; an item below the next needed one
        // means the whole subtree misses it
        let mut idx = 0usize;
        let mut failed = false;
        for &it in a.seg(node) {
            if idx == needed.len() {
                break;
            }
            if it == needed[idx] {
                idx += 1;
            } else if it < needed[idx] {
                failed = true;
                break;
            }
        }
        let candidate = if failed {
            None
        } else if idx == needed.len() {
            // every needed item consumed; descendants (and deeper segment
            // items) only extend the set and cannot have larger support
            Some(a.get(node).supp)
        } else {
            superset_rec(a, a.get(node).children, &needed[idx..])
        };
        if let Some(c) = candidate {
            best = Some(best.map_or(c, |b: u32| b.max(c)));
        }
        node = a.get(node).sibling;
    }
    best
}

fn report_rec(
    a: &SegArena,
    node: u32,
    minsupp: u32,
    path: &mut Vec<Item>,
    out: &mut Vec<FoundSet>,
) {
    let len = a.get(node).seg_len as usize;
    path.extend_from_slice(a.seg(node));
    let mut max_child = 0u32;
    let mut c = a.get(node).children;
    while c != NONE {
        let cs = a.get(c).supp;
        if cs > max_child {
            max_child = cs;
        }
        report_rec(a, c, minsupp, path, out);
        c = a.get(c).sibling;
    }
    let supp = a.get(node).supp;
    if supp >= minsupp && supp > max_child {
        let mut items = path.clone();
        items.reverse(); // path is descending; ItemSet wants ascending
        out.push(FoundSet::new(ItemSet::from_sorted(items), supp));
    }
    path.truncate(path.len() - len);
}

fn report_ranked_rec(
    a: &SegArena,
    node: u32,
    minsupp: u32,
    table: &RankTable,
    mut mask: [u64; 4],
    len: u32,
    out: &mut Vec<RankKey>,
) {
    for &i in a.seg(node) {
        table.mark(&mut mask, i);
    }
    let len = len + a.get(node).seg_len;
    let mut max_child = 0u32;
    let mut c = a.get(node).children;
    while c != NONE {
        max_child = max_child.max(a.get(c).supp);
        report_ranked_rec(a, c, minsupp, table, mask, len, out);
        c = a.get(c).sibling;
    }
    let supp = a.get(node).supp;
    if supp >= minsupp && supp > max_child {
        out.push(RankKey::new(mask, len, supp));
    }
}

#[allow(clippy::too_many_arguments)]
fn validate_rec(
    a: &SegArena,
    mut node: u32,
    parent_last: Item,
    weight: u32,
    visited: &mut usize,
    raw_sum: &mut u64,
    seg_items: &mut usize,
) {
    let mut prev_first = Item::MAX;
    while node != NONE {
        *visited += 1;
        assert!(*visited < a.capacity_used() + 1, "cycle detected");
        let n = a.get(node);
        assert!(n.seg_len >= 1, "only the root may hold an empty segment");
        let seg = a.seg(node);
        assert!(
            seg.windows(2).all(|w| w[0] > w[1]),
            "segment must be strictly descending"
        );
        assert_eq!(n.first, seg[0], "inline first item out of sync");
        assert!(seg[0] < parent_last, "child item must be below parent item");
        assert!(
            prev_first == Item::MAX || seg[0] < prev_first,
            "sibling list must be strictly descending"
        );
        assert!(n.supp <= weight, "support cannot exceed processed prefix");
        assert!(n.raw <= n.supp, "terminal count cannot exceed support");
        *raw_sum += u64::from(n.raw);
        *seg_items += seg.len();
        prev_first = seg[0];
        let last = seg[seg.len() - 1];
        validate_rec(a, n.children, last, weight, visited, raw_sum, seg_items);
        node = n.sibling;
    }
}

/// Rebuilds a sibling list, dropping segment items that cannot reach
/// `minsupp` and splicing the subtrees of fully-eliminated nodes into the
/// list. `parent` is the node owning the list: a fully-dropped node's
/// terminal count moves there (a partially-rewritten segment keeps its
/// terminal count — the deepest *kept* item is exactly the reduced form of
/// the stored transaction, which matches the per-item raw cascade of a
/// one-item-per-node prune).
fn prune_list(
    a: &mut SegArena,
    head: u32,
    remaining: &[u32],
    minsupp: u32,
    parent: u32,
    buf: &mut Vec<Item>,
) -> u32 {
    let mut new_head = NONE;
    let mut cur = head;
    while cur != NONE {
        let next = a.get(cur).sibling;
        a.get_mut(cur).sibling = NONE;
        let ch = a.get(cur).children;
        let pruned_ch = prune_list(a, ch, remaining, minsupp, cur, buf);
        a.get_mut(cur).children = pruned_ch;
        // supports are uniform per segment, so the §3.2 viability test
        // runs per item with one support read
        let supp = a.get(cur).supp;
        buf.clear();
        for &it in a.seg(cur) {
            if supp + remaining[it as usize] >= minsupp {
                buf.push(it);
            }
        }
        if buf.len() == a.get(cur).seg_len as usize {
            new_head = merge_node(a, new_head, cur);
        } else if !buf.is_empty() {
            a.rewrite_seg(cur, buf);
            new_head = merge_node(a, new_head, cur);
        } else {
            let raw = a.get(cur).raw;
            a.get_mut(parent).raw += raw;
            let mut c = a.get(cur).children;
            a.get_mut(cur).children = NONE;
            while c != NONE {
                let cnext = a.get(c).sibling;
                a.get_mut(c).sibling = NONE;
                new_head = merge_node(a, new_head, c);
                c = cnext;
            }
            a.free(cur);
        }
        cur = next;
    }
    new_head
}

/// Like [`prune_list`] but keeps every node whose subtree carries a
/// terminal count *whole* — `raw` sits at the deepest conceptual node, so
/// terminal-ness is uniform over a segment and no segment rewrite can be
/// needed for a terminal-carrying node. Returns the new list head and
/// whether the list's subtrees contain any `raw > 0` node.
fn prune_list_keep(
    a: &mut SegArena,
    head: u32,
    remaining: &[u32],
    minsupp: u32,
    buf: &mut Vec<Item>,
) -> (u32, bool) {
    let mut new_head = NONE;
    let mut any_raw = false;
    let mut cur = head;
    while cur != NONE {
        let next = a.get(cur).sibling;
        a.get_mut(cur).sibling = NONE;
        let ch = a.get(cur).children;
        let (pruned_ch, ch_raw) = prune_list_keep(a, ch, remaining, minsupp, buf);
        a.get_mut(cur).children = pruned_ch;
        let has_raw = ch_raw || a.get(cur).raw > 0;
        if has_raw {
            any_raw = true;
            new_head = merge_node(a, new_head, cur);
            cur = next;
            continue;
        }
        let supp = a.get(cur).supp;
        buf.clear();
        for &it in a.seg(cur) {
            if supp + remaining[it as usize] >= minsupp {
                buf.push(it);
            }
        }
        if buf.len() == a.get(cur).seg_len as usize {
            new_head = merge_node(a, new_head, cur);
        } else if !buf.is_empty() {
            a.rewrite_seg(cur, buf);
            new_head = merge_node(a, new_head, cur);
        } else {
            // a dropped node never carries terminals here (has_raw false),
            // so no raw transfer is needed — only the child splice
            let mut c = a.get(cur).children;
            a.get_mut(cur).children = NONE;
            while c != NONE {
                let cnext = a.get(c).sibling;
                a.get_mut(c).sibling = NONE;
                new_head = merge_node(a, new_head, c);
                c = cnext;
            }
            a.free(cur);
        }
        cur = next;
    }
    (new_head, any_raw)
}

/// Inserts node `x` (with its subtree) into the descending sibling list
/// `head`; on a first-item collision the nodes are aligned on their
/// longest common segment prefix and merged. Returns the new head.
fn merge_node(a: &mut SegArena, head: u32, x: u32) -> u32 {
    let xi = a.first_item(x);
    if head == NONE || a.first_item(head) < xi {
        a.get_mut(x).sibling = head;
        return x;
    }
    if a.first_item(head) == xi {
        merge_into(a, head, x);
        return head;
    }
    let mut prev = head;
    loop {
        let nxt = a.get(prev).sibling;
        if nxt == NONE || a.first_item(nxt) < xi {
            a.get_mut(x).sibling = nxt;
            a.get_mut(prev).sibling = x;
            return head;
        }
        if a.first_item(nxt) == xi {
            merge_into(a, nxt, x);
            return head;
        }
        prev = nxt;
    }
}

/// Merges node `x` into `dst` (same first item): both nodes are split down
/// to their longest common segment prefix, after which the (now identical)
/// heads fold — terminal counts add, supports max-merge — and `x`'s
/// children (including its own split-off tail) merge into `dst`'s child
/// list recursively.
fn merge_into(a: &mut SegArena, dst: u32, x: u32) {
    debug_assert_eq!(a.first_item(dst), a.first_item(x));
    let max = a.get(dst).seg_len.min(a.get(x).seg_len) as usize;
    let mut k = 1usize;
    while k < max && a.item_at(dst, k) == a.item_at(x, k) {
        k += 1;
    }
    if (a.get(dst).seg_len as usize) > k {
        a.split(dst, k as u32);
    }
    if (a.get(x).seg_len as usize) > k {
        a.split(x, k as u32);
    }
    let xr = a.get(x).raw;
    a.get_mut(dst).raw += xr;
    let xs = a.get(x).supp;
    if a.get(dst).supp < xs {
        a.get_mut(dst).supp = xs;
    }
    let mut c = a.get(x).children;
    a.get_mut(x).children = NONE;
    while c != NONE {
        let cnext = a.get(c).sibling;
        a.get_mut(c).sibling = NONE;
        let merged = merge_node(a, a.get(dst).children, c);
        a.get_mut(dst).children = merged;
        c = cnext;
    }
    a.free(x);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a tree from ascending-sorted transactions.
    fn build(num_items: u32, txs: &[&[Item]]) -> PrefixTree {
        let mut t = PrefixTree::new(num_items);
        for tx in txs {
            t.add_transaction(tx);
        }
        t.validate_invariants();
        t
    }

    #[test]
    fn figure3_trace() {
        // Paper Fig. 3: transactions {e,c,a}, {e,d,b}, {d,c,b,a}
        // with item codes a=0 b=1 c=2 d=3 e=4. The *conceptual* node
        // counts match the paper's uncompressed trace; path compression
        // packs them into fewer physical nodes.
        let mut t = PrefixTree::new(5);

        t.add_transaction(&[0, 2, 4]); // {e,c,a}
        t.validate_invariants();
        assert_eq!(t.lookup(&ItemSet::from([4])), Some(1));
        assert_eq!(t.lookup(&ItemSet::from([2, 4])), Some(1));
        assert_eq!(t.lookup(&ItemSet::from([0, 2, 4])), Some(1));
        assert_eq!(t.memory_stats().seg_items, 3);
        assert_eq!(t.node_count(), 1, "one chain = one segment");

        t.add_transaction(&[1, 3, 4]); // {e,d,b}
        t.validate_invariants();
        // Fig. 3 step 2: e:2, d:1, b:1 (new path), c:1, a:1 untouched
        assert_eq!(t.lookup(&ItemSet::from([4])), Some(2));
        assert_eq!(t.lookup(&ItemSet::from([3, 4])), Some(1));
        assert_eq!(t.lookup(&ItemSet::from([1, 3, 4])), Some(1));
        assert_eq!(t.lookup(&ItemSet::from([2, 4])), Some(1));
        assert_eq!(t.memory_stats().seg_items, 5);
        assert_eq!(t.node_count(), 3, "split [4|2,0] plus suffix [3,1]");

        t.add_transaction(&[0, 1, 2, 3]); // {d,c,b,a}
        t.validate_invariants();
        // Fig. 3 step 3.3 final supports:
        assert_eq!(t.lookup(&ItemSet::from([4])), Some(2)); // {e}
        assert_eq!(t.lookup(&ItemSet::from([3, 4])), Some(1)); // {e,d}
        assert_eq!(t.lookup(&ItemSet::from([1, 3, 4])), Some(1)); // {e,d,b}
        assert_eq!(t.lookup(&ItemSet::from([2, 4])), Some(1)); // {e,c}
        assert_eq!(t.lookup(&ItemSet::from([0, 2, 4])), Some(1)); // {e,c,a}
        assert_eq!(t.lookup(&ItemSet::from([3])), Some(2)); // {d}
        assert_eq!(t.lookup(&ItemSet::from([1, 3])), Some(2)); // {d,b}
        assert_eq!(t.lookup(&ItemSet::from([2, 3])), Some(1)); // {d,c}
        assert_eq!(t.lookup(&ItemSet::from([1, 2, 3])), Some(1)); // {d,c,b}
        assert_eq!(t.lookup(&ItemSet::from([0, 1, 2, 3])), Some(1)); // full
        assert_eq!(t.lookup(&ItemSet::from([2])), Some(2)); // {c}
        assert_eq!(t.lookup(&ItemSet::from([0, 2])), Some(2)); // {c,a}
                                                               // exactly the 12 conceptual nodes of Fig. 3.3, in 7 segments
        assert_eq!(t.memory_stats().seg_items, 12);
        assert_eq!(t.node_count(), 7);
        assert_eq!(t.transactions_processed(), 3);
        // the conceptual enumeration matches the uncompressed layout
        assert_eq!(t.dump().len(), 12);
    }

    #[test]
    fn repeated_transactions_accumulate() {
        let t = build(3, &[&[0, 1], &[0, 1], &[0, 1]]);
        assert_eq!(t.lookup(&ItemSet::from([0, 1])), Some(3));
        assert_eq!(t.node_count(), 1, "repeats never split the segment");
        assert_eq!(t.memory_stats().seg_items, 2);
    }

    #[test]
    fn intersect_segment_kernel() {
        // trans epoch-stamps items 9, 5, 2 at step 7
        let mut trans = vec![0u32; 10];
        for i in [9, 5, 2] {
            trans[i] = 7;
        }
        let mut out = Vec::new();
        // full scan, partial membership
        assert!(!intersect_segment(&[9, 7, 5, 3], &trans, 7, 0, &mut out));
        assert_eq!(out, vec![9, 5]);
        // early stop on a member == imin (the item is still collected)
        out.clear();
        assert!(intersect_segment(&[9, 5, 3], &trans, 7, 5, &mut out));
        assert_eq!(out, vec![9, 5]);
        // early stop on a non-member below imin
        out.clear();
        assert!(intersect_segment(&[9, 4, 2], &trans, 7, 5, &mut out));
        assert_eq!(out, vec![9]);
        // stale stamps are not members
        out.clear();
        assert!(!intersect_segment(&[9, 5], &trans, 8, 0, &mut out));
        assert_eq!(out, Vec::<Item>::new());
    }

    #[test]
    fn insert_splits_on_divergence_and_on_contained_prefix() {
        // [0,1,2] then [0,2]: the second path ends inside the first's
        // segment after diverging — forces a split with a suffix node
        let t = build(3, &[&[0, 1, 2], &[0, 2]]);
        assert_eq!(t.lookup(&ItemSet::from([0, 1, 2])), Some(1));
        assert_eq!(t.lookup(&ItemSet::from([0, 2])), Some(2));
        assert_eq!(t.lookup(&ItemSet::from([2])), Some(2));
        // [2|1,0] + [0] beside the tail
        assert_eq!(t.node_count(), 3);
        assert_eq!(t.memory_stats().seg_items, 4);

        // a transaction that is a strict prefix of a stored segment ends
        // at the split head, which takes the terminal weight
        let t2 = build(4, &[&[0, 1, 2, 3], &[2, 3]]);
        assert_eq!(t2.lookup(&ItemSet::from([2, 3])), Some(2));
        assert_eq!(t2.lookup(&ItemSet::from([0, 1, 2, 3])), Some(1));
        let mut ws = t2.weighted_transactions();
        ws.sort();
        assert_eq!(ws, vec![(vec![0, 1, 2, 3], 1), (vec![2, 3], 1)]);
    }

    #[test]
    fn every_node_support_is_exact() {
        // random-ish fixed database; verify every stored set's support by
        // rescanning the transactions
        let txs: Vec<Vec<Item>> = vec![
            vec![0, 1, 2, 5],
            vec![1, 2, 3],
            vec![0, 2, 3, 5],
            vec![1, 5],
            vec![0, 1, 2, 3, 5],
            vec![2, 4],
            vec![0, 4, 5],
        ];
        let mut t = PrefixTree::new(6);
        for tx in &txs {
            t.add_transaction(tx);
        }
        t.validate_invariants();
        // every *conceptual* stored set's support must equal the scan
        // support (dump enumerates all segment prefixes)
        for (set, supp) in t.dump() {
            let scan = txs
                .iter()
                .filter(|tx| fim_core::itemset::is_subset(set.as_slice(), tx))
                .count() as u32;
            assert_eq!(supp, scan, "support of {:?}", set);
        }
    }

    #[test]
    fn report_filters_non_closed_prefix_nodes() {
        // {e,d} is an interior path node of {e,d,b} with equal support and
        // must not be reported
        let t = build(5, &[&[0, 2, 4], &[1, 3, 4], &[0, 1, 2, 3]]);
        let r = t.report(1);
        let sets: Vec<&ItemSet> = r.iter().map(|f| &f.items).collect();
        assert!(
            !sets.contains(&&ItemSet::from([3, 4])),
            "{{e,d}} not closed"
        );
        assert!(
            sets.contains(&&ItemSet::from([1, 3, 4])),
            "{{e,d,b}} closed"
        );
        assert!(sets.contains(&&ItemSet::from([4])), "{{e}} closed supp 2");
    }

    #[test]
    fn report_respects_minsupp() {
        let t = build(5, &[&[0, 2, 4], &[1, 3, 4], &[0, 1, 2, 3]]);
        let r = t.report(2);
        assert!(r.iter().all(|f| f.support >= 2));
        let sets: Vec<&ItemSet> = r.iter().map(|f| &f.items).collect();
        // the only closed sets with support >= 2: {e}, {d,b}, {c,a}
        // ({d} and {c} are not closed: their closures are {d,b} and {c,a})
        assert!(sets.contains(&&ItemSet::from([4])));
        assert!(sets.contains(&&ItemSet::from([1, 3])));
        assert!(sets.contains(&&ItemSet::from([0, 2])));
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn lookup_missing_set() {
        let t = build(5, &[&[0, 2, 4]]);
        assert_eq!(t.lookup(&ItemSet::from([1])), None);
        assert_eq!(t.lookup(&ItemSet::from([0, 4])), None); // not a path
        assert_eq!(t.lookup(&ItemSet::empty()), Some(1)); // root = prefix len
    }

    #[test]
    fn prune_removes_hopeless_items() {
        // items: 0 appears twice overall, 1 four times; minsupp 4
        let mut t = PrefixTree::new(2);
        t.add_transaction(&[0, 1]);
        t.add_transaction(&[0, 1]);
        // remaining transactions: {1}, {1} → remaining[0]=0, remaining[1]=2
        t.prune(&[0, 2], 4);
        t.validate_invariants();
        // item 0 cannot reach support 4 → dropped from the stored segment
        assert_eq!(t.lookup(&ItemSet::from([0, 1])), None);
        assert_eq!(t.lookup(&ItemSet::from([1])), Some(2));
        t.add_transaction(&[1]);
        t.add_transaction(&[1]);
        let r = t.report(4);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].items, ItemSet::from([1]));
        assert_eq!(r[0].support, 4);
    }

    #[test]
    fn prune_merges_subtrees() {
        // build paths 3→1 and 3→2→1, then eliminate item 2:
        // the set {3,2,1} loses its middle item and must merge with the
        // existing {3,1} — a mid-segment rewrite followed by a sibling
        // collision
        let mut t = PrefixTree::new(4);
        t.add_transaction(&[1, 3]);
        t.add_transaction(&[1, 2, 3]);
        assert_eq!(t.lookup(&ItemSet::from([1, 3])), Some(2));
        assert_eq!(t.lookup(&ItemSet::from([1, 2, 3])), Some(1));
        // pretend item 2 never occurs again and minsupp is 2
        t.prune(&[10, 10, 0, 10], 2);
        t.validate_invariants();
        assert_eq!(t.lookup(&ItemSet::from([1, 2, 3])), None);
        // the reduced set {3,1} keeps max supp 2
        assert_eq!(t.lookup(&ItemSet::from([1, 3])), Some(2));
    }

    #[test]
    fn prune_rewrites_segment_interior() {
        // one long chain [5,4,3,2,1,0]; items 4 and 2 become hopeless →
        // the segment is rewritten in place to [5,3,1,0], no node freed
        let mut t = PrefixTree::new(6);
        t.add_transaction(&[0, 1, 2, 3, 4, 5]);
        assert_eq!(t.node_count(), 1);
        let rem = [9, 9, 0, 9, 0, 9];
        t.prune(&rem, 2);
        t.validate_invariants();
        assert_eq!(t.node_count(), 1);
        assert_eq!(t.memory_stats().seg_items, 4);
        assert_eq!(t.lookup(&ItemSet::from([0, 1, 3, 5])), Some(1));
        assert_eq!(t.lookup(&ItemSet::from([0, 1, 2, 3, 4, 5])), None);
        // the terminal stays at the deepest kept item
        let mut ws = t.weighted_transactions();
        ws.sort();
        assert_eq!(ws, vec![(vec![0, 1, 3, 5], 1)]);
    }

    #[test]
    fn empty_transaction_is_ignored() {
        let mut t = PrefixTree::new(3);
        t.add_transaction(&[]);
        assert_eq!(t.transactions_processed(), 0);
        assert_eq!(t.node_count(), 0);
        assert!(t.report(1).is_empty());
    }

    #[test]
    fn single_item_universe() {
        let t = build(1, &[&[0], &[0]]);
        let r = t.report(1);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].support, 2);
    }

    #[test]
    fn interleaved_disjoint_transactions() {
        let t = build(4, &[&[0, 1], &[2, 3], &[0, 1], &[2, 3]]);
        let r = t.report(2);
        assert_eq!(r.len(), 2);
        assert_eq!(t.lookup(&ItemSet::from([0, 1])), Some(2));
        assert_eq!(t.lookup(&ItemSet::from([2, 3])), Some(2));
    }

    /// Sorted `(set, supp)` dump for order-insensitive tree comparison.
    fn canon(t: &PrefixTree, minsupp: u32) -> Vec<(Vec<Item>, u32)> {
        let mut v: Vec<(Vec<Item>, u32)> = t
            .report(minsupp)
            .into_iter()
            .map(|f| (f.items.as_slice().to_vec(), f.support))
            .collect();
        v.sort();
        v
    }

    #[test]
    fn weighted_add_equals_repeated_adds() {
        let txs: Vec<Vec<Item>> = vec![vec![0, 1, 2], vec![1, 2, 3], vec![0, 3], vec![1, 2]];
        let weights = [3u32, 1, 2, 4];
        let mut plain = PrefixTree::new(4);
        let mut weighted = PrefixTree::new(4);
        for (t, &w) in txs.iter().zip(&weights) {
            for _ in 0..w {
                plain.add_transaction(t);
            }
            weighted.add_transaction_weighted(t, w);
        }
        plain.validate_invariants();
        weighted.validate_invariants();
        assert_eq!(plain.transactions_processed(), 10);
        assert_eq!(weighted.transactions_processed(), 10);
        assert_eq!(canon(&plain, 1), canon(&weighted, 1));
    }

    #[test]
    fn weighted_transactions_round_trip() {
        let txs: &[&[Item]] = &[&[0, 2, 4], &[1, 3, 4], &[0, 1, 2, 3], &[0, 2, 4]];
        let t = build(5, txs);
        let mut listed = t.weighted_transactions();
        listed.sort();
        assert_eq!(
            listed,
            vec![
                (vec![0, 1, 2, 3], 1),
                (vec![0, 2, 4], 2),
                (vec![1, 3, 4], 1)
            ]
        );
        assert_eq!(t.empty_weight(), 0);
        // replaying the listed multiset rebuilds an equivalent tree
        let mut rebuilt = PrefixTree::new(5);
        for (tx, w) in &listed {
            rebuilt.add_transaction_weighted(tx, *w);
        }
        rebuilt.validate_invariants();
        assert_eq!(canon(&t, 1), canon(&rebuilt, 1));
    }

    #[test]
    fn merge_matches_sequential_processing() {
        let all: Vec<Vec<Item>> = vec![
            vec![0, 1, 2, 5],
            vec![1, 2, 3],
            vec![0, 2, 3, 5],
            vec![1, 5],
            vec![0, 1, 2, 3, 5],
            vec![2, 4],
            vec![0, 4, 5],
        ];
        for split in 0..=all.len() {
            let mut whole = PrefixTree::new(6);
            for tx in &all {
                whole.add_transaction(tx);
            }
            let mut left = PrefixTree::new(6);
            for tx in &all[..split] {
                left.add_transaction(tx);
            }
            let mut right = PrefixTree::new(6);
            for tx in &all[split..] {
                right.add_transaction(tx);
            }
            left.merge(&right);
            left.validate_invariants();
            assert_eq!(
                left.transactions_processed(),
                whole.transactions_processed()
            );
            assert_eq!(canon(&left, 1), canon(&whole, 1), "split at {split}");
        }
    }

    #[test]
    fn merge_after_pruning_keeps_viable_supports() {
        // item 0 is hopeless in the left shard (never occurs again);
        // pruning reduces {0,1} to {1} and the merged result must still
        // report {1} and {2,3}-side sets with exact supports at minsupp 3
        let mut left = PrefixTree::new(4);
        left.add_transaction(&[0, 1]);
        left.add_transaction(&[0, 1]);
        left.prune(&[0, 4, 10, 10], 4);
        left.validate_invariants();
        assert_eq!(left.empty_weight(), 0);
        let mut ws = left.weighted_transactions();
        ws.sort();
        assert_eq!(ws, vec![(vec![1], 2)], "reduced transaction keeps weight");

        let mut right = PrefixTree::new(4);
        right.add_transaction(&[1, 2]);
        right.add_transaction(&[1, 3]);
        right.merge(&left);
        right.validate_invariants();
        assert_eq!(right.transactions_processed(), 4);
        assert_eq!(right.lookup(&ItemSet::from([1])), Some(4));
    }

    #[test]
    fn prune_to_empty_set_keeps_weight_via_root() {
        let mut t = PrefixTree::new(2);
        t.add_transaction(&[0]);
        t.add_transaction(&[0, 1]);
        // both items hopeless → everything pruned away
        t.prune(&[0, 0], 5);
        t.validate_invariants();
        assert_eq!(t.node_count(), 0);
        assert_eq!(t.empty_weight(), 2);
        assert!(t.weighted_transactions().is_empty());
        // merging the emptied tree still transfers its weight
        let mut dst = PrefixTree::new(2);
        dst.add_transaction(&[0, 1]);
        dst.merge(&t);
        dst.validate_invariants();
        assert_eq!(dst.transactions_processed(), 3);
    }

    #[test]
    fn merge_into_empty_and_empty_into() {
        let filled = build(4, &[&[0, 1], &[1, 2, 3]]);
        let mut empty = PrefixTree::new(4);
        empty.merge(&filled);
        empty.validate_invariants();
        assert_eq!(canon(&empty, 1), canon(&filled, 1));

        let mut filled2 = build(4, &[&[0, 1], &[1, 2, 3]]);
        filled2.merge(&PrefixTree::new(4));
        filled2.validate_invariants();
        assert_eq!(canon(&filled2, 1), canon(&filled, 1));
    }

    #[test]
    fn prune_keeping_terminals_never_reduces_transactions() {
        // set {1,2} is locally hopeless at minsupp 5 (supp 1 + remaining 3)
        // but both items are individually viable: the plain prune would
        // reduce the stored transaction {1,2} to {2}, the terminal-keeping
        // variant must list it verbatim
        let mut t = PrefixTree::new(3);
        t.add_transaction(&[1, 2]);
        t.add_transaction(&[0, 1]);
        t.prune_keeping_terminals(&[0, 3, 3], 5);
        t.validate_invariants();
        let mut ws = t.weighted_transactions();
        ws.sort();
        assert_eq!(ws, vec![(vec![0, 1], 1), (vec![1, 2], 1)]);
        assert_eq!(t.lookup(&ItemSet::from([1])), Some(2));
    }

    #[test]
    fn prune_keeping_terminals_drops_terminal_free_nodes() {
        // paths 3→1→0 and 3→2→0 carry the terminals; their intersection
        // {0,3} branches off as a raw-free node 0 directly under 3 and is
        // the only node the terminal-keeping prune may remove
        let mut t = PrefixTree::new(4);
        t.add_transaction(&[0, 1, 3]);
        t.add_transaction(&[0, 2, 3]);
        assert_eq!(t.lookup(&ItemSet::from([0, 3])), Some(2));
        let before = t.memory_stats().seg_items;
        // node {0,3}: supp 2 + remaining[0]=1 < 9 → hopeless, raw-free
        t.prune_keeping_terminals(&[1, 9, 9, 9], 9);
        t.validate_invariants();
        assert_eq!(
            t.memory_stats().seg_items,
            before - 1,
            "raw-free conceptual node dropped"
        );
        assert_eq!(t.lookup(&ItemSet::from([0, 3])), None);
        let mut ws = t.weighted_transactions();
        ws.sort();
        assert_eq!(ws, vec![(vec![0, 1, 3], 1), (vec![0, 2, 3], 1)]);
    }

    #[test]
    #[should_panic(expected = "identical item universes")]
    fn merge_rejects_mismatched_universe() {
        let mut a = PrefixTree::new(3);
        let b = PrefixTree::new(4);
        a.merge(&b);
    }

    #[test]
    fn compact_preserves_reports_after_pruning_churn() {
        let txs: Vec<Vec<Item>> = vec![
            vec![0, 1, 2, 5],
            vec![1, 2, 3],
            vec![0, 2, 3, 5],
            vec![1, 5],
            vec![0, 1, 2, 3, 5],
            vec![2, 4],
            vec![0, 4, 5],
        ];
        let mut t = PrefixTree::new(6);
        for (k, tx) in txs.iter().enumerate() {
            t.add_transaction(tx);
            if k == 3 {
                // mid-stream prune scatters live nodes via the free list
                let mut remaining = vec![0u32; 6];
                for later in &txs[k + 1..] {
                    for &i in later {
                        remaining[i as usize] += 1;
                    }
                }
                t.prune(&remaining, 3);
            }
        }
        t.validate_invariants();
        let before = canon(&t, 3);
        let dump_before = t.dump();
        let stats_before = t.memory_stats();
        t.compact();
        t.validate_invariants();
        assert_eq!(canon(&t, 3), before);
        assert_eq!(t.dump(), dump_before);
        let stats_after = t.memory_stats();
        assert_eq!(stats_after.free_slots, 0);
        assert_eq!(stats_after.live_nodes, stats_before.live_nodes);
        assert_eq!(stats_after.total_slots, stats_before.live_nodes);
        assert_eq!(stats_after.seg_items, stats_before.seg_items);
        assert_eq!(
            stats_after.seg_bytes,
            stats_after.seg_items * std::mem::size_of::<Item>(),
            "compaction drops segment garbage"
        );
        // mining continues seamlessly on the compacted tree
        t.add_transaction(&[1, 2, 3]);
        t.validate_invariants();
    }

    #[test]
    fn compact_on_empty_tree() {
        let mut t = PrefixTree::new(3);
        t.compact();
        t.add_transaction(&[0, 2]);
        t.validate_invariants();
        assert_eq!(t.lookup(&ItemSet::from([0, 2])), Some(1));
    }

    #[test]
    fn memory_stats_tracks_free_list_and_garbage() {
        let mut t = PrefixTree::new(4);
        t.add_transaction(&[1, 3]);
        t.add_transaction(&[1, 2, 3]);
        let fresh = t.memory_stats();
        assert_eq!(fresh.free_slots, 0);
        assert_eq!(fresh.live_nodes, fresh.total_slots);
        assert_eq!(fresh.seg_items, 4, "split [3|1] + suffix [2,1]");
        assert_eq!(
            fresh.approx_bytes,
            fresh.total_slots * std::mem::size_of::<PatNode>() + fresh.seg_bytes + 4 * 4
        );
        // item 2 hopeless: [2,1] rewrites to [1] and collides with the
        // split tail [1], freeing one slot and leaving garbage items
        t.prune(&[10, 10, 0, 10], 2);
        t.validate_invariants();
        let pruned = t.memory_stats();
        assert_eq!(pruned.total_slots, fresh.total_slots);
        assert_eq!(pruned.free_slots, 1);
        assert_eq!(pruned.live_nodes, fresh.live_nodes - 1);
        assert_eq!(pruned.seg_items, 2, "[3] and the merged [1]");
        assert!(pruned.seg_bytes > pruned.seg_items * std::mem::size_of::<Item>());
        assert!(t.compact_if_fragmented());
        let compacted = t.memory_stats();
        assert_eq!(compacted.free_slots, 0);
        assert_eq!(
            compacted.seg_bytes,
            compacted.seg_items * std::mem::size_of::<Item>()
        );
        assert!(!t.compact_if_fragmented(), "already compact");
    }
}
