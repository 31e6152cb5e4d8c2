//! The list-based Carpenter variant (paper §3.1.1).
//!
//! The database is held vertically as one ascending transaction-index list
//! per item ([`TidLists`]); the current intersection is a vector of
//! `(item, cursor)` pairs where the cursor points at the first index of the
//! item's list that has not been passed yet. Because the recursion only
//! ever moves forward through the transaction indices, cursors advance
//! monotonically — the Rust analog of the pointer arithmetic the paper uses
//! in C. The cursor also yields the remaining-occurrence count for item
//! elimination in O(1).
//!
//! A node finds its children in one of three ways (DESIGN.md §25), all
//! giving the same sub-states, absorptions and eliminations:
//!
//! * the **root** reads row `t` of the database: its intersection with
//!   transaction `t` is `t` itself, and each item's cursor is its running
//!   count;
//! * a **sparse** node counting-sorts its remaining occurrences by tid
//!   once, then visits only the tids that share an item with it;
//! * a **dense** node probes every item's cursor at every tid.

use crate::search::{search, CarpenterConfig, Representation};
use fim_core::{
    gallop_advance, ClosedMiner, Item, MineOutcome, MineRequest, MiningResult, RecodedDatabase,
    Representation as KernelRep, Rows, Tid, TidLists, WordSet,
};
use fim_obs::{Counter, Counters, Obs};
use std::cell::RefCell;

/// The vertical (tid-list) representation.
pub struct ListRep<'a> {
    lists: TidLists,
    /// The database's rows, which the root reads instead of probing.
    rows: Rows<'a>,
    gallop: bool,
    /// Counting-sort scratch of [`Representation::enter`], one slot per
    /// tid from the node's start on. Only `enter` uses it, so every depth
    /// shares it.
    slots: RefCell<Vec<u32>>,
}

/// Where a node's intersections come from (DESIGN.md §25).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
enum Source {
    /// The root reads row `t` of the database.
    Rows,
    /// A sparse node reads the occurrences it bucketed by tid.
    Buckets,
    /// A dense node probes every item's cursor at every tid.
    #[default]
    Probes,
}

/// A node's intersection in the list representation, with the node's
/// buckets when it has them.
#[derive(Debug, Default)]
pub struct ListState {
    /// `(item, cursor into the item's tid list)` pairs, ascending by item.
    /// At the root the cursor is the item's running count: the number of
    /// rows read so far that contain it.
    items: Vec<(Item, u32)>,
    /// Σ (len − cursor) over `items`: the occurrences bucketing would read.
    occ: u64,
    source: Source,
    /// The tid the node was entered at.
    start: Tid,
    /// The non-empty buckets by ascending tid: the tid and the end of its
    /// occurrences in `hits`.
    buckets: Vec<(Tid, u32)>,
    /// `(index into items, position in the item's tid list)` of each
    /// remaining occurrence, by tid and then by item.
    hits: Vec<(u32, u32)>,
    /// The bucket read next.
    next: usize,
}

/// The inputs of one intersection that decide what becomes of each item
/// it matches: early stop, then item elimination.
struct Match {
    tid: Tid,
    /// The tid the node was entered at.
    start: Tid,
    /// Matches still needed for minimum support, 0 with early stopping off.
    need: u32,
    k_new: u32,
    minsupp: u32,
    eliminate: bool,
}

impl Match {
    /// Item elimination for `item`, matched at position `j` of its tid
    /// list of `len` entries: it joins `sub` with its cursor past the
    /// match, unless `k_new` plus its occurrences after the match cannot
    /// reach `minsupp`.
    #[inline]
    fn keep(&self, item: Item, j: u32, len: u32, counters: &mut Counters, sub: &mut ListState) {
        let remaining_after = len - j - 1;
        if !self.eliminate || self.k_new + remaining_after >= self.minsupp {
            sub.items.push((item, j + 1));
            sub.occ += u64::from(remaining_after);
        } else {
            counters.bump(Counter::Eliminations);
        }
    }
}

impl<'a> ListRep<'a> {
    /// Builds the representation from a recoded database.
    pub fn from_database(db: &'a RecodedDatabase) -> Self {
        ListRep {
            lists: TidLists::from_database(db),
            rows: db.transactions(),
            gallop: false,
            slots: RefCell::new(Vec::new()),
        }
    }

    /// Like [`from_database`](Self::from_database) but with galloping
    /// (exponential-search) cursor advances instead of the linear walk.
    /// The cursor lands on exactly the same index either way, so every
    /// downstream decision — probe, early stop, elimination — is identical.
    pub fn from_database_gallop(db: &'a RecodedDatabase) -> Self {
        ListRep {
            gallop: true,
            ..ListRep::from_database(db)
        }
    }

    /// `item`, found at position `j` of its tid list when intersecting
    /// with `m.tid` without a probe, gets the decisions a probe would give
    /// it: early stop, then item elimination. Returns whether it counts
    /// toward the raw match count.
    fn take(
        &self,
        item: Item,
        j: u32,
        m: &Match,
        counters: &mut Counters,
        sub: &mut ListState,
    ) -> bool {
        let list = self.lists.list(item);
        // occurrences from `m.tid` on, `m.tid` included
        let left = list.len() as u32 - j;
        if left < m.need {
            // A probe tests `len − cursor` with the cursor where the probe
            // of `tid − 1` left it: one step back if the item occurs at
            // `tid − 1`, except at the node's first tid, whose cursors
            // start past the tid that created the node. Testing the same
            // bound keeps every early stop, and so every absorption it
            // prevents, where probing has it.
            let lag = u32::from(m.tid > m.start && j > 0 && list[j as usize - 1] + 1 == m.tid);
            if left + lag < m.need {
                counters.bump(Counter::TidEarlyStops);
                return false;
            }
        }
        m.keep(item, j, list.len() as u32, counters, sub);
        true
    }

    /// The probe loop of [`Representation::intersect`], monomorphized over
    /// the early-stop check (so the plain scan carries no bound arithmetic)
    /// and the cursor-advance kernel.
    fn scan<const EARLY: bool, const GALLOP: bool>(
        &self,
        state: &mut [(Item, u32)],
        m: &Match,
        counters: &mut Counters,
        sub: &mut ListState,
    ) -> usize {
        let mut raw = 0usize;
        for (item, cur) in state.iter_mut() {
            let list = self.lists.list(*item);
            if EARLY && (list.len() as u32 - *cur) < m.need {
                // Early stop: even if every unscanned entry of this item's
                // list matched a future transaction, no set containing the
                // item can reach `minsupp` below this node — skip both the
                // cursor advance and the probe. The cursor may lag behind
                // `tid`, so `len - cur` only ever overestimates the true
                // remaining count: a skipped item is genuinely hopeless.
                counters.bump(Counter::TidEarlyStops);
                continue;
            }
            if GALLOP {
                let (next, probes) = gallop_advance(list, *cur as usize, m.tid);
                counters.add(Counter::GallopProbes, probes);
                *cur = next as u32;
            } else {
                while (*cur as usize) < list.len() && list[*cur as usize] < m.tid {
                    *cur += 1;
                }
            }
            if (*cur as usize) < list.len() && list[*cur as usize] == m.tid {
                raw += 1;
                m.keep(*item, *cur, list.len() as u32, counters, sub);
            }
        }
        raw
    }
}

impl Representation for ListRep<'_> {
    type State = ListState;

    fn initial_state(&self) -> ListState {
        ListState {
            items: (0..self.lists.num_items()).map(|i| (i, 0)).collect(),
            source: Source::Rows,
            ..ListState::default()
        }
    }

    fn state_len(&self, state: &ListState) -> usize {
        state.items.len()
    }

    fn num_transactions(&self) -> u32 {
        self.lists.num_transactions()
    }

    fn items<'s>(&'s self, state: &'s ListState) -> impl DoubleEndedIterator<Item = Item> + 's {
        state.items.iter().map(|&(item, _)| item)
    }

    /// Buckets a sparse node: when reading its remaining occurrences twice
    /// (to count them by tid, then to place them) costs fewer steps than
    /// the probes a scan of the horizon makes (one per item and tid), it
    /// counting-sorts all of them by tid, once. A dense node keeps probing.
    fn enter(&self, state: &mut ListState, start: Tid, horizon: Tid) {
        if state.source == Source::Rows {
            return; // every tid comes from the rows
        }
        let ListState {
            items,
            occ,
            source,
            start: node_start,
            buckets,
            hits,
            next,
        } = state;
        *node_start = start;
        *next = 0;
        buckets.clear();
        let width = horizon.saturating_sub(start);
        if 2 * *occ >= items.len() as u64 * u64::from(width) {
            *source = Source::Probes;
            return;
        }
        *source = Source::Buckets;
        let mut slots = self.slots.borrow_mut();
        slots.clear();
        slots.resize((self.lists.num_transactions() - start) as usize, 0);
        for &(item, cur) in items.iter() {
            for &t in &self.lists.list(item)[cur as usize..] {
                slots[(t - start) as usize] += 1;
            }
        }
        let mut end = 0;
        for (w, slot) in slots.iter_mut().enumerate() {
            if *slot > 0 {
                let begin = end;
                end += *slot;
                buckets.push((start + w as Tid, end));
                *slot = begin;
            }
        }
        hits.resize(end as usize, (0, 0));
        for (s, &(item, cur)) in items.iter().enumerate() {
            let list = self.lists.list(item);
            for j in cur..list.len() as u32 {
                let slot = &mut slots[(list[j as usize] - start) as usize];
                hits[*slot as usize] = (s as u32, j);
                *slot += 1;
            }
        }
    }

    fn next_tid(&self, state: &ListState, tid: Tid) -> Tid {
        if state.source != Source::Buckets {
            return tid;
        }
        // the next non-empty bucket; after the last one, the end of the tids
        state
            .buckets
            .get(state.next)
            .map_or(self.lists.num_transactions(), |&(t, _)| t)
    }

    fn intersect(
        &self,
        state: &mut ListState,
        tid: Tid,
        k_new: u32,
        minsupp: u32,
        config: CarpenterConfig,
        counters: &mut Counters,
        sub: &mut ListState,
    ) -> usize {
        sub.items.clear();
        sub.occ = 0;
        sub.source = Source::Probes;
        // `need` is how many more matches the current intersection still
        // requires; once `k_new >= minsupp` the early-stop bound can never
        // fire, so the scan can drop the per-item check entirely. The
        // split is monomorphized so the checking code costs nothing when
        // it cannot trigger (the bound is a rare event on dense data, but
        // it sat on every probe of every item).
        let need = minsupp.saturating_sub(k_new);
        let early = config.early_stop && need > 0;
        let m = Match {
            tid,
            start: state.start,
            need: if early { need } else { 0 },
            k_new,
            minsupp,
            eliminate: config.item_elimination,
        };
        match state.source {
            Source::Probes => {
                let items = &mut state.items;
                match (early, self.gallop) {
                    (true, false) => self.scan::<true, false>(items, &m, counters, sub),
                    (false, false) => self.scan::<false, false>(items, &m, counters, sub),
                    (true, true) => self.scan::<true, true>(items, &m, counters, sub),
                    (false, true) => self.scan::<false, true>(items, &m, counters, sub),
                }
            }
            Source::Rows => {
                let mut raw = 0;
                for &item in self.rows.row(tid as usize) {
                    let count = &mut state.items[item as usize].1;
                    raw += usize::from(self.take(item, *count, &m, counters, sub));
                    *count += 1;
                }
                raw
            }
            Source::Buckets => {
                let mut raw = 0;
                // a tid without a bucket shares no item with the node
                if let Some(&(_, end)) = state.buckets.get(state.next).filter(|b| b.0 == tid) {
                    let begin = state.next.checked_sub(1).map_or(0, |b| state.buckets[b].1);
                    for &(s, j) in &state.hits[begin as usize..end as usize] {
                        let item = state.items[s as usize].0;
                        raw += usize::from(self.take(item, j, &m, counters, sub));
                    }
                    state.next += 1;
                }
                raw
            }
        }
    }
}

/// The vertical bitset representation: one packed [`WordSet`] of
/// transaction ids per item, with per-word prefix popcounts so the exact
/// remaining-occurrence count `supp − rank(tid)` is one popcount away.
///
/// Unlike [`ListRep`] there are no cursors to advance — a membership probe
/// is a word test — and the early-stop/elimination bounds are *exact*
/// rather than the cursor-lag overestimate (both are sound: they only ever
/// skip items that genuinely cannot reach minimum support).
pub struct BitsetListRep {
    sets: Vec<WordSet>,
    ranks: Vec<Vec<u32>>,
    supports: Vec<u32>,
    num_items: u32,
    num_transactions: u32,
}

impl BitsetListRep {
    /// Builds the representation from a recoded database.
    pub fn from_database(db: &RecodedDatabase) -> Self {
        let lists = TidLists::from_database(db);
        let n = lists.num_transactions();
        let sets: Vec<WordSet> = (0..db.num_items())
            .map(|i| WordSet::from_sorted(lists.list(i), n as usize))
            .collect();
        let ranks = sets.iter().map(WordSet::prefix_ranks).collect();
        let supports = sets.iter().map(WordSet::count).collect();
        BitsetListRep {
            sets,
            ranks,
            supports,
            num_items: db.num_items(),
            num_transactions: n,
        }
    }

    /// Number of the item's transactions with id < `tid`, in O(1) via the
    /// precomputed per-word prefix ranks plus one partial-word popcount.
    fn rank_at(&self, item: Item, tid: Tid) -> u32 {
        let w = (tid / 64) as usize;
        let below = self.sets[item as usize].words()[w] & ((1u64 << (tid % 64)) - 1);
        self.ranks[item as usize][w] + below.count_ones()
    }
}

impl Representation for BitsetListRep {
    /// The items of the current intersection, strictly ascending. No
    /// cursors: the prefix ranks replace them.
    type State = Vec<Item>;

    fn initial_state(&self) -> Self::State {
        (0..self.num_items).collect()
    }

    fn state_len(&self, state: &Self::State) -> usize {
        state.len()
    }

    fn num_transactions(&self) -> u32 {
        self.num_transactions
    }

    fn intersect(
        &self,
        state: &mut Self::State,
        tid: Tid,
        k_new: u32,
        minsupp: u32,
        config: CarpenterConfig,
        counters: &mut Counters,
        sub: &mut Self::State,
    ) -> usize {
        let need = minsupp.saturating_sub(k_new);
        let mut raw = 0usize;
        sub.clear();
        for &item in state.iter() {
            let supp = self.supports[item as usize];
            let rank = self.rank_at(item, tid);
            counters.bump(Counter::PopcountCalls);
            if config.early_stop && need > 0 && supp - rank < need {
                // exact remaining count: every one of the item's tids ≥ tid
                // matching could not lift the intersection to minsupp
                counters.bump(Counter::TidEarlyStops);
                continue;
            }
            if self.sets[item as usize].contains(tid) {
                raw += 1;
                let remaining_after = supp - rank - 1;
                if !config.item_elimination || k_new + remaining_after >= minsupp {
                    sub.push(item);
                } else {
                    counters.bump(Counter::Eliminations);
                }
            }
        }
        raw
    }

    fn items<'s>(&'s self, state: &'s Self::State) -> impl DoubleEndedIterator<Item = Item> + 's {
        state.iter().copied()
    }
}

/// The list-based Carpenter miner.
#[derive(Clone, Copy, Debug, Default)]
pub struct CarpenterListMiner {
    /// Pruning configuration.
    pub config: CarpenterConfig,
    /// Physical tid-set layout driving the search. Output-invariant.
    pub rep: KernelRep,
}

/// Runs `$body` with `$rep` bound to the representation matching the
/// miner's kernel selection (each arm monomorphizes the search separately).
macro_rules! dispatch_rep {
    ($self:ident, $db:ident, |$rep:ident| $body:expr) => {
        match $self.rep {
            KernelRep::Bitset => {
                let $rep = BitsetListRep::from_database($db);
                $body
            }
            KernelRep::Gallop => {
                let $rep = ListRep::from_database_gallop($db);
                $body
            }
            KernelRep::Scalar => {
                let $rep = ListRep::from_database($db);
                $body
            }
        }
    };
}

impl CarpenterListMiner {
    /// Creates a miner with an explicit configuration.
    pub fn with_config(config: CarpenterConfig) -> Self {
        CarpenterListMiner {
            config,
            ..Default::default()
        }
    }

    /// Creates a miner with an explicit tid-set representation.
    pub fn with_rep(rep: KernelRep) -> Self {
        CarpenterListMiner {
            rep,
            ..Default::default()
        }
    }

    /// [`mine_with`](ClosedMiner::mine_with) at `minsupp`, unlimited and
    /// unconstrained, as a result and its counters. Kept for the benchmark
    /// probe (`perfbench/probe`), which calls it and changes only with the
    /// benchmark.
    pub fn mine_with_stats(&self, db: &RecodedDatabase, minsupp: u32) -> (MiningResult, Counters) {
        let (outcome, counters) = self.mine_with(db, &MineRequest::new(minsupp), &mut Obs::new());
        (outcome.into_result(), counters)
    }
}

impl ClosedMiner for CarpenterListMiner {
    fn name(&self) -> &'static str {
        match self.rep {
            KernelRep::Scalar => "carpenter-lists",
            KernelRep::Bitset => "carpenter-lists-bitset",
            KernelRep::Gallop => "carpenter-lists-gallop",
        }
    }

    fn mine(&self, db: &RecodedDatabase, minsupp: u32) -> MiningResult {
        self.mine_with(db, &MineRequest::new(minsupp), &mut Obs::new())
            .0
            .into_result()
    }

    fn supports_constraints(&self) -> bool {
        true
    }

    /// The [`search`] over the selected representation. Its counters are
    /// the search's (steps, absorptions, eliminations, early stops,
    /// repository probes) and the kernel accounting of the representation.
    fn mine_with(
        &self,
        db: &RecodedDatabase,
        req: &MineRequest<'_>,
        _obs: &mut Obs,
    ) -> (MineOutcome, Counters) {
        let mut counters = Counters::new();
        let outcome = dispatch_rep!(self, db, |rep| search(
            &rep,
            db.num_items(),
            self.config,
            req,
            &mut counters
        ));
        (outcome, counters)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fim_core::{reference::mine_reference, ItemSet};

    fn paper_db() -> RecodedDatabase {
        RecodedDatabase::from_dense(
            vec![
                vec![0, 1, 2],
                vec![0, 3, 4],
                vec![1, 2, 3],
                vec![0, 1, 2, 3],
                vec![1, 2],
                vec![0, 1, 3],
                vec![3, 4],
                vec![2, 3, 4],
            ],
            5,
        )
    }

    #[test]
    fn matches_reference_all_minsupps() {
        let db = paper_db();
        for minsupp in 1..=8 {
            let want = mine_reference(&db, minsupp);
            let got = CarpenterListMiner::default()
                .mine(&db, minsupp)
                .canonicalized();
            assert_eq!(got, want, "minsupp={minsupp}");
        }
    }

    #[test]
    fn pruning_ablations_agree() {
        let db = paper_db();
        let configs = [
            CarpenterConfig::default(),
            CarpenterConfig::unpruned(),
            CarpenterConfig {
                item_elimination: false,
                ..CarpenterConfig::default()
            },
            CarpenterConfig {
                perfect_extension: false,
                ..CarpenterConfig::default()
            },
            CarpenterConfig {
                repo_prune: false,
                ..CarpenterConfig::default()
            },
            CarpenterConfig {
                early_stop: false,
                ..CarpenterConfig::default()
            },
            CarpenterConfig {
                early_stop: true,
                ..CarpenterConfig::unpruned()
            },
            CarpenterConfig {
                early_stop: true,
                item_elimination: false,
                ..CarpenterConfig::default()
            },
        ];
        for minsupp in 1..=6 {
            let want = mine_reference(&db, minsupp);
            for c in configs {
                let got = CarpenterListMiner::with_config(c)
                    .mine(&db, minsupp)
                    .canonicalized();
                assert_eq!(got, want, "config={c:?} minsupp={minsupp}");
            }
        }
    }

    /// A non-root state over the whole item base: it probes every tid.
    fn probing(rep: &ListRep) -> ListState {
        ListState {
            items: (0..rep.lists.num_items()).map(|i| (i, 0)).collect(),
            ..ListState::default()
        }
    }

    #[test]
    fn cursor_advance_is_monotone() {
        let db = paper_db();
        let rep = ListRep::from_database(&db);
        let mut s = probing(&rep);
        let (mut c, mut sub) = (Counters::new(), ListState::default());
        rep.intersect(
            &mut s,
            3,
            1,
            1,
            CarpenterConfig::unpruned(),
            &mut c,
            &mut sub,
        );
        // after probing tid 3, every cursor sits at the first tid >= 3
        for &(item, cur) in &s.items {
            let list = rep.lists.list(item);
            assert!(list[..cur as usize].iter().all(|&t| t < 3), "item {item}");
            assert!(
                (cur as usize) == list.len() || list[cur as usize] >= 3,
                "item {item}"
            );
        }
    }

    #[test]
    fn item_elimination_drops_doomed_items() {
        let elim_only = CarpenterConfig {
            early_stop: false,
            ..CarpenterConfig::default()
        };
        let db = paper_db();
        let rep = ListRep::from_database(&db);
        let mut s = probing(&rep);
        // intersect with t5 (= tid 4, items {1,2}) at k_new=1, minsupp=5:
        // item 1 occurs in tids 0,2,3,4,5 → 1 remaining after tid 4 → 1+1 < 5 drop
        // item 2 occurs in tids 0,2,3,4,7 → 1 remaining after       → drop
        let (mut c, mut sub) = (Counters::new(), ListState::default());
        let raw = rep.intersect(&mut s, 4, 1, 5, elim_only, &mut c, &mut sub);
        assert_eq!(raw, 2);
        assert!(sub.items.is_empty());
        assert_eq!(c.get(Counter::Eliminations), 2);
        // without elimination both stay
        let mut s = probing(&rep);
        let mut c = Counters::new();
        let raw = rep.intersect(
            &mut s,
            4,
            1,
            5,
            CarpenterConfig::unpruned(),
            &mut c,
            &mut sub,
        );
        assert_eq!(raw, 2);
        assert_eq!(rep.items_of(&sub), ItemSet::from([1, 2]));
        assert_eq!(sub.occ, 2, "one occurrence of each left after tid 4");
        assert_eq!(c.get(Counter::Eliminations), 0);
    }

    #[test]
    fn early_stop_skips_hopeless_probes() {
        let es_only = CarpenterConfig {
            early_stop: true,
            ..CarpenterConfig::unpruned()
        };
        let db = paper_db();
        let rep = ListRep::from_database(&db);
        // intersect with tid 1 ({0,3,4}) at k_new=1, minsupp=5: item 4 has
        // a 3-entry tid list (1,6,7) → 1 + 3 < 5, so its probe is skipped
        // entirely — it matches tid 1 yet counts toward neither raw nor sub,
        // and its cursor stays untouched
        let mut s = probing(&rep);
        let (mut c, mut sub) = (Counters::new(), ListState::default());
        let raw = rep.intersect(&mut s, 1, 1, 5, es_only, &mut c, &mut sub);
        assert_eq!(raw, 2, "item 4 matched but was skipped");
        assert_eq!(rep.items_of(&sub), ItemSet::from([0, 3]));
        assert_eq!(s.items[4], (4, 0), "skipped cursor must not advance");
        assert!(c.get(Counter::TidEarlyStops) >= 1);
        // without early stop the same probe counts item 4
        let mut s = probing(&rep);
        let mut c = Counters::new();
        let raw = rep.intersect(
            &mut s,
            1,
            1,
            5,
            CarpenterConfig::unpruned(),
            &mut c,
            &mut sub,
        );
        assert_eq!(raw, 3);
        assert_eq!(rep.items_of(&sub), ItemSet::from([0, 3, 4]));
    }

    /// The raw count, sub-state items and sub-state occurrences of each
    /// intersection of a [`walk`], and the eliminations of the walk.
    type Walk = (Vec<(usize, Vec<(Item, u32)>, u64)>, u64);

    /// Enters `state` at `start` with `horizon` and intersects it with
    /// every tid from `start` on at a fixed `k_new`.
    fn walk(
        rep: &ListRep,
        state: &mut ListState,
        start: Tid,
        horizon: Tid,
        k_new: u32,
        minsupp: u32,
        config: CarpenterConfig,
    ) -> Walk {
        rep.enter(state, start, horizon);
        let (mut c, mut sub) = (Counters::new(), ListState::default());
        let steps = (start..rep.num_transactions())
            .map(|tid| {
                let raw = rep.intersect(state, tid, k_new, minsupp, config, &mut c, &mut sub);
                (raw, sub.items.clone(), sub.occ)
            })
            .collect();
        (steps, c.get(Counter::Eliminations))
    }

    #[test]
    fn rows_root_and_buckets_match_probing() {
        let db = paper_db();
        let configs = [
            CarpenterConfig::default(),
            CarpenterConfig::unpruned(),
            CarpenterConfig {
                item_elimination: false,
                ..CarpenterConfig::default()
            },
        ];
        for rep in [
            ListRep::from_database(&db),
            ListRep::from_database_gallop(&db),
        ] {
            for config in configs {
                for minsupp in 1..=6 {
                    for k_new in 1..=3 {
                        // the root reads the rows
                        let want = walk(&rep, &mut probing(&rep), 0, 0, k_new, minsupp, config);
                        let mut root = rep.initial_state();
                        let got = walk(&rep, &mut root, 0, 8, k_new, minsupp, config);
                        assert_eq!(got, want, "root, {config:?} minsupp {minsupp}");
                        // the node {0,1,2} made at tid 0, probed and bucketed;
                        // the walk runs past the horizon to the last tid, as
                        // it does after absorptions
                        let (mut c, mut node) = (Counters::new(), ListState::default());
                        rep.intersect(&mut probing(&rep), 0, 1, 1, config, &mut c, &mut node);
                        assert_eq!(node.occ, 11);
                        let mut dense = ListState {
                            items: node.items.clone(),
                            ..ListState::default()
                        };
                        let want = walk(&rep, &mut dense, 1, 1, k_new, minsupp, config);
                        assert_eq!(dense.source, Source::Probes);
                        // occ 0 makes the node bucket whatever its cost
                        let mut sparse = ListState {
                            items: node.items.clone(),
                            ..ListState::default()
                        };
                        let got = walk(&rep, &mut sparse, 1, 2, k_new, minsupp, config);
                        assert_eq!(sparse.source, Source::Buckets);
                        assert_eq!(got, want, "buckets, {config:?} minsupp {minsupp}");
                    }
                }
            }
        }
    }

    #[test]
    fn buckets_skip_tids_that_share_no_item() {
        let db = paper_db();
        let rep = ListRep::from_database(&db);
        // {4} made at tid 1: its list (1,6,7) leaves tids 6 and 7
        let mut node = ListState {
            items: vec![(4, 1)],
            occ: 2,
            ..ListState::default()
        };
        rep.enter(&mut node, 2, 8);
        assert_eq!(
            node.source,
            Source::Buckets,
            "2 occurrences read twice against 6 probes: bucketed"
        );
        assert_eq!(rep.next_tid(&node, 2), 6);
        let (mut c, mut sub) = (Counters::new(), ListState::default());
        assert_eq!(
            rep.intersect(
                &mut node,
                6,
                2,
                1,
                CarpenterConfig::default(),
                &mut c,
                &mut sub
            ),
            1
        );
        assert_eq!(rep.next_tid(&node, 7), 7);
        assert_eq!(
            rep.intersect(
                &mut node,
                7,
                3,
                1,
                CarpenterConfig::default(),
                &mut c,
                &mut sub
            ),
            1
        );
        assert_eq!(rep.next_tid(&node, 8), 8, "past the last bucket: the end");
        // a dense node probes every tid
        let mut node = ListState {
            items: vec![(4, 1)],
            occ: 2,
            ..ListState::default()
        };
        rep.enter(&mut node, 6, 8);
        assert_eq!(
            node.source,
            Source::Probes,
            "2 occurrences read twice against 2 probes: probed"
        );
        assert_eq!(rep.next_tid(&node, 6), 6);
    }

    #[test]
    fn miner_name() {
        assert_eq!(CarpenterListMiner::default().name(), "carpenter-lists");
        assert_eq!(
            CarpenterListMiner::with_rep(KernelRep::Bitset).name(),
            "carpenter-lists-bitset"
        );
        assert_eq!(
            CarpenterListMiner::with_rep(KernelRep::Gallop).name(),
            "carpenter-lists-gallop"
        );
    }

    #[test]
    fn all_representations_match_reference() {
        let db = paper_db();
        for minsupp in 1..=8 {
            let want = mine_reference(&db, minsupp);
            for rep in [KernelRep::Scalar, KernelRep::Bitset, KernelRep::Gallop] {
                let got = CarpenterListMiner::with_rep(rep)
                    .mine(&db, minsupp)
                    .canonicalized();
                assert_eq!(got, want, "rep={rep} minsupp={minsupp}");
            }
        }
    }

    #[test]
    fn bitset_rep_pruning_ablations_agree() {
        let db = paper_db();
        let configs = [
            CarpenterConfig::default(),
            CarpenterConfig::unpruned(),
            CarpenterConfig {
                item_elimination: false,
                ..CarpenterConfig::default()
            },
            CarpenterConfig {
                early_stop: false,
                ..CarpenterConfig::default()
            },
        ];
        for minsupp in 1..=6 {
            let want = mine_reference(&db, minsupp);
            for c in configs {
                let miner = CarpenterListMiner {
                    config: c,
                    rep: KernelRep::Bitset,
                };
                let got = miner.mine(&db, minsupp).canonicalized();
                assert_eq!(got, want, "config={c:?} minsupp={minsupp}");
            }
        }
    }

    #[test]
    fn bitset_rank_is_exact_remaining_bound() {
        let db = paper_db();
        let bits = BitsetListRep::from_database(&db);
        let lists = TidLists::from_database(&db);
        for item in 0..db.num_items() {
            for tid in 0..db.transactions().len() as Tid {
                let want = lists.list(item).iter().filter(|&&t| t < tid).count() as u32;
                assert_eq!(bits.rank_at(item, tid), want, "item={item} tid={tid}");
            }
        }
    }

    #[test]
    fn gallop_cursor_lands_where_linear_does() {
        let db = paper_db();
        let lin = ListRep::from_database(&db);
        let gal = ListRep::from_database_gallop(&db);
        let mut s_lin = probing(&lin);
        let mut s_gal = probing(&gal);
        let (mut c, mut sub) = (Counters::new(), ListState::default());
        let unpruned = CarpenterConfig::unpruned();
        for tid in [1, 3, 6] {
            lin.intersect(&mut s_lin, tid, 1, 1, unpruned, &mut c, &mut sub);
            gal.intersect(&mut s_gal, tid, 1, 1, unpruned, &mut c, &mut sub);
            assert_eq!(s_lin.items, s_gal.items, "after tid {tid}");
        }
        assert!(c.get(Counter::GallopProbes) > 0);
    }
}
