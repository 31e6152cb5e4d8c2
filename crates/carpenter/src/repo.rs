//! The repository of already-reported closed item sets (paper §3.1.1).
//!
//! A prefix tree whose **top level is a flat array** indexed by item code —
//! important because the data sets Carpenter targets have very many items,
//! so the top level is densely populated and a sibling list would degrade
//! to a long linear scan. Deeper levels are expected to be sparse and use
//! plain sibling lists (descending item order, children below their parent's
//! item, exactly like the IsTa tree).
//!
//! Sets are stored along the path of their items in descending order; a
//! `terminal` marker distinguishes inserted sets from mere path prefixes.

use fim_core::Item;

const NONE: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
struct RNode {
    item: Item,
    sibling: u32,
    children: u32,
    terminal: bool,
}

/// Prefix-tree repository with a flat top-level array.
#[derive(Clone, Debug)]
pub struct Repository {
    /// Per item code: root of the subtree for sets whose largest item is
    /// that code, or `NONE`.
    top: Vec<u32>,
    /// Terminal flags for top-level singletons `{i}`.
    top_terminal: Vec<bool>,
    nodes: Vec<RNode>,
    len: usize,
}

impl Repository {
    /// Creates an empty repository over `num_items` item codes.
    pub fn new(num_items: u32) -> Self {
        Repository {
            top: vec![NONE; num_items as usize],
            top_terminal: vec![false; num_items as usize],
            nodes: Vec::new(),
            len: 0,
        }
    }

    /// Number of stored sets.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the repository is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of allocated tree nodes (excluding the flat top level).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the set of `items` (strictly ascending) was inserted before.
    /// The items come from an iterator, so a caller can look up a set it
    /// holds in some other layout without copying it out first.
    pub fn contains<I>(&self, items: I) -> bool
    where
        I: IntoIterator<Item = Item>,
        I::IntoIter: DoubleEndedIterator,
    {
        let mut desc = items.into_iter().rev();
        let Some(first) = desc.next() else {
            return false; // the empty set is never stored
        };
        let mut terminal = self.top_terminal[first as usize];
        let mut list = self.top[first as usize];
        // walk the remaining items in descending order
        for item in desc {
            let node = loop {
                if list == NONE {
                    return false;
                }
                let n = &self.nodes[list as usize];
                match n.item.cmp(&item) {
                    std::cmp::Ordering::Greater => list = n.sibling,
                    std::cmp::Ordering::Equal => break n,
                    std::cmp::Ordering::Less => return false,
                }
            };
            terminal = node.terminal;
            list = node.children;
        }
        terminal
    }

    /// Inserts `items` (strictly ascending, non-empty). Returns `true` if
    /// the set was new, `false` if it was already present.
    pub fn insert(&mut self, items: &[Item]) -> bool {
        let (&first, rest) = items
            .split_last()
            .expect("cannot insert the empty set into the repository");
        if rest.is_empty() {
            let t = &mut self.top_terminal[first as usize];
            let new = !*t;
            *t = true;
            self.len += usize::from(new);
            return new;
        }
        // descend from the flat top level, creating nodes as needed;
        // `slot` is the field the current sibling list hangs off
        enum Slot {
            Top(usize),
            Child(u32),
            Sib(u32),
        }
        let mut slot = Slot::Top(first as usize);
        let mut last_node = NONE;
        for &item in rest.iter().rev() {
            // find `item` in the sibling list at `slot`
            loop {
                let head = match slot {
                    Slot::Top(i) => self.top[i],
                    Slot::Child(n) => self.nodes[n as usize].children,
                    Slot::Sib(n) => self.nodes[n as usize].sibling,
                };
                if head != NONE && self.nodes[head as usize].item > item {
                    slot = Slot::Sib(head);
                } else if head != NONE && self.nodes[head as usize].item == item {
                    last_node = head;
                    slot = Slot::Child(head);
                    break;
                } else {
                    let idx = self.nodes.len() as u32;
                    self.nodes.push(RNode {
                        item,
                        sibling: head,
                        children: NONE,
                        terminal: false,
                    });
                    match slot {
                        Slot::Top(i) => self.top[i] = idx,
                        Slot::Child(n) => self.nodes[n as usize].children = idx,
                        Slot::Sib(n) => self.nodes[n as usize].sibling = idx,
                    }
                    last_node = idx;
                    slot = Slot::Child(idx);
                    break;
                }
            }
        }
        let t = &mut self.nodes[last_node as usize].terminal;
        let new = !*t;
        *t = true;
        self.len += usize::from(new);
        new
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_repository() {
        let r = Repository::new(5);
        assert!(r.is_empty());
        assert_eq!(r.len(), 0);
        assert!(!r.contains([0]));
        assert!(!r.contains([1, 3]));
        assert!(!r.contains([]));
    }

    #[test]
    fn insert_and_lookup_singletons() {
        let mut r = Repository::new(4);
        assert!(r.insert(&[2]));
        assert!(!r.insert(&[2]));
        assert!(r.contains([2]));
        assert!(!r.contains([1]));
        assert_eq!(r.len(), 1);
        assert_eq!(r.node_count(), 0, "singletons live in the flat top level");
    }

    #[test]
    fn prefixes_are_not_members() {
        let mut r = Repository::new(6);
        assert!(r.insert(&[0, 2, 5]));
        assert!(r.contains([0, 2, 5]));
        assert!(!r.contains([2, 5]), "path prefix is not a member");
        assert!(!r.contains([5]));
        assert!(!r.contains([0, 5]));
        assert!(r.insert(&[2, 5]));
        assert!(r.contains([2, 5]));
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn shared_prefix_paths() {
        let mut r = Repository::new(8);
        assert!(r.insert(&[1, 3, 7]));
        assert!(r.insert(&[2, 3, 7]));
        assert!(r.insert(&[0, 1, 3, 7]));
        assert!(r.contains([1, 3, 7]));
        assert!(r.contains([2, 3, 7]));
        assert!(r.contains([0, 1, 3, 7]));
        assert!(!r.contains([0, 2, 3, 7]));
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn sibling_order_handles_any_insert_order() {
        let mut r = Repository::new(10);
        assert!(r.insert(&[1, 9]));
        assert!(r.insert(&[5, 9]));
        assert!(r.insert(&[3, 9]));
        assert!(r.insert(&[7, 9]));
        for i in [1u32, 3, 5, 7] {
            assert!(r.contains([i, 9]), "{{{i},9}}");
        }
        assert!(!r.contains([2, 9]));
        assert!(!r.contains([9]));
    }

    #[test]
    fn deep_chain() {
        let mut r = Repository::new(32);
        let set: Vec<Item> = (0..32).collect();
        assert!(r.insert(&set));
        assert!(r.contains(set.iter().copied()));
        assert!(!r.contains(set[..31].iter().copied()));
        assert!(!r.contains(set[1..].iter().copied()));
        assert!(r.insert(&set[1..]));
        assert!(r.contains(set[1..].iter().copied()));
    }

    #[test]
    fn len_counts_distinct_sets() {
        let mut r = Repository::new(4);
        r.insert(&[0, 1]);
        r.insert(&[0, 1]);
        r.insert(&[0, 2]);
        r.insert(&[3]);
        r.insert(&[3]);
        assert_eq!(r.len(), 3);
    }
}
