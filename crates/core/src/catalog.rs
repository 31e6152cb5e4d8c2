//! Item name interning.

use crate::Item;
use std::borrow::Borrow;
use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;

/// Marks a free slot of [`ItemCatalog`]'s slot table.
const FREE: u32 = u32::MAX;

/// Bidirectional mapping between external item names and dense item codes.
///
/// The item base of a [`TransactionDatabase`](crate::TransactionDatabase) is
/// usually given implicitly as the union of all transactions (paper §2.1);
/// the catalog assigns each distinct name the next free code in order of
/// first appearance.
///
/// All names live in one string, one after another, and an open-addressing
/// table of codes finds a name's code by its hash (DESIGN.md §27). The
/// hasher is std's [`RandomState`], randomly keyed per catalog, so a
/// hostile input cannot choose names that all probe the same slots.
#[derive(Clone, Default)]
pub struct ItemCatalog {
    /// Every name, in code order.
    text: String,
    /// Where each name ends in `text`; name `c` starts where name `c - 1`
    /// ends.
    ends: Vec<usize>,
    /// A power of two of slots, each a code or [`FREE`], at most half of
    /// them taken; a name's probe starts at its hash and steps forward.
    slots: Vec<u32>,
    hasher: RandomState,
}

impl std::fmt::Debug for ItemCatalog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter().map(|(_, n)| n)).finish()
    }
}

impl ItemCatalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a catalog of `n` anonymous items named `"0"`, `"1"`, ….
    ///
    /// Useful for databases constructed from raw code vectors.
    pub fn anonymous(n: usize) -> Self {
        let mut c = Self::new();
        for k in 0..n {
            c.intern(&k.to_string());
        }
        c
    }

    /// Returns the code for `name`, interning it if it is new.
    pub fn intern(&mut self, name: &str) -> Item {
        if 2 * (self.len() + 1) > self.slots.len() {
            self.grow();
        }
        match self.find(name) {
            Ok(code) => code,
            Err(slot) => {
                let code = Item::try_from(self.len())
                    .ok()
                    .filter(|&c| c != FREE)
                    .expect("more item names than item codes");
                self.text.push_str(name);
                self.ends.push(self.text.len());
                self.slots[slot] = code;
                code
            }
        }
    }

    /// Looks up the code of an already-interned name.
    pub fn code(&self, name: &str) -> Option<Item> {
        if self.slots.is_empty() {
            return None;
        }
        self.find(name).ok()
    }

    /// Looks up the name of a code, given by value or, as iterating a
    /// transaction's `&[Item]` yields it, by reference.
    pub fn name(&self, code: impl Borrow<Item>) -> Option<&str> {
        let code = *code.borrow() as usize;
        let end = *self.ends.get(code)?;
        let start = code.checked_sub(1).map_or(0, |prev| self.ends[prev]);
        Some(&self.text[start..end])
    }

    /// Number of interned items.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Iterates over `(code, name)` pairs in code order.
    pub fn iter(&self) -> impl Iterator<Item = (Item, &str)> {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        starts
            .zip(&self.ends)
            .enumerate()
            .map(|(k, (start, &end))| (k as Item, &self.text[start..end]))
    }

    /// The code of `name`, or the free slot where its probe ended. The
    /// table must have a slot.
    fn find(&self, name: &str) -> Result<Item, usize> {
        let mask = self.slots.len() - 1;
        let mut slot = self.hasher.hash_one(name) as usize & mask;
        loop {
            match self.slots[slot] {
                FREE => return Err(slot),
                code if self.name(code) == Some(name) => return Ok(code),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Doubles the slot table (at least 16 slots) and puts every code back;
    /// the names are distinct, so each goes to the first free slot of its
    /// probe.
    fn grow(&mut self) {
        let mask = (2 * self.slots.len()).max(16) - 1;
        let mut slots = vec![FREE; mask + 1];
        for (code, name) in self.iter() {
            let mut slot = self.hasher.hash_one(name) as usize & mask;
            while slots[slot] != FREE {
                slot = (slot + 1) & mask;
            }
            slots[slot] = code;
        }
        self.slots = slots;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn intern_assigns_sequential_codes() {
        let mut c = ItemCatalog::new();
        assert_eq!(c.intern("a"), 0);
        assert_eq!(c.intern("b"), 1);
        assert_eq!(c.intern("a"), 0);
        assert_eq!(c.len(), 2);
        assert_eq!(c.name(1), Some("b"));
        assert_eq!(c.code("b"), Some(1));
        assert_eq!(c.code("zz"), None);
        assert_eq!(c.name(7), None);
    }

    #[test]
    fn anonymous_catalog() {
        let c = ItemCatalog::anonymous(3);
        assert_eq!(c.len(), 3);
        assert_eq!(c.name(2), Some("2"));
        assert_eq!(c.code("0"), Some(0));
        assert!(!c.is_empty());
        assert!(ItemCatalog::new().is_empty());
    }

    #[test]
    fn iter_yields_code_order() {
        let mut c = ItemCatalog::new();
        c.intern("x");
        c.intern("y");
        let pairs: Vec<_> = c.iter().collect();
        assert_eq!(pairs, vec![(0, "x"), (1, "y")]);
    }

    #[test]
    fn an_empty_catalog_holds_no_name() {
        let c = ItemCatalog::new();
        assert_eq!(c.code(""), None);
        assert_eq!(c.code("a"), None);
        assert_eq!(c.name(0), None);
        assert_eq!(c.iter().count(), 0);
        // the empty name is a name like any other
        let mut c = ItemCatalog::new();
        assert_eq!(c.intern(""), 0);
        assert_eq!(c.intern("a"), 1);
        assert_eq!(c.code(""), Some(0));
        assert_eq!(c.name(0), Some(""));
    }

    /// Names of one byte, of several multi-byte characters and of eight
    /// bytes and more, drawn from a fixed xorshift stream, with repeats.
    fn names(count: usize, mut state: u64) -> Vec<String> {
        const PARTS: &[&str] = &["a", "b", "7", "é", "日本", "\u{a0}", "gene-", "00"];
        (0..count)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let len = match state % 4 {
                    0 => 1,
                    1 => 2 + (state >> 8) as usize % 3,
                    _ => 8 + (state >> 8) as usize % 9,
                };
                (0..len)
                    .map(|k| PARTS[(state >> (4 + 3 * (k % 16))) as usize % PARTS.len()])
                    .collect()
            })
            .collect()
    }

    #[test]
    fn codes_match_a_hash_map_oracle_through_growth() {
        let mut c = ItemCatalog::new();
        let mut oracle: HashMap<String, Item> = HashMap::new();
        let mut order: Vec<String> = Vec::new();
        // from an empty table past several doublings of the 16 first slots
        for name in names(5_000, 0x9e37_79b9_7f4a_7c15) {
            let next = oracle.len() as Item;
            let want = *oracle.entry(name.clone()).or_insert_with(|| {
                order.push(name.clone());
                next
            });
            assert_eq!(c.intern(&name), want, "{name:?}");
            assert_eq!(c.len(), oracle.len());
        }
        assert!(c.len() > 1_000, "{} distinct names", c.len());
        for (name, &code) in &oracle {
            assert_eq!(c.code(name), Some(code));
            assert_eq!(c.name(code), Some(name.as_str()));
        }
        let got: Vec<&str> = c.iter().map(|(_, n)| n).collect();
        assert_eq!(got, order);
        assert!(c
            .iter()
            .enumerate()
            .all(|(k, (code, _))| code as usize == k));
        assert_eq!(c.code("not a drawn name"), None);
        assert_eq!(c.name(c.len() as Item), None);
    }

    #[test]
    fn the_table_stays_at_most_half_full() {
        let mut c = ItemCatalog::new();
        for k in 0..100 {
            c.intern(&format!("item{k}"));
            assert!(
                2 * c.len() <= c.slots.len(),
                "{} in {}",
                c.len(),
                c.slots.len()
            );
        }
        assert_eq!(c.slots.len(), 256);
        assert_eq!(c.slots.iter().filter(|&&s| s != FREE).count(), 100);
    }

    #[test]
    fn a_clone_interns_on_its_own() {
        let mut a = ItemCatalog::new();
        a.intern("x");
        a.intern("y");
        let mut b = a.clone();
        assert_eq!(b.intern("z"), 2);
        assert_eq!(a.intern("w"), 2);
        assert_eq!(a.code("z"), None);
        assert_eq!(b.code("w"), None);
        assert_eq!(b.code("y"), Some(1));
        for k in 0..40 {
            b.intern(&k.to_string());
        }
        assert_eq!(a.len(), 3);
        assert_eq!(a.code("w"), Some(2));
        assert_eq!(b.code("39"), Some(42));
        assert_eq!(format!("{a:?}"), r#"["x", "y", "w"]"#);
    }
}
