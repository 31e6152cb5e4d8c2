//! Item name interning.

use crate::Item;
use std::borrow::Borrow;
use std::collections::HashMap;

/// Bidirectional mapping between external item names and dense item codes.
///
/// The item base of a [`TransactionDatabase`](crate::TransactionDatabase) is
/// usually given implicitly as the union of all transactions (paper §2.1);
/// the catalog assigns each distinct name the next free code in order of
/// first appearance.
#[derive(Clone, Debug, Default)]
pub struct ItemCatalog {
    names: Vec<String>,
    codes: HashMap<String, Item>,
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
        if let Some(&code) = self.codes.get(name) {
            return code;
        }
        let code = self.names.len() as Item;
        self.names.push(name.to_owned());
        self.codes.insert(name.to_owned(), code);
        code
    }

    /// Looks up the code of an already-interned name.
    pub fn code(&self, name: &str) -> Option<Item> {
        self.codes.get(name).copied()
    }

    /// Looks up the name of a code, given by value or, as iterating a
    /// transaction's `&[Item]` yields it, by reference.
    pub fn name(&self, code: impl Borrow<Item>) -> Option<&str> {
        self.names.get(*code.borrow() as usize).map(String::as_str)
    }

    /// Number of interned items.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates over `(code, name)` pairs in code order.
    pub fn iter(&self) -> impl Iterator<Item = (Item, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(k, n)| (k as Item, n.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
