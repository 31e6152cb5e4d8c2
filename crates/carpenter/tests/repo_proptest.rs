//! Model-based property test: the repository prefix tree must behave
//! exactly like a set of item sets.

use fim_carpenter::Repository;
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::HashSet;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn repository_models_a_set(
        ops in vec((vec(0u32..12, 1..8usize), any::<bool>()), 1..60),
    ) {
        let mut repo = Repository::new(12);
        let mut model: HashSet<Vec<u32>> = HashSet::new();
        for (raw, do_insert) in ops {
            let mut items = raw.clone();
            items.sort_unstable();
            items.dedup();
            if do_insert {
                let was_new = repo.insert(&items);
                prop_assert_eq!(was_new, model.insert(items.clone()), "insert {:?}", items);
            } else {
                prop_assert_eq!(repo.contains(items.iter().copied()), model.contains(&items), "contains {:?}", items);
            }
            prop_assert_eq!(repo.len(), model.len());
        }
        // final sweep: membership agrees for every inserted set and for
        // perturbed variants
        for set in &model {
            prop_assert!(repo.contains(set.iter().copied()));
            if set.len() > 1 {
                prop_assert_eq!(repo.contains(set[1..].iter().copied()), model.contains(&set[1..]));
                prop_assert_eq!(
                    repo.contains(set[..set.len() - 1].iter().copied()),
                    model.contains(&set[..set.len() - 1])
                );
            }
        }
    }

    #[test]
    fn subsets_and_supersets_are_distinct_members(base in vec(0u32..10, 2..6usize)) {
        let mut items = base.clone();
        items.sort_unstable();
        items.dedup();
        prop_assume!(items.len() >= 2);
        let mut repo = Repository::new(10);
        repo.insert(&items);
        // no proper prefix/suffix is a member
        for k in 1..items.len() {
            prop_assert!(!repo.contains(items[..k].iter().copied()));
            prop_assert!(!repo.contains(items[k..].iter().copied()));
        }
    }
}
