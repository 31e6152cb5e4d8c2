//! A minimal, dependency-free, offline drop-in for the subset of the
//! `proptest` API this workspace uses.
//!
//! The build environment has no access to crates.io, so the workspace
//! resolves the `proptest` dependency to this crate by path. Provided
//! surface: the [`Strategy`] trait with `prop_map` / `prop_flat_map`,
//! strategies for integer and float ranges, tuples, [`collection::vec`],
//! [`any`] / [`Arbitrary`], [`Just`], [`test_runner::TestRng`],
//! `ProptestConfig::with_cases`, and the [`proptest!`] /
//! [`prop_assert!`] / [`prop_assert_eq!`] / [`prop_assert_ne!`] /
//! [`prop_oneof!`] macros.
//!
//! Differences from upstream: value generation is deterministic per
//! (test name, case index, run seed) and there is **no shrinking** — a
//! failing case reports its case index and the run seed, and panics with
//! the original assertion message. The run seed is `FIM_PROPTEST_SEED`
//! ([`test_runner::run_seed`]); unset, every run replays the same cases.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod collection;
pub mod strategy;
pub mod test_runner;

pub use strategy::{any, Arbitrary, Just, Strategy, Union};
pub use test_runner::{ProptestConfig, TestRng};

/// Everything a test module usually imports, mirroring
/// `proptest::prelude::*`.
pub mod prelude {
    pub use crate::strategy::{any, Arbitrary, Just, Strategy, Union};
    pub use crate::test_runner::{ProptestConfig, TestRng};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

/// Uniform choice among listed strategies (the unweighted form of
/// upstream's `prop_oneof!`; per-option weights are not supported).
#[macro_export]
macro_rules! prop_oneof {
    ($($s:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![$($crate::strategy::boxed($s)),+])
    };
}

/// Defines deterministic property tests.
///
/// Supported grammar (the subset this workspace uses):
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))]
///     #[test]
///     fn my_property(x in 0u32..10, v in vec(any::<bool>(), 0..5)) {
///         prop_assert!(x < 10);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::proptest!(@impl ($config) $($rest)*);
    };
    (@impl ($config:expr) $(
        $(#[$meta:meta])+
        fn $name:ident ( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
    )*) => {
        $(
            $(#[$meta])+
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $config;
                for case in 0..config.cases {
                    let mut rng = $crate::test_runner::TestRng::for_case(
                        concat!(module_path!(), "::", stringify!($name)),
                        case as u64,
                    );
                    $(
                        let $arg = $crate::strategy::Strategy::generate(
                            &($strat),
                            &mut rng,
                        );
                    )+
                    let run = || -> () { $body };
                    if let Err(panic) = ::std::panic::catch_unwind(
                        ::std::panic::AssertUnwindSafe(run),
                    ) {
                        eprintln!(
                            "proptest: {} failed at case {case}/{} ({}; no shrinking)",
                            stringify!($name),
                            config.cases,
                            $crate::test_runner::seed_note(),
                        );
                        ::std::panic::resume_unwind(panic);
                    }
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@impl ($crate::test_runner::ProptestConfig::default()) $($rest)*);
    };
}

/// Skips the current case when the assumption does not hold. Upstream
/// rejects and regenerates; this shim simply returns from the case body,
/// so heavy rejection shows up as fewer effective cases, not a hang.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(, $($fmt:tt)+)?) => {
        if !($cond) {
            return;
        }
    };
}

/// Asserts a condition inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Asserts equality inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Asserts inequality inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

#[cfg(test)]
mod tests {
    use crate::collection::vec;
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_respect_bounds(x in 3u32..9, y in 1usize..=4, f in 0.25f64..0.75) {
            prop_assert!((3..9).contains(&x));
            prop_assert!((1..=4).contains(&y));
            prop_assert!((0.25..0.75).contains(&f));
        }

        #[test]
        fn vec_sizes(v in vec(0u32..5, 2..6usize)) {
            prop_assert!(v.len() >= 2 && v.len() < 6);
            prop_assert!(v.iter().all(|&x| x < 5));
        }

        #[test]
        fn maps_and_flat_maps(v in (1u32..5).prop_flat_map(|n| {
            vec(0u32..n, n as usize..=n as usize).prop_map(move |v| (n, v))
        })) {
            let (n, items) = v;
            prop_assert_eq!(items.len(), n as usize);
            prop_assert!(items.iter().all(|&x| x < n));
        }

        #[test]
        fn tuples_and_any(pair in (0u32..4, any::<bool>()), j in Just(7u8)) {
            prop_assert!(pair.0 < 4);
            prop_assert_eq!(j, 7);
            let _: bool = pair.1;
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = TestRng::for_case("seed-test", 3);
        let mut b = TestRng::for_case("seed-test", 3);
        let s = vec(0u32..1000, 5..10usize);
        assert_eq!(s.generate(&mut a), s.generate(&mut b));
    }

    #[test]
    fn a_run_seed_draws_new_streams_and_none_keeps_the_fixed_ones() {
        let first = |seed| TestRng::for_case_seeded("seed-test", 3, seed).next_u64();
        // the stream every run drew before run seeds existed
        assert_eq!(first(None), 0xeef5_0434_0447_422d);
        assert_eq!(first(Some(7)), first(Some(7)));
        assert_ne!(first(Some(7)), first(None));
        assert_ne!(first(Some(7)), first(Some(8)));
    }
}
