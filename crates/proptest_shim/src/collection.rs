//! Collection strategies (`proptest::collection::vec`).

use crate::strategy::Strategy;
use crate::test_runner::TestRng;

/// Length specifications accepted by [`vec()`] (upstream's `SizeRange`
/// conversions, restricted to the forms this workspace uses).
pub trait IntoSizeRange {
    /// Inclusive (lo, hi) length bounds.
    fn bounds(&self) -> (usize, usize);
}

impl IntoSizeRange for core::ops::Range<usize> {
    fn bounds(&self) -> (usize, usize) {
        assert!(self.start < self.end, "empty vec size range");
        (self.start, self.end - 1)
    }
}

impl IntoSizeRange for core::ops::RangeInclusive<usize> {
    fn bounds(&self) -> (usize, usize) {
        assert!(self.start() <= self.end(), "empty vec size range");
        (*self.start(), *self.end())
    }
}

impl IntoSizeRange for usize {
    fn bounds(&self) -> (usize, usize) {
        (*self, *self)
    }
}

/// Strategy for `Vec<S::Value>` with a length drawn from `size`.
pub fn vec<S: Strategy, Z: IntoSizeRange>(element: S, size: Z) -> VecStrategy<S> {
    let (lo, hi) = size.bounds();
    VecStrategy { element, lo, hi }
}

/// See [`vec()`].
#[derive(Clone, Copy, Debug)]
pub struct VecStrategy<S> {
    element: S,
    lo: usize,
    hi: usize,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let len = self.lo + rng.below((self.hi - self.lo + 1) as u64) as usize;
        (0..len).map(|_| self.element.generate(rng)).collect()
    }
}
