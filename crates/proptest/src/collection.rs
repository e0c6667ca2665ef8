//! Collection strategies (`proptest::collection::vec`).

use std::ops::{Range, RangeInclusive};

use crate::strategy::Strategy;
use crate::test_runner::TestRng;

/// A length specification accepted by [`vec()`]: an exact `usize`, `a..b`, or
/// `a..=b`.
#[derive(Clone, Copy, Debug)]
pub struct SizeRange {
    lo: usize,
    hi_inclusive: usize,
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange {
            lo: n,
            hi_inclusive: n,
        }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        assert!(r.start < r.end, "empty vec size range");
        SizeRange {
            lo: r.start,
            hi_inclusive: r.end - 1,
        }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> Self {
        assert!(r.start() <= r.end(), "empty vec size range");
        SizeRange {
            lo: *r.start(),
            hi_inclusive: *r.end(),
        }
    }
}

/// Generates a `Vec` of values from `element`, with a length drawn from
/// `size`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}

/// The strategy returned by [`vec()`].
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let span = (self.size.hi_inclusive - self.size.lo) as u64 + 1;
        let len = self.size.lo + rng.below(span) as usize;
        (0..len).map(|_| self.element.generate(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lengths_respect_spec() {
        let mut rng = TestRng::for_case("collection::lengths", 0);
        let ranged = vec(0u64..10, 2..5);
        let exact = vec(0u64..10, 7usize);
        for _ in 0..200 {
            let v = ranged.generate(&mut rng);
            assert!((2..5).contains(&v.len()));
            assert_eq!(exact.generate(&mut rng).len(), 7);
        }
    }
}
