//! The value algebra range-sum engines operate over.
//!
//! Section 2 of the paper notes that the techniques apply to SUM, COUNT,
//! AVERAGE, ROLLING SUM/AVERAGE, "and any binary operator ⊕ for which there
//! exists an inverse binary operator ⊖ such that a ⊕ b ⊖ b = a" — i.e. any
//! commutative group. [`GroupValue`] captures exactly that contract; MIN and
//! MAX have no inverse and deliberately have no instance.

use std::fmt::Debug;
use std::num::Wrapping;

/// A commutative group: associative, commutative ⊕ with identity and
/// inverse. All engines in this crate are generic over it.
///
/// `Send + Sync` are supertraits because the concurrent wrappers
/// ([`crate::SharedEngine`], [`crate::VersionedEngine`]) serve one
/// engine's cells to reader threads.
///
/// Laws (checked by property tests in `tests/value_laws.rs`):
/// * `a ⊕ zero = a`
/// * `a ⊕ b = b ⊕ a`
/// * `(a ⊕ b) ⊕ c = a ⊕ (b ⊕ c)`
/// * `a ⊕ b ⊖ b = a`
///
/// Floating-point instances satisfy these laws only approximately; the
/// engines remain *usable* with `f64` (as OLAP systems are in practice) but
/// exactness guarantees hold for the integer instances.
pub trait GroupValue: Clone + PartialEq + Debug + Send + Sync + 'static {
    /// The group identity (0 for sums).
    fn zero() -> Self;

    /// The group operation ⊕ (addition for sums).
    #[must_use]
    fn add(&self, other: &Self) -> Self;

    /// The inverse element (negation for sums).
    #[must_use]
    fn neg(&self) -> Self;

    /// `self ⊖ other`, defaulting to `self ⊕ (−other)`.
    #[must_use]
    fn sub(&self, other: &Self) -> Self {
        self.add(&other.neg())
    }

    /// In-place ⊕, the hot-path form used by array sweeps.
    fn add_assign(&mut self, other: &Self) {
        *self = self.add(other);
    }

    /// In-place ⊖.
    fn sub_assign(&mut self, other: &Self) {
        *self = self.sub(other);
    }

    /// Whether this value is the identity.
    fn is_zero(&self) -> bool {
        *self == Self::zero()
    }

    /// `self ⊕ self ⊕ … ⊕ self`, `count` times (`zero()` when `count`
    /// is 0) — the "n·x" of the group, needed by the range-update fast
    /// paths, where one stored cell absorbs the deltas of many source
    /// cells at once.
    ///
    /// Default: double-and-add, O(log count) group operations, exact for
    /// every lawful group. The fixed-width integer instances override it
    /// with a wrapping machine multiply, which agrees with repeated
    /// wrapping addition modulo 2^w; the float instances override with a
    /// plain multiply (the usual approximate-group caveat applies).
    #[must_use]
    fn scale(&self, count: u64) -> Self {
        let mut acc = Self::zero();
        let mut base = self.clone();
        let mut n = count;
        while n > 0 {
            if n & 1 == 1 {
                acc.add_assign(&base);
            }
            n >>= 1;
            if n > 0 {
                base = base.add(&base);
            }
        }
        acc
    }
}

macro_rules! impl_group_for_int {
    ($($t:ty),*) => {$(
        impl GroupValue for $t {
            #[inline]
            fn zero() -> Self { 0 }
            #[inline]
            fn add(&self, other: &Self) -> Self { self.wrapping_add(*other) }
            #[inline]
            fn neg(&self) -> Self { self.wrapping_neg() }
            #[inline]
            fn sub(&self, other: &Self) -> Self { self.wrapping_sub(*other) }
            #[inline]
            fn add_assign(&mut self, other: &Self) { *self = self.wrapping_add(*other); }
            #[inline]
            fn sub_assign(&mut self, other: &Self) { *self = self.wrapping_sub(*other); }
            #[inline]
            // lint:allow(L4): truncation is the point — scaling by count mod 2^w
            // is exactly repeated wrapping addition in Z/2^w.
            fn scale(&self, count: u64) -> Self { self.wrapping_mul(count as $t) }
        }
    )*};
}

// Wrapping arithmetic makes every fixed-width integer a genuine group
// (two's complement Z/2^w), so the inclusion–exclusion identities hold even
// under overflow instead of panicking in debug builds.
impl_group_for_int!(i8, i16, i32, i64, i128, u8, u16, u32, u64, u128);

macro_rules! impl_group_for_float {
    ($($t:ty),*) => {$(
        impl GroupValue for $t {
            #[inline]
            fn zero() -> Self { 0.0 }
            #[inline]
            fn add(&self, other: &Self) -> Self { self + other }
            #[inline]
            fn neg(&self) -> Self { -self }
            #[inline]
            fn sub(&self, other: &Self) -> Self { self - other }
            #[inline]
            fn add_assign(&mut self, other: &Self) { *self += other; }
            #[inline]
            fn sub_assign(&mut self, other: &Self) { *self -= other; }
            #[inline]
            // lint:allow(L4): floats are an approximate group anyway; a single
            // multiply loses no more than the repeated-addition default.
            fn scale(&self, count: u64) -> Self { self * (count as $t) }
        }
    )*};
}

impl_group_for_float!(f32, f64);

macro_rules! impl_group_for_wrapping {
    ($($t:ty),*) => {$(
        impl GroupValue for Wrapping<$t> {
            #[inline]
            fn zero() -> Self { Wrapping(0) }
            #[inline]
            fn add(&self, other: &Self) -> Self { *self + *other }
            #[inline]
            fn neg(&self) -> Self { Wrapping(0) - *self }
            #[inline]
            fn sub(&self, other: &Self) -> Self { *self - *other }
        }
    )*};
}

impl_group_for_wrapping!(u32, u64, i32, i64);

/// A (sum, count) pair: the group product used to derive AVERAGE range
/// queries from two SUM-style aggregations (paper §2).
///
/// ```
/// use rps_core::value::{GroupValue, SumCount};
/// let a = SumCount::new(10i64, 2);
/// let b = SumCount::new(5, 1);
/// let c = a.add(&b);
/// assert_eq!(c.average_f64(), Some(5.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SumCount<T> {
    /// Accumulated sum of the measure attribute.
    pub sum: T,
    /// Number of contributing facts.
    pub count: i64,
}

impl<T> SumCount<T> {
    /// A pair from a sum and a fact count.
    pub fn new(sum: T, count: i64) -> Self {
        SumCount { sum, count }
    }
}

impl SumCount<i64> {
    /// `sum / count` as a float, or `None` for an empty region.
    pub fn average_f64(&self) -> Option<f64> {
        // lint:allow(L4): averages are reporting output; f64 rounding is acceptable
        (self.count != 0).then(|| self.sum as f64 / self.count as f64)
    }
}

impl SumCount<f64> {
    /// `sum / count`, or `None` for an empty region.
    pub fn average(&self) -> Option<f64> {
        // lint:allow(L4): averages are reporting output; f64 rounding is acceptable
        (self.count != 0).then(|| self.sum / self.count as f64)
    }
}

impl<T: GroupValue> GroupValue for SumCount<T> {
    fn zero() -> Self {
        SumCount {
            sum: T::zero(),
            count: 0,
        }
    }

    fn add(&self, other: &Self) -> Self {
        SumCount {
            sum: self.sum.add(&other.sum),
            count: self.count.wrapping_add(other.count),
        }
    }

    fn neg(&self) -> Self {
        SumCount {
            sum: self.sum.neg(),
            count: self.count.wrapping_neg(),
        }
    }
}

/// A pair of independent group values; lets one engine maintain two
/// measures at once (e.g. SALES and UNITS) with a single structure.
impl<A: GroupValue, B: GroupValue> GroupValue for (A, B) {
    fn zero() -> Self {
        (A::zero(), B::zero())
    }

    fn add(&self, other: &Self) -> Self {
        (self.0.add(&other.0), self.1.add(&other.1))
    }

    fn neg(&self) -> Self {
        (self.0.neg(), self.1.neg())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_group_laws_smoke() {
        let a = 17i64;
        let b = -4i64;
        assert_eq!(GroupValue::add(&a, &i64::zero()), a);
        assert_eq!(GroupValue::sub(&GroupValue::add(&a, &b), &b), a);
        assert_eq!(GroupValue::add(&a, &b), GroupValue::add(&b, &a));
    }

    #[test]
    fn int_wrapping_behaviour() {
        let a = i64::MAX;
        let b = 1i64;
        // Group laws hold even across overflow.
        assert_eq!(GroupValue::sub(&GroupValue::add(&a, &b), &b), a);
    }

    #[test]
    fn unsigned_group_has_inverse() {
        let a = 5u32;
        assert_eq!(GroupValue::add(&a, &a.neg()), 0);
        assert_eq!(GroupValue::sub(&3u32, &5u32), 3u32.wrapping_sub(5));
    }

    #[test]
    fn float_group_smoke() {
        let a = 1.5f64;
        let b = 2.25f64;
        assert_eq!(GroupValue::sub(&GroupValue::add(&a, &b), &b), a);
    }

    #[test]
    fn sum_count_average() {
        let mut acc = SumCount::<i64>::zero();
        for v in [10, 20, 30] {
            acc.add_assign(&SumCount::new(v, 1));
        }
        assert_eq!(acc.sum, 60);
        assert_eq!(acc.count, 3);
        assert_eq!(acc.average_f64(), Some(20.0));
        assert_eq!(SumCount::<i64>::zero().average_f64(), None);
    }

    #[test]
    fn sum_count_inverse() {
        let a = SumCount::new(42i64, 7);
        assert_eq!(GroupValue::add(&a, &a.neg()), SumCount::zero());
    }

    #[test]
    fn pair_group() {
        let a = (1i64, 2.0f64);
        let b = (3i64, 4.0f64);
        assert_eq!(GroupValue::add(&a, &b), (4, 6.0));
        assert_eq!(GroupValue::sub(&GroupValue::add(&a, &b), &b), a);
    }

    #[test]
    fn is_zero() {
        assert!(0i64.is_zero());
        assert!(!3i64.is_zero());
        assert!(SumCount::<i64>::zero().is_zero());
    }

    #[test]
    fn scale_matches_repeated_addition() {
        for count in [0u64, 1, 2, 7, 63, 64, 1000] {
            let mut want = 0i64;
            for _ in 0..count {
                want = want.wrapping_add(-13);
            }
            assert_eq!((-13i64).scale(count), want, "count {count}");
            // The composite default (double-and-add) agrees too.
            let sc = SumCount::new(-13i64, 2);
            let mut acc = SumCount::zero();
            for _ in 0..count {
                acc.add_assign(&sc);
            }
            assert_eq!(sc.scale(count), acc, "count {count}");
        }
    }

    #[test]
    fn scale_wraps_like_repeated_wrapping_addition() {
        // i8 exercises the truncating cast: count mod 2^8 is what matters.
        let x = 100i8;
        assert_eq!(x.scale(300), x.wrapping_mul((300 % 256) as i8));
        // Large i64 values wrap exactly like the sum would.
        let big = i64::MAX / 2 + 7;
        assert_eq!(big.scale(5), big.wrapping_mul(5));
    }
}
