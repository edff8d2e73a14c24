//! `ℕ∞` — the natural numbers extended with a point at infinity.
//!
//! This is the carrier set of the shortest-path, longest-path and
//! widest-path algebras of Table 2.  The type deliberately has *no*
//! intrinsic preference order beyond the numeric one: whether `∞` is the
//! best or worst route depends on the algebra's choice operator (it is the
//! invalid route for shortest paths but the trivial route for longest and
//! widest paths).
//!
//! The representation is one machine word: `u64::MAX` is `∞` and the
//! finite range is `0..=u64::MAX − 1`, so the derived order is the numeric
//! order with `∞` last and `min`/`max`/`saturating_add` are the `u64`
//! operations.  The leaf operations are `#[inline]` because no profile in
//! this repository enables LTO: without the attribute the σ row kernel in
//! `dbf-matrix` pays an indirect call per table entry.

#![warn(clippy::missing_inline_in_public_items)]

use std::fmt;
use std::ops::Add;

/// A natural number or infinity.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(transparent)]
pub struct NatInf(u64);

impl NatInf {
    /// The point at infinity.
    pub const INF: NatInf = NatInf(u64::MAX);

    /// The zero constant.
    pub const ZERO: NatInf = NatInf(0);

    /// Construct a finite value.
    ///
    /// # Panics
    ///
    /// Panics on `u64::MAX`, which is the representation of `∞` and not a
    /// finite value; outside input goes through [`NatInf::try_fin`].
    #[inline]
    pub fn fin(v: u64) -> Self {
        assert!(v != u64::MAX, "u64::MAX is ∞, not a finite value");
        NatInf(v)
    }

    /// Construct a finite value, or `None` for `u64::MAX` (the sentinel
    /// that represents `∞`).
    #[inline]
    pub fn try_fin(v: u64) -> Option<Self> {
        (v != u64::MAX).then_some(NatInf(v))
    }

    /// A count that saturates at `u64::MAX` (a hop count, a
    /// `u64::saturating_add` sum) as a point of `ℕ∞`: the saturated value
    /// *is* `∞`, so this is the identity on the representation.
    #[inline]
    pub(crate) fn saturated(v: u64) -> Self {
        NatInf(v)
    }

    /// Is this the point at infinity?
    #[inline]
    pub fn is_inf(&self) -> bool {
        self.0 == u64::MAX
    }

    /// Is this a finite value?
    #[inline]
    pub fn is_fin(&self) -> bool {
        !self.is_inf()
    }

    /// The finite value, if any.
    #[inline]
    pub fn as_fin(&self) -> Option<u64> {
        self.is_fin().then_some(self.0)
    }

    /// Saturating addition: `∞ + x = x + ∞ = ∞`, finite values add and
    /// saturate at `∞` on overflow (a finite sum of exactly `u64::MAX` is
    /// `∞` too).
    #[inline]
    pub fn saturating_add(self, other: NatInf) -> NatInf {
        NatInf(self.0.saturating_add(other.0))
    }

    /// Minimum under the numeric order (with `∞` as maximum).
    #[inline]
    pub fn min(self, other: NatInf) -> NatInf {
        NatInf(self.0.min(other.0))
    }

    /// Maximum under the numeric order (with `∞` as maximum).
    #[inline]
    pub fn max(self, other: NatInf) -> NatInf {
        NatInf(self.0.max(other.0))
    }
}

impl Add for NatInf {
    type Output = NatInf;

    #[inline]
    fn add(self, rhs: NatInf) -> NatInf {
        self.saturating_add(rhs)
    }
}

impl fmt::Debug for NatInf {
    #[allow(clippy::missing_inline_in_public_items)]
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.as_fin() {
            Some(v) => fmt::Display::fmt(&v, f),
            None => f.write_str("∞"),
        }
    }
}

impl fmt::Display for NatInf {
    #[allow(clippy::missing_inline_in_public_items)]
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_puts_infinity_last() {
        assert!(NatInf::fin(0) < NatInf::fin(1));
        assert!(NatInf::fin(u64::MAX - 1) < NatInf::INF);
        assert!(NatInf::INF <= NatInf::INF);
    }

    #[test]
    fn addition_is_saturating() {
        assert_eq!(NatInf::fin(2) + NatInf::fin(3), NatInf::fin(5));
        assert_eq!(NatInf::fin(2) + NatInf::INF, NatInf::INF);
        assert_eq!(NatInf::INF + NatInf::fin(2), NatInf::INF);
        assert_eq!(NatInf::INF + NatInf::INF, NatInf::INF);
        assert_eq!(NatInf::fin(u64::MAX - 1) + NatInf::fin(2), NatInf::INF);
        // The one narrowing of the packed carrier: a finite sum that lands
        // exactly on the sentinel reads as ∞.
        assert_eq!(NatInf::fin(u64::MAX - 1) + NatInf::fin(1), NatInf::INF);
    }

    #[test]
    fn min_max_agree_with_ord() {
        assert_eq!(NatInf::fin(2).min(NatInf::fin(7)), NatInf::fin(2));
        assert_eq!(NatInf::fin(2).max(NatInf::fin(7)), NatInf::fin(7));
        assert_eq!(NatInf::INF.min(NatInf::fin(7)), NatInf::fin(7));
        assert_eq!(NatInf::INF.max(NatInf::fin(7)), NatInf::INF);
    }

    #[test]
    fn accessors() {
        assert!(NatInf::INF.is_inf());
        assert!(!NatInf::INF.is_fin());
        assert_eq!(NatInf::fin(4).as_fin(), Some(4));
        assert_eq!(NatInf::INF.as_fin(), None);
    }

    #[test]
    fn the_sentinel_is_not_a_finite_value() {
        assert_eq!(NatInf::try_fin(u64::MAX), None);
        assert_eq!(
            NatInf::try_fin(u64::MAX - 1),
            Some(NatInf::fin(u64::MAX - 1))
        );
        assert_eq!(NatInf::try_fin(0), Some(NatInf::ZERO));
    }

    #[test]
    #[should_panic(expected = "not a finite value")]
    fn fin_rejects_the_sentinel() {
        let _ = NatInf::fin(u64::MAX);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", NatInf::fin(12)), "12");
        assert_eq!(format!("{}", NatInf::INF), "∞");
        assert_eq!(format!("{:?}", NatInf::INF), "∞");
    }
}
