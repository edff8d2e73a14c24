//! The one-word `NatInf` against the carrier it replaced.
//!
//! `Old` is the previous representation — `enum { Fin(u64), Inf }` with its
//! derived order and its `min` / `max` / `saturating_add` / `Debug` — kept
//! verbatim as a test-only reference, and `old_*_extend` are the three
//! integer algebras' edge functions as they were written over it.  The
//! packed type and the algebras must agree with them everywhere, with one
//! documented exception: a finite sum of exactly `u64::MAX` lands on the
//! `∞` sentinel, so it reads as `∞` where the enum said `Fin(u64::MAX)`.

use dbf_algebra::prelude::*;
use proptest::prelude::*;
use std::fmt;

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Old {
    Fin(u64),
    Inf,
}

impl Old {
    fn saturating_add(self, other: Old) -> Old {
        match (self, other) {
            (Old::Fin(a), Old::Fin(b)) => match a.checked_add(b) {
                Some(s) => Old::Fin(s),
                None => Old::Inf,
            },
            _ => Old::Inf,
        }
    }

    fn min(self, other: Old) -> Old {
        if self <= other {
            self
        } else {
            other
        }
    }

    fn max(self, other: Old) -> Old {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl fmt::Debug for Old {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Old::Fin(v) => write!(f, "{v}"),
            Old::Inf => write!(f, "∞"),
        }
    }
}

fn old_shortest_extend(f: Old, r: Old) -> Old {
    if r == Old::Inf {
        Old::Inf
    } else {
        f.saturating_add(r)
    }
}

fn old_hopcount_extend(limit: u64, f: u64, r: Old) -> Old {
    match r {
        Old::Inf => Old::Inf,
        Old::Fin(h) => {
            let nh = h.saturating_add(f);
            if nh > limit {
                Old::Inf
            } else {
                Old::Fin(nh)
            }
        }
    }
}

/// The packed value for an old one.  `Fin(u64::MAX)` has no packed
/// counterpart of its own — it is the documented exception and reads `∞`.
fn packed(old: Old) -> NatInf {
    match old {
        Old::Fin(v) => NatInf::try_fin(v).unwrap_or(NatInf::INF),
        Old::Inf => NatInf::INF,
    }
}

/// The values both carriers can hold: everything but `Fin(u64::MAX)`.
const BOUNDARY: [Old; 5] = [
    Old::Fin(0),
    Old::Fin(1),
    Old::Fin(u64::MAX - 2),
    Old::Fin(u64::MAX - 1),
    Old::Inf,
];

fn value() -> impl Strategy<Value = Old> {
    prop_oneof![
        4 => (0u64..10_000).prop_map(Old::Fin),
        4 => (0u64..u64::MAX).prop_map(Old::Fin),
        1 => Just(BOUNDARY[0]),
        1 => Just(BOUNDARY[1]),
        1 => Just(BOUNDARY[2]),
        1 => Just(BOUNDARY[3]),
        1 => Just(BOUNDARY[4]),
    ]
}

/// Every leaf operation and the three algebras on one pair of values.
fn agree_on(a: Old, b: Old) -> TestCaseResult {
    let (pa, pb) = (packed(a), packed(b));
    // representation-independent reads
    prop_assert_eq!(format!("{pa:?}"), format!("{a:?}"));
    prop_assert_eq!(format!("{pa}"), format!("{a:?}"));
    prop_assert_eq!(pa.is_inf(), a == Old::Inf);
    prop_assert_eq!(pa.as_fin().map_or(Old::Inf, Old::Fin), a);
    // order, min, max: exact
    prop_assert_eq!(pa.cmp(&pb), a.cmp(&b));
    prop_assert_eq!(pa.min(pb), packed(a.min(b)));
    prop_assert_eq!(pa.max(pb), packed(a.max(b)));
    // addition: exact but for a finite sum that is the sentinel itself
    let sum = a.saturating_add(b);
    prop_assert_eq!(pa.saturating_add(pb), packed(sum));
    prop_assert_eq!(pa + pb, packed(sum));
    if let (Old::Fin(x), Old::Fin(y)) = (a, b) {
        prop_assert_eq!(
            sum == Old::Fin(u64::MAX),
            x.checked_add(y) == Some(u64::MAX)
        );
    } else {
        prop_assert_eq!(sum, Old::Inf);
    }

    let shortest = ShortestPaths::new();
    prop_assert_eq!(shortest.choice(&pa, &pb), packed(a.min(b)));
    prop_assert_eq!(
        shortest.extend(&shortest.raw_edge(pa), &pb),
        packed(old_shortest_extend(a, b))
    );
    let widest = WidestPaths::new();
    prop_assert_eq!(widest.choice(&pa, &pb), packed(a.max(b)));
    prop_assert_eq!(widest.extend(&pa, &pb), packed(a.min(b)));
    Ok(())
}

fn hopcount_agrees_on(limit: u64, hops: u64, r: Old) -> TestCaseResult {
    let alg = BoundedHopCount::new(limit);
    prop_assert_eq!(
        alg.extend(&hops, &packed(r)),
        packed(old_hopcount_extend(limit, hops, r)),
        "limit={} hops={} r={:?}",
        limit,
        hops,
        r
    );
    Ok(())
}

#[test]
fn the_carrier_is_one_machine_word() {
    assert_eq!(std::mem::size_of::<NatInf>(), 8);
    assert_eq!(std::mem::align_of::<NatInf>(), 8);
}

#[test]
fn every_boundary_pair_agrees() {
    let counts = [1, 2, 15, u64::MAX - 2, u64::MAX - 1, u64::MAX];
    for a in BOUNDARY {
        for b in BOUNDARY {
            agree_on(a, b).unwrap_or_else(|e| panic!("a={a:?} b={b:?}: {e:?}"));
        }
        for limit in counts {
            for hops in counts {
                hopcount_agrees_on(limit, hops, a).unwrap_or_else(|e| panic!("{e:?}"));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn leaf_ops_shortest_and_widest_agree_with_the_enum(a in value(), b in value()) {
        agree_on(a, b)?;
    }

    #[test]
    fn hopcount_agrees_with_the_enum(
        limit in prop_oneof![3 => 1u64..64, 1 => (u64::MAX - 3)..=u64::MAX],
        hops in prop_oneof![3 => 1u64..8, 1 => any::<u64>()],
        r in prop_oneof![2 => (0u64..80).prop_map(Old::Fin), 1 => value()],
    ) {
        hopcount_agrees_on(limit, hops, r)?;
    }

    #[test]
    fn choice_is_min_for_hopcount_too(limit in 1u64..64, a in value(), b in value()) {
        let alg = BoundedHopCount::new(limit);
        prop_assert_eq!(alg.choice(&packed(a), &packed(b)), packed(a.min(b)));
    }
}
