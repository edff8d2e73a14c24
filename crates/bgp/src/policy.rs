//! The Section 7 policy language: conditions and policies.
//!
//! The language is deliberately small but expressive enough to write the
//! policies operators actually use — filtering, community tagging and
//! preference manipulation, guarded by conditions over the route's path,
//! communities and level.  Its key design property is that **no policy can
//! decrease a route's level**, so every expressible policy is increasing
//! and, by Theorem 11, every configuration written in it converges — the
//! language is *safe by design*.

use crate::route::{BgpRoute, Community, CommunitySet, Level};
use dbf_paths::{NodeId, SimplePath};
use std::fmt;

/// A predicate over routes (the `Condition` data type of Section 7).
#[derive(Clone, PartialEq, Eq, Hash)]
pub enum Condition {
    /// Both sub-conditions hold.
    And(Box<Condition>, Box<Condition>),
    /// At least one sub-condition holds.
    Or(Box<Condition>, Box<Condition>),
    /// The sub-condition does not hold.
    Not(Box<Condition>),
    /// The route's path visits the given node.
    InPath(NodeId),
    /// The route carries the given community.
    InComm(Community),
    /// The route's level equals the given value.
    LprefEq(Level),
}

impl Condition {
    /// `a ∧ b`.
    pub fn and(a: Condition, b: Condition) -> Condition {
        Condition::And(Box::new(a), Box::new(b))
    }

    /// `a ∨ b`.
    pub fn or(a: Condition, b: Condition) -> Condition {
        Condition::Or(Box::new(a), Box::new(b))
    }

    /// `¬a`.
    // An associated constructor of the condition DSL, deliberately named
    // after the connective; it takes the operand by value, unlike
    // `std::ops::Not::not`.
    #[allow(clippy::should_implement_trait)]
    pub fn not(a: Condition) -> Condition {
        Condition::Not(Box::new(a))
    }

    /// Evaluate the condition on a valid route's attributes.
    pub fn evaluate(&self, level: Level, communities: &CommunitySet, path: &SimplePath) -> bool {
        match self {
            Condition::And(a, b) => {
                a.evaluate(level, communities, path) && b.evaluate(level, communities, path)
            }
            Condition::Or(a, b) => {
                a.evaluate(level, communities, path) || b.evaluate(level, communities, path)
            }
            Condition::Not(a) => !a.evaluate(level, communities, path),
            Condition::InPath(node) => path.contains(*node),
            Condition::InComm(c) => communities.contains(*c),
            Condition::LprefEq(l) => level == *l,
        }
    }

    /// Evaluate on a route (`false` on the invalid route, which no policy is
    /// ever applied to anyway).
    pub fn evaluate_route(&self, r: &BgpRoute) -> bool {
        match r {
            BgpRoute::Invalid => false,
            BgpRoute::Valid {
                level,
                communities,
                path,
            } => self.evaluate(*level, communities, path),
        }
    }
}

impl fmt::Debug for Condition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Condition::And(a, b) => write!(f, "({a:?} ∧ {b:?})"),
            Condition::Or(a, b) => write!(f, "({a:?} ∨ {b:?})"),
            Condition::Not(a) => write!(f, "¬{a:?}"),
            Condition::InPath(n) => write!(f, "inPath({n})"),
            Condition::InComm(c) => write!(f, "inComm({c})"),
            Condition::LprefEq(l) => write!(f, "lpref={l}"),
        }
    }
}

/// A route-map policy (the `Policy` data type of Section 7).
#[derive(Clone, PartialEq, Eq, Hash)]
pub enum Policy {
    /// Filter the route.
    Reject,
    /// Increase the level (worsen the route) by the given amount.
    IncrPrefBy(Level),
    /// Add a community tag.
    AddComm(Community),
    /// Remove a community tag.
    DelComm(Community),
    /// Apply the first policy, then the second.
    Compose(Box<Policy>, Box<Policy>),
    /// Apply the policy only if the condition holds, otherwise leave the
    /// route unchanged (Equation 2 of the paper with `h = id`).
    Condition(Box<Condition>, Box<Policy>),
}

impl Policy {
    /// The identity policy (useful as a neutral element when composing).
    pub fn identity() -> Policy {
        Policy::IncrPrefBy(0)
    }

    /// `p ; q` — apply `p` then `q`.
    pub fn then(self, q: Policy) -> Policy {
        Policy::Compose(Box::new(self), Box::new(q))
    }

    /// `if c then p`.
    pub fn when(c: Condition, p: Policy) -> Policy {
        Policy::Condition(Box::new(c), Box::new(p))
    }

    /// Apply the policy to a route (the `apply` function of Section 7).
    pub fn apply(&self, r: &BgpRoute) -> BgpRoute {
        self.apply_owned(r.clone())
    }

    /// [`apply`](Self::apply) on a route the caller no longer needs: the
    /// route is edited in place and no part of it is copied.
    pub(crate) fn apply_owned(&self, mut r: BgpRoute) -> BgpRoute {
        if let BgpRoute::Valid {
            level,
            communities,
            path,
        } = &mut r
        {
            if !self.edit(level, communities, path) {
                return BgpRoute::Invalid;
            }
        }
        r
    }

    /// One walk of the policy tree over a valid route's attributes; `false`
    /// when the route is rejected (the attributes are then unspecified).
    /// Policies cannot touch the path, so every condition sees the path
    /// the route arrived with and the attributes as edited so far.
    fn edit(&self, level: &mut Level, communities: &mut CommunitySet, path: &SimplePath) -> bool {
        match self {
            Policy::Reject => false,
            Policy::IncrPrefBy(x) => {
                *level = level.saturating_add(*x);
                true
            }
            Policy::AddComm(c) => {
                communities.insert(*c);
                true
            }
            Policy::DelComm(c) => {
                communities.remove(*c);
                true
            }
            Policy::Compose(p, q) => {
                p.edit(level, communities, path) && q.edit(level, communities, path)
            }
            Policy::Condition(c, p) => {
                !c.evaluate(*level, communities, path) || p.edit(level, communities, path)
            }
        }
    }

    /// The nesting depth of the policy (a crude complexity measure used by
    /// the benchmarks).
    pub fn depth(&self) -> usize {
        match self {
            Policy::Reject | Policy::IncrPrefBy(_) | Policy::AddComm(_) | Policy::DelComm(_) => 1,
            Policy::Compose(p, q) => 1 + p.depth().max(q.depth()),
            Policy::Condition(_, p) => 1 + p.depth(),
        }
    }
}

impl fmt::Debug for Policy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Policy::Reject => write!(f, "reject"),
            Policy::IncrPrefBy(x) => write!(f, "incrPrefBy({x})"),
            Policy::AddComm(c) => write!(f, "addComm({c})"),
            Policy::DelComm(c) => write!(f, "delComm({c})"),
            Policy::Compose(p, q) => write!(f, "({p:?}; {q:?})"),
            Policy::Condition(c, p) => write!(f, "if {c:?} then {p:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::{random_policy, BgpAlgebra};
    use dbf_algebra::algebra::SplitMix64;
    use dbf_algebra::SampleableAlgebra;

    /// `Policy::apply` as it was before it edited routes in place: a fresh
    /// route at every node of the policy tree.  Kept as the reference the
    /// in-place walk is compared against.
    fn apply_by_copying(policy: &Policy, r: &BgpRoute) -> BgpRoute {
        let (level, communities, path) = match r {
            BgpRoute::Invalid => return BgpRoute::Invalid,
            BgpRoute::Valid {
                level,
                communities,
                path,
            } => (*level, communities.clone(), path.clone()),
        };
        match policy {
            Policy::Reject => BgpRoute::Invalid,
            Policy::IncrPrefBy(x) => BgpRoute::Valid {
                level: level.saturating_add(*x),
                communities,
                path,
            },
            Policy::AddComm(c) => BgpRoute::Valid {
                level,
                communities: communities.with(*c),
                path,
            },
            Policy::DelComm(c) => BgpRoute::Valid {
                level,
                communities: communities.without(*c),
                path,
            },
            Policy::Compose(p, q) => apply_by_copying(q, &apply_by_copying(p, r)),
            Policy::Condition(c, p) => {
                if c.evaluate(level, &communities, &path) {
                    apply_by_copying(p, r)
                } else {
                    r.clone()
                }
            }
        }
    }

    #[test]
    fn in_place_application_agrees_with_the_copying_reference() {
        let routes = BgpAlgebra::new(6).sample_routes(17, 64);
        let mut rng = SplitMix64::new(0x9017C7);
        let mut policies: Vec<Policy> = (0..=3)
            .flat_map(|depth| (0..40).map(move |_| depth))
            .map(|depth| random_policy(&mut rng, depth))
            .collect();
        // A rejection inside a composition (before and after an edit) and
        // behind a condition that holds for some sampled routes and fails
        // for others, then one that always and one that never holds.
        let sometimes = Condition::InComm(1);
        let always = Condition::or(sometimes.clone(), Condition::not(sometimes.clone()));
        policies.extend([
            Policy::AddComm(1).then(Policy::Reject),
            Policy::Reject.then(Policy::AddComm(1)),
            Policy::when(sometimes.clone(), Policy::Reject),
            Policy::AddComm(1).then(Policy::when(sometimes.clone(), Policy::Reject)),
            Policy::DelComm(1).then(Policy::when(sometimes.clone(), Policy::Reject)),
            Policy::when(always.clone(), Policy::IncrPrefBy(2).then(Policy::Reject)),
            Policy::when(Condition::not(always), Policy::Reject).then(Policy::AddComm(3)),
            Policy::when(
                Condition::LprefEq(0),
                Policy::IncrPrefBy(1).then(Policy::when(Condition::LprefEq(1), Policy::AddComm(9))),
            ),
        ]);
        let (mut rejected, mut edited) = (0, 0);
        for policy in &policies {
            for r in &routes {
                let expected = apply_by_copying(policy, r);
                assert_eq!(policy.apply(r), expected, "{policy:?} on {r:?}");
                rejected += usize::from(expected.is_invalid() && !r.is_invalid());
                edited += usize::from(!expected.is_invalid() && expected != *r);
            }
        }
        assert!(rejected > 100 && edited > 100, "{rejected} {edited}");
    }

    fn sample_route() -> BgpRoute {
        BgpRoute::valid(
            10,
            CommunitySet::from_iter([17]),
            SimplePath::from_nodes(vec![3, 4]).unwrap(),
        )
    }

    #[test]
    fn conditions_evaluate_route_attributes() {
        let r = sample_route();
        assert!(Condition::InComm(17).evaluate_route(&r));
        assert!(!Condition::InComm(18).evaluate_route(&r));
        assert!(Condition::InPath(4).evaluate_route(&r));
        assert!(!Condition::InPath(9).evaluate_route(&r));
        assert!(Condition::LprefEq(10).evaluate_route(&r));
        assert!(Condition::and(Condition::InComm(17), Condition::InPath(3)).evaluate_route(&r));
        assert!(Condition::or(Condition::InComm(99), Condition::InPath(3)).evaluate_route(&r));
        assert!(Condition::not(Condition::InComm(99)).evaluate_route(&r));
        assert!(!Condition::InComm(17).evaluate_route(&BgpRoute::Invalid));
    }

    #[test]
    fn policies_apply_per_the_paper_semantics() {
        let r = sample_route();
        assert_eq!(Policy::Reject.apply(&r), BgpRoute::Invalid);
        assert_eq!(Policy::IncrPrefBy(5).apply(&r).level(), Some(15));
        assert!(Policy::AddComm(99)
            .apply(&r)
            .communities()
            .unwrap()
            .contains(99));
        assert!(!Policy::DelComm(17)
            .apply(&r)
            .communities()
            .unwrap()
            .contains(17));
        // every policy fixes the invalid route
        for p in [
            Policy::Reject,
            Policy::IncrPrefBy(3),
            Policy::AddComm(1),
            Policy::DelComm(1),
            Policy::identity(),
        ] {
            assert_eq!(p.apply(&BgpRoute::Invalid), BgpRoute::Invalid);
        }
    }

    #[test]
    fn composition_applies_left_to_right() {
        let r = sample_route();
        let p = Policy::IncrPrefBy(5).then(Policy::AddComm(50));
        let out = p.apply(&r);
        assert_eq!(out.level(), Some(15));
        assert!(out.communities().unwrap().contains(50));
        // reject anywhere in the composition kills the route
        let q = Policy::AddComm(1)
            .then(Policy::Reject)
            .then(Policy::AddComm(2));
        assert_eq!(q.apply(&r), BgpRoute::Invalid);
    }

    #[test]
    fn conditional_policies_dispatch_on_the_condition() {
        let r = sample_route();
        // "if the route carries community 17, raise its level by 100"
        let p = Policy::when(Condition::InComm(17), Policy::IncrPrefBy(100));
        assert_eq!(p.apply(&r).level(), Some(110));
        let untagged = Policy::DelComm(17).apply(&r);
        assert_eq!(
            p.apply(&untagged).level(),
            Some(10),
            "condition fails ⇒ unchanged"
        );
    }

    #[test]
    fn no_policy_can_lower_the_level() {
        // The "safe by design" property at the policy level: whatever the
        // policy, the level never decreases (and the paper's f_{i,j,pol}
        // additionally always lengthens the path).
        let r = sample_route();
        let policies = [
            Policy::Reject,
            Policy::IncrPrefBy(0),
            Policy::IncrPrefBy(7),
            Policy::AddComm(3),
            Policy::DelComm(17),
            Policy::when(Condition::LprefEq(10), Policy::IncrPrefBy(1)),
            Policy::when(Condition::InComm(99), Policy::IncrPrefBy(1)),
            Policy::IncrPrefBy(2).then(Policy::AddComm(8)),
        ];
        for p in policies {
            let out = p.apply(&r);
            if let Some(l) = out.level() {
                assert!(l >= r.level().unwrap(), "policy {p:?} lowered the level");
            }
        }
    }

    #[test]
    fn level_saturates_instead_of_overflowing() {
        let r = BgpRoute::valid(Level::MAX - 1, CommunitySet::empty(), SimplePath::empty());
        let out = Policy::IncrPrefBy(10).apply(&r);
        assert_eq!(out.level(), Some(Level::MAX));
    }

    #[test]
    fn depth_and_debug() {
        let p = Policy::when(
            Condition::and(Condition::InComm(1), Condition::not(Condition::InPath(2))),
            Policy::IncrPrefBy(5).then(Policy::AddComm(9)),
        );
        assert_eq!(p.depth(), 3);
        let s = format!("{p:?}");
        assert!(s.contains("inComm(1)"));
        assert!(s.contains("incrPrefBy(5)"));
        assert!(s.contains("∧"));
    }
}
