//! The two seeded message-level engines land on σ's fixed point on the
//! `policy-rich-bgp` builtin's network at the repo benchmark's size and at
//! twice it.
//!
//! `connected_random(n, 0.4, 5)` with depth-2 Section 7 policies from
//! policy seed `0xBEEF`, n = 20 (what `policy-diff` runs) and n = 40 (where
//! the degree doubles and no builtin or workload reaches), under the
//! builtin's second-phase faults: 20 % loss and duplication for the event
//! simulator, two session resets for the BGP wire engine.

use dbf_async::prelude::*;
use dbf_bgp::prelude::*;
use dbf_matrix::prelude::*;
use dbf_protocols::prelude::*;
use dbf_scenario::run::policy_for_edge;
use dbf_topology::generators;

#[test]
fn sim_and_bgp_land_on_sigmas_fixed_point_at_the_benchmark_size_and_twice_it() {
    for n in [20usize, 40] {
        let alg = BgpAlgebra::new(n);
        let topo = generators::connected_random(n, 0.4, 5)
            .with_weights(|i, j| policy_for_edge(0xBEEF, i, j, 2));
        let adj = alg.adjacency_from_topology(&topo);
        let x0 = RoutingState::identity(&alg, n);
        let reference = iterate_to_fixed_point(&alg, &adj, &x0, 4 * n);
        assert!(reference.converged);

        let cfg = SimConfig {
            loss_prob: 0.2,
            duplicate_prob: 0.2,
            seed: 1,
            refresh_rounds: 64,
            ..SimConfig::default()
        };
        let out = EventSim::new(&alg, &adj, cfg).run();
        assert!(out.sigma_stable && !out.truncated, "sim at n = {n}");
        assert!(
            out.final_state == reference.state,
            "sim missed σ's fixed point at n = {n}"
        );
        assert!(out.stats.lost > 0 && out.stats.duplicated > 0);

        let cfg = BgpConfig {
            max_delay: 5,
            session_resets: 2,
            max_time: 200_000,
            seed: 1,
            ..BgpConfig::default()
        };
        let report = BgpEngine::from_parts(alg, adj, cfg).run();
        assert!(report.converged, "bgp did not converge at n = {n}");
        assert!(
            report.final_state == reference.state,
            "bgp missed σ's fixed point at n = {n}"
        );
    }
}
