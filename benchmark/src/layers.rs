//! The bottom rungs of the layer ladder: timed loops over single public
//! calls of `dbf-algebra`/`dbf-bgp` and `dbf-topology`, run once per
//! traced run.  (The matrix rungs live with the fabric stage, which has
//! the state they need.)

use crate::fabric::adjacency_ladder;
use crate::metrics::Values;
use crate::spans::Spans;
use crate::stage::timed;
use dbf_algebra::algebra::SampleableAlgebra;
use dbf_algebra::prelude::*;
use dbf_bgp::algebra::BgpAlgebra;
use dbf_bgp::gao_rexford::GaoRexford;
use dbf_topology::{generators, TopologyChange};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Nanoseconds per `extend` followed by `choice`, over sampled routes and
/// edges, measured for at least 30 ms.
fn extend_choice_ns<A: SampleableAlgebra>(alg: &A) -> f64 {
    let routes = alg.sample_routes(1, 64);
    let edges = alg.sample_edges(1, 16);
    let mut ops = 0usize;
    let t = Instant::now();
    while t.elapsed() < Duration::from_millis(30) {
        for _ in 0..4096 {
            let r = &routes[ops % routes.len()];
            let other = &routes[(ops / 3) % routes.len()];
            let f = &edges[ops % edges.len()];
            black_box(alg.choice(other, &alg.extend(f, black_box(r))));
            ops += 1;
        }
    }
    t.elapsed().as_nanos() as f64 / ops as f64
}

/// Every rung that needs no stage state.  `nodes` is the serve shape's
/// size (a ring, as the serve traces use).
pub fn ladder(nodes: usize, spans: &mut Spans, v: &mut Values) {
    let id = spans.open("ladder");
    v.insert(
        "algebra.extend_choice_ns.hopcount",
        extend_choice_ns(&BoundedHopCount::new(nodes as u64)),
    );
    v.insert(
        "algebra.extend_choice_ns.shortest",
        extend_choice_ns(&ShortestPaths::new()),
    );
    v.insert(
        "algebra.extend_choice_ns.widest",
        extend_choice_ns(&WidestPaths::new()),
    );
    v.insert(
        "algebra.extend_choice_ns.bgp",
        extend_choice_ns(&BgpAlgebra::new(nodes)),
    );
    v.insert(
        "algebra.extend_choice_ns.gao_rexford",
        extend_choice_ns(&GaoRexford::new(nodes)),
    );

    let ring = generators::ring(nodes);
    let change = [TopologyChange::SetEdge {
        from: 0,
        to: nodes / 2,
        weight: (),
    }];
    let samples: Vec<f64> = (0..200)
        .map(|_| timed(|| black_box(TopologyChange::apply_all(&change, &ring))).1)
        .collect();
    v.insert(
        "topology.apply_change_us",
        crate::stats::median(&samples) * 1e6,
    );
    adjacency_ladder(
        &BoundedHopCount::new(nodes as u64),
        &ring.with_weights(|_, _| 1u64),
        [
            "matrix.adjacency.build_us.serve",
            "matrix.adjacency.diff_us.serve",
            "matrix.state.clone_us.serve",
        ],
        v,
    );
    spans.close(id);
}
