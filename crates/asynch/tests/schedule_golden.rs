//! Golden digests of the schedules the generators emit.
//!
//! Every pinned δ counter downstream (`pinned_counters.txt`, the
//! benchmark's `async.delta.work`) depends on `Schedule::random` drawing
//! from its RNG in one fixed order.  These digests pin `(α, β)` directly,
//! through the public accessors only, so a generator rewrite is held to the
//! cells it produces and not just to what δ happens to make of them.  They
//! were recorded from the generators that wrote every cell through
//! `set_data_time`; a mismatch means a draw moved — fix the generator, never
//! the table.

use dbf_async::{Schedule, ScheduleParams};
use dbf_matrix::blocked::Fnv1a;
use std::fmt::Write as _;

/// FNV-1a over every activation bit and every data time, in `(t, i, j)`
/// order.
fn digest(s: &Schedule) -> u64 {
    let mut h: Fnv1a = Fnv1a::default();
    let n = s.node_count();
    for t in 1..=s.horizon() {
        for i in 0..n {
            // (writing into a digest cannot fail)
            let _ = write!(h, "{}", u8::from(s.activates(t, i)));
            for j in 0..n {
                let _ = write!(h, ",{}", s.data_time(t, i, j));
            }
            let _ = write!(h, ";");
        }
    }
    h.value()
}

#[test]
fn random_schedules_are_the_recorded_ones() {
    let mut got = Vec::new();
    for (n, horizon) in [(5, 120), (20, 400)] {
        for params in [ScheduleParams::default(), ScheduleParams::harsh()] {
            for seed in [1, 7, 1001] {
                got.push(digest(&Schedule::random(n, horizon, params, seed)));
            }
        }
    }
    assert_eq!(got, GOLDEN_RANDOM, "got {got:#018x?}");
}

#[test]
fn adversarial_schedules_are_the_recorded_ones() {
    let got = [
        digest(&Schedule::adversarial_stale(5, 120, 2, 3, 4)),
        digest(&Schedule::adversarial_stale(20, 400, 19, 7, 15)),
    ];
    assert_eq!(got, GOLDEN_ADVERSARIAL, "got {got:#018x?}");
}

const GOLDEN_RANDOM: [u64; 12] = [
    0xc0f2d59ce0598f7d,
    0x37d6ea80bdf0d85d,
    0x508998b096958ced,
    0x84481f8e1e94a58c,
    0xc70f649e8b24fd2b,
    0x584e7357d0b6c37d,
    0x994cd7d7e7f1b9f5,
    0x4059812f8dbf01b2,
    0xf65654af30f1c15e,
    0xf4a6d2d40a3d02e0,
    0x4f97e29bbf89cb06,
    0x3f7f08a94e5416e4,
];
const GOLDEN_ADVERSARIAL: [u64; 2] = [0xb54369888e4143cb, 0x286decb7fb45599c];
