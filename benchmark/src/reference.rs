//! The reference sweep: a fixed piece of harness-owned work, run beside
//! the measurements, that says how fast the machine is *right now*.
//!
//! The box this benchmark was sized on shares its memory system with other
//! tenants, and for spells of a minute or so everything that touches
//! memory runs 1.2–1.5× slower — too long for a 25 s run to wait out, and
//! segment timing (`stage.rs`) cannot help when no repetition is
//! undisturbed.  Held against a bound, such a spell reads as a regression.
//! So every time the benchmark reports is scaled to *reference speed*:
//! multiplied by [`NOMINAL_NS`] ÷ the run's fastest reference sweep.  On
//! an undisturbed machine of the sizing box's class the factor is 1 and
//! the times are wall seconds; under a co-tenant's load it takes out what
//! the load cost the reference, which (measured over 100 runs) halves the
//! run-to-run spread of every metric.  The sweep is this package's own
//! code and calls nothing of the library, so no change to the library can
//! move it.
//!
//! The sweep is shaped like the σ kernel it stands beside — for each of
//! 1024 rows, fold four other rows into it with max∘min over 1024 columns
//! of `u64`, 8 MB read and 8 MB written — because that is what the
//! measured work was found to slow down with (a pure ALU loop does not
//! slow at all in such a spell, a pointer chase through 16 MB is too
//! erratic to read).

use std::hint::black_box;
use std::time::Instant;

/// The sweep's time on the undisturbed sizing box (a 2-vCPU Xeon
/// 2.1 GHz guest): the median over 100 runs of the fastest sweep per run.
pub const NOMINAL_NS: f64 = 7_200_000.0;

const N: usize = 1024;

pub struct Reference {
    table: Vec<u64>,
    out: Vec<u64>,
    neighbours: Vec<[usize; 4]>,
    fastest_ns: u64,
}

impl Reference {
    pub fn new() -> Reference {
        // A fixed pseudo-random wiring (Knuth's LCG), the same every run.
        let mut s = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 33) as usize % N
        };
        Reference {
            neighbours: (0..N).map(|_| [next(), next(), next(), next()]).collect(),
            table: (0..(N * N) as u64).map(|x| x % 97).collect(),
            out: vec![0; N * N],
            fastest_ns: u64::MAX,
        }
    }

    fn sweep(&mut self) -> u64 {
        for (i, row) in self.out.chunks_mut(N).enumerate() {
            row.fill(0);
            for &k in &self.neighbours[i] {
                let capacity = (k % 90 + 10) as u64;
                for (o, &x) in row.iter_mut().zip(&self.table[k * N..(k + 1) * N]) {
                    *o = (*o).max(x.min(capacity));
                }
            }
        }
        self.out[7]
    }

    /// Sweep `times` times, keeping the fastest sweep seen so far.
    pub fn read(&mut self, times: usize) {
        for _ in 0..times {
            let t = Instant::now();
            black_box(self.sweep());
            self.fastest_ns = self.fastest_ns.min(t.elapsed().as_nanos() as u64);
        }
    }

    /// The fastest sweep so far, in milliseconds.
    pub fn fastest_ms(&self) -> f64 {
        self.fastest_ns as f64 / 1e6
    }

    /// What a measured time is multiplied by to put it at reference
    /// speed.
    pub fn factor(&self) -> f64 {
        NOMINAL_NS / self.fastest_ns as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_factor_is_nominal_over_the_fastest_sweep() {
        let mut r = Reference::new();
        let first = r.sweep();
        assert_eq!(
            first,
            r.sweep(),
            "the sweep is a pure function of the table"
        );
        r.read(3);
        assert!(r.fastest_ns < u64::MAX);
        assert!((r.factor() * r.fastest_ns as f64 - NOMINAL_NS).abs() < 1e-3);
        let seen = r.fastest_ns;
        r.read(2);
        assert!(r.fastest_ns <= seen);
    }
}
