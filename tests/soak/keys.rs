//! Key-choice distributions for the drivers: uniform and Zipfian.
//!
//! The Zipfian sampler follows the YCSB construction (Gray et al.'s
//! "Quickly generating billion-record synthetic databases" formula): for a
//! keyspace of `n` items with skew `theta`, item rank `r` is drawn with
//! probability proportional to `1 / r^theta` in O(1) per sample using the
//! closed-form zeta approximations — no per-sample table walk, so hot-key
//! skew costs nothing even for large keyspaces. Sampled ranks are scattered
//! over the keyspace by a fixed multiplicative hash so the hot keys are not
//! simply `0, 1, 2, …` (matching YCSB's `ScrambledZipfianGenerator`).

use rand::rngs::StdRng;
use rand::Rng;

/// Which distribution the driver draws keys from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyDist {
    Uniform,
    /// Zipfian with the given theta (YCSB default 0.99).
    Zipfian(f64),
}

/// A sampler over `0..n` for one [`KeyDist`].
pub struct KeyChooser {
    n: u64,
    kind: ChooserKind,
}

enum ChooserKind {
    Uniform,
    Zipfian {
        theta: f64,
        alpha: f64,
        zetan: f64,
        eta: f64,
        /// Multiplier coprime with `n`: `rank * scramble % n` is a
        /// permutation of the keyspace.
        scramble: u64,
    },
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Harmonic-ish zeta(n, theta) = sum_{i=1..n} 1/i^theta. O(n) once at
/// construction — fine for driver keyspaces (≤ millions).
fn zeta(n: u64, theta: f64) -> f64 {
    let mut sum = 0.0;
    for i in 1..=n {
        sum += 1.0 / (i as f64).powf(theta);
    }
    sum
}

impl KeyChooser {
    pub fn new(dist: KeyDist, n: u64) -> KeyChooser {
        assert!(n > 0, "empty keyspace");
        let kind = match dist {
            KeyDist::Uniform => ChooserKind::Uniform,
            KeyDist::Zipfian(theta) => {
                let zetan = zeta(n, theta);
                let zeta2 = zeta(2.min(n), theta);
                let alpha = 1.0 / (1.0 - theta);
                let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
                let mut scramble = (0x9E37_79B9_7F4A_7C15u64 % n).max(1);
                while gcd(scramble, n) != 1 {
                    scramble = (scramble + 1) % n.max(2);
                    scramble = scramble.max(1);
                }
                ChooserKind::Zipfian {
                    theta,
                    alpha,
                    zetan,
                    eta,
                    scramble,
                }
            }
        };
        KeyChooser { n, kind }
    }

    /// Draw a key in `0..n`.
    pub fn next(&self, rng: &mut StdRng) -> u64 {
        match &self.kind {
            ChooserKind::Uniform => rng.gen_range(0..self.n),
            ChooserKind::Zipfian {
                theta,
                alpha,
                zetan,
                eta,
                scramble,
            } => {
                let u: f64 = rng.gen_range(0.0..1.0);
                let uz = u * zetan;
                let rank = if uz < 1.0 {
                    0
                } else if uz < 1.0 + 0.5f64.powf(*theta) && self.n >= 2 {
                    1
                } else {
                    ((self.n as f64) * (eta * u - eta + 1.0).powf(*alpha)) as u64
                };
                let rank = rank.min(self.n - 1);
                // Scatter ranks across the keyspace so the hottest keys
                // are spread out (as in YCSB's scrambled Zipfian), via a
                // coprime multiplier so the map stays a bijection.
                ((rank as u128 * *scramble as u128) % self.n as u128) as u64
            }
        }
    }
}
