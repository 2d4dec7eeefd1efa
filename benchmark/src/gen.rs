//! Seeded input generation: a small PRNG, the YCSB Zipfian sampler and a
//! stream hash. Everything a workload draws comes from here, so the same
//! `--seed` always yields the same inputs.

/// xoshiro256** seeded through SplitMix64.
#[derive(Clone)]
pub struct Rng {
    s: [u64; 4],
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    pub fn new(seed: u64) -> Rng {
        let mut st = seed;
        Rng {
            s: [
                splitmix(&mut st),
                splitmix(&mut st),
                splitmix(&mut st),
                splitmix(&mut st),
            ],
        }
    }

    /// An independent generator for sub-stream `lane` of `seed` (one per
    /// client, one for the data set, ...).
    pub fn lane(seed: u64, lane: u64) -> Rng {
        Rng::new(seed ^ lane.wrapping_mul(0xD6E8_FEB8_6659_FD93).rotate_left(17))
    }

    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty range");
        // Multiply-shift; the bias for our n (< 2^32) is below 2^-32.
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `lo..hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo) as u64) as i64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// `k` distinct values from `0..n`, in draw order.
    pub fn distinct(&mut self, k: usize, n: u64) -> Vec<u64> {
        assert!(k as u64 <= n, "cannot draw {k} distinct values from {n}");
        let mut out = Vec::with_capacity(k);
        while out.len() < k {
            let v = self.below(n);
            if !out.contains(&v) {
                out.push(v);
            }
        }
        out
    }

    /// A seeded permutation of `0..n`.
    pub fn permutation(&mut self, n: u64) -> Vec<u64> {
        let mut v: Vec<u64> = (0..n).collect();
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
        v
    }
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Scrambled Zipfian over `0..n` (the YCSB construction after Gray et al.:
/// O(1) per draw from the closed-form zeta approximation; ranks are
/// scattered over the key space by a multiplier coprime with `n`, so the
/// hot keys are not simply `0, 1, 2, ...`).
pub struct Zipfian {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    scramble: u64,
}

impl Zipfian {
    pub fn new(n: u64, theta: f64) -> Zipfian {
        assert!(n > 0, "empty key space");
        let zeta = |m: u64| (1..=m).map(|i| 1.0 / (i as f64).powf(theta)).sum::<f64>();
        let zetan = zeta(n);
        let zeta2 = zeta(n.min(2));
        let mut scramble = (0x9E37_79B9_7F4A_7C15u64 % n).max(1);
        while gcd(scramble, n) != 1 {
            scramble += 1;
        }
        Zipfian {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan),
            scramble,
        }
    }

    pub fn next(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
        let uz = u * self.zetan;
        let rank = if uz < 1.0 {
            0
        } else if uz < 1.0 + 0.5f64.powf(self.theta) && self.n >= 2 {
            1
        } else {
            (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64
        };
        let rank = rank.min(self.n - 1);
        // rank -> (rank + 1) * scramble mod n: a bijection (scramble and n
        // are coprime) that moves even rank 0 off key 0.
        (((rank as u128 + 1) * self.scramble as u128) % self.n as u128) as u64
    }
}

/// FNV-1a over the words of a generated stream; two streams are the same
/// inputs exactly when their hashes agree.
#[derive(Clone, Copy)]
pub struct StreamHash(u64);

impl Default for StreamHash {
    fn default() -> Self {
        StreamHash(0xCBF2_9CE4_8422_2325)
    }
}

impl StreamHash {
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_draws_and_lanes_differ() {
        let draw = |mut r: Rng| (0..64).map(|_| r.next_u64()).collect::<Vec<_>>();
        assert_eq!(draw(Rng::new(7)), draw(Rng::new(7)));
        assert_ne!(draw(Rng::new(7)), draw(Rng::new(8)));
        assert_ne!(draw(Rng::lane(7, 0)), draw(Rng::lane(7, 1)));
    }

    #[test]
    fn below_stays_in_range_and_covers_it() {
        let mut r = Rng::new(1);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            seen[r.below(10) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn permutation_is_a_bijection() {
        let mut p = Rng::new(3).permutation(100);
        p.sort_unstable();
        assert_eq!(p, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn zipfian_is_skewed_in_range_and_scattered() {
        let n = 1000;
        let z = Zipfian::new(n, 0.9);
        let mut r = Rng::new(42);
        let mut counts = vec![0u64; n as usize];
        for _ in 0..50_000 {
            counts[z.next(&mut r) as usize] += 1;
        }
        let hottest = (0..n as usize).max_by_key(|&k| counts[k]).unwrap();
        assert_ne!(hottest, 0, "rank 0 must be scattered away from key 0");
        let mut sorted = counts.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let top10: u64 = sorted[..10].iter().sum();
        assert!(top10 > 10_000, "not skewed: top 10 keys drew {top10}");
        assert!(counts.iter().filter(|&&c| c > 0).count() > 400);
    }
}
