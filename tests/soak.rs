//! Correctness soaks of both load generators of `soak/`, at CI size: eight
//! clients, oracle on. Each run must end with a clean oracle and must have
//! checked at least one invariant per operation. Ignored by default, as
//! they are sized for a release build; run with
//!
//! ```text
//! cargo test --release --test soak -- --ignored
//! ```
//!
//! The key-distribution tests run by default.

#[path = "soak/mod.rs"]
mod soak;

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

use soak::keys::{KeyChooser, KeyDist};
use soak::oracle::Violations;
use soak::tpcc::{run_tpcc, TpccConfig};
use soak::ycsb::{run_ycsb, YcsbConfig};

/// A clean oracle, and at least one check per operation.
fn assert_soak(context: &str, violations: &Violations, ops: u64) {
    violations.assert_clean(context);
    assert!(
        violations.checks() > ops,
        "{context}: the oracle barely checked anything: {} checks over {ops} ops",
        violations.checks()
    );
}

#[test]
#[ignore = "CI soak; run in release with --ignored"]
fn ycsb_zipfian_soak() {
    let cfg = YcsbConfig {
        ops: 60_000,
        records: 8_000,
        clients: 8,
        ..YcsbConfig::default()
    };
    let run = run_ycsb(&cfg);
    assert_soak("ycsb zipfian soak", &run.violations, run.ops);
    assert_eq!(run.ops, cfg.ops);
}

#[test]
#[ignore = "CI soak; run in release with --ignored"]
fn ycsb_uniform_soak() {
    let cfg = YcsbConfig {
        ops: 30_000,
        records: 8_000,
        clients: 8,
        dist: KeyDist::Uniform,
        ..YcsbConfig::default()
    };
    let run = run_ycsb(&cfg);
    assert_soak("ycsb uniform soak", &run.violations, run.ops);
    assert_eq!(run.ops, cfg.ops);
}

#[test]
#[ignore = "CI soak; run in release with --ignored"]
fn tpcc_soak() {
    let cfg = TpccConfig {
        txns: 8_000,
        clients: 8,
        ..TpccConfig::default()
    };
    let run = run_tpcc(&cfg);
    assert_soak("tpcc soak", &run.violations, run.ops);
    assert_eq!(run.ops, cfg.txns);
}

#[test]
#[ignore = "CI soak; run in release with --ignored"]
fn tpcc_durable_soak() {
    let cfg = TpccConfig {
        txns: 4_000,
        clients: 8,
        durable: true,
        ..TpccConfig::default()
    };
    let run = run_tpcc(&cfg);
    assert_soak("tpcc durable soak", &run.violations, run.ops);
    assert_eq!(run.ops, cfg.txns);
}

#[test]
fn uniform_covers_the_keyspace_evenly() {
    let c = KeyChooser::new(KeyDist::Uniform, 16);
    let mut rng = StdRng::seed_from_u64(7);
    let mut counts = [0u64; 16];
    for _ in 0..16_000 {
        counts[c.next(&mut rng) as usize] += 1;
    }
    for &n in &counts {
        assert!((n as f64 / 1000.0 - 1.0).abs() < 0.25, "count {n}");
    }
}

#[test]
fn zipfian_is_skewed_and_in_range() {
    let n = 1000;
    let c = KeyChooser::new(KeyDist::Zipfian(0.99), n);
    let mut rng = StdRng::seed_from_u64(42);
    let mut counts: HashMap<u64, u64> = HashMap::new();
    for _ in 0..50_000 {
        let k = c.next(&mut rng);
        assert!(k < n);
        *counts.entry(k).or_default() += 1;
    }
    let mut freq: Vec<u64> = counts.values().copied().collect();
    freq.sort_unstable_by(|a, b| b.cmp(a));
    let top10: u64 = freq.iter().take(10).sum();
    // With theta = 0.99 the 10 hottest of 1000 keys take well over a
    // quarter of the traffic; uniform would give them ~1%.
    assert!(top10 > 12_500, "zipfian not skewed: top10 = {top10}");
    // …but the tail is still covered.
    assert!(counts.len() > 400, "only {} distinct keys", counts.len());
}

#[test]
fn key_choice_is_deterministic_for_a_seed() {
    let c = KeyChooser::new(KeyDist::Zipfian(0.8), 500);
    let draw = |seed| {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..100).map(|_| c.next(&mut rng)).collect::<Vec<_>>()
    };
    assert_eq!(draw(3), draw(3));
    assert_ne!(draw(3), draw(4));
}
