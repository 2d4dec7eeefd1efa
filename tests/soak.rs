//! Correctness runs of both load generators of `soak/`.
//!
//! - The soaks, at CI size: eight clients, oracle on. Each run must end
//!   with a clean oracle and must have checked at least one invariant per
//!   operation. Ignored by default, as they are sized for a release build;
//!   run with
//!
//!   ```text
//!   cargo test --release --test soak -- --ignored
//!   ```
//!
//! - `smoke`: small runs for `cargo test -q`.
//! - `determinism`: the generators' determinism contract.
//! - The key-distribution tests.

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

/// Tier-1 smoke runs of both load generators.
///
/// Small enough for `cargo test -q`, but real: concurrent clients, write
/// conflicts, matview maintenance and CO fetches all happen, every
/// continuous invariant is checked mid-storm, and the quiesce differential
/// compares the engine's final state against the in-memory model
/// table-by-table. A single violation fails the test with every recorded
/// sample.
mod smoke {
    use super::soak::tpcc::{run_tpcc, TpccConfig};
    use super::soak::ycsb::{run_ycsb, YcsbConfig};

    #[test]
    fn ycsb_oracle_smoke_concurrent() {
        let cfg = YcsbConfig {
            records: 400,
            ops: 1_500,
            clients: 4,
            ..YcsbConfig::default()
        };
        let run = run_ycsb(&cfg);
        run.violations.assert_clean("ycsb smoke (4 clients)");
        assert_eq!(run.ops, cfg.ops);
        assert!(
            run.violations.checks() > cfg.ops,
            "oracle barely checked anything: {} checks",
            run.violations.checks()
        );
    }

    #[test]
    fn ycsb_oracle_smoke_single_client() {
        let cfg = YcsbConfig {
            records: 300,
            ops: 800,
            clients: 1,
            ..YcsbConfig::default()
        };
        let run = run_ycsb(&cfg);
        run.violations.assert_clean("ycsb smoke (1 client)");
        assert_eq!(run.retries, 0, "single client cannot conflict");
    }

    #[test]
    fn tpcc_oracle_smoke_concurrent() {
        let cfg = TpccConfig {
            txns: 800,
            clients: 4,
            ..TpccConfig::default()
        };
        let run = run_tpcc(&cfg);
        run.violations.assert_clean("tpcc smoke (4 clients)");
        assert_eq!(run.ops, cfg.txns);
        // The hot district rows are meant to collide: a conflict-free run means
        // the load generator stopped exercising first-writer-wins.
        assert!(
            run.retries > 0,
            "expected write-conflict pressure on the hot district rows"
        );
    }

    #[test]
    fn tpcc_oracle_smoke_single_client() {
        let cfg = TpccConfig {
            txns: 400,
            clients: 1,
            ..TpccConfig::default()
        };
        let run = run_tpcc(&cfg);
        run.violations.assert_clean("tpcc smoke (1 client)");
        assert_eq!(run.retries, 0, "single client cannot conflict");
    }
}

/// Determinism contract of the load generators.
///
/// The same seed must produce (a) the identical op/txn stream on every
/// call, and (b) the identical oracle final state regardless of how many
/// client threads replay the stream — all randomness is spent at
/// generation time, writes are additive or uniquely keyed, and conflicted
/// transactions retry until they commit, so thread interleaving cannot
/// change where the run ends up. The engine's own final state is pinned to
/// the model by each run's quiesce differential (`assert_clean`).
mod determinism {
    use super::soak::tpcc::{self, run_tpcc, TpccConfig};
    use super::soak::ycsb::{self, run_ycsb, YcsbConfig};

    #[test]
    fn ycsb_stream_is_deterministic_per_seed() {
        let cfg = YcsbConfig {
            records: 500,
            ops: 3_000,
            ..YcsbConfig::default()
        };
        assert_eq!(ycsb::generate_stream(&cfg), ycsb::generate_stream(&cfg));

        let reseeded = YcsbConfig {
            seed: cfg.seed + 1,
            ..cfg.clone()
        };
        assert_ne!(
            ycsb::generate_stream(&cfg),
            ycsb::generate_stream(&reseeded),
            "different seeds must generate different streams"
        );
    }

    #[test]
    fn tpcc_stream_is_deterministic_per_seed() {
        let cfg = TpccConfig {
            txns: 2_000,
            ..TpccConfig::default()
        };
        assert_eq!(tpcc::generate_stream(&cfg), tpcc::generate_stream(&cfg));

        let reseeded = TpccConfig {
            seed: cfg.seed + 1,
            ..cfg.clone()
        };
        assert_ne!(
            tpcc::generate_stream(&cfg),
            tpcc::generate_stream(&reseeded),
            "different seeds must generate different streams"
        );
    }

    #[test]
    fn ycsb_final_state_is_identical_across_client_counts() {
        let base = YcsbConfig {
            records: 300,
            ops: 1_200,
            ..YcsbConfig::default()
        };
        let mut states = Vec::new();
        for clients in [1, 2, 4] {
            let cfg = YcsbConfig {
                clients,
                ..base.clone()
            };
            let run = run_ycsb(&cfg);
            // The quiesce differential inside the run pins the *engine's*
            // final table/matview/CO state to this model.
            run.violations
                .assert_clean(&format!("ycsb determinism ({clients} clients)"));
            states.push((clients, run.model));
        }
        for window in states.windows(2) {
            let (c0, m0) = &window[0];
            let (c1, m1) = &window[1];
            assert_eq!(m0, m1, "final state differs between {c0} and {c1} clients");
        }
    }

    #[test]
    fn tpcc_final_state_is_identical_across_client_counts() {
        let base = TpccConfig {
            txns: 600,
            ..TpccConfig::default()
        };
        let mut states = Vec::new();
        for clients in [1, 3] {
            let cfg = TpccConfig {
                clients,
                ..base.clone()
            };
            let run = run_tpcc(&cfg);
            run.violations
                .assert_clean(&format!("tpcc determinism ({clients} clients)"));
            states.push((clients, run.model));
        }
        let (c0, m0) = &states[0];
        let (c1, m1) = &states[1];
        assert_eq!(m0, m1, "final state differs between {c0} and {c1} clients");
    }
}
