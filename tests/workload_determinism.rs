//! Determinism contract of the load generators of `soak/`.
//!
//! The same seed must produce (a) the identical op/txn stream on every
//! call, and (b) the identical oracle final state regardless of how many
//! client threads replay the stream — all randomness is spent at
//! generation time, writes are additive or uniquely keyed, and conflicted
//! transactions retry until they commit, so thread interleaving cannot
//! change where the run ends up. The engine's own final state is pinned to
//! the model by each run's quiesce differential (`assert_clean`).

// This target uses part of the drivers; the `soak` target, which
// compiles them without this allowance, keeps them free of dead code.
#[allow(dead_code)]
#[path = "soak/mod.rs"]
mod soak;

use soak::tpcc::{self, run_tpcc, TpccConfig};
use soak::ycsb::{self, run_ycsb, YcsbConfig};

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
