//! Tier-1 smoke runs of both load generators of `soak/`.
//!
//! Small enough for `cargo test -q`, but real: concurrent clients, write
//! conflicts, matview maintenance and CO fetches all happen, every
//! continuous invariant is checked mid-storm, and the quiesce differential
//! compares the engine's final state against the in-memory model
//! table-by-table. A single violation fails the test with every recorded
//! sample.

// This target uses part of the drivers; the `soak` target, which
// compiles them without this allowance, keeps them free of dead code.
#[allow(dead_code)]
#[path = "soak/mod.rs"]
mod soak;

use soak::tpcc::{run_tpcc, TpccConfig};
use soak::ycsb::{run_ycsb, YcsbConfig};

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
    // the driver stopped exercising first-writer-wins at all.
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
