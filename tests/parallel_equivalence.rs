//! Dop 1, 2 and 4 over parts of the oracle corpus (`oracle/runner.rs`):
//! each statement equals the reference evaluator's answer at dop 1, and
//! every dop returns the same streams, byte for byte.

#[path = "oracle/runner.rs"]
mod runner;

use runner::{oo1, paper, rs, rs_prepared, run_axis};

#[test]
fn random_fixture_identical_across_dops() {
    run_axis(&[rs], "dop");
}

#[test]
fn prepared_params_identical_across_dops() {
    run_axis(&[rs_prepared], "dop");
}

#[test]
fn paper_co_streams_identical_across_dops() {
    run_axis(&[paper], "dop");
}

#[test]
fn oo1_fixture_identical_across_dops() {
    run_axis(&[oo1], "dop");
}
