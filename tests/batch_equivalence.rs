//! Batch sizes 1, 7 and 1024 over parts of the oracle corpus
//! (`oracle/runner.rs`): each statement equals the reference evaluator's
//! answer at the default batch size, and every batch size returns the same
//! streams, byte for byte.

#[path = "oracle/runner.rs"]
mod runner;

use runner::{oo1, paper, rs, rs_prepared, run_axis, semijoin_scans};

#[test]
fn random_fixture_identical_across_batch_sizes() {
    run_axis(&[rs, semijoin_scans], "batch");
}

#[test]
fn prepared_params_identical_across_batch_sizes() {
    run_axis(&[rs_prepared], "batch");
}

#[test]
fn paper_co_streams_identical_across_batch_sizes() {
    run_axis(&[paper], "batch");
}

#[test]
fn oo1_fixture_identical_across_batch_sizes() {
    run_axis(&[oo1], "batch");
}
