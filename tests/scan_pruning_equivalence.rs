//! Scan pruning over parts of the oracle corpus (`oracle/runner.rs`): each
//! statement equals the reference evaluator's answer, and returns the same
//! streams, byte for byte, and scans as many rows with its scans' `cols`
//! cleared as kept.

#[path = "oracle/runner.rs"]
mod runner;

use runner::{paper, paper_matview, run_axis, star, wv};

#[test]
fn paper_statements_identical_with_and_without_pruning() {
    run_axis(&[paper], "pruning");
}

#[test]
fn matview_and_correlated_subquery_identical_with_and_without_pruning() {
    run_axis(&[paper_matview], "pruning");
}

#[test]
fn star_templates_identical_with_and_without_pruning() {
    run_axis(&[star], "pruning");
}

#[test]
fn random_queries_identical_with_and_without_pruning() {
    run_axis(&[wv], "pruning");
}
