//! Index plans against hash plans over parts of the oracle corpus
//! (`oracle/runner.rs`): each statement equals the reference evaluator's
//! answer with `use_indexes` on, and returns the same streams, byte for
//! byte, with it off.

#[path = "oracle/runner.rs"]
mod runner;

use runner::{index_joins, root_fetches, run_axis};

#[test]
fn root_restricted_fetches_match_the_hash_plans() {
    run_axis(&[root_fetches], "use_indexes");
}

#[test]
fn relational_index_joins_match_the_hash_plans() {
    run_axis(&[index_joins], "use_indexes");
}
