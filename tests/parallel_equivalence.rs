//! Dop 1, 2 and 4 over parts of the oracle corpus (`oracle/runner.rs`):
//! each statement equals the reference evaluator's answer at dop 1, and
//! every dop returns the same streams, byte for byte.

#[path = "oracle/runner.rs"]
mod runner;

use runner::{oo1, paper, rs, rs_prepared, run_axis, semijoin_scans};

#[test]
fn random_fixture_identical_across_dops() {
    run_axis(&[rs, semijoin_scans], "dop");
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

/// The `analytic` bulk CO: each component derives in its own region, and a
/// semijoin probes inside its region, so the gathers pass the coordinator
/// only the rows each component keeps — for SALES, `xs`'s rows instead of
/// the whole table.
#[test]
fn bulk_co_gathers_only_semijoin_survivors() {
    let sql = runner::STAR_CO_BULK;
    let run = |dop| {
        let mut cfg = runner::config(true, dop, 1024);
        cfg.plan.parallel_min_pages = 1;
        let db = xnf_fixtures::build_star_db_with(3000, cfg);
        let session = db.session();
        let mut stmt = session.prepare(sql).unwrap();
        stmt.bind(&[xnf_core::Value::Int(3)]).unwrap();
        stmt.query().unwrap()
    };
    let (serial, parallel) = (run(1), run(2));
    runner::assert_same_result(&serial, &parallel, sql);
    let rows = |name| parallel.stream(name).unwrap().rows.len() as u64;
    // One region in 25 keeps about 1/25 of SALES.
    assert!(rows("xs") < 3000 / 20, "{}", rows("xs"));
    // CUST and ITEM clear `parallel_min_pages: 1` too: their components
    // are gathered on their own.
    let stats = &parallel.stats;
    assert_eq!(stats.parallel_regions, 3, "{stats:?}");
    assert_eq!(
        stats.rows_gathered,
        rows("xc") + rows("xs") + rows("xi"),
        "{stats:?}"
    );
}
