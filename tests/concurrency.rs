//! Concurrency stress tests: N writer + M reader sessions over one shared
//! `Arc<Database>` (the paper's Sect. 3 multi-workstation model), asserting
//! the snapshot-isolation invariants the MVCC-lite storage layer promises:
//!
//! - readers never observe torn or uncommitted state: a conserved-sum
//!   workload (transfers between accounts) always sums to its initial
//!   total under any single-snapshot read;
//! - write-write conflicts surface as `WriteConflict` errors (first writer
//!   wins) — never as corruption or deadlock;
//! - after the storm, incremental materialized-view maintenance (applied
//!   per committed transaction under the maintenance lock) leaves exactly
//!   the contents a full `REFRESH` recomputes;
//! - all of the above hold with MVCC garbage collection running: readers
//!   interleave explicit `VACUUM` statements and the opportunistic
//!   post-commit vacuum fires throughout (`tests/gc_soak.rs` adds the
//!   dedicated boundedness soak).
//!
//! The default-profile tests keep thread counts and iteration budgets
//! small; the heavyweight variant is `#[ignore]`d in debug builds and run
//! by CI under `cargo test --release -- --ignored`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rand::{rngs::StdRng, Rng, SeedableRng};
use xnf_core::run_sessions;
use xnf_core::{Database, Value};
use xnf_fixtures::{build_paper_db, deps_arc_query, PaperScale};

/// Total money in the ACCT table; every transfer conserves it.
const ACCOUNTS: i64 = 16;
const INITIAL_BALANCE: i64 = 100;

fn transfer_db() -> Arc<Database> {
    let db = build_paper_db(PaperScale {
        departments: 6,
        employees_per_dept: 4,
        projects_per_dept: 2,
        skills: 8,
        ..Default::default()
    });
    let s = db.session();
    s.execute("CREATE TABLE ACCT (id INT NOT NULL, bal INT)", &[])
        .unwrap();
    s.execute("CREATE INDEX acct_id ON ACCT (id)", &[]).unwrap();
    for i in 0..ACCOUNTS {
        s.execute(
            &format!("INSERT INTO ACCT VALUES ({i}, {INITIAL_BALANCE})"),
            &[],
        )
        .unwrap();
    }
    Arc::new(db)
}

/// One conserved-sum read: a single statement, hence a single snapshot.
fn read_total(session: &xnf_core::Session<'_>) -> (i64, i64) {
    let r = session
        .query("SELECT COUNT(*), SUM(bal) FROM ACCT", &[])
        .unwrap();
    let row = &r.try_table().unwrap().rows[0];
    (
        row[0].as_int().unwrap(),
        row[1].as_int().expect("sum over non-empty table"),
    )
}

/// The core storm: `writers` transfer sessions + `readers` observer
/// sessions, `iters` operations each, seeded per thread. Returns
/// (commits, rollbacks, conflicts) for sanity reporting.
fn run_storm(db: &Arc<Database>, writers: usize, readers: usize, iters: usize, seed: u64) {
    let commits = AtomicU64::new(0);
    let conflicts = AtomicU64::new(0);
    let co_query = deps_arc_query("ARC");

    run_sessions(db, writers + readers, |i, session| {
        let mut rng = StdRng::seed_from_u64(seed ^ (i as u64).wrapping_mul(0x9E37_79B9));
        if i < writers {
            // Writer: transactional transfers (conserving SUM), occasional
            // autocommit churn on the paper tables.
            for _ in 0..iters {
                let from = rng.gen_range(0..ACCOUNTS);
                let to = (from + rng.gen_range(1..ACCOUNTS)) % ACCOUNTS;
                let amt = rng.gen_range(1..10i64);
                session.begin().unwrap();
                let moved: Result<(), xnf_core::XnfError> = (|| {
                    session.execute(
                        "UPDATE ACCT SET bal = bal - ? WHERE id = ?",
                        &[Value::Int(amt), Value::Int(from)],
                    )?;
                    session.execute(
                        "UPDATE ACCT SET bal = bal + ? WHERE id = ?",
                        &[Value::Int(amt), Value::Int(to)],
                    )?;
                    Ok(())
                })();
                match moved {
                    Ok(()) => {
                        if rng.gen_bool(0.1) {
                            // Exercise rollback of clean transactions too.
                            session.rollback().unwrap();
                        } else {
                            session.commit().unwrap();
                            commits.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    Err(e) => {
                        // First-writer-wins: losing a row race is expected;
                        // anything else is a real failure.
                        assert!(e.is_write_conflict(), "unexpected writer error: {e}");
                        conflicts.fetch_add(1, Ordering::Relaxed);
                        session.rollback().unwrap();
                    }
                }
            }
        } else {
            // Reader: point queries, conserved-sum checks, repeatable reads
            // inside a transaction, and CO fetches.
            for n in 0..iters {
                let (count, total) = read_total(session);
                assert_eq!(count, ACCOUNTS, "rows appeared/vanished mid-storm");
                assert_eq!(
                    total,
                    ACCOUNTS * INITIAL_BALANCE,
                    "transfer sum invariant broken: torn or uncommitted read"
                );

                // Point query through the index path.
                let id = rng.gen_range(0..ACCOUNTS);
                let r = session
                    .query("SELECT bal FROM ACCT WHERE id = ?", &[Value::Int(id)])
                    .unwrap();
                assert_eq!(r.try_table().unwrap().rows.len(), 1);

                // Snapshot stability: two reads inside one transaction see
                // the same state even while writers commit around it.
                if n % 7 == 0 {
                    session.begin().unwrap();
                    let first = read_total(session);
                    let again = read_total(session);
                    assert_eq!(first, again, "snapshot moved inside a transaction");
                    session.commit().unwrap();
                }

                // CO fetch over the paper fixture exercises the shared-
                // derivation + multi-stream path under concurrency.
                if n % 11 == 0 {
                    let co = session.fetch_co(&co_query).unwrap();
                    assert!(!co.workspace.components.is_empty());
                }

                // Interleave explicit garbage collection: vacuum must never
                // disturb any of the invariants asserted above (it also
                // runs opportunistically under the writers' commits).
                if n % 13 == 0 {
                    session.execute("VACUUM", &[]).unwrap();
                }
            }
        }
    });

    // The storm must have exercised real work.
    assert!(commits.load(Ordering::Relaxed) > 0, "no transfer committed");
}

#[test]
fn stress_snapshot_invariants_under_concurrent_sessions() {
    let db = transfer_db();
    run_storm(&db, 3, 3, 40, 0xC0FFEE);
    // Quiesced: the conserved sum holds on a fresh snapshot too.
    let session = db.session();
    let (_, total) = read_total(&session);
    assert_eq!(total, ACCOUNTS * INITIAL_BALANCE);
}

#[test]
fn stress_matview_matches_full_refresh_after_storm() {
    let db = transfer_db();
    let s = db.session();
    s.execute(
        "CREATE MATERIALIZED VIEW rich AS SELECT id, bal FROM ACCT WHERE bal > 50",
        &[],
    )
    .unwrap();
    run_storm(&db, 3, 2, 30, 0xBEEF);

    // Incrementally-maintained contents == full recompute.
    let mut incremental = s
        .query("SELECT * FROM rich", &[])
        .unwrap()
        .try_table()
        .unwrap()
        .rows
        .clone();
    s.execute("REFRESH MATERIALIZED VIEW rich", &[]).unwrap();
    let mut refreshed = s
        .query("SELECT * FROM rich", &[])
        .unwrap()
        .try_table()
        .unwrap()
        .rows
        .clone();
    incremental.sort();
    refreshed.sort();
    assert_eq!(
        incremental, refreshed,
        "incremental maintenance diverged from full refresh"
    );
}

/// The heavyweight storm: ignored in debug builds (it would dominate
/// `cargo test`), always run by the CI release-stress job via
/// `cargo test --release -- --ignored`.
#[test]
#[cfg_attr(debug_assertions, ignore = "heavy stress: run in release CI")]
fn stress_heavy_release_storm() {
    let db = transfer_db();
    let s = db.session();
    s.execute(
        "CREATE MATERIALIZED VIEW rich AS SELECT id, bal FROM ACCT WHERE bal > 50",
        &[],
    )
    .unwrap();
    run_storm(&db, 6, 6, 300, 0xDEAD_BEEF);

    let session = db.session();
    let (_, total) = read_total(&session);
    assert_eq!(total, ACCOUNTS * INITIAL_BALANCE);

    let mut incremental = s
        .query("SELECT * FROM rich", &[])
        .unwrap()
        .try_table()
        .unwrap()
        .rows
        .clone();
    s.execute("REFRESH MATERIALIZED VIEW rich", &[]).unwrap();
    let mut refreshed = s
        .query("SELECT * FROM rich", &[])
        .unwrap()
        .try_table()
        .unwrap()
        .rows
        .clone();
    incremental.sort();
    refreshed.sort();
    assert_eq!(incremental, refreshed);
}
