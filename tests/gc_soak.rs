//! GC soak: sustained write workloads must stay *bounded* — heap pages,
//! dead-version counts and the commit-stamp table all capped by constants
//! (live-transaction horizon + auto-vacuum threshold), not O(updates).
//!
//! This is the acceptance harness for the MVCC garbage-collection
//! subsystem: CI's release test run includes the release-gated tests below and
//! fails if any resource grew past its ceiling. The default-profile tests
//! keep the loops short so `cargo test` stays fast; the `soak_*` variants
//! are `#[ignore]`d in debug builds and run in release CI.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use rand::{rngs::StdRng, Rng, SeedableRng};
use xnf_core::run_sessions;
use xnf_core::{Database, Value};

/// Ceilings for the single-key update loop. The auto-vacuum threshold
/// (512 dead versions) is the driver: between triggers at most ~threshold
/// garbage versions exist, each well under 100 bytes, so a handful of 8 KiB
/// pages suffices *regardless of how many updates ran*.
const PAGE_CEILING: usize = 8;
const DEAD_CEILING: u64 = 1200;
const STAMP_CEILING: usize = 1200;

fn single_table_db() -> Database {
    let db = Database::new();
    let s = db.session();
    s.execute("CREATE TABLE ACCT (id INT NOT NULL, bal INT)", &[])
        .unwrap();
    s.execute("CREATE UNIQUE INDEX acct_pk ON ACCT (id)", &[])
        .unwrap();
    s.execute("INSERT INTO ACCT VALUES (1, 0)", &[]).unwrap();
    db
}

/// Hammer one key with `updates` autocommit updates and assert every
/// GC-bounded resource stayed under its ceiling.
fn run_single_key_loop(updates: usize) {
    let db = single_table_db();
    let session = db.session();
    let mut stmt = session
        .prepare("UPDATE ACCT SET bal = ? WHERE id = 1")
        .unwrap();
    for i in 0..updates {
        let n = stmt
            .execute_with(&[Value::Int(i as i64)])
            .unwrap()
            .affected();
        assert_eq!(n, 1);
    }

    let table = db.catalog().table("ACCT").unwrap();
    let census = table.version_census().unwrap();
    let stamps = db.catalog().txns().stamp_count();
    assert!(
        table.page_count() <= PAGE_CEILING,
        "{updates} updates: heap grew to {} pages (ceiling {PAGE_CEILING}) — \
         vacuum is not reclaiming",
        table.page_count()
    );
    assert!(
        census.dead <= DEAD_CEILING,
        "{updates} updates: {} dead versions left (ceiling {DEAD_CEILING})",
        census.dead
    );
    assert!(
        stamps <= STAMP_CEILING,
        "{updates} updates: stamp table holds {stamps} entries \
         (ceiling {STAMP_CEILING}) — pruning is not keeping up"
    );

    // The data survived the churn…
    let r = session
        .query("SELECT bal FROM ACCT WHERE id = 1", &[])
        .unwrap();
    assert_eq!(
        r.try_table().unwrap().rows[0][0],
        Value::Int(updates as i64 - 1)
    );
    // …and an explicit VACUUM drains what the opportunistic trigger left.
    session.execute("VACUUM", &[]).unwrap();
    let census = table.version_census().unwrap();
    assert_eq!(census.total_versions, 1, "exactly the live row remains");
    assert!(db.catalog().txns().stamp_count() <= 1);
    assert!(db.gc_stats().versions_reclaimed >= updates as u64 - DEAD_CEILING);
}

#[test]
fn single_key_update_loop_stays_bounded() {
    run_single_key_loop(3_000);
}

/// The acceptance-criteria loop: ≥ 50k updates on one key. Release-only
/// (CI's release test run); debug builds skip it.
#[test]
#[cfg_attr(debug_assertions, ignore = "heavy soak: run in release CI")]
fn soak_50k_single_key_updates_stay_bounded() {
    run_single_key_loop(50_000);
}

/// Writer/reader storm with vacuum running concurrently: the conserved-sum
/// and repeatable-read invariants must hold *while* GC reclaims under the
/// readers, and the resources must end bounded.
fn run_vacuum_storm(writers: usize, readers: usize, iters: usize, seed: u64) {
    const ACCOUNTS: i64 = 8;
    const INITIAL: i64 = 100;

    let db = Database::new();
    let s = db.session();
    s.execute("CREATE TABLE ACCT (id INT NOT NULL, bal INT)", &[])
        .unwrap();
    s.execute("CREATE UNIQUE INDEX acct_pk ON ACCT (id)", &[])
        .unwrap();
    for i in 0..ACCOUNTS {
        s.execute(&format!("INSERT INTO ACCT VALUES ({i}, {INITIAL})"), &[])
            .unwrap();
    }
    s.execute(
        "CREATE MATERIALIZED VIEW rich AS SELECT id, bal FROM ACCT WHERE bal > 50",
        &[],
    )
    .unwrap();
    let db = Arc::new(db);
    let s = db.session();

    let stop = AtomicBool::new(false);
    let vacuums = AtomicU64::new(0);
    // writers + readers + 1 dedicated vacuum session.
    run_sessions(&db, writers + readers + 1, |i, session| {
        let mut rng = StdRng::seed_from_u64(seed ^ ((i as u64) << 24));
        if i < writers {
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
                    Ok(()) => session.commit().unwrap(),
                    Err(e) => {
                        assert!(
                            e.is_write_conflict(),
                            "unexpected writer error under vacuum: {e}"
                        );
                        session.rollback().unwrap();
                    }
                }
            }
            stop.store(true, Ordering::Relaxed);
        } else if i < writers + readers {
            for n in 0..iters {
                let r = session
                    .query("SELECT COUNT(*), SUM(bal) FROM ACCT", &[])
                    .unwrap();
                let row = &r.try_table().unwrap().rows[0];
                assert_eq!(row[0], Value::Int(ACCOUNTS), "rows vanished under vacuum");
                assert_eq!(
                    row[1],
                    Value::Int(ACCOUNTS * INITIAL),
                    "conserved sum broken while vacuum ran"
                );
                // Repeatable reads inside a transaction spanning vacuums.
                if n % 5 == 0 {
                    session.begin().unwrap();
                    let a = session
                        .query("SELECT SUM(bal) FROM ACCT", &[])
                        .unwrap()
                        .try_table()
                        .unwrap()
                        .rows[0][0]
                        .clone();
                    let b = session
                        .query("SELECT SUM(bal) FROM ACCT", &[])
                        .unwrap()
                        .try_table()
                        .unwrap()
                        .rows[0][0]
                        .clone();
                    assert_eq!(a, b, "snapshot moved across a concurrent vacuum");
                    session.commit().unwrap();
                }
            }
        } else {
            // Vacuum storm: explicit VACUUM statements racing the above
            // (at least one even if the writers win the thread-start race).
            loop {
                session.execute("VACUUM", &[]).unwrap();
                vacuums.fetch_add(1, Ordering::Relaxed);
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                std::thread::yield_now();
            }
        }
    });
    assert!(
        vacuums.load(Ordering::Relaxed) > 0,
        "vacuum thread never ran"
    );

    // Quiesced: invariants and bounds.
    let total = s
        .query("SELECT SUM(bal) FROM ACCT", &[])
        .unwrap()
        .try_table()
        .unwrap()
        .rows[0][0]
        .clone();
    assert_eq!(total, Value::Int(ACCOUNTS * INITIAL));

    // Matview maintained incrementally under vacuum == full recompute.
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
    assert_eq!(incremental, refreshed, "maintenance diverged under vacuum");

    s.execute("VACUUM", &[]).unwrap();
    let table = db.catalog().table("ACCT").unwrap();
    let census = table.version_census().unwrap();
    assert_eq!(
        census.total_versions, ACCOUNTS as u64,
        "all garbage reclaimed"
    );
    assert!(table.page_count() <= PAGE_CEILING);
    assert!(db.catalog().txns().stamp_count() <= 1);
}

#[test]
fn storm_with_concurrent_vacuum_keeps_invariants() {
    run_vacuum_storm(2, 2, 60, 0xF00D);
}

/// Heavy variant for CI's release test run.
#[test]
#[cfg_attr(debug_assertions, ignore = "heavy soak: run in release CI")]
fn soak_storm_with_concurrent_vacuum() {
    run_vacuum_storm(4, 4, 400, 0xBADC_0FFE);
}

/// A transaction opened before a vacuum keeps reading its own version set
/// even while another session churns the rows and vacuums (the watermark
/// must respect the open transaction's registered snapshot).
#[test]
fn open_transaction_reads_stably_across_vacuum() {
    let db = Arc::new(single_table_db());
    let autocommit = db.session();
    autocommit
        .execute("UPDATE ACCT SET bal = 41 WHERE id = 1", &[])
        .unwrap();

    let reader = db.session();
    reader.begin().unwrap();
    let before = reader
        .query("SELECT bal FROM ACCT WHERE id = 1", &[])
        .unwrap()
        .try_table()
        .unwrap()
        .rows
        .clone();
    assert_eq!(before[0][0], Value::Int(41));

    // Another session supersedes the row many times and vacuums.
    let writer = db.session();
    for v in 0..50 {
        writer
            .execute("UPDATE ACCT SET bal = ? WHERE id = 1", &[Value::Int(v)])
            .unwrap();
    }
    let report = db.vacuum(None).unwrap();
    assert!(
        report.watermark <= reader.snapshot().unwrap().seq,
        "watermark overtook an open transaction's snapshot"
    );

    // Same statement, same transaction, same answer — across the vacuum.
    let after = reader
        .query("SELECT bal FROM ACCT WHERE id = 1", &[])
        .unwrap()
        .try_table()
        .unwrap()
        .rows
        .clone();
    assert_eq!(before, after, "open transaction lost its version set");
    reader.commit().unwrap();

    // With the transaction gone the backlog reclaims down to one version.
    autocommit.execute("VACUUM ACCT", &[]).unwrap();
    let table = db.catalog().table("ACCT").unwrap();
    assert_eq!(table.version_census().unwrap().total_versions, 1);
}

/// The VACUUM statement reports one row per scanned heap with the
/// documented columns, and surfaces its counters through `ExecStats`.
#[test]
fn vacuum_statement_reports_reclaim_counters() {
    let db = single_table_db();
    let s = db.session();
    for v in 0..20 {
        s.execute(&format!("UPDATE ACCT SET bal = {v} WHERE id = 1"), &[])
            .unwrap();
    }
    let result = s.execute("VACUUM", &[]).unwrap().try_rows().unwrap();
    let stream = result.try_table().unwrap();
    assert_eq!(
        stream.columns,
        vec![
            "table",
            "reclaimed_versions",
            "frozen_versions",
            "pages_compacted",
            "remaining_dead"
        ]
    );
    let acct = stream
        .rows
        .iter()
        .find(|r| r[0] == Value::Str("ACCT".to_string()))
        .expect("ACCT row in VACUUM output");
    assert_eq!(acct[1], Value::Int(20), "20 superseded versions reclaimed");
    assert_eq!(result.stats.gc_versions_reclaimed, 20);
    assert!(result.stats.gc_stamps_pruned >= 19);

    // A second pass finds nothing: clean tables are skipped entirely.
    let again = s.execute("VACUUM", &[]).unwrap().try_rows().unwrap();
    assert!(again.try_table().unwrap().rows.is_empty());
}
