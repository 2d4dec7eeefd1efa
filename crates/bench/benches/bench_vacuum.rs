//! Steady-state write throughput with and without MVCC garbage collection.
//!
//! The workload is the degenerate worst case for an append-only MVCC
//! engine: a tight single-row UPDATE loop. Every update appends a version
//! and a commit stamp; without GC the heap, the index posting list for the
//! hot key and the stamp table all grow O(updates), so per-op cost climbs
//! as the run proceeds. With the opportunistic vacuum (default
//! `DbConfig::auto_vacuum_threshold`) all three stay bounded and the
//! throughput holds flat — the `size after` lines printed at the end show
//! the resource gap directly (`tests/gc_soak.rs` asserts the bounds; this
//! bench records the perf trajectory).

use std::time::Duration;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use xnf_core::{Database, DbConfig, Value};

const OPS_PER_ITER: usize = 1_000;

fn setup(auto_vacuum_threshold: u64) -> Database {
    let db = Database::with_config(DbConfig {
        auto_vacuum_threshold,
        ..DbConfig::default()
    });
    let s = db.session();
    s.execute("CREATE TABLE ACCT (id INT NOT NULL, bal INT)", &[])
        .unwrap();
    s.execute("CREATE UNIQUE INDEX acct_pk ON ACCT (id)", &[])
        .unwrap();
    s.execute("INSERT INTO ACCT VALUES (1, 0)", &[]).unwrap();
    db
}

/// One measured batch: `OPS_PER_ITER` autocommit single-row updates
/// through a prepared statement.
fn run_updates(db: &Database, base: usize) -> usize {
    let session = db.session();
    let mut stmt = session
        .prepare("UPDATE ACCT SET bal = ? WHERE id = 1")
        .unwrap();
    let mut applied = 0;
    for i in 0..OPS_PER_ITER {
        applied += stmt
            .execute_with(&[Value::Int((base + i) as i64)])
            .unwrap()
            .affected();
    }
    applied
}

fn report_sizes(label: &str, db: &Database) {
    let table = db.catalog().table("ACCT").unwrap();
    let census = table.version_census().unwrap();
    let gc = db.gc_stats();
    eprintln!(
        "vacuum/{label}: size after: heap_pages={} versions={} dead={} \
         stamps={} vacuum_runs={} reclaimed_total={}",
        table.page_count(),
        census.total_versions,
        census.dead,
        db.catalog().txns().stamp_count(),
        gc.vacuum_runs,
        gc.versions_reclaimed,
    );
}

fn bench_vacuum(c: &mut Criterion) {
    let mut group = c.benchmark_group("vacuum");
    group.measurement_time(Duration::from_secs(2));

    // GC on (default opportunistic threshold): throughput must hold flat.
    {
        let db = setup(DbConfig::default().auto_vacuum_threshold);
        let mut base = 0usize;
        group.bench_function("update_loop/gc_on", |b| {
            b.iter(|| {
                base += OPS_PER_ITER;
                black_box(run_updates(&db, base))
            })
        });
        report_sizes("update_loop/gc_on", &db);
    }

    // GC off: same loop, monotonically degrading storage underneath.
    {
        let db = setup(0);
        let mut base = 0usize;
        group.bench_function("update_loop/gc_off", |b| {
            b.iter(|| {
                base += OPS_PER_ITER;
                black_box(run_updates(&db, base))
            })
        });
        report_sizes("update_loop/gc_off", &db);
    }

    // The cost of one explicit full-database VACUUM over a fixed backlog
    // (the manual-hammer path; the opportunistic path amortises this).
    {
        let db = setup(0);
        group.bench_function("explicit_pass/1k_backlog", |b| {
            b.iter(|| {
                run_updates(&db, 0);
                let report = db.vacuum(None).unwrap();
                black_box(report.versions_reclaimed())
            })
        });
        report_sizes("explicit_pass/1k_backlog", &db);
    }

    group.finish();
}

criterion_group!(benches, bench_vacuum);
criterion_main!(benches);
