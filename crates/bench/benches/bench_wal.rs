//! Commit throughput under the write-ahead log: N session threads issue
//! single-row autocommit UPDATEs (one commit — and one durable log flush —
//! each) against a file-backed database, with the commit fsync on or off.
//!
//! What the numbers show:
//!
//! - `fsync_on/1sessions` is the per-commit-fsync floor: every commit pays
//!   its own disk sync.
//! - `fsync_on/{4,8}sessions` is group commit earning its keep: concurrent
//!   committers share one fsync per batch, so per-thread commit cost drops
//!   well below the 1-session floor (the acceptance gauge; the measured
//!   mean group batch size is printed after each config).
//! - `fsync_off/*` prices the log append + OS write alone (commits still
//!   survive process kills, not machine crashes).
//!
//! Threads update disjoint account ranges, so no commit is lost to a
//! write-write conflict and every iteration commits exactly
//! `threads × OPS_PER_THREAD` transactions. Automatic checkpoints are
//! disabled to keep iterations uniform.
//!
//! The `wal_doublewrite` group prices torn-page protection instead: same
//! storm, fsync off, but with a small automatic checkpoint interval so
//! dirty pages are flushed *during* the run — with the double-write
//! buffer on vs. off. The delta is the write-amplification cost of
//! writing every flushed image twice (DW append + fsync, then in place);
//! the integrity counters printed after each config show how many DW
//! batches the run actually paid for.

use std::sync::Arc;
use std::time::Duration;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use xnf_core::run_sessions;
use xnf_core::{Database, DbConfig, TempDir, Value};

const OPS_PER_THREAD: usize = 32;
/// Accounts per thread partition (largest thread count gets full coverage).
const PER_THREAD_ROWS: i64 = 16;
const MAX_THREADS: usize = 8;

fn durable_db(dir: &TempDir, fsync: bool) -> Arc<Database> {
    durable_db_cfg(dir, fsync, true, 0)
}

fn durable_db_cfg(
    dir: &TempDir,
    fsync: bool,
    doublewrite: bool,
    checkpoint_interval: u64,
) -> Arc<Database> {
    let db = Database::open_with_config(DbConfig {
        data_dir: Some(dir.path().to_path_buf()),
        wal_fsync: fsync,
        doublewrite,
        checkpoint_interval,
        ..DbConfig::default()
    })
    .unwrap();
    let s = db.session();
    s.execute("CREATE TABLE ACCT (id INT NOT NULL, bal INT)", &[])
        .unwrap();
    s.execute("CREATE INDEX acct_id ON ACCT (id)", &[]).unwrap();
    for i in 0..(MAX_THREADS as i64 * PER_THREAD_ROWS) {
        s.execute(&format!("INSERT INTO ACCT VALUES ({i}, 100)"), &[])
            .unwrap();
    }
    Arc::new(db)
}

/// One batch: every thread commits `OPS_PER_THREAD` single-row updates in
/// its own account range. Returns the commit count (asserted conflict-free).
fn commit_storm(db: &Arc<Database>, threads: usize) -> usize {
    let done: Vec<usize> = run_sessions(db, threads, |i, session| {
        let base = i as i64 * PER_THREAD_ROWS;
        let mut update = session
            .prepare("UPDATE ACCT SET bal = bal + 1 WHERE id = ?")
            .unwrap();
        let mut commits = 0usize;
        for n in 0..OPS_PER_THREAD {
            let id = base + (n as i64 % PER_THREAD_ROWS);
            commits += update.execute_with(&[Value::Int(id)]).unwrap().affected();
        }
        commits
    });
    done.into_iter().sum()
}

fn bench_wal(c: &mut Criterion) {
    let mut group = c.benchmark_group("wal_commit");
    group.measurement_time(Duration::from_secs(2));

    for &fsync in &[true, false] {
        let label = if fsync { "fsync_on" } else { "fsync_off" };
        for &threads in &[1usize, 2, 4, 8] {
            let dir = TempDir::new("bench-wal");
            let db = durable_db(&dir, fsync);
            let before = db.wal_stats().unwrap();
            group.bench_function(&format!("{label}/{threads}sessions"), |b| {
                b.iter(|| black_box(commit_storm(&db, threads)))
            });
            // Group-commit shape for this config: how many commits each
            // log flush amortized (1.0 = no batching possible).
            let s = db.wal_stats().unwrap();
            let batches = s.group_commit_batches - before.group_commit_batches;
            let commits = s.group_commit_commits - before.group_commit_commits;
            println!(
                "    -> group commit: {commits} commits in {batches} flushes \
                 (mean batch {:.2}), {} fsyncs",
                commits as f64 / batches.max(1) as f64,
                s.fsyncs - before.fsyncs,
            );
        }
    }

    group.finish();
}

/// Write-amplification cost of torn-page protection: the same commit
/// storm with automatic checkpoints flushing dirty pages mid-run, with
/// the double-write buffer on vs. off. Commit fsync stays off so the
/// page-flush path (the only part doublewrite touches) dominates the
/// difference.
fn bench_doublewrite(c: &mut Criterion) {
    let mut group = c.benchmark_group("wal_doublewrite");
    group.measurement_time(Duration::from_secs(2));

    for &dw in &[true, false] {
        let label = if dw {
            "doublewrite_on"
        } else {
            "doublewrite_off"
        };
        for &threads in &[1usize, 4] {
            let dir = TempDir::new("bench-wal-dw");
            // 64 KiB of log per checkpoint: a handful of automatic fuzzy
            // checkpoints (and page flushes) per iteration.
            let db = durable_db_cfg(&dir, false, dw, 64 * 1024);
            let before = db.integrity_stats();
            group.bench_function(&format!("{label}/{threads}sessions"), |b| {
                b.iter(|| black_box(commit_storm(&db, threads)))
            });
            let s = db.integrity_stats();
            println!(
                "    -> doublewrite={}: {} page writes in {} dw batches, \
                 {} reads verified, {} torn repairs",
                if dw { "on" } else { "off" },
                s.writes - before.writes,
                s.dw_batches - before.dw_batches,
                s.pages_verified - before.pages_verified,
                s.torn_pages_repaired - before.torn_pages_repaired,
            );
        }
    }

    group.finish();
}

criterion_group!(benches, bench_wal, bench_doublewrite);
criterion_main!(benches);
