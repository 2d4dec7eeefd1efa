//! Crash-recovery tests at the `Database` level: open a durable database,
//! do work, throw the in-memory state away (or corrupt the log tail), and
//! assert `Database::open` restores exactly the committed state — tables,
//! indexes, views, materialized views, and MVCC version chains included.
//!
//! Every test gets its own self-cleaning data directory ([`TempDir`]), so
//! `cargo test` stays parallel-safe and leaves nothing behind.

use std::path::Path;

use xnf_core::{Database, DbConfig, PlanOptions, TempDir, Value};
use xnf_storage::PAGE_SIZE;

/// Durable config with fsync off: commits still write the log to the OS
/// (surviving the simulated crashes here, which kill the process state,
/// not the machine), without paying a disk sync per test commit.
fn config(dir: &Path) -> DbConfig {
    DbConfig {
        data_dir: Some(dir.to_path_buf()),
        wal_fsync: false,
        ..DbConfig::default()
    }
}

fn open(dir: &Path) -> Database {
    Database::open_with_config(config(dir)).unwrap()
}

fn int_rows(db: &Database, sql: &str) -> Vec<Vec<i64>> {
    let mut rows: Vec<Vec<i64>> = db
        .query(sql)
        .unwrap()
        .try_table()
        .unwrap()
        .rows
        .iter()
        .map(|r| r.iter().map(|v| v.as_int().unwrap()).collect())
        .collect();
    rows.sort();
    rows
}

fn count(db: &Database, table: &str) -> i64 {
    db.query(&format!("SELECT COUNT(*) FROM {table}"))
        .unwrap()
        .try_table()
        .unwrap()
        .rows[0][0]
        .as_int()
        .unwrap()
}

#[test]
fn reopen_restores_tables_indexes_and_views() {
    let dir = TempDir::new("recovery-basic");
    {
        let db = open(dir.path());
        db.execute("CREATE TABLE T (id INT NOT NULL, v VARCHAR)")
            .unwrap();
        db.execute("CREATE INDEX t_id ON T (id)").unwrap();
        for i in 0..50 {
            db.execute(&format!("INSERT INTO T VALUES ({i}, 'v{i}')"))
                .unwrap();
        }
        db.execute("UPDATE T SET v = 'updated' WHERE id = 7")
            .unwrap();
        db.execute("DELETE FROM T WHERE id = 9").unwrap();
        db.execute("CREATE VIEW small AS SELECT id FROM T WHERE id < 5")
            .unwrap();
        db.execute("CREATE MATERIALIZED VIEW evens AS SELECT id, v FROM T WHERE id % 2 = 0")
            .unwrap();
    }

    let db = open(dir.path());
    let report = db.recovery_report().expect("durable open recovers");
    assert!(report.records_scanned > 0, "log was empty on reopen");

    // Base contents: 50 inserts − 1 delete, with the update visible.
    assert_eq!(count(&db, "T"), 49);
    let r = db
        .query("SELECT v FROM T WHERE id = 7")
        .unwrap()
        .try_table()
        .unwrap()
        .rows
        .clone();
    assert_eq!(r, vec![vec![Value::Str("updated".into())]]);

    // The secondary index survived (point lookup goes through it) and
    // indexes freshly built at restart agree with the heap.
    assert_eq!(
        int_rows(&db, "SELECT id FROM T WHERE id = 31"),
        vec![vec![31]]
    );
    assert!(int_rows(&db, "SELECT id FROM T WHERE id = 9").is_empty());

    // Plain view definition survived.
    assert_eq!(
        int_rows(&db, "SELECT id FROM small"),
        vec![vec![0], vec![1], vec![2], vec![3], vec![4]]
    );

    // Materialized-view contents were rebuilt and match a fresh REFRESH.
    let before = int_rows(&db, "SELECT id FROM evens");
    assert_eq!(
        before.len(),
        25,
        "evens: every even id 0..50 (the delete hit an odd id)"
    );
    db.execute("REFRESH MATERIALIZED VIEW evens").unwrap();
    assert_eq!(before, int_rows(&db, "SELECT id FROM evens"));

    // The recovered database accepts and persists new work.
    db.execute("INSERT INTO T VALUES (100, 'new')").unwrap();
    assert_eq!(count(&db, "T"), 50);
}

#[test]
fn torn_log_tail_recovers_a_committed_prefix_at_every_offset() {
    let base = TempDir::new("recovery-torn-base");
    const N: i64 = 12;
    {
        let db = open(base.path());
        db.execute("CREATE TABLE T (id INT NOT NULL)").unwrap();
        for i in 0..N {
            db.execute(&format!("INSERT INTO T VALUES ({i})")).unwrap();
        }
    }
    let wal = std::fs::read(base.path().join("wal.log")).unwrap();
    let pages = std::fs::read(base.path().join("pages.db")).unwrap();

    // Truncate the log at every byte offset across (more than) the final
    // record and reopen each time: recovery must never fail, and must
    // produce exactly the rows whose commit records survived — a prefix of
    // the insert order, growing monotonically with the cut point.
    let tail = wal.len().min(300);
    let mut last_k = -1i64;
    for cut in (wal.len() - tail)..=wal.len() {
        let scratch = TempDir::new("recovery-torn-cut");
        std::fs::write(scratch.path().join("pages.db"), &pages).unwrap();
        std::fs::write(scratch.path().join("wal.log"), &wal[..cut]).unwrap();

        let db = open(scratch.path());
        let rows = int_rows(&db, "SELECT id FROM T");
        let k = rows.len() as i64;
        assert!(k <= N, "cut {cut}: recovered more rows than were committed");
        let expect: Vec<Vec<i64>> = (0..k).map(|i| vec![i]).collect();
        assert_eq!(rows, expect, "cut {cut}: not a committed prefix");
        assert!(k >= last_k, "cut {cut}: longer log recovered less");
        last_k = k;
    }
    assert_eq!(last_k, N, "untruncated log must recover everything");
}

#[test]
fn loser_transaction_is_rolled_back_on_restart() {
    let dir = TempDir::new("recovery-loser");
    {
        let db = open(dir.path());
        db.execute("CREATE TABLE T (id INT NOT NULL, v INT)")
            .unwrap();
        db.execute("INSERT INTO T VALUES (1, 10)").unwrap();

        let session = db.session();
        session.begin().unwrap();
        session
            .execute("UPDATE T SET v = 99 WHERE id = 1", &[])
            .unwrap();
        session
            .execute("INSERT INTO T VALUES (2, 20)", &[])
            .unwrap();
        // Leak the open transaction: dropping the session would cleanly
        // roll it back; leaking models a client that dies mid-transaction.
        std::mem::forget(session);

        // An unrelated commit pushes the log — including the leaked
        // transaction's records — out to the file.
        db.execute("INSERT INTO T VALUES (3, 30)").unwrap();
    }

    let db = open(dir.path());
    assert!(db.recovery_report().unwrap().losers >= 1);
    // The loser's insert is gone, its update undone; committed rows stand.
    assert_eq!(
        int_rows(&db, "SELECT id, v FROM T"),
        vec![vec![1, 10], vec![3, 30]]
    );
    // The undone write mark is fully cleared: row 1 is writable again.
    db.execute("UPDATE T SET v = 11 WHERE id = 1").unwrap();
    assert_eq!(
        int_rows(&db, "SELECT v FROM T WHERE id = 1"),
        vec![vec![11]]
    );
}

#[test]
fn committed_but_unvacuumed_version_chain_recovers_to_latest() {
    let dir = TempDir::new("recovery-chain");
    {
        let db = open(dir.path());
        db.execute("CREATE TABLE T (id INT NOT NULL, v INT)")
            .unwrap();
        db.execute("INSERT INTO T VALUES (1, 0)").unwrap();
        db.execute("INSERT INTO T VALUES (2, 0)").unwrap();
        // Pile up dead predecessor versions — never vacuumed, so the log
        // (and the heap) still carry the whole chain at "crash" time.
        for n in 1..=5 {
            db.execute(&format!("UPDATE T SET v = {n} WHERE id = 1"))
                .unwrap();
        }
        db.execute("DELETE FROM T WHERE id = 2").unwrap();
    }

    let db = open(dir.path());
    // Only the chain heads are visible.
    assert_eq!(int_rows(&db, "SELECT id, v FROM T"), vec![vec![1, 5]]);
    // Vacuum reclaims the recovered dead versions without disturbing them,
    // and the result survives another restart.
    db.execute("VACUUM T").unwrap();
    assert_eq!(int_rows(&db, "SELECT id, v FROM T"), vec![vec![1, 5]]);
    drop(db);
    let db = open(dir.path());
    assert_eq!(int_rows(&db, "SELECT id, v FROM T"), vec![vec![1, 5]]);
}

#[test]
fn reopening_twice_is_idempotent() {
    let dir = TempDir::new("recovery-idem");
    {
        let db = open(dir.path());
        db.execute("CREATE TABLE T (id INT NOT NULL, v VARCHAR)")
            .unwrap();
        for i in 0..20 {
            db.execute(&format!("INSERT INTO T VALUES ({i}, 'x{i}')"))
                .unwrap();
        }
    }
    // First reopen replays the log and rotates it down to a checkpoint;
    // the second must find that checkpoint and change nothing.
    let first = {
        let db = open(dir.path());
        int_rows(&db, "SELECT id FROM T")
    };
    let db = open(dir.path());
    assert_eq!(first, int_rows(&db, "SELECT id FROM T"));
    assert_eq!(first.len(), 20);
}

#[test]
fn buffer_budget_evicts_under_pressure_and_loses_nothing() {
    let dir = TempDir::new("recovery-evict");
    // 8 frames vs. a heap dozens of pages long: inserts force evictions,
    // each write-back passing the WAL-before-data debug assert in the
    // buffer pool (this test runs in debug builds).
    let tiny = DbConfig {
        buffer_pages: 8,
        ..config(dir.path())
    };
    let fat = "x".repeat(400);
    {
        let db = Database::open_with_config(tiny.clone()).unwrap();
        db.execute("CREATE TABLE T (id INT NOT NULL, pad VARCHAR)")
            .unwrap();
        for i in 0..500 {
            db.execute(&format!("INSERT INTO T VALUES ({i}, '{fat}')"))
                .unwrap();
        }
        let stats = db.catalog().buffer_pool().stats();
        assert!(stats.evictions > 0, "budget never forced an eviction");
        assert!(stats.dirty_writebacks > 0, "no dirty page was written back");
        // Reads page everything back in through the same tiny pool.
        assert_eq!(count(&db, "T"), 500);
    }
    let db = Database::open_with_config(tiny).unwrap();
    assert_eq!(count(&db, "T"), 500);
    assert_eq!(
        int_rows(&db, "SELECT id FROM T WHERE id = 499"),
        vec![vec![499]]
    );
}

/// An 8-frame pool has one frame per shard, so two parallel-scan workers
/// reading pages that hash to the same shard at the same moment find every
/// frame of it pinned. Neither holds another pin, so the second must wait
/// for the first's unpin rather than fail with `BufferPoolExhausted`.
#[test]
fn buffer_budget_parallel_scans_wait_for_pinned_frames() {
    let db = Database::with_config(DbConfig {
        buffer_pages: 8,
        plan: PlanOptions {
            dop: 2,
            ..Default::default()
        },
        ..DbConfig::default()
    });
    db.execute("CREATE TABLE T (id INT NOT NULL, pad VARCHAR)")
        .unwrap();
    let fat = "x".repeat(400);
    for i in 0..600 {
        db.execute(&format!("INSERT INTO T VALUES ({i}, '{fat}')"))
            .unwrap();
    }
    let pages = db.catalog().table("T").unwrap().page_count();
    assert!(pages >= 24, "heap is only {pages} pages long");
    let plan = db.explain("SELECT COUNT(*) FROM T").unwrap();
    assert!(plan.contains("ParallelSeqScan(T)"), "{plan}");
    for _ in 0..200 {
        assert_eq!(count(&db, "T"), 600);
    }
}

/// A pool of zero pages cannot hold the page a scan reads: both open paths
/// floor `buffer_pages` at 8 frames instead of panicking.
#[test]
fn zero_buffer_pages_opens_an_eight_frame_pool() {
    let dir = TempDir::new("recovery-zero-pool");
    let durable = DbConfig {
        buffer_pages: 0,
        ..config(dir.path())
    };
    let in_memory = DbConfig {
        buffer_pages: 0,
        ..DbConfig::default()
    };
    for db in [
        Database::open_with_config(durable).unwrap(),
        Database::with_config(in_memory),
    ] {
        assert_eq!(db.catalog().buffer_pool().capacity(), 8);
        db.execute("CREATE TABLE T (id INT NOT NULL)").unwrap();
        db.execute("INSERT INTO T VALUES (1)").unwrap();
        assert_eq!(count(&db, "T"), 1);
    }
}

/// Flip one byte in every field the page trailer protects — header, header
/// LSN, record area, each LSN-echo byte, each CRC byte — and reopen. With
/// an empty double-write buffer (clean shutdown) there is nothing to
/// restore from, so the open must fail with the typed torn-page error at
/// every offset: the corrupt page is never served.
#[test]
fn flipped_byte_in_any_trailer_field_fails_loudly_without_a_dw_copy() {
    let base = TempDir::new("recovery-flip-base");
    {
        let db = open(base.path());
        db.execute("CREATE TABLE T (id INT NOT NULL)").unwrap();
        for i in 0..8 {
            db.execute(&format!("INSERT INTO T VALUES ({i})")).unwrap();
        }
        db.checkpoint().unwrap(); // stamped images on disk, DW truncated
    }
    let pages = std::fs::read(base.path().join("pages.db")).unwrap();
    let wal = std::fs::read(base.path().join("wal.log")).unwrap();
    assert!(pages.len() >= PAGE_SIZE, "checkpoint left no page image");

    // Offsets into page 0: two header bytes (slot count, first LSN byte),
    // the middle of the record area, then the whole 12-byte trailer.
    let mut offsets: Vec<usize> = vec![0, 8, PAGE_SIZE / 2];
    offsets.extend(PAGE_SIZE - 12..PAGE_SIZE);
    for off in offsets {
        let scratch = TempDir::new("recovery-flip");
        let mut corrupt = pages.clone();
        corrupt[off] ^= 0xFF;
        std::fs::write(scratch.path().join("pages.db"), &corrupt).unwrap();
        std::fs::write(scratch.path().join("wal.log"), &wal).unwrap();

        let err = match Database::open_with_config(config(scratch.path())) {
            Ok(_) => panic!("byte {off}: open served a checksum-corrupt page"),
            Err(e) => e,
        };
        assert!(
            err.to_string().contains("torn page"),
            "byte {off}: expected the typed torn-page error, got: {err}"
        );
    }
}

/// Hand-build the doublewrite buffer a crash would leave behind — a valid
/// `[page_id][stamped image]` entry whose in-place copy is mangled — and
/// prove the open-time restore path end to end: the first open repairs
/// from DW and serves the data; the second open (DW truncated by the
/// repair) finds a clean page file and repairs nothing. Reopening is
/// idempotent.
#[test]
fn hand_built_dw_entry_repairs_corruption_and_reopen_is_idempotent() {
    let dir = TempDir::new("recovery-dw-repair");
    {
        let db = open(dir.path());
        db.execute("CREATE TABLE T (id INT NOT NULL)").unwrap();
        for i in 0..8 {
            db.execute(&format!("INSERT INTO T VALUES ({i})")).unwrap();
        }
        db.checkpoint().unwrap();
    }
    let pages_path = dir.path().join("pages.db");
    let pristine = std::fs::read(&pages_path).unwrap();

    // The crash shape: DW batch durable, in-place write torn halfway.
    let mut dw = Vec::with_capacity(8 + PAGE_SIZE);
    dw.extend_from_slice(&0u64.to_le_bytes());
    dw.extend_from_slice(&pristine[..PAGE_SIZE]);
    std::fs::write(dir.path().join("doublewrite.db"), &dw).unwrap();
    let mut corrupt = pristine.clone();
    for b in &mut corrupt[PAGE_SIZE / 2..PAGE_SIZE] {
        *b = 0xAA;
    }
    std::fs::write(&pages_path, &corrupt).unwrap();

    let expect: Vec<Vec<i64>> = (0..8).map(|i| vec![i]).collect();
    let first = {
        let db = open(dir.path());
        let report = db.recovery_report().unwrap();
        assert!(
            report.torn_pages_repaired >= 1,
            "DW copy was not used to repair: {report:?}"
        );
        int_rows(&db, "SELECT id FROM T")
    };
    assert_eq!(first, expect);

    let db = open(dir.path());
    assert_eq!(
        db.recovery_report().unwrap().torn_pages_repaired,
        0,
        "second open found leftover repair work"
    );
    assert_eq!(first, int_rows(&db, "SELECT id FROM T"));
    assert_eq!(
        std::fs::metadata(dir.path().join("doublewrite.db"))
            .unwrap()
            .len(),
        0,
        "repair must truncate the DW buffer it consumed"
    );
}

/// A crash between `ensure_allocated` extending the page file and the
/// `HeapPage` record reaching the log strands the new pages: no table
/// reaches them, no record replays them. Recovery reconciles the file
/// length against logged extents and returns the strays to the free map,
/// so later growth reuses them instead of leaking file space forever.
#[test]
fn stranded_pages_are_reclaimed_and_reused_after_recovery() {
    let dir = TempDir::new("recovery-stranded");
    {
        let db = open(dir.path());
        db.execute("CREATE TABLE T (id INT NOT NULL)").unwrap();
        db.execute("INSERT INTO T VALUES (0)").unwrap();
        db.checkpoint().unwrap();
    }
    // Model the crash: the file grew by two pages the log never heard of
    // (extension zero-fills, so the strays are all-zero and readable).
    use std::io::Write;
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(dir.path().join("pages.db"))
        .unwrap();
    f.write_all(&vec![0u8; 2 * PAGE_SIZE]).unwrap();
    drop(f);

    let db = open(dir.path());
    let report = db.recovery_report().unwrap();
    assert!(
        report.pages_reclaimed >= 2,
        "stranded pages were not reconciled: {report:?}"
    );
    let disk = db.catalog().buffer_pool().disk();
    assert!(disk.free_page_count() >= 2);
    let before = disk.page_count();

    // Enough inserts to force heap growth: the new heap pages must come
    // from the reclaimed strays, not extend the file.
    for i in 1..=600 {
        db.execute(&format!("INSERT INTO T VALUES ({i})")).unwrap();
    }
    assert_eq!(count(&db, "T"), 601);
    assert!(
        disk.page_count() <= before,
        "heap growth extended the file past {before} pages instead of \
         reusing the reclaimed ones"
    );
}

#[test]
fn wal_stats_and_explain_report_durability() {
    // In-memory: no log, and EXPLAIN says so.
    let mem = Database::new();
    assert!(mem.wal_stats().is_none());
    mem.execute("CREATE TABLE T (id INT)").unwrap();
    assert!(mem
        .explain("SELECT * FROM T")
        .unwrap()
        .contains("durability: none (in-memory)"));

    // Durable: commits append and flush; EXPLAIN reports the fsync mode.
    let dir = TempDir::new("recovery-stats");
    let db = open(dir.path());
    db.execute("CREATE TABLE T (id INT)").unwrap();
    db.execute("INSERT INTO T VALUES (1)").unwrap();
    let stats = db.wal_stats().unwrap();
    assert!(stats.records > 0);
    assert!(stats.bytes_logged > 0);
    assert_eq!(
        stats.durable_lsn, stats.last_lsn,
        "commit left the log soft"
    );
    assert!(db
        .explain("SELECT * FROM T")
        .unwrap()
        .contains("durability: wal (group commit, fsync=off, doublewrite=on)"));

    // Manual checkpoints work and reset the redo distance.
    db.checkpoint().unwrap();
    let after = db.wal_stats().unwrap();
    assert!(after.checkpoints > stats.checkpoints);
}
