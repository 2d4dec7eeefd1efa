//! Torn-page fault-injection matrix: deterministic crashes injected into
//! the disk manager ([`FaultPlan`]) produce *every* torn-page shape — a
//! tear at each 512-byte boundary of an in-place page write, a tear of the
//! double-write append itself, and a crash between the DW fsync and the
//! in-place write — and each one must end in detection + repair (or a
//! clean old image re-covered by WAL redo), never silent corruption.
//!
//! The workload is shaped so a checkpoint flushes exactly one dirty heap
//! page: image write 0 is then the double-write append and image write 1
//! the in-place write, which is what makes the tear indices deterministic.

use std::path::Path;
use std::sync::Arc;

use xnf_core::{Database, DbConfig, FaultPlan, TempDir};
use xnf_storage::{BufferPool, DiskManager, PageId, StorageError, PAGE_SIZE};

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

/// The single stored value (account 0's balance).
fn balance(db: &Database) -> i64 {
    db.session()
        .query("SELECT bal FROM ACCT WHERE id = 0", &[])
        .unwrap()
        .try_table()
        .unwrap()
        .rows[0][0]
        .as_int()
        .unwrap()
}

/// Open (creating the one-row schema on the first call), set the balance
/// to `bal`, then checkpoint under `plan`. Returns the checkpoint result.
fn update_and_faulted_checkpoint(
    dir: &Path,
    bal: i64,
    plan: FaultPlan,
) -> Result<(), xnf_core::XnfError> {
    let db = open(dir);
    let s = db.session();
    let _ = s.execute("CREATE TABLE ACCT (id INT, bal INT)", &[]);
    if s.query("SELECT id FROM ACCT", &[])
        .unwrap()
        .try_table()
        .unwrap()
        .rows
        .is_empty()
    {
        s.execute("INSERT INTO ACCT VALUES (0, -1)", &[]).unwrap();
        db.checkpoint().unwrap(); // first in-place image on disk
    }
    s.execute(&format!("UPDATE ACCT SET bal = {bal} WHERE id = 0"), &[])
        .unwrap();
    db.catalog().buffer_pool().disk().set_fault_plan(plan);
    db.checkpoint()
}

/// Tear the *in-place* page write at every 512-byte boundary. The DW copy
/// was fsynced first, so reopening must detect the torn image by checksum
/// and restore it — and the committed update must be visible.
#[test]
fn tear_in_place_write_at_every_512_byte_boundary() {
    let dir = TempDir::new("torn-matrix-inplace");
    for (i, torn_at) in (0..PAGE_SIZE).step_by(512).enumerate() {
        let bal = 1000 + i as i64;
        let err = update_and_faulted_checkpoint(
            dir.path(),
            bal,
            FaultPlan {
                tear_write: Some((1, torn_at)),
                drop_fsync: None,
            },
        );
        assert!(
            err.is_err(),
            "injected tear at {torn_at} must fail the flush"
        );

        let db = open(dir.path());
        let report = db.recovery_report().expect("durable open recovers");
        if torn_at > 0 {
            assert!(
                report.torn_pages_repaired >= 1,
                "tear at byte {torn_at} left a half-written page; the DW \
                 buffer must repair it (report: {report:?})"
            );
        }
        assert_eq!(
            balance(&db),
            bal,
            "committed update lost after tear at byte {torn_at}"
        );
        drop(db);
    }
}

/// Tear the *double-write append* itself at assorted offsets. The torn DW
/// entry fails its own checksum and is skipped; the in-place old image was
/// never touched, so nothing needs repair and WAL redo replays the update.
#[test]
fn tear_doublewrite_append_leaves_old_image_intact() {
    let dir = TempDir::new("torn-matrix-dw");
    for (i, torn_at) in [0usize, 100, 512, 4096, PAGE_SIZE - 1]
        .into_iter()
        .enumerate()
    {
        let bal = 2000 + i as i64;
        let err = update_and_faulted_checkpoint(
            dir.path(),
            bal,
            FaultPlan {
                tear_write: Some((0, torn_at)),
                drop_fsync: None,
            },
        );
        assert!(
            err.is_err(),
            "torn DW append at {torn_at} must fail the flush"
        );

        let db = open(dir.path());
        let report = db.recovery_report().unwrap();
        assert_eq!(
            report.torn_pages_repaired, 0,
            "in-place image was never touched; nothing to repair"
        );
        assert_eq!(
            balance(&db),
            bal,
            "committed update lost after DW tear at byte {torn_at}"
        );
        drop(db);
    }
}

/// Crash exactly between the DW fsync and the in-place write (tear write 1
/// at byte 0: the DW batch is durable, the page file untouched). The old
/// image is still valid, so recovery skips the restore and redo replays.
#[test]
fn crash_between_dw_fsync_and_in_place_write() {
    let dir = TempDir::new("torn-matrix-window");
    let err = update_and_faulted_checkpoint(
        dir.path(),
        3000,
        FaultPlan {
            tear_write: Some((1, 0)),
            drop_fsync: None,
        },
    );
    assert!(err.is_err());

    let db = open(dir.path());
    assert_eq!(balance(&db), 3000, "update lost in the DW/in-place window");
}

/// A lying disk that silently drops the DW-batch fsync: the checkpoint
/// still succeeds from the process's point of view (the hook exists to
/// let crash tests model machine-level fsync loss), and the database
/// stays consistent because the OS-buffered writes are all intact.
#[test]
fn dropped_fsync_is_silent_and_process_state_stays_consistent() {
    let dir = TempDir::new("torn-matrix-fsync");
    let ok = update_and_faulted_checkpoint(
        dir.path(),
        4000,
        FaultPlan {
            tear_write: None,
            drop_fsync: Some(0),
        },
    );
    assert!(ok.is_ok(), "a dropped fsync reports success by design");

    let db = open(dir.path());
    assert_eq!(db.recovery_report().unwrap().torn_pages_repaired, 0);
    assert_eq!(balance(&db), 4000);
}

/// With doublewrite disabled, torn pages are still *detected* (the page
/// trailer is always on for file-backed stores): the open fails with a
/// typed torn-page error instead of serving garbage.
#[test]
fn doublewrite_off_detects_but_cannot_repair() {
    let dir = TempDir::new("torn-matrix-nodw");
    let cfg = DbConfig {
        doublewrite: false,
        ..config(dir.path())
    };
    {
        let db = Database::open_with_config(cfg.clone()).unwrap();
        let s = db.session();
        s.execute("CREATE TABLE ACCT (id INT, bal INT)", &[])
            .unwrap();
        s.execute("INSERT INTO ACCT VALUES (0, 7)", &[]).unwrap();
        db.checkpoint().unwrap();
        // Tear the next in-place write: no DW, so image write 0 is the
        // in-place one.
        s.execute("UPDATE ACCT SET bal = 8 WHERE id = 0", &[])
            .unwrap();
        db.catalog().buffer_pool().disk().set_fault_plan(FaultPlan {
            tear_write: Some((0, 2048)),
            drop_fsync: None,
        });
        assert!(db.checkpoint().is_err());
    }
    // Reopen: recovery reads the torn page, and with no DW copy to restore
    // from it must abort loudly with the typed error.
    let err = match Database::open_with_config(cfg) {
        Ok(_) => panic!("open must fail on an unrepairable torn page"),
        Err(e) => e,
    };
    assert!(
        err.to_string().contains("torn page"),
        "open must fail with the typed torn-page error, got: {err}"
    );
}

/// A torn page read on a miss lands in a recycled frame: the read fails
/// with the typed torn-page error, and the frame's previous occupant is
/// never served under either page id — the failed frame is left empty, so
/// the torn id reads torn again and the previous page re-reads from disk.
/// A reopen repairs the page from its double-write copy, as at any open.
#[test]
fn torn_page_read_into_a_recycled_frame_serves_neither_image() {
    let dir = TempDir::new("torn-matrix-recycled");
    let pages_path = dir.path().join("pages.db");
    let dw_path = dir.path().join("doublewrite.db");
    let open_pool = || {
        let disk = DiskManager::open_file_dw(&pages_path, &dw_path).unwrap();
        // One frame: every miss refills the frame the last page used.
        BufferPool::new(Arc::new(disk), 1)
    };
    let first =
        |pool: &BufferPool, id: PageId| pool.with_page(id, |p| p.get(0).map(<[u8]>::to_vec));

    let pool = open_pool();
    let (a, _) = pool.new_page(|_, p| p.insert(b"page a").unwrap()).unwrap();
    let (b, _) = pool.new_page(|_, p| p.insert(b"page b").unwrap()).unwrap();
    pool.flush_all().unwrap();
    pool.disk().sync().unwrap();

    // The crash shape behind the live pool's back: `a`'s DW copy durable,
    // its in-place image torn halfway. The frame holds `b`.
    let pristine = std::fs::read(&pages_path).unwrap();
    let at = a as usize * PAGE_SIZE;
    let mut dw = a.to_le_bytes().to_vec();
    dw.extend_from_slice(&pristine[at..at + PAGE_SIZE]);
    std::fs::write(&dw_path, &dw).unwrap();
    let mut torn = pristine;
    torn[at + PAGE_SIZE / 2..at + PAGE_SIZE].fill(0xAA);
    std::fs::write(&pages_path, &torn).unwrap();

    for _ in 0..2 {
        for _ in 0..2 {
            assert_eq!(
                first(&pool, a).unwrap_err(),
                StorageError::TornPage { page: a }
            );
        }
        assert_eq!(first(&pool, b).unwrap().as_deref(), Some(&b"page b"[..]));
    }
    let s = pool.stats();
    assert_eq!(
        (s.hits, s.misses),
        (0, 6),
        "a failed read left a page mapped"
    );
    drop(pool);

    let pool = open_pool();
    assert_eq!(pool.disk().stats().torn_pages_repaired, 1);
    assert_eq!(first(&pool, a).unwrap().as_deref(), Some(&b"page a"[..]));
    assert_eq!(first(&pool, b).unwrap().as_deref(), Some(&b"page b"[..]));
}
