//! ARIES-style restart recovery: analysis → redo → undo.
//!
//! [`recover`] takes the records scanned from the write-ahead log at open
//! (see [`crate::wal::Wal::open`]) and reconstructs the catalog:
//!
//! 1. **Analysis** scans the *full* log (bounded, because the log is
//!    rotated at every clean open): it finds the last fuzzy checkpoint,
//!    classifies every transaction as winner (a `Commit` record or a
//!    checkpoint stamp exists) or loser, and collects each transaction's
//!    undoable page operations in log order. The scan is full rather than
//!    checkpoint-bounded because a loser may have written *before* the
//!    checkpoint — the checkpoint's `flush_all` pushed those effects to
//!    disk, so undo must know about them.
//! 2. **Restore** rebuilds the checkpoint image: transaction counters and
//!    commit stamps (merged with commits found in the log), base tables
//!    with their page extents and index definitions, and plain view
//!    definitions. Materialized views are *stashed*: their backing tables
//!    are recreated only after redo so their fresh table ids cannot
//!    collide with ids claimed by redone `CreateTable` records.
//! 3. **Redo** replays history from the checkpoint's `redo_lsn`. Page
//!    operations are LSN-guarded (a page flushed with `page_lsn ≥` the
//!    record's LSN already reflects it); DDL redo is idempotent (create
//!    skips existing names, drop skips missing ones), which is what makes
//!    the fuzzy checkpoint safe. Records for unknown table ids — unlogged
//!    materialized-view backing tables — are skipped.
//! 4. **Undo** rolls back the losers in reverse log order with tolerant
//!    physical operations: an `Install` is reclaimed only while the slot
//!    still holds the loser's version (`xmin == xid`), a `Mark` is cleared
//!    only while `xmax == xid`. Tolerance makes undo idempotent across
//!    repeated crashes during recovery and immune to slot reuse by later
//!    committed inserts.
//! 5. **Finish**: recreate materialized-view backing tables (empty; the
//!    caller REFRESHes them), rebuild every index from the recovered heap
//!    contents, refresh free-space maps, and recalibrate GC pressure
//!    counters (recovered headers may reference arbitrarily old stamps, so
//!    each table's freeze horizon restarts at zero and is re-earned by
//!    vacuum).
//!
//! WAL logging must stay off for the duration ([`recover`] turns it off);
//! the caller re-enables it after writing a fresh post-recovery checkpoint.

use std::collections::{HashMap, HashSet};

use crate::catalog::{Catalog, ViewKind};
use crate::error::Result;
use crate::tuple::Rid;
use crate::txn::{TxnId, VersionHdr, FROZEN};
use crate::wal::{CheckpointSnap, TxnSnap, WalRecord};

/// What recovery found and did (surfaced by `Database::open`).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    pub records_scanned: u64,
    pub redo_applied: u64,
    pub redo_skipped: u64,
    pub winners: u64,
    pub losers: u64,
    pub undo_applied: u64,
    /// Torn in-place pages restored from the double-write buffer before
    /// this recovery began (copied from the disk manager's open-time scan).
    pub torn_pages_repaired: u64,
    /// Stranded pages (allocated before the crash but reachable from no
    /// heap extent) returned to the disk's free list.
    pub pages_reclaimed: u64,
}

/// One undoable operation attributed to a transaction during analysis.
enum LoserOp {
    Install { table: u32, rid: Rid },
    Mark { table: u32, rid: Rid },
}

/// Replay `records` (the scanned log, in order) into `catalog`.
pub fn recover(catalog: &Catalog, records: Vec<(u64, WalRecord)>) -> Result<RecoveryReport> {
    if let Some(wal) = catalog.wal() {
        wal.set_logging(false);
    }
    let mut report = RecoveryReport {
        records_scanned: records.len() as u64,
        ..RecoveryReport::default()
    };

    // -- 1. analysis ---------------------------------------------------------
    let mut checkpoint: Option<CheckpointSnap> = None;
    let mut committed: HashMap<TxnId, u64> = HashMap::new();
    let mut ops: Vec<(TxnId, LoserOp)> = Vec::new();
    let mut max_txn: TxnId = 0;
    for (_, rec) in &records {
        match rec {
            WalRecord::Checkpoint(snap) => checkpoint = Some((**snap).clone()),
            WalRecord::Commit { xid, stamp } => {
                committed.insert(*xid, *stamp);
                max_txn = max_txn.max(*xid);
            }
            WalRecord::Abort { xid } => max_txn = max_txn.max(*xid),
            WalRecord::Install { table, rid, record } => {
                // The writer's identity rides in the version header the
                // record installs.
                if let Some((hdr, _)) = VersionHdr::decode(record) {
                    max_txn = max_txn.max(hdr.xmin);
                    if hdr.xmin != FROZEN {
                        ops.push((
                            hdr.xmin,
                            LoserOp::Install {
                                table: *table,
                                rid: *rid,
                            },
                        ));
                    }
                }
            }
            WalRecord::Mark { xid, table, rid } => {
                max_txn = max_txn.max(*xid);
                if *xid != FROZEN {
                    ops.push((
                        *xid,
                        LoserOp::Mark {
                            table: *table,
                            rid: *rid,
                        },
                    ));
                }
            }
            _ => {}
        }
    }
    let snap = checkpoint.unwrap_or_default();
    for (xid, stamp) in &snap.txn.stamps {
        committed.entry(*xid).or_insert(*stamp);
        max_txn = max_txn.max(*xid);
    }
    let mut winners: HashSet<TxnId> = HashSet::new();
    let mut losers: HashSet<TxnId> = HashSet::new();
    for (xid, _) in &ops {
        if committed.contains_key(xid) {
            winners.insert(*xid);
        } else {
            losers.insert(*xid);
        }
    }
    report.winners = winners.len() as u64;
    report.losers = losers.len() as u64;

    // -- 2. restore the checkpoint image ------------------------------------
    let max_stamp = committed.values().copied().max().unwrap_or(0);
    catalog.txns().restore(&TxnSnap {
        next_txn: snap.txn.next_txn.max(max_txn + 1),
        commit_seq: snap.txn.commit_seq.max(max_stamp),
        stamps: committed.into_iter().collect(),
    });
    catalog.set_next_table_id(snap.next_table_id);
    // Materialized views wait until after redo (fresh backing-table ids
    // must not collide with redone CreateTable ids); keep log order via a
    // name-keyed stash.
    let mut matviews: HashMap<String, crate::wal::ViewSnap> = HashMap::new();
    for table in snap.tables {
        catalog.restore_table(table);
    }
    for view in snap.views {
        if view.materialized {
            matviews.insert(view.name.to_ascii_uppercase(), view);
        } else {
            catalog.redo_register_view(&view);
        }
    }

    // -- 3. redo from the checkpoint's redo point ---------------------------
    for (lsn, rec) in &records {
        if *lsn <= snap.redo_lsn {
            continue;
        }
        let applied = match rec {
            WalRecord::Install { table, rid, record } => match catalog.table_by_id(*table) {
                Some(t) => t.heap().redo_install(*rid, record, *lsn)?,
                None => false,
            },
            WalRecord::Mark { xid, table, rid } => match catalog.table_by_id(*table) {
                Some(t) => t.heap().redo_mark(*rid, *xid, *lsn)?,
                None => false,
            },
            WalRecord::Unmark { table, rid } => match catalog.table_by_id(*table) {
                Some(t) => t.heap().redo_unmark(*rid, *lsn)?,
                None => false,
            },
            WalRecord::Freeze { table, rid } => match catalog.table_by_id(*table) {
                Some(t) => t.heap().redo_freeze(*rid, *lsn)?,
                None => false,
            },
            WalRecord::Tombstone { table, rid } => match catalog.table_by_id(*table) {
                Some(t) => t.heap().redo_tombstone(*rid, *lsn)?,
                None => false,
            },
            WalRecord::HeapPage { table, page } => match catalog.table_by_id(*table) {
                Some(t) => {
                    t.heap().redo_add_page(*page)?;
                    true
                }
                None => false,
            },
            WalRecord::CreateTable { id, name, schema } => {
                catalog.redo_create_table(*id, name, schema.clone());
                true
            }
            WalRecord::DropTable { name } => {
                catalog.redo_drop_table(name);
                true
            }
            WalRecord::CreateIndex { table, index } => {
                catalog.redo_create_index(*table, index);
                true
            }
            WalRecord::CreateView(vs) => {
                if vs.materialized {
                    matviews.insert(vs.name.to_ascii_uppercase(), vs.clone());
                } else {
                    catalog.redo_register_view(vs);
                }
                true
            }
            WalRecord::DropView { name } => {
                catalog.redo_drop_view(name);
                matviews.remove(&name.to_ascii_uppercase());
                true
            }
            WalRecord::Commit { .. } | WalRecord::Abort { .. } | WalRecord::Checkpoint(_) => {
                continue;
            }
        };
        if applied {
            report.redo_applied += 1;
        } else {
            report.redo_skipped += 1;
        }
    }

    // -- 4. undo the losers, newest first -----------------------------------
    for (xid, op) in ops.iter().rev() {
        if !losers.contains(xid) {
            continue;
        }
        match op {
            LoserOp::Install { table, rid } => {
                if let Some(t) = catalog.table_by_id(*table) {
                    t.heap().undo_install(*rid, *xid)?;
                    report.undo_applied += 1;
                }
            }
            LoserOp::Mark { table, rid } => {
                if let Some(t) = catalog.table_by_id(*table) {
                    t.heap().undo_mark(*rid, *xid)?;
                    report.undo_applied += 1;
                }
            }
        }
    }

    // -- 5. finish: matview backing, indexes, free maps, GC calibration -----
    let mut stashed: Vec<crate::wal::ViewSnap> = matviews.into_values().collect();
    stashed.sort_by(|a, b| a.name.cmp(&b.name));
    for vs in stashed {
        catalog.create_materialized_view(
            &vs.name,
            ViewKind::from_tag(vs.kind),
            &vs.text,
            vs.streams.clone(),
        )?;
    }
    for name in catalog.table_names() {
        let t = catalog.table(&name)?;
        t.heap().refresh_free_map()?;
        t.rebuild_indexes()?;
        let census = t.version_census()?;
        // Recovered headers may reference any historical stamp: pressure
        // counters start from a census so vacuum knows to scan, and the
        // freeze horizon (zero) is re-earned by that scan.
        t.gc()
            .note_unfrozen(census.total_versions.saturating_sub(census.frozen));
        t.gc().note_dead(census.dead);
    }

    // Reconcile the page file against logged extents: a crash between a
    // heap extension and its `HeapPage` record strands the allocated page
    // forever (no table reaches it, no record replays it). Return stranded
    // pages to the disk's free list so later allocations reuse them
    // instead of growing the file. Pre-crash matview backing pages are
    // stranded by construction (backing tables are recreated empty and
    // REFRESHed by the caller), so they recycle here too.
    let disk = catalog.buffer_pool().disk();
    let used: HashSet<crate::disk::PageId> = catalog.live_page_extents().into_iter().collect();
    let stranded: Vec<crate::disk::PageId> = (0..disk.page_count())
        .filter(|id| !used.contains(id))
        .collect();
    report.pages_reclaimed = stranded.len() as u64;
    report.torn_pages_repaired = disk.stats().torn_pages_repaired;
    disk.reclaim(&stranded);

    catalog.bump_generation();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::BufferPool;
    use crate::catalog::tests::{posted, visible_rows};
    use crate::disk::DiskManager;
    use crate::schema::Schema;
    use crate::tempdir::TempDir;
    use crate::tuple::Tuple;
    use crate::txn::Transaction;
    use crate::value::{DataType, Value};
    use crate::wal::Wal;
    use std::path::Path;
    use std::sync::Arc;

    /// Open the full durable stack at `dir`: file-backed disk, WAL, pool
    /// with WAL-before-data, logged catalog. Returns the scanned log too.
    fn open_stack(dir: &Path) -> (Arc<Wal>, Catalog, Vec<(u64, WalRecord)>) {
        let disk = Arc::new(DiskManager::open_file(&dir.join("pages.db")).unwrap());
        let (wal, records) = Wal::open(&dir.join("wal.log"), false).unwrap();
        let wal = Arc::new(wal);
        let pool = Arc::new(BufferPool::with_wal(disk, 64, Arc::clone(&wal)));
        let catalog = Catalog::new_logged(pool, Some(Arc::clone(&wal)));
        (wal, catalog, records)
    }

    fn schema() -> Schema {
        Schema::from_pairs(&[("id", DataType::Int), ("v", DataType::Str)])
    }

    fn row(i: i64) -> Tuple {
        Tuple::new(vec![Value::Int(i), Value::Str(format!("v{i}"))])
    }

    #[test]
    fn recovers_committed_dml_and_ddl_without_page_flush() {
        let dir = TempDir::new("rec-basic");
        {
            let (wal, catalog, records) = open_stack(dir.path());
            assert!(records.is_empty());
            let t = catalog.create_table("T", schema()).unwrap();
            t.create_index("t_id", vec![0], true).unwrap();
            let mut txn = Transaction::begin(catalog.txns());
            for i in 0..50 {
                let rid = t.insert_txn(&row(i), txn.id()).unwrap();
                txn.log_insert(&t, rid);
            }
            txn.commit();
            wal.flush_all().unwrap();
            // No pool.flush_all(): every row must come back via redo alone.
        }
        let (_wal, catalog, records) = open_stack(dir.path());
        let report = recover(&catalog, records).unwrap();
        assert_eq!(report.losers, 0);
        assert_eq!(report.winners, 1);
        let t = catalog.table("T").unwrap();
        assert_eq!(t.row_count().unwrap(), 50);
        assert_eq!(posted(&t, "t_id", 7).len(), 1);
        // The recovered heap accepts new writes.
        t.insert(&row(100)).unwrap();
        assert_eq!(t.row_count().unwrap(), 51);
    }

    #[test]
    fn undoes_loser_transactions() {
        let dir = TempDir::new("rec-loser");
        {
            let (wal, catalog, _) = open_stack(dir.path());
            let t = catalog.create_table("T", schema()).unwrap();
            let mut committed = Transaction::begin(catalog.txns());
            let keep = t.insert_txn(&row(1), committed.id()).unwrap();
            committed.log_insert(&t, keep);
            committed.commit();
            // A transaction caught mid-flight by the crash: one insert and
            // one delete mark on the committed row.
            let loser = catalog.txns().allocate();
            t.insert_txn(&row(2), loser).unwrap();
            let rid = visible_rows(&t)[0].0;
            t.mark_delete_txn(rid, loser).unwrap();
            wal.flush_all().unwrap();
        }
        let (_wal, catalog, records) = open_stack(dir.path());
        let report = recover(&catalog, records).unwrap();
        assert_eq!(report.losers, 1);
        assert!(report.undo_applied >= 2);
        let t = catalog.table("T").unwrap();
        let rows = visible_rows(&t);
        assert_eq!(rows.len(), 1, "loser insert reclaimed");
        assert_eq!(rows[0].1, row(1));
        // The loser's delete mark is gone: the row is writable again.
        let b = catalog.txns().allocate();
        t.mark_delete_txn(rows[0].0, b).unwrap();
    }

    #[test]
    fn duplicate_redo_is_idempotent() {
        let dir = TempDir::new("rec-dup");
        {
            let (wal, catalog, _) = open_stack(dir.path());
            let t = catalog.create_table("T", schema()).unwrap();
            let mut txn = Transaction::begin(catalog.txns());
            for i in 0..20 {
                let rid = t.insert_txn(&row(i), txn.id()).unwrap();
                txn.log_insert(&t, rid);
            }
            txn.commit();
            wal.flush_all().unwrap();
        }
        // First recovery, with the pages flushed at the end — as a real
        // restart's final checkpoint would.
        {
            let (_wal, catalog, records) = open_stack(dir.path());
            recover(&catalog, records).unwrap();
            catalog.buffer_pool().flush_all().unwrap();
        }
        // Second recovery over the same log: every page op must skip on the
        // on-page LSN guard, and contents must be unchanged.
        let (_wal, catalog, records) = open_stack(dir.path());
        let report = recover(&catalog, records).unwrap();
        // The structural records (CreateTable, HeapPage) re-apply against
        // the fresh catalog; every tuple Install must skip on the on-page
        // LSN guard instead of double-applying.
        assert!(
            report.redo_skipped >= 20,
            "tuple installs already reflected on flushed pages: {report:?}"
        );
        let t = catalog.table("T").unwrap();
        assert_eq!(t.row_count().unwrap(), 20);
    }

    #[test]
    fn checkpoint_bounds_redo_and_preserves_matview_definitions() {
        let dir = TempDir::new("rec-ckpt");
        {
            let (wal, catalog, _) = open_stack(dir.path());
            let t = catalog.create_table("T", schema()).unwrap();
            t.insert(&row(1)).unwrap();
            catalog
                .create_materialized_view(
                    "MV",
                    ViewKind::Sql,
                    "SELECT id, v FROM T",
                    vec![("MV".to_string(), schema())],
                )
                .unwrap();
            catalog.matview("MV").unwrap().streams()[0]
                .table
                .insert(&row(1))
                .unwrap();
            // Checkpoint: capture redo point, flush pages, log the snapshot.
            let redo_lsn = wal.last_lsn();
            let (next_id, tables, views) = catalog.checkpoint_snapshot();
            catalog.buffer_pool().flush_all().unwrap();
            wal.append_checkpoint(CheckpointSnap {
                redo_lsn,
                next_table_id: next_id,
                txn: catalog.txns().snapshot_state(),
                tables,
                views,
            })
            .unwrap();
            // Post-checkpoint work that only redo can bring back.
            t.insert(&row(2)).unwrap();
            wal.flush_all().unwrap();
        }
        let (_wal, catalog, records) = open_stack(dir.path());
        recover(&catalog, records).unwrap();
        let t = catalog.table("T").unwrap();
        assert_eq!(t.row_count().unwrap(), 2);
        // The matview definition survives; its backing is recreated empty
        // (the database layer REFRESHes it on open).
        let def = catalog.view("MV").unwrap();
        assert!(def.materialized);
        let mv = catalog.matview("MV").unwrap();
        assert_eq!(mv.streams().len(), 1);
        assert_eq!(mv.streams()[0].table.row_count().unwrap(), 0);
    }
}
