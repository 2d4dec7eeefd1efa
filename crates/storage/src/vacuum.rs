//! Garbage collection for the MVCC storage layer: version vacuum, header
//! freezing and commit-stamp pruning behind the live-snapshot low-watermark.
//!
//! PR 4's MVCC-lite made every write *append*: an UPDATE marks the old
//! version dead and inserts a new one, and every commit adds a stamp-table
//! entry — so without reclamation a sustained write workload degrades
//! monotonically (heap pages, index postings and the stamp table all grow
//! O(writes)). This module bounds all three:
//!
//! - the **low-watermark** ([`crate::txn::TxnManager::oldest_visible_stamp`])
//!   is the oldest commit stamp any live snapshot reads at; commits at or
//!   below it are visible to every live and future snapshot;
//! - **vacuum** ([`crate::catalog::Table::vacuum`], driven by
//!   [`crate::catalog::Catalog::vacuum`]) walks a table's heap pages and,
//!   for every version whose *deleter* committed at or below the watermark,
//!   physically reclaims it — removing its index postings, tombstoning its
//!   heap slot (reusable by later inserts) and compacting the page;
//! - **freezing**: surviving versions whose *creator* committed at or below
//!   the watermark get their header rewritten to the committed-forever
//!   [`crate::txn::FROZEN`] sentinel, dropping their dependence on the
//!   stamp table;
//! - **stamp pruning**: once every table's headers have been frozen through
//!   stamp `S` (tracked per table as `frozen_through`), stamp entries
//!   ≤ `min(frozen_through)` are unreferenced and dropped
//!   ([`crate::txn::TxnManager::prune_stamps`]) — the stamp table ends up
//!   bounded by the commits since the last vacuum instead of total history.
//!
//! This is the classic MVCC reclamation split: PostgreSQL-style vacuum
//! (per-table passes reclaiming dead tuples + freezing old xmins against
//! wraparound/lookup cost) with a Hekaton-style cooperative flavour — the
//! engine triggers small vacuums opportunistically on write activity
//! (`dead_hint` pressure, see [`TableGc`]) rather than only on demand.

use std::sync::atomic::{AtomicU64, Ordering};

/// Per-table garbage-collection state: trigger pressure and the freeze
/// horizon. All counters are maintained under the table's write latch (all
/// versioned writes hold it), so a vacuum pass — which also holds it — can
/// reset them to exact remainders without racing increments.
#[derive(Debug)]
pub struct TableGc {
    /// Upper bound on headers that still reference a transaction id
    /// (`xmin` not yet frozen, or `xmax` set). Monotonically incremented by
    /// writes, set to the exact remainder by a vacuum pass. `0` means the
    /// table is *fully frozen*: no header references any stamp, so its
    /// `frozen_through` may be bumped to the current watermark without a
    /// scan (the "clean bump" that lets untouched tables stop blocking
    /// stamp pruning).
    unfrozen: AtomicU64,
    /// Reclaim pressure: versions marked dead plus tombstoned slots since
    /// the last vacuum. Drives the opportunistic vacuum trigger; reset by
    /// a pass to the count of dead-but-not-yet-reclaimable versions.
    dead_hint: AtomicU64,
    /// No header in this table references a commit stamp ≤ this value.
    /// Initialised to the commit counter at table creation (a transaction
    /// writing the table necessarily commits later, i.e. with a larger
    /// stamp); advanced by vacuum passes and clean bumps.
    frozen_through: AtomicU64,
    /// The watermark the last vacuum pass ran against. The opportunistic
    /// trigger only refires once the watermark has moved past it — a
    /// long-lived snapshot pinning the watermark must not cause a futile
    /// full-table scan on every commit (the pressure would stay above the
    /// threshold with nothing reclaimable).
    last_pass_watermark: AtomicU64,
}

impl TableGc {
    /// GC state for a table created when the commit counter read `created_seq`.
    pub fn new(created_seq: u64) -> Self {
        TableGc {
            unfrozen: AtomicU64::new(0),
            dead_hint: AtomicU64::new(0),
            frozen_through: AtomicU64::new(created_seq),
            last_pass_watermark: AtomicU64::new(created_seq),
        }
    }

    /// Record versioned header references created by a write (`n` new
    /// transaction-id references: 1 per versioned insert or delete mark).
    pub fn note_unfrozen(&self, n: u64) {
        self.unfrozen.fetch_add(n, Ordering::Relaxed);
    }

    /// Record reclaim pressure (a version marked dead, or a slot
    /// tombstoned and awaiting compaction).
    pub fn note_dead(&self, n: u64) {
        self.dead_hint.fetch_add(n, Ordering::Relaxed);
    }

    /// Current reclaim-pressure estimate (drives the auto-vacuum trigger).
    pub fn dead_hint(&self) -> u64 {
        self.dead_hint.load(Ordering::Relaxed)
    }

    /// Current unfrozen-header upper bound.
    pub fn unfrozen(&self) -> u64 {
        self.unfrozen.load(Ordering::Relaxed)
    }

    /// The stamp this table is frozen through.
    pub fn frozen_through(&self) -> u64 {
        self.frozen_through.load(Ordering::Acquire)
    }

    /// Freeze pressure: the commit stamps at or below `watermark` that this
    /// heap's unfrozen headers keep the stamp table from pruning (0 once
    /// it is fully frozen, which a clean bump settles without a scan).
    pub fn pinned_stamps(&self, watermark: u64) -> u64 {
        if self.unfrozen() == 0 {
            return 0;
        }
        watermark.saturating_sub(self.frozen_through())
    }

    /// The watermark of the last vacuum pass over this table.
    pub fn last_pass_watermark(&self) -> u64 {
        self.last_pass_watermark.load(Ordering::Relaxed)
    }

    /// Claim the opportunistic pass at `watermark`: move the last-pass
    /// watermark from below `watermark` up to it by one compare-and-swap,
    /// so a concurrent trigger at the same watermark skips this heap.
    /// Returns the value it replaced, or `None` when a pass at `watermark`
    /// already ran or is claimed.
    pub fn claim_pass(&self, watermark: u64) -> Option<u64> {
        let last = self.last_pass_watermark.load(Ordering::Acquire);
        (last < watermark
            && self
                .last_pass_watermark
                .compare_exchange(last, watermark, Ordering::AcqRel, Ordering::Acquire)
                .is_ok())
        .then_some(last)
    }

    /// Undo a [`TableGc::claim_pass`] whose pass did not run: restore
    /// `previous`, unless a pass has since recorded a later watermark.
    pub fn release_pass(&self, watermark: u64, previous: u64) {
        let _ = self.last_pass_watermark.compare_exchange(
            watermark,
            previous,
            Ordering::AcqRel,
            Ordering::Relaxed,
        );
    }

    /// Reset counters to the exact remainders a vacuum pass observed and
    /// advance the freeze horizon. Must be called under the table's write
    /// latch.
    pub fn after_pass(&self, watermark: u64, remaining_unfrozen: u64, remaining_dead: u64) {
        self.unfrozen.store(remaining_unfrozen, Ordering::Relaxed);
        self.dead_hint.store(remaining_dead, Ordering::Relaxed);
        self.frozen_through.fetch_max(watermark, Ordering::AcqRel);
        self.last_pass_watermark
            .fetch_max(watermark, Ordering::AcqRel);
    }

    /// Clean bump: with no unfrozen headers, the table references no stamp
    /// at all, so the freeze horizon advances without a scan. Must be
    /// called under the table's write latch. Returns whether it advanced.
    pub fn try_clean_bump(&self, watermark: u64) -> bool {
        if self.unfrozen.load(Ordering::Relaxed) == 0 {
            self.frozen_through.fetch_max(watermark, Ordering::AcqRel);
            true
        } else {
            false
        }
    }
}

/// What one table-level vacuum pass did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TableVacuumReport {
    /// Table (or materialized-view backing stream) name.
    pub table: String,
    /// Dead versions physically reclaimed (heap slot freed, index postings
    /// removed).
    pub versions_reclaimed: u64,
    /// Surviving versions whose header was rewritten to the committed-
    /// forever sentinel.
    pub versions_frozen: u64,
    /// Pages compacted (dead record space repacked, slots reusable).
    pub pages_compacted: u64,
    /// Dead versions the pass had to leave behind (their deleter was still
    /// uncommitted or committed above the watermark).
    pub remaining_dead: u64,
}

/// The outcome of a [`crate::catalog::Catalog::vacuum`] run.
#[derive(Debug, Clone, Default)]
pub struct VacuumReport {
    /// The low-watermark the pass ran against.
    pub watermark: u64,
    /// Per-table reports, in pass order (only the tables that were
    /// actually scanned; clean tables are skipped).
    pub tables: Vec<TableVacuumReport>,
    /// Commit-stamp entries dropped after freezing.
    pub stamps_pruned: u64,
    /// Commit-stamp entries still held (live-txn horizon).
    pub stamps_remaining: u64,
}

impl VacuumReport {
    /// Total versions reclaimed across all tables of this run.
    pub fn versions_reclaimed(&self) -> u64 {
        self.tables.iter().map(|t| t.versions_reclaimed).sum()
    }

    /// Total versions frozen across all tables of this run.
    pub fn versions_frozen(&self) -> u64 {
        self.tables.iter().map(|t| t.versions_frozen).sum()
    }

    /// Total pages compacted across all tables of this run.
    pub fn pages_compacted(&self) -> u64 {
        self.tables.iter().map(|t| t.pages_compacted).sum()
    }
}

/// Cumulative database-wide GC counters (all vacuum runs, manual and
/// opportunistic), for monitoring and the soak/bench harnesses.
#[derive(Debug, Default)]
pub struct GcTotals {
    versions_reclaimed: AtomicU64,
    versions_frozen: AtomicU64,
    stamps_pruned: AtomicU64,
    pages_compacted: AtomicU64,
    vacuum_runs: AtomicU64,
}

/// A plain copy of [`GcTotals`] at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcStats {
    pub versions_reclaimed: u64,
    pub versions_frozen: u64,
    pub stamps_pruned: u64,
    pub pages_compacted: u64,
    pub vacuum_runs: u64,
}

impl GcTotals {
    /// Fold one run's report into the totals.
    pub fn absorb(&self, report: &VacuumReport) {
        self.versions_reclaimed
            .fetch_add(report.versions_reclaimed(), Ordering::Relaxed);
        self.versions_frozen
            .fetch_add(report.versions_frozen(), Ordering::Relaxed);
        self.stamps_pruned
            .fetch_add(report.stamps_pruned, Ordering::Relaxed);
        self.pages_compacted
            .fetch_add(report.pages_compacted(), Ordering::Relaxed);
        self.vacuum_runs.fetch_add(1, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> GcStats {
        GcStats {
            versions_reclaimed: self.versions_reclaimed.load(Ordering::Relaxed),
            versions_frozen: self.versions_frozen.load(Ordering::Relaxed),
            stamps_pruned: self.stamps_pruned.load(Ordering::Relaxed),
            pages_compacted: self.pages_compacted.load(Ordering::Relaxed),
            vacuum_runs: self.vacuum_runs.load(Ordering::Relaxed),
        }
    }
}

/// A census of every stored version of one table (diagnostic scan used by
/// the GC tests, the soak harness and `bench_vacuum`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VersionCensus {
    /// Stored versions, whatever their state.
    pub total_versions: u64,
    /// Versions with no delete mark (`xmax == 0`).
    pub live: u64,
    /// Versions carrying a delete mark (superseded or deleted; their
    /// deleter may or may not have committed yet).
    pub dead: u64,
    /// Fully frozen headers (`xmin == FROZEN`, `xmax == 0`): no stamp-table
    /// dependence at all.
    pub frozen: u64,
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use crate::buffer::BufferPool;
    use crate::catalog::tests::{posted, scanned_by_values};
    use crate::catalog::{Catalog, Table};
    use crate::disk::DiskManager;
    use crate::error::StorageError;
    use crate::schema::Schema;
    use crate::tuple::Tuple;
    use crate::txn::Transaction;
    use crate::value::{DataType, Value};

    fn setup() -> (Catalog, Arc<Table>) {
        let c = Catalog::new(Arc::new(BufferPool::new(Arc::new(DiskManager::new()), 256)));
        let t = c
            .create_table(
                "T",
                Schema::from_pairs(&[("id", DataType::Int), ("v", DataType::Str)]),
            )
            .unwrap();
        t.create_index("t_id", vec![0], true).unwrap();
        (c, t)
    }

    fn row(id: i64, v: i64) -> Tuple {
        Tuple::new(vec![Value::Int(id), Value::Str(format!("v{v}"))])
    }

    /// One committed autocommit-style update of row `id` → value `v`.
    fn committed_update(c: &Catalog, t: &Arc<Table>, id: i64, v: i64) {
        let mut txn = Transaction::begin(c.txns());
        let snap = txn.write_snapshot();
        let (rid, _) = scanned_by_values(t, 0, &[id], &snap).pop().unwrap();
        let (_, new_rid) = t.update_txn(rid, &row(id, v), txn.id()).unwrap();
        txn.log_update_at(t, rid, new_rid);
        txn.commit();
    }

    #[test]
    fn update_churn_is_reclaimed_and_bounded() {
        let (c, t) = setup();
        t.insert(&row(1, 0)).unwrap();
        for v in 1..=500 {
            committed_update(&c, &t, 1, v);
        }
        let before = t.version_census().unwrap();
        assert_eq!(before.total_versions, 501, "one version per update + base");
        assert_eq!(c.txns().stamp_count(), 500);

        let report = c.vacuum(None).unwrap();
        assert_eq!(report.versions_reclaimed(), 500);
        assert!(report.stamps_pruned >= 499, "stamps drop with the garbage");

        let after = t.version_census().unwrap();
        assert_eq!(after.total_versions, 1, "only the live version survives");
        assert_eq!(after.frozen, 1, "survivor is frozen (no stamp dependence)");
        assert!(
            c.txns().stamp_count() <= 1,
            "stamp table bounded by live horizon, got {}",
            c.txns().stamp_count()
        );
        // The index holds exactly one posting again.
        assert_eq!(posted(&t, "t_id", 1).len(), 1);
        // And the survivor still reads correctly.
        let found = scanned_by_values(&t, 0, &[1], &c.latest_snapshot());
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].1, row(1, 500));
    }

    #[test]
    fn heap_space_is_reused_after_vacuum() {
        let (c, t) = setup();
        t.insert(&row(1, 0)).unwrap();
        // Interleave churn with vacuum: the page count must stay flat
        // instead of growing O(updates).
        for round in 0..20 {
            for v in 0..100 {
                committed_update(&c, &t, 1, round * 100 + v + 1);
            }
            c.vacuum(None).unwrap();
        }
        assert!(
            t.page_count() <= 2,
            "2000 single-row updates with vacuum must stay within a couple \
             of pages, got {}",
            t.page_count()
        );
        assert!(c.txns().stamp_count() <= 1);
    }

    #[test]
    fn snapshot_held_across_vacuum_keeps_its_version_set() {
        let (c, t) = setup();
        t.insert(&row(1, 0)).unwrap();
        committed_update(&c, &t, 1, 1);
        // Pin the state where v = "v1".
        let pinned = c.latest_snapshot();
        committed_update(&c, &t, 1, 2);
        committed_update(&c, &t, 1, 3);

        let report = c.vacuum(None).unwrap();
        // v0's deleter committed before the pinned snapshot: reclaimable.
        // v1 is what `pinned` reads, v2 was deleted after it, v3 is live —
        // all three must survive.
        assert_eq!(
            report.versions_reclaimed(),
            1,
            "only pre-snapshot garbage goes"
        );
        let seen = scanned_by_values(&t, 0, &[1], &pinned);
        assert_eq!(seen.len(), 1);
        assert_eq!(seen[0].1, row(1, 1), "pinned snapshot still reads v1");

        // Dropping the snapshot releases the watermark; the rest reclaims.
        drop(pinned);
        let report = c.vacuum(None).unwrap();
        assert_eq!(report.versions_reclaimed(), 2);
        assert_eq!(t.version_census().unwrap().total_versions, 1);
        assert_eq!(
            scanned_by_values(&t, 0, &[1], &c.latest_snapshot())[0].1,
            row(1, 3)
        );
    }

    #[test]
    fn rollback_then_vacuum_reclaims_aborted_versions_and_postings() {
        let (c, t) = setup();
        t.insert(&row(1, 0)).unwrap();

        let mut txn = Transaction::begin(c.txns());
        let rid = t.insert_txn(&row(2, 0), txn.id()).unwrap();
        txn.log_insert(&t, rid);
        let snap = txn.write_snapshot();
        let (rid1, _) = scanned_by_values(&t, 0, &[1], &snap).pop().unwrap();
        t.mark_delete_txn(rid1, txn.id()).unwrap();
        txn.log_delete_at(&t, rid1);
        drop(snap);
        txn.abort().unwrap();

        // Rollback already removed the aborted insert and its posting…
        assert!(posted(&t, "t_id", 2).is_empty());
        // …and vacuum reclaims the tombstoned space (the aborted record's
        // bytes are dead page space, not a dead *version*, so the pass
        // must compact even with nothing version-reclaimable) and leaves
        // the survivor intact (its delete mark was cleared, not
        // committed).
        let report = c.vacuum(None).unwrap();
        assert_eq!(
            report.versions_reclaimed(),
            0,
            "nothing dead after rollback"
        );
        assert!(
            report.pages_compacted() >= 1,
            "the aborted record's tombstoned bytes must be compacted away"
        );
        let census = t.version_census().unwrap();
        assert_eq!(census.total_versions, 1);
        assert_eq!(census.frozen, 1);
        assert_eq!(
            scanned_by_values(&t, 0, &[1], &c.latest_snapshot())[0].1,
            row(1, 0)
        );
    }

    #[test]
    fn abort_churn_stays_bounded_with_vacuum() {
        let (c, t) = setup();
        t.insert(&row(1, 0)).unwrap();
        // Insert-then-rollback cycles leave tombstoned slots whose record
        // bytes only compaction reclaims; interleaved vacuums must keep
        // the heap flat instead of growing O(aborts).
        for round in 0..20 {
            for v in 0..100 {
                let mut txn = Transaction::begin(c.txns());
                let rid = t.insert_txn(&row(1000 + v, round), txn.id()).unwrap();
                txn.log_insert(&t, rid);
                txn.abort().unwrap();
            }
            c.vacuum(None).unwrap();
        }
        assert!(
            t.page_count() <= 2,
            "2000 aborted inserts with vacuum must stay within a couple of \
             pages, got {}",
            t.page_count()
        );
        assert_eq!(t.version_census().unwrap().total_versions, 1);
    }

    #[test]
    fn vacuum_skips_uncommitted_work() {
        let (c, t) = setup();
        t.insert(&row(1, 0)).unwrap();
        let mut txn = Transaction::begin(c.txns());
        let rid = t.insert_txn(&row(2, 0), txn.id()).unwrap();
        txn.log_insert(&t, rid);
        let snap = txn.write_snapshot();
        let (rid1, _) = scanned_by_values(&t, 0, &[1], &snap).pop().unwrap();
        t.mark_delete_txn(rid1, txn.id()).unwrap();
        txn.log_delete_at(&t, rid1);
        drop(snap);

        let report = c.vacuum(None).unwrap();
        assert_eq!(
            report.versions_reclaimed(),
            0,
            "uncommitted work is untouchable"
        );
        // The transaction still commits cleanly afterwards.
        txn.commit();
        assert_eq!(
            scanned_by_values(&t, 0, &[2], &c.latest_snapshot()).len(),
            1
        );
        assert!(scanned_by_values(&t, 0, &[1], &c.latest_snapshot()).is_empty());
    }

    #[test]
    fn watermark_follows_live_snapshots() {
        let (c, t) = setup();
        let txns = c.txns();
        assert_eq!(txns.oldest_visible_stamp(), 0);
        t.insert(&row(1, 0)).unwrap();
        committed_update(&c, &t, 1, 1);
        let pin = c.latest_snapshot();
        assert_eq!(txns.oldest_visible_stamp(), pin.seq);
        committed_update(&c, &t, 1, 2);
        assert_eq!(
            txns.oldest_visible_stamp(),
            pin.seq,
            "watermark pinned by the live snapshot"
        );
        let seq = pin.seq;
        drop(pin);
        assert!(txns.oldest_visible_stamp() > seq, "watermark released");
        assert_eq!(txns.live_snapshot_count(), 0);
    }

    #[test]
    fn clean_tables_do_not_pin_the_stamp_table() {
        let (c, t) = setup();
        // A second table that only ever sees frozen loads.
        let bystander = c
            .create_table("B", Schema::from_pairs(&[("x", DataType::Int)]))
            .unwrap();
        bystander.insert(&Tuple::new(vec![Value::Int(1)])).unwrap();

        t.insert(&row(1, 0)).unwrap();
        for v in 1..=50 {
            committed_update(&c, &t, 1, v);
        }
        // Vacuum only the churned table: the untouched-but-clean bystander
        // must not hold the horizon down.
        c.vacuum(Some("T")).unwrap();
        assert!(
            c.txns().stamp_count() <= 1,
            "clean bystander table pinned the stamp table: {} entries",
            c.txns().stamp_count()
        );
    }

    #[test]
    fn pressure_trigger_waits_for_watermark_progress() {
        let (c, t) = setup();
        t.insert(&row(1, 0)).unwrap();
        committed_update(&c, &t, 1, 1);
        // Pin the watermark, then pile up garbage above it.
        let pin = c.latest_snapshot();
        for v in 2..=20 {
            committed_update(&c, &t, 1, v);
        }
        assert_eq!(c.gc_pressured_tables(10).len(), 1, "pressure seen");
        // A pass at the pinned watermark reclaims the one pre-pin version
        // and records the watermark it ran at…
        c.vacuum(None).unwrap();
        assert!(
            c.gc_pressured_tables(10).is_empty(),
            "no re-trigger while the watermark is pinned (futile scans)"
        );
        // …and once the pin drops, the trigger re-arms.
        drop(pin);
        assert_eq!(c.gc_pressured_tables(10).len(), 1);
        c.vacuum(None).unwrap();
        assert_eq!(t.version_census().unwrap().total_versions, 1);
    }

    /// Two selections at one watermark return a pressured heap once: the
    /// first claims it, so a concurrent trigger skips it. A failed pass
    /// releases the claim, and the next selection returns the heap again.
    #[test]
    fn a_pressured_heap_is_claimed_once_and_released_by_a_failed_pass() {
        // One frame: a pass fails while this thread pins a page outside T.
        let pool = Arc::new(BufferPool::new(Arc::new(DiskManager::new()), 1));
        let c = Catalog::new(Arc::clone(&pool));
        let t = c
            .create_table(
                "T",
                Schema::from_pairs(&[("id", DataType::Int), ("v", DataType::Str)]),
            )
            .unwrap();
        t.create_index("t_id", vec![0], true).unwrap();
        t.insert(&row(1, 0)).unwrap();
        for v in 1..=20 {
            committed_update(&c, &t, 1, v);
        }
        let first = c.gc_pressured_tables(10);
        assert_eq!(first.len(), 1, "pressure seen");
        assert!(
            c.gc_pressured_tables(10).is_empty(),
            "a second selection at the same watermark skips the claimed heap"
        );

        let (scratch, _) = pool.new_page(|_, _| ()).unwrap();
        let failed = pool
            .with_page(scratch, |_| c.vacuum_claimed(first))
            .unwrap();
        assert!(matches!(failed, Err(StorageError::BufferPoolExhausted)));
        let again = c.gc_pressured_tables(10);
        assert_eq!(again.len(), 1, "the failed pass released its claim");

        c.vacuum_claimed(again).unwrap();
        assert_eq!(t.version_census().unwrap().total_versions, 1);
        assert_eq!(
            t.gc().last_pass_watermark(),
            c.txns().oldest_visible_stamp(),
            "a pass that succeeded keeps its claim"
        );
    }

    #[test]
    fn unique_constraint_still_enforced_after_vacuum() {
        let (c, t) = setup();
        t.insert(&row(1, 0)).unwrap();
        committed_update(&c, &t, 1, 1);
        c.vacuum(None).unwrap();
        // The frozen survivor still blocks duplicates…
        assert!(t.insert(&row(1, 9)).is_err());
        // …and a fresh key inserts fine (reusing reclaimed space).
        t.insert(&row(2, 0)).unwrap();
        assert_eq!(t.row_count().unwrap(), 2);
    }

    /// `scan_by_values` through the index on `id`, and without an index on
    /// `v`, against a filtered visible scan, over version chains that
    /// vacuum has partly reclaimed and whose slots fresh inserts reused.
    #[test]
    fn scan_by_values_equals_a_filtered_scan_over_updated_and_vacuumed_versions() {
        let (c, t) = setup();
        for id in 1..=6 {
            t.insert(&row(id, 0)).unwrap();
        }
        for v in 1..=5 {
            for id in (1..=6).filter(|id| (id + v) % 2 == 0) {
                committed_update(&c, &t, id, v);
            }
        }
        let pinned = c.latest_snapshot();
        for v in 6..=9 {
            committed_update(&c, &t, v % 6 + 1, v);
        }
        assert!(c.vacuum(None).unwrap().versions_reclaimed() > 0);
        for id in 7..=9 {
            t.insert(&row(id, 0)).unwrap();
        }
        let latest = c.latest_snapshot();
        for snap in [&pinned, &latest] {
            for id in 0..=10 {
                let filtered = |col: usize, v: &Value| {
                    let mut rows = Vec::new();
                    t.for_each_visible(snap, |rid, tuple| {
                        if tuple.values[col] == *v {
                            rows.push((rid, tuple));
                        }
                        Ok(true)
                    })
                    .unwrap();
                    rows
                };
                let expect = filtered(0, &Value::Int(id));
                assert_eq!(expect.len(), usize::from((1..=9).contains(&id)));
                let found = scanned_by_values(&t, 0, &[id], snap);
                assert_eq!(found, expect, "indexed probe of id {id}");

                let v = Value::Str(format!("v{id}"));
                let mut found = Vec::new();
                t.scan_by_values(1, std::slice::from_ref(&v), snap, |rid, tuple| {
                    found.push((rid, tuple));
                    Ok(true)
                })
                .unwrap();
                assert_eq!(found, filtered(1, &v), "unindexed probe of v{id}");
            }
        }
    }
}
