//! MVCC-lite transactions: txn ids, commit stamps, snapshots and undo.
//!
//! The paper leaves "transaction, recovery, and storage management …
//! totally unchanged" (Sect. 6), but its Sect. 3 processing model is
//! explicitly multi-client: many workstations check out and write back
//! composite objects against one shared RDBMS. This module provides the
//! concurrency substrate for that model:
//!
//! - a global [`TxnManager`] allocates transaction ids and assigns
//!   monotonically increasing *commit stamps* from a global commit counter;
//! - every stored tuple version carries a [`VersionHdr`] — the id of the
//!   transaction that created it (`xmin`) and, once deleted or superseded,
//!   the id of the transaction that ended it (`xmax`);
//! - a [`Snapshot`] captured at `BEGIN` (or per statement in autocommit)
//!   decides visibility: a version is visible iff its creator committed at
//!   or before the snapshot's commit stamp (or is the reading transaction
//!   itself) and its deleter did not;
//! - writers use first-writer-wins row marking: setting `xmax` on a version
//!   that already has a non-zero `xmax` fails with
//!   [`StorageError::WriteConflict`](crate::error::StorageError::WriteConflict)
//!   instead of waiting or corrupting the row;
//! - [`Transaction`] records an undo log so `ROLLBACK` can physically remove
//!   versions the transaction created and clear the delete marks it set;
//! - every [`Snapshot`] is *registered* with the manager for its lifetime,
//!   so [`TxnManager::oldest_visible_stamp`] can establish the garbage-
//!   collection **low-watermark**: commits at or below it are visible to
//!   every live and future snapshot, making their superseded versions safe
//!   to reclaim and their stamp entries safe to drop once the versions are
//!   frozen (see [`crate::vacuum`]).
//!
//! Isolation is snapshot isolation, which matches the era's
//! workstation/server usage. Durability comes from the write-ahead log
//! (see [`crate::wal`]): a manager built with [`TxnManager::new_logged`]
//! appends the `Commit` record *inside* the stamp-table lock, so the log's
//! commit order equals the stamp order and recovery always restores a
//! prefix of it.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use crate::catalog::Table;
use crate::error::Result;
use crate::tuple::Rid;
use crate::wal::{TxnSnap, Wal, WalRecord};

/// Transaction identifier. `FROZEN` (0) marks tuples written outside any
/// transaction (fixture loads, materialized-view backing storage): they are
/// visible to every snapshot.
pub type TxnId = u64;

/// The pseudo-transaction id of always-visible ("frozen") tuple versions.
pub const FROZEN: TxnId = 0;

/// Global transaction state shared by every table of a database: txn id
/// allocation, the commit-stamp table consulted by visibility checks, and
/// the live-snapshot registry that anchors the GC low-watermark.
///
/// Snapshot acquisition takes one short mutex (the live-snapshot registry):
/// the registry insertion and the commit-counter read happen under the same
/// lock the watermark computation uses, so a snapshot is either already
/// registered when the watermark is computed or guaranteed to observe a
/// commit counter at least as fresh — either way the watermark never
/// overtakes a snapshot that still needs old versions. The commit counter
/// itself is only advanced *after* the committing transaction's stamp is
/// published in the table, so any snapshot that observes counter `S` can
/// resolve every transaction with stamp ≤ `S`.
///
/// The stamp table is bounded by GC: [`crate::vacuum`] freezes tuple
/// versions of commits below the watermark (rewriting their headers to the
/// [`FROZEN`] sentinel) and then calls [`TxnManager::prune_stamps`], so the
/// table holds roughly the commits since the last vacuum rather than the
/// whole history. Frozen tuples (`xmin = 0`, the bulk of fixture data and
/// everything old enough to have been frozen) bypass the table entirely on
/// the visibility hot path.
pub struct TxnManager {
    next_txn: AtomicU64,
    /// Stamp of the latest fully-published commit.
    commit_seq: AtomicU64,
    /// Committed txn id → its commit stamp. Active and aborted
    /// transactions are absent (aborted ones physically undo their
    /// writes). The write lock also serializes stamp assignment.
    stamps: RwLock<HashMap<TxnId, u64>>,
    /// Live-snapshot registry: snapshot `seq` → number of live snapshots
    /// reading at it. Snapshot creation and watermark computation both run
    /// under this lock (see the struct docs for why that ordering matters);
    /// clones of a snapshot share one registration via an `Arc` guard.
    live: Mutex<BTreeMap<u64, u64>>,
    /// When set, commits append their `Commit` record here (under the
    /// stamp lock, so log order == stamp order).
    wal: Option<Arc<Wal>>,
}

impl Default for TxnManager {
    fn default() -> Self {
        Self::new()
    }
}

impl TxnManager {
    pub fn new() -> Self {
        Self::new_logged(None)
    }

    /// A manager whose commits (and aborts) are logged to `wal`.
    pub fn new_logged(wal: Option<Arc<Wal>>) -> Self {
        TxnManager {
            next_txn: AtomicU64::new(1),
            commit_seq: AtomicU64::new(0),
            stamps: RwLock::new(HashMap::new()),
            live: Mutex::new(BTreeMap::new()),
            wal,
        }
    }

    /// Allocate a fresh transaction id.
    pub fn allocate(&self) -> TxnId {
        self.next_txn.fetch_add(1, Ordering::AcqRel)
    }

    /// Record `txn` as committed, assigning the next commit stamp. The
    /// stamp is published in the table *before* the commit counter
    /// advances past it.
    pub fn commit(&self, txn: TxnId) -> u64 {
        self.commit_logged(txn, true)
    }

    /// [`TxnManager::commit`] with control over logging: read-only
    /// transactions pass `log = false` so they cost no log record (and no
    /// commit fsync). Logging happens inside the stamp lock: the WAL's
    /// commit order is exactly the stamp order, so recovery restores a
    /// prefix of it.
    pub fn commit_logged(&self, txn: TxnId, log: bool) -> u64 {
        let mut stamps = self.stamps.write();
        let stamp = self.commit_seq.load(Ordering::Relaxed) + 1;
        stamps.insert(txn, stamp);
        if log {
            if let Some(wal) = &self.wal {
                if wal.logging() {
                    wal.append(&WalRecord::Commit { xid: txn, stamp });
                }
            }
        }
        self.commit_seq.store(stamp, Ordering::Release);
        stamp
    }

    /// Append an `Abort` record for `txn` (informational: recovery treats
    /// every uncommitted transaction as a loser either way, and its undo
    /// ops tolerate the rollback's already-logged compensations).
    pub fn log_abort(&self, txn: TxnId) {
        if let Some(wal) = &self.wal {
            if wal.logging() {
                wal.append(&WalRecord::Abort { xid: txn });
            }
        }
    }

    /// The WAL this manager logs commits to, if any.
    pub fn wal(&self) -> Option<&Arc<Wal>> {
        self.wal.as_ref()
    }

    /// Serializable state for a checkpoint.
    pub fn snapshot_state(&self) -> TxnSnap {
        let stamps = self.stamps.read();
        TxnSnap {
            next_txn: self.next_txn.load(Ordering::Acquire),
            commit_seq: self.commit_seq.load(Ordering::Acquire),
            stamps: stamps.iter().map(|(k, v)| (*k, *v)).collect(),
        }
    }

    /// Restore state at recovery (single-threaded): counters move forward
    /// only, stamp entries are merged in.
    pub fn restore(&self, snap: &TxnSnap) {
        self.next_txn.fetch_max(snap.next_txn, Ordering::AcqRel);
        self.commit_seq.fetch_max(snap.commit_seq, Ordering::AcqRel);
        let mut stamps = self.stamps.write();
        for (txn, stamp) in &snap.stamps {
            stamps.insert(*txn, *stamp);
        }
    }

    /// The commit stamp of `txn`, or `None` while it is active or aborted.
    pub fn commit_stamp(&self, txn: TxnId) -> Option<u64> {
        if txn == FROZEN {
            return Some(0);
        }
        self.stamps.read().get(&txn).copied()
    }

    /// The current commit counter (stamp of the latest committed txn).
    pub fn current_seq(&self) -> u64 {
        self.commit_seq.load(Ordering::Acquire)
    }

    /// A snapshot of the latest committed state, owned by no transaction.
    /// This is what autocommit statements and unversioned reads use.
    pub fn snapshot_latest(self: &Arc<Self>) -> Snapshot {
        self.snapshot_for(FROZEN)
    }

    /// A snapshot of the latest committed state as seen by transaction
    /// `txn` (which additionally sees its own uncommitted writes). The
    /// snapshot is registered live until it (and all of its clones) drop.
    pub fn snapshot_for(self: &Arc<Self>, txn: TxnId) -> Snapshot {
        // Read the commit counter *inside* the registry lock: the watermark
        // computation holds the same lock, so it either sees this entry or
        // this read happens after its counter read (seq ≥ watermark).
        let seq = {
            let mut live = self.live.lock();
            let seq = self.current_seq();
            *live.entry(seq).or_insert(0) += 1;
            seq
        };
        Snapshot {
            mgr: Arc::clone(self),
            seq,
            txn,
            _live: Arc::new(LiveGuard {
                mgr: Arc::clone(self),
                seq,
            }),
        }
    }

    fn deregister(&self, seq: u64) {
        let mut live = self.live.lock();
        if let Some(n) = live.get_mut(&seq) {
            *n -= 1;
            if *n == 0 {
                live.remove(&seq);
            }
        }
    }

    /// The GC **low-watermark**: the oldest commit stamp any live snapshot
    /// reads at (or the current commit counter when none are live). Every
    /// commit with stamp ≤ the watermark is visible to every live snapshot
    /// and to every snapshot created from now on, so its superseded
    /// versions are reclaimable and its surviving versions freezable.
    /// Vacuum is its only reader.
    pub fn oldest_visible_stamp(&self) -> u64 {
        let live = self.live.lock();
        let current = self.current_seq();
        live.keys().next().copied().unwrap_or(current).min(current)
    }

    /// Number of currently registered live snapshots.
    pub fn live_snapshot_count(&self) -> usize {
        self.live.lock().values().map(|n| *n as usize).sum()
    }

    /// Drop stamp entries with stamp ≤ `horizon`, returning how many were
    /// pruned. Only safe when no stored version header references those
    /// transactions anymore — the vacuum pass establishes that by freezing
    /// (or removing) every version of commits below the watermark and
    /// tracking each table's frozen-through stamp; `horizon` must be the
    /// minimum of those. An absent stamp reads as "not committed", so a
    /// premature prune would make committed rows invisible — hence the
    /// freeze-first protocol.
    pub fn prune_stamps(&self, horizon: u64) -> u64 {
        let mut stamps = self.stamps.write();
        let before = stamps.len();
        stamps.retain(|_, s| *s > horizon);
        (before - stamps.len()) as u64
    }

    /// Number of entries currently in the commit-stamp table.
    pub fn stamp_count(&self) -> usize {
        self.stamps.read().len()
    }
}

/// Shared registration of one snapshot (and all of its clones) in the
/// live-snapshot registry; deregisters when the last clone drops.
struct LiveGuard {
    mgr: Arc<TxnManager>,
    seq: u64,
}

impl Drop for LiveGuard {
    fn drop(&mut self) {
        self.mgr.deregister(self.seq);
    }
}

/// The version header stored in front of every heap record: the creating
/// and (once ended) deleting transaction ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VersionHdr {
    /// Id of the transaction that created this version (`FROZEN` = always
    /// visible).
    pub xmin: TxnId,
    /// Id of the transaction that deleted/superseded it (0 = live).
    pub xmax: TxnId,
}

impl VersionHdr {
    pub const SIZE: usize = 16;

    pub fn frozen() -> Self {
        VersionHdr {
            xmin: FROZEN,
            xmax: 0,
        }
    }

    pub fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.xmin.to_le_bytes());
        out.extend_from_slice(&self.xmax.to_le_bytes());
    }

    pub fn decode(bytes: &[u8]) -> Option<(VersionHdr, &[u8])> {
        if bytes.len() < Self::SIZE {
            return None;
        }
        let xmin = u64::from_le_bytes(bytes[0..8].try_into().unwrap());
        let xmax = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
        Some((VersionHdr { xmin, xmax }, &bytes[Self::SIZE..]))
    }
}

/// A point-in-time view of the database: the commit stamp up to which
/// committed work is visible, plus the observing transaction's own id (its
/// uncommitted writes are visible to itself). `Snapshot` is the
/// *visibility handle* threaded through the executor.
///
/// A snapshot is registered in the manager's live-snapshot registry for
/// its whole lifetime (clones share one registration), which is what holds
/// the GC low-watermark down: vacuum never reclaims a version some live
/// snapshot — an autocommit statement, an open transaction, a pinned
/// parallel-CO stream — could still read.
#[derive(Clone)]
pub struct Snapshot {
    mgr: Arc<TxnManager>,
    /// Commits with stamp ≤ `seq` are visible.
    pub seq: u64,
    /// The observing transaction (`FROZEN` when reading outside one).
    pub txn: TxnId,
    /// Shared live-registry registration (see [`LiveGuard`]).
    _live: Arc<LiveGuard>,
}

impl std::fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Snapshot")
            .field("seq", &self.seq)
            .field("txn", &self.txn)
            .finish()
    }
}

impl Snapshot {
    /// Is a tuple version with header `ver` visible to this snapshot?
    pub fn sees(&self, ver: &VersionHdr) -> bool {
        // Created by: frozen, self, or a transaction committed at/before us.
        let created = match ver.xmin {
            FROZEN => true,
            x if x == self.txn => true,
            x => self
                .mgr
                .commit_stamp(x)
                .map(|s| s <= self.seq)
                .unwrap_or(false),
        };
        if !created {
            return false;
        }
        // Deleted by: self, or a transaction committed at/before us.
        match ver.xmax {
            0 => true,
            x if x == self.txn => false,
            x => !self
                .mgr
                .commit_stamp(x)
                .map(|s| s <= self.seq)
                .unwrap_or(false),
        }
    }

    /// Is the version dead to *writers* — i.e. deleted by this transaction
    /// itself or by any committed transaction? Used by uniqueness checks,
    /// which must test against the latest state rather than the snapshot.
    pub fn definitely_dead(&self, ver: &VersionHdr) -> bool {
        match ver.xmax {
            0 => false,
            x if x == self.txn => true,
            x => self.mgr.commit_stamp(x).is_some(),
        }
    }

    pub fn manager(&self) -> &Arc<TxnManager> {
        &self.mgr
    }
}

/// States of a transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnState {
    Active,
    Committed,
    Aborted,
}

/// One logical undo record. MVCC undo is purely physical: creations are
/// removed, delete marks are cleared; no old images need to be replayed
/// because writers never overwrite a committed version in place.
enum Undo {
    /// Undo an insert by physically removing the created version.
    Insert { table: Arc<Table>, rid: Rid },
    /// Undo a delete by clearing the `xmax` mark this transaction set.
    Delete { table: Arc<Table>, rid: Rid },
    /// Undo an update: clear the mark on the old version and remove the new
    /// one.
    Update {
        table: Arc<Table>,
        old_rid: Rid,
        new_rid: Rid,
    },
}

/// An explicit transaction: an id from the [`TxnManager`] plus the undo log
/// of every row it wrote. Obtain one with [`Transaction::begin`], record
/// each mutation through the `log_*` methods (the database facade does this
/// for you), then [`commit`](Transaction::commit) or
/// [`abort`](Transaction::abort).
pub struct Transaction {
    id: TxnId,
    mgr: Arc<TxnManager>,
    undo: Vec<Undo>,
    state: TxnState,
}

impl Transaction {
    pub fn begin(mgr: &Arc<TxnManager>) -> Self {
        Transaction {
            id: mgr.allocate(),
            mgr: Arc::clone(mgr),
            undo: Vec::new(),
            state: TxnState::Active,
        }
    }

    pub fn id(&self) -> TxnId {
        self.id
    }

    pub fn state(&self) -> TxnState {
        self.state
    }

    pub fn is_active(&self) -> bool {
        self.state == TxnState::Active
    }

    /// Number of logged operations.
    pub fn len(&self) -> usize {
        self.undo.len()
    }

    pub fn is_empty(&self) -> bool {
        self.undo.is_empty()
    }

    /// The snapshot this transaction's *writes* are performed under: the
    /// latest committed state plus its own uncommitted work.
    pub fn write_snapshot(&self) -> Snapshot {
        self.mgr.snapshot_for(self.id)
    }

    pub fn log_insert(&mut self, table: &Arc<Table>, rid: Rid) {
        debug_assert!(self.is_active());
        self.undo.push(Undo::Insert {
            table: Arc::clone(table),
            rid,
        });
    }

    /// Log a delete mark set on the version at `rid`.
    pub fn log_delete_at(&mut self, table: &Arc<Table>, rid: Rid) {
        debug_assert!(self.is_active());
        self.undo.push(Undo::Delete {
            table: Arc::clone(table),
            rid,
        });
    }

    /// Log an update that superseded the version at `old_rid` with a new
    /// version at `new_rid`.
    pub fn log_update_at(&mut self, table: &Arc<Table>, old_rid: Rid, new_rid: Rid) {
        debug_assert!(self.is_active());
        self.undo.push(Undo::Update {
            table: Arc::clone(table),
            old_rid,
            new_rid,
        });
    }

    /// Make all changes durable-to-readers: assign a commit stamp. The
    /// versions are already in place; from this moment every new snapshot
    /// sees them. Read-only transactions skip the WAL `Commit` record (a
    /// recovery has nothing to redo or attribute for them).
    pub fn commit(mut self) -> u64 {
        let wrote = !self.undo.is_empty();
        self.undo.clear();
        self.state = TxnState::Committed;
        self.mgr.commit_logged(self.id, wrote)
    }

    /// Roll back all logged changes, newest first: physically remove the
    /// versions this transaction created (with their index entries) and
    /// clear the delete marks it set. Afterwards the transaction never
    /// appears in the commit table, so any marks missed here would simply
    /// stay invisible — but we clean up eagerly to reclaim space.
    pub fn abort(mut self) -> Result<TxnState> {
        self.rollback_in_place()?;
        Ok(self.state)
    }

    fn rollback_in_place(&mut self) -> Result<()> {
        let wrote = !self.undo.is_empty();
        while let Some(u) = self.undo.pop() {
            match u {
                Undo::Insert { table, rid } => {
                    table.remove_version(rid)?;
                }
                Undo::Delete { table, rid } => {
                    table.clear_delete_mark(rid, self.id)?;
                }
                Undo::Update {
                    table,
                    old_rid,
                    new_rid,
                } => {
                    table.remove_version(new_rid)?;
                    table.clear_delete_mark(old_rid, self.id)?;
                }
            }
        }
        if wrote {
            self.mgr.log_abort(self.id);
        }
        self.state = TxnState::Aborted;
        Ok(())
    }
}

/// A transaction dropped while still active rolls back. Without this, a
/// leaked transaction (session dropped mid-transaction, thread panic)
/// would leave its delete marks in place forever — its id never commits,
/// so every later writer of those rows would see a permanent claim and
/// fail with `WriteConflict`.
impl Drop for Transaction {
    fn drop(&mut self) {
        if self.state == TxnState::Active {
            // Drop cannot propagate errors; a failed undo step leaves the
            // remaining log unapplied, which only ever hides rows this
            // transaction itself created.
            let _ = self.rollback_in_place();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::BufferPool;
    use crate::catalog::tests::{scanned_by_values, visible_rows};
    use crate::catalog::Catalog;
    use crate::disk::DiskManager;
    use crate::schema::Schema;
    use crate::tuple::Tuple;
    use crate::value::{DataType, Value};

    fn setup() -> (Catalog, Arc<Table>) {
        let c = Catalog::new(Arc::new(BufferPool::new(Arc::new(DiskManager::new()), 32)));
        let t = c
            .create_table(
                "T",
                Schema::from_pairs(&[("id", DataType::Int), ("v", DataType::Str)]),
            )
            .unwrap();
        (c, t)
    }

    fn row(i: i64) -> Tuple {
        Tuple::new(vec![Value::Int(i), Value::Str(format!("v{i}"))])
    }

    #[test]
    fn abort_undoes_insert() {
        let (c, t) = setup();
        let mut txn = Transaction::begin(c.txns());
        let rid = t.insert_txn(&row(1), txn.id()).unwrap();
        txn.log_insert(&t, rid);
        txn.abort().unwrap();
        assert_eq!(t.row_count().unwrap(), 0);
    }

    #[test]
    fn abort_undoes_delete_and_update() {
        let (c, t) = setup();
        t.insert(&row(1)).unwrap();
        let rid2 = t.insert(&row(2)).unwrap();

        let mut txn = Transaction::begin(c.txns());
        let snap = txn.write_snapshot();
        let (rid1, _) = scanned_by_values(&t, 0, &[1], &snap).pop().unwrap();
        t.mark_delete_txn(rid1, txn.id()).unwrap();
        txn.log_delete_at(&t, rid1);
        let (_, nrid) = t.update_txn(rid2, &row(99), txn.id()).unwrap();
        txn.log_update_at(&t, rid2, nrid);
        txn.abort().unwrap();

        let mut vals: Vec<i64> = visible_rows(&t)
            .into_iter()
            .map(|(_, t)| t.values[0].as_int().unwrap())
            .collect();
        vals.sort();
        assert_eq!(vals, vec![1, 2]);
    }

    #[test]
    fn commit_keeps_changes() {
        let (c, t) = setup();
        let mut txn = Transaction::begin(c.txns());
        let rid = t.insert_txn(&row(1), txn.id()).unwrap();
        txn.log_insert(&t, rid);
        txn.commit();
        assert_eq!(t.row_count().unwrap(), 1);
    }

    #[test]
    fn uncommitted_writes_are_invisible_to_other_snapshots() {
        let (c, t) = setup();
        t.insert(&row(1)).unwrap();
        let mut txn = Transaction::begin(c.txns());
        let rid = t.insert_txn(&row(2), txn.id()).unwrap();
        txn.log_insert(&t, rid);

        // A reader snapshot taken while the txn is open sees only row 1.
        let reader = c.txns().snapshot_latest();
        let mut seen = Vec::new();
        t.for_each_visible(&reader, |_, tup| {
            seen.push(tup.values[0].as_int().unwrap());
            Ok(true)
        })
        .unwrap();
        assert_eq!(seen, vec![1]);

        // The writer itself sees both.
        let own = txn.write_snapshot();
        assert_eq!(t.row_count_visible(&own).unwrap(), 2);

        txn.commit();
        // Old snapshot still sees only row 1 (snapshot isolation).
        let mut seen = Vec::new();
        t.for_each_visible(&reader, |_, tup| {
            seen.push(tup.values[0].as_int().unwrap());
            Ok(true)
        })
        .unwrap();
        assert_eq!(seen, vec![1]);
        // A fresh snapshot sees both.
        assert_eq!(t.row_count().unwrap(), 2);
    }

    #[test]
    fn first_writer_wins_on_the_same_row() {
        let (c, t) = setup();
        let rid = t.insert(&row(1)).unwrap();

        let mut a = Transaction::begin(c.txns());
        let b = Transaction::begin(c.txns());
        let (_, new_rid) = t.update_txn(rid, &row(10), a.id()).unwrap();
        a.log_update_at(&t, rid, new_rid);

        // Second writer conflicts instead of waiting or clobbering.
        let err = t.update_txn(rid, &row(20), b.id()).unwrap_err();
        assert!(matches!(
            err,
            crate::error::StorageError::WriteConflict { .. }
        ));
        let err = t.mark_delete_txn(rid, b.id()).unwrap_err();
        assert!(matches!(
            err,
            crate::error::StorageError::WriteConflict { .. }
        ));

        // Conflict also holds after the first writer commits.
        a.commit();
        let err = t.update_txn(rid, &row(30), b.id()).unwrap_err();
        assert!(matches!(
            err,
            crate::error::StorageError::WriteConflict { .. }
        ));
        assert_eq!(
            visible_rows(&t)[0].1.values[0],
            Value::Int(10),
            "first writer's committed update survives"
        );
    }

    #[test]
    fn snapshot_sees_own_writes_but_not_later_commits() {
        let (c, t) = setup();
        t.insert(&row(1)).unwrap();
        let mut a = Transaction::begin(c.txns());
        let snap_a = a.write_snapshot();

        // Another transaction commits after A's snapshot.
        let mut b = Transaction::begin(c.txns());
        let rid = t.insert_txn(&row(2), b.id()).unwrap();
        b.log_insert(&t, rid);
        b.commit();

        // A still sees 1 row; a fresh snapshot sees 2.
        assert_eq!(t.row_count_visible(&snap_a).unwrap(), 1);
        assert_eq!(t.row_count().unwrap(), 2);

        // A's own insert is visible to A only.
        let rid = t.insert_txn(&row(3), a.id()).unwrap();
        a.log_insert(&t, rid);
        assert_eq!(t.row_count_visible(&snap_a).unwrap(), 2);
        assert_eq!(t.row_count().unwrap(), 2);
        a.commit();
        assert_eq!(t.row_count().unwrap(), 3);
    }

    #[test]
    fn abort_replays_in_reverse_order() {
        let (c, t) = setup();
        let mut txn = Transaction::begin(c.txns());
        let rid = t.insert_txn(&row(1), txn.id()).unwrap();
        txn.log_insert(&t, rid);
        // Update the same tuple twice inside the transaction.
        let (_, rid2) = t.update_txn(rid, &row(2), txn.id()).unwrap();
        txn.log_update_at(&t, rid, rid2);
        let (_, rid3) = t.update_txn(rid2, &row(3), txn.id()).unwrap();
        txn.log_update_at(&t, rid2, rid3);
        txn.abort().unwrap();
        assert_eq!(t.row_count().unwrap(), 0, "insert rolled back last");
    }

    #[test]
    fn dropping_an_active_transaction_rolls_back() {
        let (c, t) = setup();
        let rid = t.insert(&row(1)).unwrap();
        {
            let mut txn = Transaction::begin(c.txns());
            let new = t.insert_txn(&row(2), txn.id()).unwrap();
            txn.log_insert(&t, new);
            t.mark_delete_txn(rid, txn.id()).unwrap();
            txn.log_delete_at(&t, rid);
            // Dropped without commit/rollback (session died).
        }
        // The insert is gone, the delete mark cleared: row 1 is writable
        // again instead of permanently claimed by a leaked txn id.
        assert_eq!(t.row_count().unwrap(), 1);
        let b = t.txns().allocate();
        t.mark_delete_txn(rid, b).unwrap();
    }

    #[test]
    fn abort_handles_insert_then_delete_of_one_row() {
        let (c, t) = setup();
        let keep = t.insert(&row(10)).unwrap();
        let mut txn = Transaction::begin(c.txns());
        let rid = t.insert_txn(&row(1), txn.id()).unwrap();
        txn.log_insert(&t, rid);
        t.mark_delete_txn(keep, txn.id()).unwrap();
        txn.log_delete_at(&t, keep);
        t.mark_delete_txn(rid, txn.id()).unwrap();
        txn.log_delete_at(&t, rid);
        txn.abort().unwrap();
        let mut vals: Vec<i64> = visible_rows(&t)
            .into_iter()
            .map(|(_, t)| t.values[0].as_int().unwrap())
            .collect();
        vals.sort();
        assert_eq!(vals, vec![10], "only the pre-existing row survives");
    }
}
