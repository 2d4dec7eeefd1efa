//! Catalog: tables (heap + indexes + statistics) and view definitions.
//!
//! [`Table`] bundles a versioned heap file with its secondary indexes and
//! keeps them consistent across inserts, deletes and updates. Writers of a
//! table serialize on a short per-table latch (row conflicts are detected
//! at finer grain by the MVCC delete marks, see [`crate::txn`]); readers
//! never take it — index lookups go through reader-shared locks and heap
//! pages through per-frame locks, so concurrent sessions scan in parallel.
//! [`Catalog`] names tables and views and owns the database-wide
//! [`TxnManager`]; view *text* is stored here (the front-end re-parses it),
//! mirroring how Starburst kept view definitions in catalog relations.

use parking_lot::{Mutex, RwLock};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use crate::buffer::BufferPool;
use crate::error::{Result, StorageError};
use crate::heap::{each_row, HeapFile, Postings, VisiblePage};
use crate::index::{BTreeIndex, Key};
use crate::schema::Schema;
use crate::stats::{StatsBuilder, TableStats};
use crate::tuple::{Gate, Rid, Tuple};
use crate::txn::{Snapshot, TxnId, TxnManager, FROZEN};
use crate::vacuum::{GcStats, GcTotals, TableGc, TableVacuumReport, VacuumReport, VersionCensus};
use crate::value::Value;
use crate::wal::{IndexSnap, TableSnap, ViewSnap, Wal, WalRecord};

/// Pinned commit stamps that count as one unit of a heap's vacuum
/// pressure. A stamp-table entry costs a few bytes while a pass reads every
/// page of the heap, so a heap that only needs freezing is passed over until
/// it pins this many times the auto-vacuum threshold.
const FREEZE_STAMPS_PER_PRESSURE: u64 = 16;

/// Numeric table identifier.
pub type TableId = u32;

/// Definition of a secondary index.
#[derive(Debug, Clone)]
pub struct IndexDef {
    pub name: String,
    /// Ordinals of the indexed columns in the table schema.
    pub columns: Vec<usize>,
    pub unique: bool,
}

struct IndexEntry {
    def: IndexDef,
    /// The tree itself stores postings for *every* version (old snapshots
    /// may still need superseded rows), so it is physically non-unique;
    /// uniqueness of `def.unique` indexes is enforced at the [`Table`]
    /// level against live versions.
    tree: RwLock<BTreeIndex>,
}

/// A stored table: schema + versioned heap + indexes + stats.
pub struct Table {
    pub id: TableId,
    pub name: String,
    pub schema: Schema,
    heap: HeapFile,
    /// Serializes writers of this table (readers never take it). Lock
    /// order: `write_latch` → `indexes` → tree lock → heap pages.
    write_latch: Mutex<()>,
    indexes: RwLock<Vec<IndexEntry>>,
    stats: RwLock<Arc<TableStats>>,
    /// Garbage-collection state: reclaim pressure, unfrozen-header bound
    /// and the frozen-through stamp (see [`crate::vacuum`]).
    gc: TableGc,
    /// When set, this table's DDL (index creation) is logged here; heap
    /// mutations are logged by the heap itself.
    wal: Option<Arc<Wal>>,
}

impl Table {
    fn new(
        id: TableId,
        name: String,
        schema: Schema,
        pool: Arc<BufferPool>,
        txns: Arc<TxnManager>,
        wal: Option<Arc<Wal>>,
    ) -> Self {
        // A transaction writing this table necessarily commits after the
        // table exists, so no header can ever reference a stamp at or
        // below the current counter: start frozen-through there.
        let created_seq = txns.current_seq();
        Self::build(id, name, schema, pool, txns, wal, created_seq)
    }

    fn build(
        id: TableId,
        name: String,
        schema: Schema,
        pool: Arc<BufferPool>,
        txns: Arc<TxnManager>,
        wal: Option<Arc<Wal>>,
        created_seq: u64,
    ) -> Self {
        Table {
            id,
            name,
            schema,
            heap: HeapFile::create_logged(pool, txns, id, wal.clone()),
            write_latch: Mutex::new(()),
            indexes: RwLock::new(Vec::new()),
            stats: RwLock::new(Arc::default()),
            gc: TableGc::new(created_seq),
            wal,
        }
    }

    /// Append a DDL record and force it to stable storage (DDL is rare and
    /// autocommitted, so it pays its own flush rather than riding group
    /// commit). No-op when unlogged or while recovery replays.
    fn log_ddl(wal: &Option<Arc<Wal>>, rec: WalRecord) -> Result<()> {
        if let Some(wal) = wal {
            if wal.logging() {
                wal.append(&rec);
                wal.flush_all()?;
            }
        }
        Ok(())
    }

    /// The transaction manager deciding visibility for this table.
    pub fn txns(&self) -> &Arc<TxnManager> {
        self.heap.txns()
    }

    fn key_of(def: &IndexDef, tuple: &Tuple) -> Key {
        def.columns
            .iter()
            .map(|&c| tuple.values[c].clone())
            .collect()
    }

    fn conflict(&self) -> StorageError {
        StorageError::WriteConflict {
            table: self.name.clone(),
        }
    }

    /// Check `tuple` against every unique index: a violation exists when
    /// another *live* version (not deleted by a committed transaction or by
    /// `xid` itself, and not the excluded `skip` version) already carries
    /// the key. Must be called with the write latch held — which also makes
    /// the header copies read here immune to the GC freeze/prune race
    /// (vacuum of this table takes the same latch, and stamps referenced by
    /// an unfrozen header are above the table's frozen-through horizon, so
    /// pruning never drops them).
    fn check_unique(&self, tuple: &Tuple, xid: TxnId, skip: Option<Rid>) -> Result<()> {
        let writer_view = self.txns().snapshot_for(xid);
        let indexes = self.indexes.read();
        for entry in indexes.iter().filter(|e| e.def.unique) {
            let key = Self::key_of(&entry.def, tuple);
            for &rid in entry.tree.read().get(&key) {
                if skip == Some(rid) {
                    continue;
                }
                let (hdr, _) = self.heap.get_versioned(rid)?;
                if !writer_view.definitely_dead(&hdr) {
                    return Err(StorageError::UniqueViolation(format_key(&key)));
                }
            }
        }
        Ok(())
    }

    /// Add index entries for a stored version. Must be called with the
    /// write latch held.
    fn index_version(&self, tuple: &Tuple, rid: Rid) {
        let indexes = self.indexes.read();
        for entry in indexes.iter() {
            let key = Self::key_of(&entry.def, tuple);
            entry.tree.write().insert(key, rid);
        }
    }

    /// Remove index entries for a stored version. Must be called with the
    /// write latch held.
    fn unindex_version(&self, tuple: &Tuple, rid: Rid) {
        let indexes = self.indexes.read();
        for entry in indexes.iter() {
            let key = Self::key_of(&entry.def, tuple);
            entry.tree.write().delete(&key, rid);
        }
    }

    // -- versioned (MVCC) writes ------------------------------------------

    /// Insert a tuple version created by transaction `xid`, maintaining all
    /// indexes. The version is invisible to other transactions until `xid`
    /// commits.
    pub fn insert_txn(&self, tuple: &Tuple, xid: TxnId) -> Result<Rid> {
        self.schema.validate(&tuple.values)?;
        let _w = self.write_latch.lock();
        self.check_unique(tuple, xid, None)?;
        let rid = self.heap.insert_version(tuple, xid)?;
        self.index_version(tuple, rid);
        if xid != FROZEN {
            self.gc.note_unfrozen(1);
        }
        Ok(rid)
    }

    /// Mark the version at `rid` deleted by `xid` (first-writer-wins:
    /// fails with [`StorageError::WriteConflict`] if any transaction
    /// already wrote it). Index entries remain for older snapshots.
    /// Returns the tuple image for undo/delta capture.
    pub fn mark_delete_txn(&self, rid: Rid, xid: TxnId) -> Result<Tuple> {
        let _w = self.write_latch.lock();
        let old = self.heap.mark_delete(rid, xid).map_err(|e| match e {
            StorageError::WriteConflict { .. } => self.conflict(),
            other => other,
        })?;
        self.gc.note_unfrozen(1);
        self.gc.note_dead(1);
        Ok(old)
    }

    /// MVCC update: mark the old version at `rid` dead and insert a new
    /// version carrying `new`. Returns `(old_tuple, new_rid)`. Fails with
    /// [`StorageError::WriteConflict`] when another transaction already
    /// wrote the row, leaving it untouched.
    pub fn update_txn(&self, rid: Rid, new: &Tuple, xid: TxnId) -> Result<(Tuple, Rid)> {
        self.schema.validate(&new.values)?;
        let _w = self.write_latch.lock();
        // Claim the row *before* the uniqueness check: a race with another
        // writer of the same row must surface as a write conflict, not as
        // a spurious unique violation against the rival's pending version.
        let old = self.heap.mark_delete(rid, xid).map_err(|e| match e {
            StorageError::WriteConflict { .. } => self.conflict(),
            other => other,
        })?;
        if let Err(e) = self.check_unique(new, xid, Some(rid)) {
            let _ = self.heap.clear_delete_mark(rid, xid);
            return Err(e);
        }
        let new_rid = self.heap.insert_version(new, xid)?;
        self.index_version(new, new_rid);
        // One superseded version (mark) + one versioned insert.
        self.gc.note_unfrozen(2);
        self.gc.note_dead(1);
        Ok((old, new_rid))
    }

    /// Physically remove the version at `rid` with its index entries
    /// (rollback of an insert, or garbage collection).
    pub fn remove_version(&self, rid: Rid) -> Result<Tuple> {
        let _w = self.write_latch.lock();
        let old = self.heap.delete(rid)?;
        self.unindex_version(&old, rid);
        // The tombstoned slot's record space awaits compaction.
        self.gc.note_dead(1);
        Ok(old)
    }

    /// Clear a delete mark set by `xid` (rollback of a delete/update).
    pub fn clear_delete_mark(&self, rid: Rid, xid: TxnId) -> Result<()> {
        let _w = self.write_latch.lock();
        self.heap.clear_delete_mark(rid, xid)
    }

    // -- frozen (unversioned) write -----------------------------------------

    /// Insert a frozen tuple: immediately visible to every snapshot and not
    /// subject to rollback. Fixture loads and the population of a new
    /// materialized view use this; transactional DML and view maintenance
    /// go through [`Table::insert_txn`].
    pub fn insert(&self, tuple: &Tuple) -> Result<Rid> {
        self.insert_txn(tuple, FROZEN)
    }

    // -- reads -------------------------------------------------------------

    /// Fetch one tuple, whatever its version state (raw read; snapshot
    /// readers scan, or resolve index postings through
    /// [`Table::read_postings`]).
    pub fn get(&self, rid: Rid) -> Result<Tuple> {
        self.heap.get(rid)
    }

    /// Scan tuples visible to the latest-committed snapshot; see
    /// [`HeapFile::for_each`].
    pub fn for_each(&self, f: impl FnMut(Rid, Tuple) -> Result<bool>) -> Result<()> {
        self.heap.for_each(f)
    }

    /// Scan tuples visible to `snap`.
    pub fn for_each_visible(
        &self,
        snap: &Snapshot,
        f: impl FnMut(Rid, Tuple) -> Result<bool>,
    ) -> Result<()> {
        self.heap.for_each_snapshot(snap, f)
    }

    /// Streaming scan unit under an explicit snapshot: the visible rows
    /// `gate` accepts, appended to the flat buffer `out` with only the
    /// columns `cols` keeps materialized (and their RIDs to `rids`, when
    /// given), with the row, visible and skipped version counts. See
    /// [`HeapFile::scan_page_snapshot`].
    pub fn scan_page_snapshot(
        &self,
        idx: usize,
        snap: &Snapshot,
        cols: Option<&[usize]>,
        gate: Option<Gate<'_>>,
        out: &mut Vec<Value>,
        rids: Option<&mut Vec<Rid>>,
    ) -> Result<Option<VisiblePage>> {
        self.heap
            .scan_page_snapshot(idx, snap, cols, gate, out, rids)
    }

    /// Number of rows visible to the latest-committed snapshot.
    pub fn row_count(&self) -> Result<usize> {
        self.heap.count()
    }

    /// Number of rows visible to `snap`.
    pub fn row_count_visible(&self, snap: &Snapshot) -> Result<usize> {
        self.heap.count_snapshot(snap)
    }

    pub fn page_count(&self) -> usize {
        self.heap.page_count()
    }

    /// Add a secondary index over `columns`, building it from current data
    /// (every stored version gets an entry; uniqueness is checked over the
    /// currently-live versions only).
    pub fn create_index(&self, name: &str, columns: Vec<usize>, unique: bool) -> Result<()> {
        let _w = self.write_latch.lock();
        let mut indexes = self.indexes.write();
        if indexes
            .iter()
            .any(|e| e.def.name.eq_ignore_ascii_case(name))
        {
            return Err(StorageError::DuplicateIndex(name.to_string()));
        }
        let def = IndexDef {
            name: name.to_string(),
            columns,
            unique,
        };
        let mut tree = BTreeIndex::default();
        let latest = self.txns().snapshot_latest();
        let mut live_keys: HashSet<Key> = HashSet::new();
        let mut build_err = None;
        self.heap.for_each_version(|rid, hdr, t| {
            let key = Table::key_of(&def, &t);
            if unique && hdr.xmax == 0 && latest.sees(&hdr) && !live_keys.insert(key.clone()) {
                build_err = Some(StorageError::UniqueViolation(format_key(&key)));
                return Ok(false);
            }
            tree.insert(key, rid);
            Ok(true)
        })?;
        if let Some(e) = build_err {
            return Err(e);
        }
        Self::log_ddl(
            &self.wal,
            WalRecord::CreateIndex {
                table: self.id,
                index: IndexSnap {
                    name: def.name.clone(),
                    columns: def.columns.clone(),
                    unique: def.unique,
                },
            },
        )?;
        indexes.push(IndexEntry {
            def,
            tree: RwLock::new(tree),
        });
        Ok(())
    }

    /// The underlying heap (recovery's redo/undo target).
    pub(crate) fn heap(&self) -> &HeapFile {
        &self.heap
    }

    /// Register an index definition with an empty tree (recovery only; the
    /// tree is filled by [`Table::rebuild_indexes`] once redo/undo settle
    /// the heap contents).
    pub(crate) fn restore_index_def(&self, def: IndexDef) {
        self.indexes.write().push(IndexEntry {
            def,
            tree: RwLock::new(BTreeIndex::default()),
        });
    }

    /// Rebuild every index tree from the heap (after recovery rewrote the
    /// pages underneath them). Every stored version gets a posting, as at
    /// runtime; uniqueness is not re-checked — the log replays only states
    /// the runtime already validated.
    pub fn rebuild_indexes(&self) -> Result<()> {
        let _w = self.write_latch.lock();
        let indexes = self.indexes.read();
        for entry in indexes.iter() {
            let mut tree = BTreeIndex::default();
            self.heap.for_each_version(|rid, _, t| {
                tree.insert(Table::key_of(&entry.def, &t), rid);
                Ok(true)
            })?;
            *entry.tree.write() = tree;
        }
        Ok(())
    }

    /// Names and definitions of all indexes.
    pub fn index_defs(&self) -> Vec<IndexDef> {
        self.indexes.read().iter().map(|e| e.def.clone()).collect()
    }

    /// Definition of the named index, if it exists.
    pub fn index_def(&self, name: &str) -> Option<IndexDef> {
        self.indexes
            .read()
            .iter()
            .find(|e| e.def.name.eq_ignore_ascii_case(name))
            .map(|e| e.def.clone())
    }

    /// Find an index whose column list starts with exactly `columns` (we use
    /// exact-prefix match; the planner only asks for full-key equality).
    pub fn find_index(&self, columns: &[usize]) -> Option<IndexDef> {
        self.indexes
            .read()
            .iter()
            .find(|e| e.def.columns.len() == columns.len() && e.def.columns == columns)
            .map(|e| e.def.clone())
    }

    /// The postings of all `keys` in the named index, gathered under one
    /// read of its tree and sorted into heap scan order, for
    /// [`Table::read_postings`] to resolve. A key holding a NULL matches
    /// nothing (SQL equality) and is not probed.
    pub fn gather_postings(&self, index_name: &str, mut keys: Vec<Key>) -> Result<Postings> {
        keys.retain(|k| !k.iter().any(Value::is_null));
        let mut entries: Vec<(Rid, usize)> = self.with_tree(index_name, |tree| {
            let posted = |(i, key): (usize, &Key)| tree.get(key).iter().map(move |&rid| (rid, i));
            keys.iter().enumerate().flat_map(posted).collect()
        })?;
        if entries.len() > 1 {
            let order = self.heap.scan_order();
            entries.sort_by_key(|&(rid, _)| order.key(rid));
        }
        Ok(Postings {
            keys,
            entries,
            next: 0,
        })
    }

    /// Resolve the next page's run of `postings`, gathered from `index`,
    /// under `snap`: see [`HeapFile::read_postings`].
    pub fn read_postings(
        &self,
        index: &IndexDef,
        postings: &mut Postings,
        snap: &Snapshot,
        gate: Option<Gate<'_>>,
        out: &mut Vec<Value>,
        rids: Option<&mut Vec<Rid>>,
    ) -> Result<Option<VisiblePage>> {
        self.heap
            .read_postings(&index.columns, postings, snap, gate, out, rids)
    }

    /// Run `f` on the tree of the named index, under its read lock.
    fn with_tree<R>(&self, index_name: &str, f: impl FnOnce(&BTreeIndex) -> R) -> Result<R> {
        let indexes = self.indexes.read();
        let entry = indexes
            .iter()
            .find(|e| e.def.name.eq_ignore_ascii_case(index_name))
            .ok_or_else(|| StorageError::UnknownIndex(index_name.to_string()))?;
        let r = f(&entry.tree.read());
        Ok(r)
    }

    /// Recompute statistics with a full scan (latest-committed visibility).
    pub fn analyze(&self) -> Result<TableStats> {
        let mut b = StatsBuilder::new(self.schema.len());
        self.heap.for_each(|_, t| {
            b.observe(&t.values);
            Ok(true)
        })?;
        let stats = b.finish(self.heap.page_count() as u64);
        *self.stats.write() = Arc::new(stats.clone());
        Ok(stats)
    }

    /// Current (possibly stale) statistics; a shared handle, cheap enough
    /// for the planner to ask per predicate.
    pub fn stats(&self) -> Arc<TableStats> {
        Arc::clone(&self.stats.read())
    }

    /// Ordinal of a named column, with a table-aware error.
    pub fn column_index(&self, name: &str) -> Result<usize> {
        self.schema.resolve(&self.name, name)
    }

    /// Visit the tuples visible to `snap` whose `col` equals one of
    /// `values`, each once, in heap scan order, stopping as soon as `f`
    /// returns `false`. A NULL value matches nothing (SQL equality). With a
    /// single-column index on `col` the postings of all values are gathered
    /// at once and read page run by page run through
    /// [`Table::read_postings`], which checks that each slot still holds a
    /// version visible to `snap` that still carries a value it was posted
    /// under. So the call costs one page access per page that holds a
    /// posting, not one per row. Without such an index it is one visible
    /// scan.
    pub fn scan_by_values(
        &self,
        col: usize,
        values: &[Value],
        snap: &Snapshot,
        mut f: impl FnMut(Rid, Tuple) -> Result<bool>,
    ) -> Result<()> {
        let Some(def) = self.find_index(&[col]) else {
            return self.for_each_visible(snap, |rid, t| {
                if values.iter().any(|v| t.values[col].sql_eq(v) == Some(true)) {
                    return f(rid, t);
                }
                Ok(true)
            });
        };
        let keys = values.iter().map(|v| vec![v.clone()]).collect();
        let mut postings = self.gather_postings(&def.name, keys)?;
        let (mut buf, mut rids) = (Vec::new(), Vec::new());
        while let Some(run) =
            self.read_postings(&def, &mut postings, snap, None, &mut buf, Some(&mut rids))?
        {
            if !each_row(&mut buf, &mut rids, run.width, &mut f)? {
                break;
            }
        }
        Ok(())
    }

    // -- garbage collection -------------------------------------------------

    /// One vacuum pass over this table against the GC low-watermark:
    /// reclaim every version no live or future snapshot can see (heap slot
    /// tombstoned for reuse, page compacted, index postings removed),
    /// freeze surviving versions of commits at or below the watermark, and
    /// advance the table's frozen-through stamp. Holds the write latch for
    /// the pass (readers are unaffected; writers wait briefly).
    pub fn vacuum(&self, watermark: u64) -> Result<TableVacuumReport> {
        let _w = self.write_latch.lock();
        let hv = self.heap.vacuum(watermark)?;
        // Postings are removed after the page pass (lock order forbids
        // tree locks inside page latches); the latch keeps writers out, and
        // a reader racing the window re-verifies in `read_postings`.
        for (rid, tuple) in &hv.removed {
            self.unindex_version(tuple, *rid);
        }
        self.gc
            .after_pass(watermark, hv.remaining_unfrozen, hv.remaining_dead);
        Ok(TableVacuumReport {
            table: self.name.clone(),
            versions_reclaimed: hv.removed.len() as u64,
            versions_frozen: hv.frozen,
            pages_compacted: hv.pages_compacted,
            remaining_dead: hv.remaining_dead,
        })
    }

    /// Advance the frozen-through stamp without a scan when no header
    /// references any transaction id (see [`TableGc::try_clean_bump`]).
    pub fn try_clean_bump(&self, watermark: u64) -> bool {
        let _w = self.write_latch.lock();
        self.gc.try_clean_bump(watermark)
    }

    /// This table's GC state (pressure counters + freeze horizon).
    pub fn gc(&self) -> &TableGc {
        &self.gc
    }

    /// Count every stored version by state (diagnostic full scan used by
    /// GC tests and benches).
    pub fn version_census(&self) -> Result<VersionCensus> {
        self.heap.version_census()
    }
}

fn format_key(key: &Key) -> String {
    let parts: Vec<String> = key.iter().map(|v| v.to_string()).collect();
    format!("({})", parts.join(", "))
}

/// Kind of a stored view definition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViewKind {
    /// Plain relational (SQL) view.
    Sql,
    /// Composite-object (XNF) view.
    Xnf,
}

impl ViewKind {
    /// Stable on-log tag (see [`ViewSnap`]).
    pub fn tag(self) -> u8 {
        match self {
            ViewKind::Sql => 0,
            ViewKind::Xnf => 1,
        }
    }

    pub fn from_tag(tag: u8) -> ViewKind {
        if tag == 1 {
            ViewKind::Xnf
        } else {
            ViewKind::Sql
        }
    }
}

/// A stored view: name + definition text.
#[derive(Debug, Clone)]
pub struct ViewDef {
    pub name: String,
    pub kind: ViewKind,
    pub text: String,
    /// Whether this view is materialized (has backing storage; see
    /// [`Catalog::matview`]).
    pub materialized: bool,
}

/// One backing stream of a materialized view. A relational view has exactly
/// one stream; a materialized CO (XNF) view has one per output stream of
/// its query: node streams (with a leading `__coid` surrogate column) and
/// connection streams (surrogate pairs).
#[derive(Clone)]
pub struct MatViewStream {
    /// The stream name: the view name itself for relational views, the
    /// component/relationship name for CO streams.
    pub name: String,
    /// The backing heap table. Named `VIEW` (relational) or `VIEW$stream`
    /// (CO streams) — the `$` spelling cannot be produced by the SQL lexer,
    /// keeping CO backing tables out of reach of direct DML.
    pub table: Arc<Table>,
}

/// Backing storage of one materialized view: its stream tables, a
/// freshness epoch, and the surrogate-id allocator for CO node rows.
pub struct MatView {
    streams: Vec<MatViewStream>,
    /// Bumped on every maintenance action (incremental or full refresh);
    /// lets clients detect that stored contents moved.
    epoch: std::sync::atomic::AtomicU64,
    /// Next surrogate id for CO node rows (monotonic across refreshes so a
    /// stale reader can never confuse an old row with a new one).
    next_surrogate: std::sync::atomic::AtomicI64,
}

impl MatView {
    fn new(streams: Vec<MatViewStream>) -> Self {
        MatView {
            streams,
            epoch: std::sync::atomic::AtomicU64::new(0),
            next_surrogate: std::sync::atomic::AtomicI64::new(0),
        }
    }

    /// The backing streams.
    pub fn streams(&self) -> Vec<MatViewStream> {
        self.streams.clone()
    }

    /// Backing table of the named stream.
    pub fn stream(&self, name: &str) -> Option<Arc<Table>> {
        self.streams
            .iter()
            .find(|s| s.name.eq_ignore_ascii_case(name))
            .map(|s| Arc::clone(&s.table))
    }

    /// Current maintenance epoch (0 = as populated at CREATE).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(std::sync::atomic::Ordering::Acquire)
    }

    /// Record one maintenance action.
    pub fn bump_epoch(&self) {
        self.epoch.fetch_add(1, std::sync::atomic::Ordering::AcqRel);
    }

    /// Allocate `n` fresh surrogate ids; returns the first.
    pub fn alloc_surrogates(&self, n: i64) -> i64 {
        self.next_surrogate
            .fetch_add(n, std::sync::atomic::Ordering::AcqRel)
    }
}

/// The catalog of a database instance.
pub struct Catalog {
    pool: Arc<BufferPool>,
    /// Database-wide transaction state (txn ids + commit stamps).
    txns: Arc<TxnManager>,
    tables: RwLock<HashMap<String, Arc<Table>>>,
    views: RwLock<HashMap<String, ViewDef>>,
    /// Backing storage of materialized views, keyed like `views`.
    matviews: RwLock<HashMap<String, Arc<MatView>>>,
    next_id: Mutex<TableId>,
    /// Monotonic DDL generation: bumped on every schema change so cached
    /// compiled plans can detect staleness without re-validating names.
    generation: std::sync::atomic::AtomicU64,
    /// Cumulative GC counters across all vacuum runs.
    gc_totals: GcTotals,
    /// When set, DDL and heap mutations of base tables are logged here.
    /// Materialized-view backing tables stay unlogged: only their
    /// definitions hit the log, and recovery rebuilds contents by REFRESH.
    wal: Option<Arc<Wal>>,
}

impl Catalog {
    pub fn new(pool: Arc<BufferPool>) -> Self {
        Self::new_logged(pool, None)
    }

    /// A catalog whose DDL, base-table mutations and commits are logged to
    /// `wal` (the durable construction path of `Database::open`).
    pub fn new_logged(pool: Arc<BufferPool>, wal: Option<Arc<Wal>>) -> Self {
        Catalog {
            pool,
            txns: Arc::new(TxnManager::new_logged(wal.clone())),
            tables: RwLock::new(HashMap::new()),
            views: RwLock::new(HashMap::new()),
            matviews: RwLock::new(HashMap::new()),
            next_id: Mutex::new(0),
            generation: std::sync::atomic::AtomicU64::new(0),
            gc_totals: GcTotals::default(),
            wal,
        }
    }

    /// The WAL this catalog logs to, if any.
    pub fn wal(&self) -> Option<&Arc<Wal>> {
        self.wal.as_ref()
    }

    pub fn buffer_pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// The database-wide transaction manager.
    pub fn txns(&self) -> &Arc<TxnManager> {
        &self.txns
    }

    /// A snapshot of the latest committed state (what autocommit
    /// statements read).
    pub fn latest_snapshot(&self) -> Snapshot {
        self.txns.snapshot_latest()
    }

    /// Current DDL generation. Any CREATE/DROP of a table or view (and
    /// index creation / ANALYZE, which change plan choices) advances it.
    pub fn generation(&self) -> u64 {
        self.generation.load(std::sync::atomic::Ordering::Acquire)
    }

    /// Advance the DDL generation, invalidating all cached plans compiled
    /// against earlier generations.
    pub fn bump_generation(&self) {
        self.generation
            .fetch_add(1, std::sync::atomic::Ordering::AcqRel);
    }

    fn norm(name: &str) -> String {
        name.to_ascii_uppercase()
    }

    /// Create a table. Fails on duplicate names (tables and views share a
    /// namespace).
    pub fn create_table(&self, name: &str, schema: Schema) -> Result<Arc<Table>> {
        let key = Self::norm(name);
        if self.views.read().contains_key(&key) {
            return Err(StorageError::DuplicateTable(name.to_string()));
        }
        let mut tables = self.tables.write();
        if tables.contains_key(&key) {
            return Err(StorageError::DuplicateTable(name.to_string()));
        }
        let mut next = self.next_id.lock();
        let id = *next;
        *next += 1;
        let t = Arc::new(Table::new(
            id,
            name.to_string(),
            schema,
            Arc::clone(&self.pool),
            Arc::clone(&self.txns),
            self.wal.clone(),
        ));
        Table::log_ddl(
            &self.wal,
            WalRecord::CreateTable {
                id,
                name: t.name.clone(),
                schema: t.schema.clone(),
            },
        )?;
        tables.insert(key, Arc::clone(&t));
        self.bump_generation();
        Ok(t)
    }

    pub fn drop_table(&self, name: &str) -> Result<()> {
        let removed = self.tables.write().remove(&Self::norm(name));
        match removed {
            Some(t) => {
                Table::log_ddl(
                    &self.wal,
                    WalRecord::DropTable {
                        name: t.name.clone(),
                    },
                )?;
                self.bump_generation();
                Ok(())
            }
            None => Err(StorageError::UnknownTable(name.to_string())),
        }
    }

    /// Resolve a name to stored data: a base table, or — falling back — the
    /// backing table of a materialized view (`NAME` for relational views,
    /// `NAME$stream` for one stream of a materialized CO view). The fallback
    /// is what lets the planner and executor treat materialized-view scans
    /// exactly like base-table scans (index selection included).
    pub fn table(&self, name: &str) -> Result<Arc<Table>> {
        if let Some(t) = self.tables.read().get(&Self::norm(name)) {
            return Ok(Arc::clone(t));
        }
        let (view, stream) = match name.split_once('$') {
            Some((v, s)) => (v, Some(s)),
            None => (name, None),
        };
        if let Some(mv) = self.matviews.read().get(&Self::norm(view)) {
            let streams = mv.streams();
            let found = match stream {
                Some(s) => streams
                    .iter()
                    .find(|st| st.name.eq_ignore_ascii_case(s))
                    .map(|st| Arc::clone(&st.table)),
                // A bare view name resolves only for single-stream
                // (relational) materialized views.
                None if streams.len() == 1 => Some(Arc::clone(&streams[0].table)),
                None => None,
            };
            if let Some(t) = found {
                return Ok(t);
            }
        }
        Err(StorageError::UnknownTable(name.to_string()))
    }

    /// Is `name` (a `Table::name` as it appears in a plan) backed by a
    /// materialized view rather than a base table? Used by the planner to
    /// label such scans `matview scan` in EXPLAIN.
    pub fn is_matview_backing(&self, name: &str) -> bool {
        if self.tables.read().contains_key(&Self::norm(name)) {
            return false;
        }
        let view = name.split_once('$').map(|(v, _)| v).unwrap_or(name);
        self.matviews.read().contains_key(&Self::norm(view))
    }

    pub fn has_table(&self, name: &str) -> bool {
        self.tables.read().contains_key(&Self::norm(name))
    }

    /// Every page id reachable from a heap extent: base tables plus
    /// materialized-view backing tables. Recovery reconciles the page file
    /// against this set to find (and reclaim) stranded allocations.
    pub fn live_page_extents(&self) -> Vec<crate::disk::PageId> {
        let mut pages: Vec<crate::disk::PageId> = self
            .tables
            .read()
            .values()
            .flat_map(|t| t.heap.pages())
            .collect();
        for mv in self.matviews.read().values() {
            for s in mv.streams() {
                pages.extend(s.table.heap.pages());
            }
        }
        pages
    }

    pub fn table_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self
            .tables
            .read()
            .values()
            .map(|t| t.name.clone())
            .collect();
        v.sort();
        v
    }

    /// Register a view definition (text is re-parsed by the front end).
    pub fn create_view(&self, name: &str, kind: ViewKind, text: &str) -> Result<()> {
        self.register_view(name, kind, text, false)?;
        Table::log_ddl(
            &self.wal,
            WalRecord::CreateView(ViewSnap {
                name: name.to_string(),
                kind: kind.tag(),
                text: text.to_string(),
                materialized: false,
                streams: Vec::new(),
            }),
        )
    }

    fn register_view(
        &self,
        name: &str,
        kind: ViewKind,
        text: &str,
        materialized: bool,
    ) -> Result<()> {
        let key = Self::norm(name);
        if self.tables.read().contains_key(&key) {
            return Err(StorageError::DuplicateTable(name.to_string()));
        }
        let mut views = self.views.write();
        if views.contains_key(&key) {
            return Err(StorageError::DuplicateTable(name.to_string()));
        }
        views.insert(
            key,
            ViewDef {
                name: name.to_string(),
                kind,
                text: text.to_string(),
                materialized,
            },
        );
        self.bump_generation();
        Ok(())
    }

    /// Build one fresh backing table for a materialized-view stream.
    fn backing_table(
        &self,
        view: &str,
        stream: &str,
        single: bool,
        schema: Schema,
    ) -> MatViewStream {
        let table_name = if single {
            view.to_string()
        } else {
            format!("{view}${stream}")
        };
        let mut next = self.next_id.lock();
        let id = *next;
        *next += 1;
        MatViewStream {
            name: stream.to_string(),
            // Backing tables are unlogged: their contents are derived (a
            // REFRESH at restart reconstructs them), so logging every
            // maintenance write would only double the log volume.
            table: Arc::new(Table::new(
                id,
                table_name,
                schema,
                Arc::clone(&self.pool),
                Arc::clone(&self.txns),
                None,
            )),
        }
    }

    /// Register a materialized view: the definition plus empty backing
    /// tables, one per stream (relational views pass exactly one stream,
    /// conventionally named after the view). The caller (the `matview`
    /// module in `xnf-core`) populates the backing tables and creates their
    /// maintenance indexes.
    pub fn create_materialized_view(
        &self,
        name: &str,
        kind: ViewKind,
        text: &str,
        streams: Vec<(String, Schema)>,
    ) -> Result<Arc<MatView>> {
        self.register_view(name, kind, text, true)?;
        Table::log_ddl(
            &self.wal,
            WalRecord::CreateView(ViewSnap {
                name: name.to_string(),
                kind: kind.tag(),
                text: text.to_string(),
                materialized: true,
                streams: streams.clone(),
            }),
        )?;
        let single = streams.len() == 1;
        let built: Vec<MatViewStream> = streams
            .into_iter()
            .map(|(s, schema)| self.backing_table(name, &s, single, schema))
            .collect();
        let mv = Arc::new(MatView::new(built));
        self.matviews
            .write()
            .insert(Self::norm(name), Arc::clone(&mv));
        Ok(mv)
    }

    /// Backing storage of a materialized view, if `name` names one.
    pub fn matview(&self, name: &str) -> Option<Arc<MatView>> {
        self.matviews.read().get(&Self::norm(name)).cloned()
    }

    /// Whether any materialized views exist (DML skips delta capture when
    /// none do).
    pub fn has_matviews(&self) -> bool {
        !self.matviews.read().is_empty()
    }

    pub fn view(&self, name: &str) -> Option<ViewDef> {
        self.views.read().get(&Self::norm(name)).cloned()
    }

    pub fn drop_view(&self, name: &str) -> Result<()> {
        let removed = self.views.write().remove(&Self::norm(name));
        match removed {
            Some(def) => {
                self.matviews.write().remove(&Self::norm(name));
                Table::log_ddl(&self.wal, WalRecord::DropView { name: def.name })?;
                self.bump_generation();
                Ok(())
            }
            None => Err(StorageError::UnknownTable(name.to_string())),
        }
    }

    pub fn view_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.views.read().values().map(|d| d.name.clone()).collect();
        v.sort();
        v
    }

    // -- durability & recovery ----------------------------------------------

    /// Serializable catalog state for a checkpoint: base tables (schema,
    /// extent, index definitions) plus view definitions — materialized ones
    /// with the stream schemas their backing tables are recreated from.
    /// Backing-table contents are not captured (they are derived state;
    /// restart REFRESHes them).
    pub fn checkpoint_snapshot(&self) -> (TableId, Vec<TableSnap>, Vec<ViewSnap>) {
        let next = *self.next_id.lock();
        let mut tables: Vec<TableSnap> = self
            .tables
            .read()
            .values()
            .map(|t| TableSnap {
                id: t.id,
                name: t.name.clone(),
                schema: t.schema.clone(),
                pages: t.heap.pages(),
                indexes: t
                    .index_defs()
                    .into_iter()
                    .map(|d| IndexSnap {
                        name: d.name,
                        columns: d.columns,
                        unique: d.unique,
                    })
                    .collect(),
            })
            .collect();
        tables.sort_by_key(|t| t.id);
        let mut views: Vec<ViewSnap> = self
            .views
            .read()
            .values()
            .map(|d| self.view_snap(d))
            .collect();
        views.sort_by(|a, b| a.name.cmp(&b.name));
        (next, tables, views)
    }

    fn view_snap(&self, def: &ViewDef) -> ViewSnap {
        let streams = if def.materialized {
            self.matview(&def.name)
                .map(|mv| {
                    mv.streams()
                        .iter()
                        .map(|s| (s.name.clone(), s.table.schema.clone()))
                        .collect()
                })
                .unwrap_or_default()
        } else {
            Vec::new()
        };
        ViewSnap {
            name: def.name.clone(),
            kind: def.kind.tag(),
            text: def.text.clone(),
            materialized: def.materialized,
            streams,
        }
    }

    /// Recreate one base table from a checkpoint snapshot (recovery only):
    /// forced id, recorded extent, index definitions with empty trees
    /// (rebuilt after redo/undo), and a GC horizon of zero — recovered
    /// headers may reference arbitrarily old commit stamps, so the
    /// frozen-through stamp must be re-earned by a vacuum scan.
    pub(crate) fn restore_table(&self, snap: TableSnap) {
        let t = Arc::new(Table::build(
            snap.id,
            snap.name.clone(),
            snap.schema,
            Arc::clone(&self.pool),
            Arc::clone(&self.txns),
            self.wal.clone(),
            0,
        ));
        t.heap.restore_pages(snap.pages);
        for idx in snap.indexes {
            t.restore_index_def(IndexDef {
                name: idx.name,
                columns: idx.columns,
                unique: idx.unique,
            });
        }
        self.tables.write().insert(Self::norm(&snap.name), t);
        self.set_next_table_id(snap.id + 1);
    }

    /// Base table carrying WAL table id `id`, if present. Matview backing
    /// tables are not searched: their ids never appear in a log we replay
    /// (they are unlogged), so redo skips records for unknown ids.
    pub(crate) fn table_by_id(&self, id: TableId) -> Option<Arc<Table>> {
        self.tables.read().values().find(|t| t.id == id).cloned()
    }

    /// Force the table-id allocator to at least `id` (recovery only).
    pub(crate) fn set_next_table_id(&self, id: TableId) {
        let mut next = self.next_id.lock();
        *next = (*next).max(id);
    }

    /// Redo of [`WalRecord::CreateTable`]: idempotent — a fuzzy checkpoint
    /// may already have captured the table.
    pub(crate) fn redo_create_table(&self, id: TableId, name: &str, schema: Schema) {
        let key = Self::norm(name);
        let mut tables = self.tables.write();
        if tables.contains_key(&key) {
            return;
        }
        let t = Arc::new(Table::build(
            id,
            name.to_string(),
            schema,
            Arc::clone(&self.pool),
            Arc::clone(&self.txns),
            self.wal.clone(),
            0,
        ));
        tables.insert(key, t);
        drop(tables);
        self.set_next_table_id(id + 1);
    }

    /// Redo of [`WalRecord::DropTable`] (idempotent).
    pub(crate) fn redo_drop_table(&self, name: &str) {
        self.tables.write().remove(&Self::norm(name));
    }

    /// Redo of [`WalRecord::CreateIndex`] (idempotent; tree stays empty
    /// until [`Table::rebuild_indexes`]).
    pub(crate) fn redo_create_index(&self, table: TableId, idx: &IndexSnap) {
        if let Some(t) = self.table_by_id(table) {
            if t.index_def(&idx.name).is_none() {
                t.restore_index_def(IndexDef {
                    name: idx.name.clone(),
                    columns: idx.columns.clone(),
                    unique: idx.unique,
                });
            }
        }
    }

    /// Redo of [`WalRecord::CreateView`] for a *plain* view (idempotent).
    /// Materialized views are recreated by recovery after redo, via
    /// [`Catalog::create_materialized_view`], so their backing tables get
    /// fresh ids that cannot collide with redone `CreateTable` ids.
    pub(crate) fn redo_register_view(&self, vs: &ViewSnap) {
        let _ = self.register_view(&vs.name, ViewKind::from_tag(vs.kind), &vs.text, false);
    }

    /// Redo of [`WalRecord::DropView`] (idempotent).
    pub(crate) fn redo_drop_view(&self, name: &str) {
        self.views.write().remove(&Self::norm(name));
        self.matviews.write().remove(&Self::norm(name));
    }

    // -- garbage collection -------------------------------------------------

    /// Every physical heap in this catalog: base tables plus every
    /// materialized-view backing stream. This is the set whose
    /// frozen-through stamps bound commit-stamp pruning.
    pub fn storage_tables(&self) -> Vec<Arc<Table>> {
        let mut out: Vec<Arc<Table>> = self.tables.read().values().cloned().collect();
        for mv in self.matviews.read().values() {
            out.extend(mv.streams().into_iter().map(|s| s.table));
        }
        out
    }

    /// Run garbage collection: compute the live-snapshot low-watermark,
    /// vacuum `table` (every heap when `None`; all backing streams when it
    /// names a materialized view), clean-bump every fully-frozen heap, and
    /// prune commit-stamp entries no header can reference anymore.
    ///
    /// Tables with no reclaim pressure and no unfrozen headers are skipped
    /// (their horizon advances without a scan), so a targeted or
    /// opportunistic vacuum stays cheap while still letting the stamp
    /// table shrink.
    pub fn vacuum(&self, table: Option<&str>) -> Result<VacuumReport> {
        let targets: Vec<Arc<Table>> = match table {
            Some(name) => match self.matview(name) {
                Some(mv) => mv.streams().into_iter().map(|s| s.table).collect(),
                None => vec![self.table(name)?],
            },
            None => self.storage_tables(),
        };
        self.vacuum_tables(&targets)
    }

    /// Vacuum exactly `tables` (plus clean bumps and stamp pruning).
    /// Fully-frozen, pressure-free heaps are skipped — their horizon
    /// advances without a scan.
    pub fn vacuum_tables(&self, tables: &[Arc<Table>]) -> Result<VacuumReport> {
        self.vacuum_each(tables, |_| ())
    }

    /// Vacuum the heaps [`Catalog::gc_pressured_tables`] claimed: the
    /// opportunistic path. Each heap whose pass succeeds keeps its claim;
    /// on a failed pass the error returns, and the failed heap and those
    /// after it release theirs, so the next trigger retries them.
    pub fn vacuum_claimed(&self, mut claims: Vec<GcClaim>) -> Result<VacuumReport> {
        self.vacuum_each(&mut claims, |claim| claim.settled = true)
    }

    /// Pass over each of `tables` in order, calling `passed` after each
    /// pass that succeeds, then bump the clean heaps and prune stamps.
    fn vacuum_each<T: AsRef<Table>>(
        &self,
        tables: impl IntoIterator<Item = T>,
        mut passed: impl FnMut(T),
    ) -> Result<VacuumReport> {
        let watermark = self.txns.oldest_visible_stamp();
        let mut report = VacuumReport {
            watermark,
            ..VacuumReport::default()
        };
        for t in tables {
            let table = t.as_ref();
            if table.gc().unfrozen() != 0 || table.gc().dead_hint() != 0 {
                report.tables.push(table.vacuum(watermark)?);
            }
            passed(t);
        }
        // Untouched-but-clean heaps advance their horizon for free, so a
        // table that merely *existed* during a write storm never pins the
        // stamp table.
        let all = self.storage_tables();
        for t in &all {
            t.try_clean_bump(watermark);
        }
        let horizon = all
            .iter()
            .map(|t| t.gc().frozen_through())
            .min()
            .unwrap_or(watermark);
        report.stamps_pruned = self.txns.prune_stamps(horizon);
        report.stamps_remaining = self.txns.stamp_count() as u64;
        self.gc_totals.absorb(&report);
        Ok(report)
    }

    /// Cumulative GC counters (all vacuum runs since creation).
    pub fn gc_stats(&self) -> GcStats {
        self.gc_totals.snapshot()
    }

    /// Heaps whose reclaim pressure, or whose freeze pressure (the commit
    /// stamps their unfrozen headers pin, see [`TableGc::pinned_stamps`],
    /// over `FREEZE_STAMPS_PER_PRESSURE`), reached `threshold` — the
    /// candidates an opportunistic (post-commit) vacuum should scan. Freeze
    /// pressure is what selects a heap that only receives inserts, which
    /// would otherwise pin the stamp table forever.
    /// A table whose last pass already ran at the current watermark is
    /// excluded: re-scanning before the watermark moves (e.g. while a long
    /// transaction pins it) cannot reclaim or freeze anything new, and
    /// triggering it per commit would turn sustained writes quadratic.
    ///
    /// Each heap returned is claimed at the current watermark (see
    /// [`TableGc::claim_pass`]), so a concurrent trigger skips it instead
    /// of vacuuming it a second time; [`Catalog::vacuum_claimed`] runs the
    /// passes, and a claim dropped without a successful pass is released.
    pub fn gc_pressured_tables(&self, threshold: u64) -> Vec<GcClaim> {
        let watermark = self.txns.oldest_visible_stamp();
        self.storage_tables()
            .into_iter()
            .filter_map(|table| {
                let gc = table.gc();
                let frozen = gc.pinned_stamps(watermark) / FREEZE_STAMPS_PER_PRESSURE;
                if gc.dead_hint().max(frozen) < threshold {
                    return None;
                }
                let previous = gc.claim_pass(watermark)?;
                Some(GcClaim {
                    table,
                    watermark,
                    previous,
                    settled: false,
                })
            })
            .collect()
    }
}

/// A heap [`Catalog::gc_pressured_tables`] selected, and claimed, for an
/// opportunistic vacuum pass. Dropped before [`Catalog::vacuum_claimed`]
/// passed over it (the pass failed, or never ran), it releases the heap,
/// so the next trigger selects it again.
pub struct GcClaim {
    table: Arc<Table>,
    watermark: u64,
    previous: u64,
    settled: bool,
}

impl AsRef<Table> for GcClaim {
    fn as_ref(&self) -> &Table {
        &self.table
    }
}

impl Drop for GcClaim {
    fn drop(&mut self) {
        if !self.settled {
            self.table.gc().release_pass(self.watermark, self.previous);
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::disk::DiskManager;
    use crate::value::DataType;

    fn catalog() -> Catalog {
        let disk = Arc::new(DiskManager::new());
        Catalog::new(Arc::new(BufferPool::new(disk, 64)))
    }

    fn emp_schema() -> Schema {
        Schema::from_pairs(&[
            ("eno", DataType::Int),
            ("ename", DataType::Str),
            ("edno", DataType::Int),
        ])
    }

    fn emp(i: i64, dno: i64) -> Tuple {
        Tuple::new(vec![
            Value::Int(i),
            Value::Str(format!("e{i}")),
            Value::Int(dno),
        ])
    }

    #[test]
    fn create_and_lookup_tables() {
        let c = catalog();
        c.create_table("EMP", emp_schema()).unwrap();
        assert!(c.table("emp").is_ok(), "names are case-insensitive");
        assert!(matches!(
            c.create_table("emp", emp_schema()),
            Err(StorageError::DuplicateTable(_))
        ));
        assert!(matches!(
            c.table("DEPT"),
            Err(StorageError::UnknownTable(_))
        ));
        c.drop_table("EMP").unwrap();
        assert!(!c.has_table("EMP"));
    }

    #[test]
    fn index_maintenance_on_insert_delete_update() {
        let c = catalog();
        let t = c.create_table("EMP", emp_schema()).unwrap();
        t.create_index("emp_eno", vec![0], true).unwrap();
        t.create_index("emp_edno", vec![2], false).unwrap();

        let mut rids = vec![];
        for i in 0..50 {
            rids.push(t.insert(&emp(i, i % 5)).unwrap());
        }
        // Point lookup via unique index.
        assert_eq!(posted(&t, "emp_eno", 7), vec![rids[7]]);
        // Posting list via non-unique index.
        assert_eq!(posted(&t, "emp_edno", 3).len(), 10);

        // Delete maintains both.
        t.remove_version(rids[7]).unwrap();
        assert!(posted(&t, "emp_eno", 7).is_empty());
        assert_eq!(posted(&t, "emp_edno", 2).len(), 9);

        // An update that changes a key posts the new version under it; the
        // old version keeps its posting for older snapshots.
        let (_, nrid) = t
            .update_txn(rids[8], &emp(8, 99), t.txns().allocate())
            .unwrap();
        assert_eq!(posted(&t, "emp_edno", 99), vec![nrid]);
        assert_eq!(posted(&t, "emp_edno", 3).len(), 10);
    }

    #[test]
    fn unique_violation_rolls_back_heap_insert() {
        let c = catalog();
        let t = c.create_table("EMP", emp_schema()).unwrap();
        t.create_index("emp_eno", vec![0], true).unwrap();
        t.insert(&emp(1, 1)).unwrap();
        let before = t.row_count().unwrap();
        assert!(t.insert(&emp(1, 2)).is_err());
        assert_eq!(
            t.row_count().unwrap(),
            before,
            "heap unchanged after failed insert"
        );
    }

    #[test]
    fn unique_key_reusable_after_mvcc_delete_commits() {
        let c = catalog();
        let t = c.create_table("EMP", emp_schema()).unwrap();
        t.create_index("emp_eno", vec![0], true).unwrap();
        let rid = t.insert(&emp(1, 1)).unwrap();

        let a = t.txns().allocate();
        t.mark_delete_txn(rid, a).unwrap();
        // While A is uncommitted, the key is conservatively still taken for
        // everyone else…
        let b = t.txns().allocate();
        assert!(t.insert_txn(&emp(1, 5), b).is_err());
        // …but free for A itself and, after A commits, for everyone.
        t.txns().commit(a);
        let rid2 = t.insert_txn(&emp(1, 9), b).unwrap();
        t.txns().commit(b);
        let visible = scanned_by_values(&t, 0, &[1], &c.latest_snapshot());
        assert_eq!(visible, vec![(rid2, emp(1, 9))]);
    }

    #[test]
    fn versioned_update_keeps_old_version_for_old_snapshots() {
        let c = catalog();
        let t = c.create_table("EMP", emp_schema()).unwrap();
        t.create_index("emp_eno", vec![0], true).unwrap();
        let rid = t.insert(&emp(1, 1)).unwrap();

        let before = c.latest_snapshot();
        let a = t.txns().allocate();
        t.update_txn(rid, &emp(1, 42), a).unwrap();
        t.txns().commit(a);

        // Old snapshot: original row, via scan and via index.
        assert_eq!(scanned_by_values(&t, 0, &[1], &before)[0].1, emp(1, 1));
        // Fresh snapshot: updated row only, even though the index holds
        // postings for both versions.
        let now = scanned_by_values(&t, 0, &[1], &c.latest_snapshot());
        assert_eq!(now.len(), 1);
        assert_eq!(now[0].1, emp(1, 42));
    }

    #[test]
    fn index_built_over_existing_data() {
        let c = catalog();
        let t = c.create_table("EMP", emp_schema()).unwrap();
        for i in 0..20 {
            t.insert(&emp(i, i % 2)).unwrap();
        }
        t.create_index("emp_edno", vec![2], false).unwrap();
        assert_eq!(posted(&t, "emp_edno", 0).len(), 10);
    }

    #[test]
    fn views_share_namespace_with_tables() {
        let c = catalog();
        c.create_table("EMP", emp_schema()).unwrap();
        assert!(c.create_view("EMP", ViewKind::Sql, "SELECT 1").is_err());
        c.create_view("V", ViewKind::Xnf, "OUT OF ... TAKE *")
            .unwrap();
        assert!(c.create_table("v", emp_schema()).is_err());
        assert_eq!(c.view("v").unwrap().kind, ViewKind::Xnf);
        c.drop_view("V").unwrap();
        assert!(c.view("V").is_none());
    }

    #[test]
    fn analyze_populates_stats() {
        let c = catalog();
        let t = c.create_table("EMP", emp_schema()).unwrap();
        for i in 0..100 {
            t.insert(&emp(i, i % 4)).unwrap();
        }
        let s = t.analyze().unwrap();
        assert_eq!(s.row_count, 100);
        assert_eq!(s.columns[2].distinct, 4);
        assert_eq!(t.stats().row_count, 100);
    }

    #[test]
    fn scan_by_values_with_and_without_index() {
        let c = catalog();
        let t = c.create_table("EMP", emp_schema()).unwrap();
        for i in 0..30 {
            t.insert(&emp(i, i % 3)).unwrap();
        }
        let snap = c.latest_snapshot();
        let no_index = scanned_by_values(&t, 2, &[1], &snap);
        t.create_index("emp_edno", vec![2], false).unwrap();
        let mut with_index = scanned_by_values(&t, 2, &[1], &snap);
        with_index.sort_by_key(|(rid, _)| *rid);
        let mut expect = no_index;
        expect.sort_by_key(|(rid, _)| *rid);
        assert_eq!(with_index, expect);
    }

    /// The RIDs posted under `key` in `t`'s index `index`, in heap order.
    pub(crate) fn posted(t: &Table, index: &str, key: i64) -> Vec<Rid> {
        let postings = t.gather_postings(index, vec![vec![Value::Int(key)]]);
        postings
            .unwrap()
            .entries
            .into_iter()
            .map(|(rid, _)| rid)
            .collect()
    }

    /// Every row visible to the latest-committed snapshot.
    pub(crate) fn visible_rows(t: &Table) -> Vec<(Rid, Tuple)> {
        let mut rows = Vec::new();
        t.for_each(|rid, tuple| {
            rows.push((rid, tuple));
            Ok(true)
        })
        .unwrap();
        rows
    }

    /// Rows `scan_by_values` hands to its callback, in its order.
    pub(crate) fn scanned_by_values(
        t: &Table,
        col: usize,
        keys: &[i64],
        snap: &Snapshot,
    ) -> Vec<(Rid, Tuple)> {
        let values: Vec<Value> = keys.iter().map(|&k| Value::Int(k)).collect();
        let mut out = Vec::new();
        t.scan_by_values(col, &values, snap, |rid, tuple| {
            out.push((rid, tuple));
            Ok(true)
        })
        .unwrap();
        out
    }

    /// Post `rid` under `key` in `t`'s index `index` directly: the stale
    /// posting a reader holds when the slot's version was reclaimed (and
    /// the slot perhaps reused) between its index read and its page read.
    fn post_stale(t: &Table, index: &str, key: i64, rid: Rid) {
        let indexes = t.indexes.read();
        let entry = indexes.iter().find(|e| e.def.name == index).unwrap();
        entry.tree.write().insert(vec![Value::Int(key)], rid);
    }

    #[test]
    fn scan_by_values_pins_each_page_once_in_heap_order() {
        let c = catalog();
        let t = c.create_table("EMP", emp_schema()).unwrap();
        t.create_index("emp_edno", vec![2], false).unwrap();
        for i in 0..2000 {
            t.insert(&emp(i, i % 10)).unwrap();
        }
        let snap = c.latest_snapshot();
        let accesses = || {
            let s = c.buffer_pool().stats();
            s.hits + s.misses
        };
        let before = accesses();
        let rows = scanned_by_values(&t, 2, &[7, 3], &snap);
        let cost = accesses() - before;
        assert_eq!(rows.len(), 400);
        let pages: HashSet<u64> = rows.iter().map(|(rid, _)| rid.page).collect();
        assert!(pages.len() > 1, "the rows span several pages");
        assert_eq!(cost, pages.len() as u64, "one access per page, not per row");
        assert!(rows.windows(2).all(|w| w[0].0 < w[1].0), "heap order");
        let mut expect = Vec::new();
        t.for_each_visible(&snap, |rid, tuple| {
            if [Value::Int(3), Value::Int(7)].contains(&tuple.values[2]) {
                expect.push((rid, tuple));
            }
            Ok(true)
        })
        .unwrap();
        assert_eq!(rows, expect);
    }

    #[test]
    fn scan_by_values_drops_a_stale_posting_to_a_reused_slot() {
        let c = catalog();
        let t = c.create_table("EMP", emp_schema()).unwrap();
        t.create_index("emp_edno", vec![2], false).unwrap();
        t.insert(&emp(0, 6)).unwrap();
        let gone = t.insert(&emp(1, 5)).unwrap();
        t.remove_version(gone).unwrap();
        let reused = t.insert(&emp(2, 6)).unwrap();
        assert_eq!(reused, gone, "the insert reuses the reclaimed slot");
        post_stale(&t, "emp_edno", 5, gone);
        let snap = c.latest_snapshot();
        assert!(scanned_by_values(&t, 2, &[5], &snap).is_empty());
        // A stale posting to a slot that holds no record resolves to
        // nothing either.
        let empty = t.insert(&emp(3, 6)).unwrap();
        t.remove_version(empty).unwrap();
        post_stale(&t, "emp_edno", 6, empty);
        let rows = scanned_by_values(&t, 2, &[6], &snap);
        let enos: Vec<&Value> = rows.iter().map(|(_, t)| &t.values[0]).collect();
        assert_eq!(enos, [&Value::Int(0), &Value::Int(2)]);
    }

    #[test]
    fn read_postings_checks_each_key_before_the_gate_and_counts_each_posting() {
        let c = catalog();
        let t = c.create_table("EMP", emp_schema()).unwrap();
        t.create_index("emp_edno", vec![2], false).unwrap();
        // A row of key 6 also posted under 5, a row of key 5, and a posting
        // of key 5 to an empty slot: all on one page.
        let live = t.insert(&emp(1, 6)).unwrap();
        let other = t.insert(&emp(2, 5)).unwrap();
        let empty = t.insert(&emp(3, 5)).unwrap();
        t.remove_version(empty).unwrap();
        post_stale(&t, "emp_edno", 5, empty);
        post_stale(&t, "emp_edno", 5, live);
        let (def, snap) = (t.index_def("emp_edno").unwrap(), c.latest_snapshot());
        // Per key order: the rows the gate was shown (their `eno`), the rows
        // read (the gate keeps `eno` 1 only), and `(visible, skipped)`.
        for (keys, shown, rows, counts) in [
            (vec![5, 6], vec![1, 2], vec![(live, emp(1, 6))], (2, 2)),
            (vec![6, 5], vec![1, 2], vec![(live, emp(1, 6))], (2, 1)),
            (vec![5], vec![2], vec![], (1, 2)),
        ] {
            let keys = keys.into_iter().map(|k| vec![Value::Int(k)]).collect();
            let mut postings = t.gather_postings("emp_edno", keys).unwrap();
            let mut seen = Vec::new();
            let mut accept = |r: &[Value]| {
                seen.push(r[0].as_int().unwrap());
                r[0] == Value::Int(1)
            };
            let gate = Gate {
                cols: &[0],
                accept: &mut accept,
            };
            let (mut out, mut rids) = (Vec::new(), Vec::new());
            let run = t
                .read_postings(
                    &def,
                    &mut postings,
                    &snap,
                    Some(gate),
                    &mut out,
                    Some(&mut rids),
                )
                .unwrap()
                .unwrap();
            assert_eq!(
                seen, shown,
                "only rows carrying a probed key reach the gate"
            );
            let got: Vec<(Rid, Tuple)> = rids
                .into_iter()
                .zip(out.chunks(3).map(|r| Tuple::new(r.to_vec())))
                .collect();
            assert_eq!(got, rows);
            assert_eq!((run.visible, run.skipped), counts);
            let none = t.read_postings(&def, &mut postings, &snap, None, &mut out, None);
            assert!(none.unwrap().is_none(), "one page, one run");
        }
        assert_eq!(other.page, live.page);
    }

    #[test]
    fn scan_by_values_emits_a_rid_posted_under_two_keys_once() {
        let c = catalog();
        let t = c.create_table("EMP", emp_schema()).unwrap();
        t.create_index("emp_edno", vec![2], false).unwrap();
        let rid = t.insert(&emp(1, 6)).unwrap();
        post_stale(&t, "emp_edno", 5, rid);
        let snap = c.latest_snapshot();
        // A stale posting beside the live one, and the same key asked
        // for twice.
        for keys in [[5, 6], [6, 5], [6, 6]] {
            assert_eq!(
                scanned_by_values(&t, 2, &keys, &snap),
                vec![(rid, emp(1, 6))]
            );
        }
        assert!(scanned_by_values(&t, 2, &[5], &snap).is_empty());
        // Two requested values that are one index key.
        let mut rids = Vec::new();
        let values = [Value::Int(6), Value::Double(6.0)];
        t.scan_by_values(2, &values, &snap, |rid, _| {
            rids.push(rid);
            Ok(true)
        })
        .unwrap();
        assert_eq!(rids, vec![rid]);
    }

    #[test]
    fn scan_by_values_without_an_index_matches_its_per_key_calls() {
        let c = catalog();
        let t = c.create_table("EMP", emp_schema()).unwrap();
        let mut rids = Vec::new();
        for i in 0..60 {
            rids.push(t.insert(&emp(i, i % 4)).unwrap());
        }
        // A committed delete and another transaction's pending insert.
        let a = t.txns().allocate();
        t.mark_delete_txn(rids[2], a).unwrap();
        t.txns().commit(a);
        let b = t.txns().allocate();
        t.insert_txn(&emp(60, 2), b).unwrap();
        let snap = c.latest_snapshot();
        let keys = [2, 0, 9];
        let mut expect: Vec<(Rid, Tuple)> = keys
            .iter()
            .flat_map(|&k| scanned_by_values(&t, 2, &[k], &snap))
            .collect();
        expect.sort_by_key(|(rid, _)| *rid);
        assert_eq!(expect.len(), 29);
        assert_eq!(scanned_by_values(&t, 2, &keys, &snap), expect);
        t.create_index("emp_edno", vec![2], false).unwrap();
        assert_eq!(scanned_by_values(&t, 2, &keys, &snap), expect);
    }

    #[test]
    fn scan_by_values_stops_after_first_false() {
        let c = catalog();
        let t = c.create_table("EMP", emp_schema()).unwrap();
        for i in 0..40 {
            t.insert(&emp(i, i % 2)).unwrap();
        }
        let snap = c.latest_snapshot();
        let calls_until = |stop_at: usize| -> usize {
            let mut calls = 0;
            t.scan_by_values(2, &[Value::Int(1)], &snap, |_, tuple| {
                assert_eq!(tuple.values[2], Value::Int(1));
                calls += 1;
                Ok(calls < stop_at)
            })
            .unwrap();
            calls
        };
        // The scan fallback (no index on `edno` yet) and the index path
        // both stop at the first `false`.
        assert_eq!(calls_until(1), 1);
        assert_eq!(calls_until(3), 3);
        assert_eq!(calls_until(usize::MAX), 20);
        t.create_index("emp_edno", vec![2], false).unwrap();
        assert_eq!(calls_until(1), 1);
        assert_eq!(calls_until(3), 3);
        assert_eq!(calls_until(usize::MAX), 20);
    }

    #[test]
    fn scan_by_values_skips_versions_invisible_to_the_snapshot() {
        let c = catalog();
        let indexed = c.create_table("EMP", emp_schema()).unwrap();
        indexed.create_index("emp_edno", vec![2], false).unwrap();
        let plain = c.create_table("EMP2", emp_schema()).unwrap();
        for t in [&indexed, &plain] {
            let gone = t.insert(&emp(1, 7)).unwrap();
            let kept = t.insert(&emp(2, 7)).unwrap();
            t.insert(&emp(3, 8)).unwrap();
            let before_delete = c.latest_snapshot();
            // A committed delete…
            let a = t.txns().allocate();
            t.mark_delete_txn(gone, a).unwrap();
            t.txns().commit(a);
            // …and another transaction's uncommitted insert.
            let b = t.txns().allocate();
            let pending = t.insert_txn(&emp(4, 7), b).unwrap();

            assert_eq!(
                scanned_by_values(t, 2, &[7], &before_delete),
                vec![(gone, emp(1, 7)), (kept, emp(2, 7))],
                "an older snapshot still sees the deleted version"
            );
            assert_eq!(
                scanned_by_values(t, 2, &[7], &c.latest_snapshot()),
                vec![(kept, emp(2, 7))],
                "deleted and uncommitted versions are skipped"
            );
            assert_eq!(
                scanned_by_values(t, 2, &[7], &t.txns().snapshot_for(b)),
                vec![(kept, emp(2, 7)), (pending, emp(4, 7))],
                "the inserting transaction sees its own row"
            );
            t.txns().commit(b);
        }
    }
}
