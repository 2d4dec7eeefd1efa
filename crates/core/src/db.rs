//! The `Database` facade: the paper's integrated DBMS handling "both the
//! tabular as well as the CO data" (Sect. 3) behind one SQL/XNF interface.
//!
//! `Database` owns no transaction state of its own — transactions belong to
//! [`Session`]s (one per client, per the paper's multi-workstation
//! processing model), and `Database: Send + Sync` holds by construction so
//! one instance can be shared across threads behind an `Arc`. Statements
//! run through a [`Session`] ([`Database::session`]); outside `begin` a
//! session runs in *autocommit*: each statement gets a fresh
//! latest-committed snapshot, and DML runs as a short transaction committed
//! (with materialized-view maintenance) when the statement finishes.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use xnf_exec::{
    eval, execute_qep_with_visibility, passes, ExecStats, OuterCtx, Params, QueryResult,
    StreamResult, Visibility,
};
use xnf_plan::{plan_query, PhysExpr, PhysPlan, PlanOptions, Qep};
use xnf_qgm::{build_select_query, build_xnf_query, OutputKind, Qgm};
use xnf_rewrite::{rewrite, RewriteOptions, RewriteReport};
use xnf_sql::{
    parse_statement, parse_statement_params, ColumnDef, Expr, Select, SelectItem, Statement,
    TableRef, TypeName, ViewBody,
};
use xnf_storage::{
    recover, BufferPool, Catalog, CheckpointSnap, Column, DataType, DeltaBatch, DiskManager,
    DiskStats, GcStats, RecoveryReport, Rid, Schema, Snapshot, Table, Transaction, Tuple, TxnId,
    VacuumReport, Value, ViewKind, Wal, WalStats,
};

use crate::error::{Result, XnfError};
use crate::matview::MaintPlan;
use crate::session::{ActiveTxn, CompiledBody, CompiledStmt, PlanCache, PlanCacheStats, Session};
use crate::writeback::derive_co_schema;

/// The transaction scope a statement executes in: a session's transaction
/// slot. The statement joins the open transaction, if any, and otherwise
/// runs in autocommit.
pub(crate) type Scope<'a> = &'a crate::session::TxnSlot;

/// The snapshot reads in `scope` should run against: the open
/// transaction's begin-snapshot, else `None` (a fresh latest-committed
/// snapshot, resolved by the executor per run).
pub(crate) fn scope_visibility(scope: Scope<'_>) -> Visibility {
    scope.lock().as_ref().map(|a| a.snapshot.clone())
}

/// An open DML write scope: either the session's own transaction (held
/// locked for the duration of the statement) or a fresh autocommit
/// transaction that commits — propagating its matview deltas — when the
/// statement succeeds. All of `run_dml`'s row writes go through
/// the scope so undo logging and delta capture cannot be forgotten.
struct WriteScope<'a> {
    db: &'a Database,
    /// Capture delta images for materialized-view maintenance?
    track: bool,
    inner: ScopeInner<'a>,
}

enum ScopeInner<'a> {
    /// A statement inside an explicit session transaction: the slot stays
    /// locked until the statement ends (sessions run one statement at a
    /// time), and COMMIT later propagates the accumulated deltas.
    Session(std::sync::MutexGuard<'a, Option<ActiveTxn>>),
    /// An autocommit statement: a short transaction of its own.
    Auto(ActiveTxn),
}

impl<'a> WriteScope<'a> {
    fn open(db: &'a Database, scope: Scope<'a>) -> WriteScope<'a> {
        let guard = scope.lock();
        if guard.is_some() {
            // Explicit transactions always capture deltas: whether
            // maintenance is needed is decided at COMMIT, and a
            // materialized view created between this statement and the
            // commit must still see the transaction's earlier writes.
            return WriteScope {
                db,
                track: true,
                inner: ScopeInner::Session(guard),
            };
        }
        drop(guard);
        // Autocommit consumes its delta at the end of this statement, so
        // the view-existence check now is exact.
        WriteScope {
            db,
            track: db.catalog().has_matviews(),
            inner: ScopeInner::Auto(ActiveTxn::begin(db)),
        }
    }

    fn active(&self) -> &ActiveTxn {
        match &self.inner {
            ScopeInner::Session(guard) => guard.as_ref().expect("open transaction"),
            ScopeInner::Auto(a) => a,
        }
    }

    fn active_mut(&mut self) -> &mut ActiveTxn {
        match &mut self.inner {
            ScopeInner::Session(guard) => guard.as_mut().expect("open transaction"),
            ScopeInner::Auto(a) => a,
        }
    }

    /// The transaction id this scope's writes are tagged with.
    fn xid(&self) -> TxnId {
        self.active().txn.id()
    }

    /// The snapshot this scope's reads (DML match collection) run
    /// against: the transaction's begin-snapshot plus its own writes.
    fn snapshot(&self) -> Snapshot {
        self.active().snapshot.clone()
    }

    fn log_insert(&mut self, t: &Arc<Table>, rid: Rid, tuple: &Tuple) {
        let track = self.track;
        let active = self.active_mut();
        active.txn.log_insert(t, rid);
        if track {
            active.delta.record_insert(&t.name, tuple.clone());
        }
    }

    fn log_update(&mut self, t: &Arc<Table>, old_rid: Rid, new_rid: Rid, old: Tuple, new: &Tuple) {
        let track = self.track;
        let active = self.active_mut();
        active.txn.log_update_at(t, old_rid, new_rid);
        if track {
            active.delta.record_update(&t.name, old, new.clone());
        }
    }

    fn log_delete(&mut self, t: &Arc<Table>, rid: Rid, old: Tuple) {
        let track = self.track;
        let active = self.active_mut();
        active.txn.log_delete_at(t, rid);
        if track {
            active.delta.record_delete(&t.name, old);
        }
    }

    /// Close the scope with the statement's `result`. Inside a session
    /// transaction this passes it through: the work commits or rolls back
    /// with the session, and a failed statement's applied prefix stays in
    /// the transaction (there are no savepoints). In autocommit the
    /// statement is atomic: `Ok` commits its transaction and runs
    /// materialized-view maintenance, `Err` aborts it.
    fn finish(self, result: Result<usize>) -> Result<usize> {
        match self.inner {
            ScopeInner::Session(_guard) => result,
            ScopeInner::Auto(active) => match result {
                Ok(n) => self.db.commit_active(active).map(|()| n),
                Err(e) => {
                    active.txn.abort().map_err(XnfError::from)?;
                    Err(e)
                }
            },
        }
    }
}

/// The smallest buffer pool a database opens with: the working room a
/// single scan needs.
const MIN_BUFFER_PAGES: usize = 8;

/// Configuration for a database instance.
#[derive(Debug, Clone)]
pub struct DbConfig {
    /// Buffer pool capacity in pages, never below 8. Pages beyond it are
    /// evicted — written back through the WAL-before-data choke point —
    /// and re-read on demand.
    pub buffer_pages: usize,
    /// Durable home of the database: `Some(dir)` opens (or creates)
    /// `pages.db` + `wal.log` in `dir` and replays the log on open; `None`
    /// keeps everything in memory with no logging.
    pub data_dir: Option<PathBuf>,
    /// Fsync the log on commit/checkpoint? `true` survives machine crashes;
    /// `false` still writes the log to the OS on every commit (surviving
    /// process kills) but trades machine-crash durability for speed.
    pub wal_fsync: bool,
    /// Fuzzy-checkpoint trigger: once this many log bytes accumulate past
    /// the last checkpoint, the next commit writes one (bounding restart
    /// redo work). `0` disables automatic checkpoints
    /// ([`Database::checkpoint`] still works).
    pub checkpoint_interval: u64,
    /// Torn-page protection for file-backed stores: write-backs run the
    /// double-write protocol (append + fsync to `doublewrite.db` before
    /// the in-place write to `pages.db`), and a page torn by a crash is
    /// restored from its durable DW copy at the next open. Page trailer
    /// checksums are always on for file-backed stores; turning this off
    /// keeps detection (reads fail typed on a torn page) but drops repair.
    /// Ignored for in-memory databases.
    pub doublewrite: bool,
    /// Rewrite options applied at compile time.
    pub rewrite: RewriteOptions,
    /// Planner options.
    pub plan: PlanOptions,
    /// Opportunistic-vacuum trigger: after a commit, any heap whose
    /// reclaim pressure (dead versions + tombstoned slots since its last
    /// vacuum) reaches this many rows is vacuumed on the committing
    /// thread, keeping long-running write workloads bounded without ever
    /// issuing `VACUUM` manually. `0` disables the trigger (GC then runs
    /// only via explicit `VACUUM` / [`Database::vacuum`]).
    pub auto_vacuum_threshold: u64,
}

impl Default for DbConfig {
    fn default() -> Self {
        DbConfig {
            buffer_pages: 1024,
            data_dir: None,
            wal_fsync: true,
            checkpoint_interval: 4 << 20,
            doublewrite: true,
            rewrite: RewriteOptions::default(),
            plan: PlanOptions::default(),
            auto_vacuum_threshold: 512,
        }
    }
}

/// Result of [`Session::execute`].
#[derive(Debug, Clone)]
pub enum ExecOutcome {
    /// DDL executed.
    Done,
    /// Rows affected by DML.
    Affected(usize),
    /// A query result (SQL table or XNF CO streams), boxed so that the
    /// other outcomes stay small.
    Rows(Box<QueryResult>),
}

impl ExecOutcome {
    /// The query result, or an error if the statement produced none
    /// (DDL/DML).
    pub fn try_rows(self) -> Result<QueryResult> {
        match self {
            ExecOutcome::Rows(r) => Ok(*r),
            other => Err(XnfError::Api(format!(
                "expected a query result, got {other:?}"
            ))),
        }
    }

    pub fn affected(&self) -> usize {
        match self {
            ExecOutcome::Affected(n) => *n,
            _ => 0,
        }
    }
}

/// An embedded XNF database instance. Shareable across threads
/// (`Send + Sync`): transaction state lives on [`Session`]s, not here.
pub struct Database {
    catalog: Arc<Catalog>,
    config: DbConfig,
    /// Serializes materialized-view maintenance in commit-stamp order:
    /// held across the whole of a committing transaction's maintenance
    /// (in-place edits or a recompute) and its stamp assignment, so each
    /// commit's maintenance reads every earlier commit's base rows and
    /// view writes.
    maintenance: Mutex<()>,
    /// Cumulative maintenance counters (see [`Database::maint_stats`]).
    maint_nodes_rewritten: AtomicU64,
    maint_links_edited: AtomicU64,
    maint_recomputes: AtomicU64,
    maint_us: AtomicU64,
    /// Shared compiled-plan cache (all sessions), keyed by normalized
    /// statement text, invalidated via the catalog's DDL generation.
    plan_cache: Mutex<PlanCache>,
    /// Materialized-view maintenance plans, cached per catalog generation
    /// (DDL invalidates them together with the plan cache).
    matview_plans: Mutex<Option<(u64, MaintPlans)>>,
    /// What restart recovery did when this instance was opened from disk
    /// (`None` for in-memory databases and fresh files).
    recovery: Option<RecoveryReport>,
}

/// Shared, generation-tagged set of matview maintenance plans.
pub(crate) type MaintPlans = Arc<Vec<Arc<MaintPlan>>>;

impl Database {
    /// Create an in-memory database.
    pub fn new() -> Self {
        Self::with_config(DbConfig::default())
    }

    /// Create a database from `config`. With [`DbConfig::data_dir`] set this
    /// delegates to [`Database::open_with_config`] and panics on I/O or
    /// recovery failure; call `open_with_config` directly to handle errors.
    pub fn with_config(config: DbConfig) -> Self {
        if config.data_dir.is_some() {
            return Self::open_with_config(config).expect("failed to open durable database");
        }
        let disk = Arc::new(DiskManager::new());
        let pool = Arc::new(BufferPool::new(disk, Self::frame_budget(&config)));
        Database {
            catalog: Arc::new(Catalog::new(pool)),
            config,
            maintenance: Mutex::new(()),
            maint_nodes_rewritten: AtomicU64::new(0),
            maint_links_edited: AtomicU64::new(0),
            maint_recomputes: AtomicU64::new(0),
            maint_us: AtomicU64::new(0),
            plan_cache: Mutex::default(),
            matview_plans: Mutex::new(None),
            recovery: None,
        }
    }

    /// Open (or create) a durable database rooted at `path`, replaying the
    /// write-ahead log: committed work from past sessions — including ones
    /// that crashed — is restored; uncommitted work is rolled back.
    pub fn open(path: impl AsRef<Path>) -> Result<Database> {
        Self::open_with_config(DbConfig {
            data_dir: Some(path.as_ref().to_path_buf()),
            ..DbConfig::default()
        })
    }

    /// [`Database::open`] with explicit options ([`DbConfig::data_dir`] must
    /// be set). The open sequence is: open `pages.db` and `wal.log`, run
    /// ARIES restart (analysis → redo → undo), rebuild materialized-view
    /// contents (derived state, never logged), then flush every page and
    /// rotate the log down to a single fresh checkpoint so the next restart
    /// starts from here.
    pub fn open_with_config(config: DbConfig) -> Result<Database> {
        let Some(dir) = config.data_dir.clone() else {
            return Err(XnfError::Api(
                "open_with_config requires DbConfig::data_dir".to_string(),
            ));
        };
        std::fs::create_dir_all(&dir)
            .map_err(|e| XnfError::Api(format!("create data dir '{}': {e}", dir.display())))?;
        // Double-write open replays any batch a crash left behind,
        // repairing torn in-place pages before recovery reads them.
        let disk = Arc::new(if config.doublewrite {
            DiskManager::open_file_dw(&dir.join("pages.db"), &dir.join("doublewrite.db"))?
        } else {
            DiskManager::open_file(&dir.join("pages.db"))?
        });
        let (wal, records) = Wal::open(&dir.join("wal.log"), config.wal_fsync)?;
        let wal = Arc::new(wal);
        let pool = Arc::new(BufferPool::with_wal(
            disk,
            Self::frame_budget(&config),
            Arc::clone(&wal),
        ));
        let catalog = Arc::new(Catalog::new_logged(pool, Some(Arc::clone(&wal))));
        let mut db = Database {
            catalog,
            config,
            maintenance: Mutex::new(()),
            maint_nodes_rewritten: AtomicU64::new(0),
            maint_links_edited: AtomicU64::new(0),
            maint_recomputes: AtomicU64::new(0),
            maint_us: AtomicU64::new(0),
            plan_cache: Mutex::default(),
            matview_plans: Mutex::new(None),
            recovery: None,
        };
        // Replay the log. `recover` disables logging for the duration; it
        // stays off through the rebuild and rotation below so none of this
        // restart work re-logs itself.
        db.recovery = Some(recover(&db.catalog, records)?);
        // Materialized-view contents are derived state: recovery restored
        // the definitions over empty backing storage, REFRESH recomputes.
        for name in db.catalog.view_names() {
            if db.catalog.matview(&name).is_some() {
                crate::matview::refresh(&db, &name)?;
            }
        }
        // Checkpoint the recovered state and swap in a log containing only
        // that checkpoint; a crash on either side of the atomic swap leaves
        // a log that recovers to exactly this state.
        let (next_table_id, tables, views) = db.catalog.checkpoint_snapshot();
        let txn = db.catalog.txns().snapshot_state();
        db.catalog.buffer_pool().flush_all()?;
        db.catalog.buffer_pool().disk().sync()?;
        wal.rotate(CheckpointSnap {
            redo_lsn: wal.last_lsn(),
            next_table_id,
            txn,
            tables,
            views,
        })?;
        wal.set_logging(true);
        Ok(db)
    }

    /// Buffer-pool frame count from the config.
    fn frame_budget(config: &DbConfig) -> usize {
        config.buffer_pages.max(MIN_BUFFER_PAGES)
    }

    /// What restart recovery did when this database was opened from disk
    /// (`None` for in-memory instances).
    pub fn recovery_report(&self) -> Option<RecoveryReport> {
        self.recovery
    }

    /// Write-ahead-log counters (`None` for in-memory databases).
    pub fn wal_stats(&self) -> Option<WalStats> {
        self.catalog.wal().map(|w| w.stats())
    }

    /// Page-integrity counters of the underlying disk: checksum-verified
    /// reads, torn pages repaired from the double-write buffer, and DW
    /// batches fsynced ahead of in-place writes. EXPLAIN's `durability:`
    /// header surfaces them; ExecStats carries the same fields.
    pub fn integrity_stats(&self) -> DiskStats {
        self.catalog.buffer_pool().disk().stats()
    }

    /// Maintenance plans for every materialized view, rebuilt when DDL
    /// moves the catalog generation.
    pub(crate) fn matview_plans(&self) -> Result<MaintPlans> {
        let generation = self.catalog.generation();
        if let Some((g, plans)) = self.matview_plans.lock().as_ref() {
            if *g == generation {
                return Ok(Arc::clone(plans));
            }
        }
        // Build outside the lock (analysis parses view text and reads the
        // catalog); last writer wins, which is fine — same generation, same
        // plans.
        let plans = Arc::new(crate::matview::build_plans(self)?);
        *self.matview_plans.lock() = Some((generation, Arc::clone(&plans)));
        Ok(plans)
    }

    /// Open a session: the unit of statement preparation. Sessions share
    /// the database's plan cache.
    pub fn session(&self) -> Session<'_> {
        Session::new(self)
    }

    /// Cumulative plan-cache counters (all sessions).
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.plan_cache.lock().stats()
    }

    /// Number of statements currently cached.
    pub fn plan_cache_len(&self) -> usize {
        self.plan_cache.lock().len()
    }

    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.catalog
    }

    pub fn config(&self) -> &DbConfig {
        &self.config
    }

    /// Cumulative materialized-view maintenance counters, reported in the
    /// `mv_*` fields of an otherwise-zero [`ExecStats`] (EXPLAIN surfaces
    /// them in its `maintenance:` header).
    pub fn maint_stats(&self) -> ExecStats {
        ExecStats {
            mv_nodes_rewritten: self.maint_nodes_rewritten.load(Ordering::Relaxed),
            mv_links_edited: self.maint_links_edited.load(Ordering::Relaxed),
            mv_recomputes: self.maint_recomputes.load(Ordering::Relaxed),
            mv_maint_us: self.maint_us.load(Ordering::Relaxed),
            ..ExecStats::default()
        }
    }

    // -- transactions -----------------------------------------------------

    /// Commit an open transaction. When it produced base-table deltas and
    /// materialized views exist, its statements' delta chains are coalesced
    /// to their net effect and maintenance propagates them to the dependent
    /// views as the transaction's last step: under the maintenance lock,
    /// before the commit stamp, reading latest-committed data plus the
    /// transaction's own writes, and writing backing rows as the
    /// transaction. The stamp then publishes base and view rows together,
    /// and commits maintain one after another in stamp order. A maintenance
    /// error aborts the whole transaction and is returned.
    pub(crate) fn commit_active(&self, active: ActiveTxn) -> Result<()> {
        let ActiveTxn { txn, delta, .. } = active;
        let delta = if self.catalog.has_matviews() {
            delta.coalesce()
        } else {
            DeltaBatch::new()
        };
        if delta.is_empty() {
            // No views, or the transaction's statements cancelled out.
            txn.commit();
        } else {
            let start = std::time::Instant::now();
            self.commit_with(txn, |txn| {
                let c = crate::matview::maintain(self, txn, &delta)?;
                self.maint_nodes_rewritten
                    .fetch_add(c.nodes_rewritten, Ordering::Relaxed);
                self.maint_links_edited
                    .fetch_add(c.links_edited, Ordering::Relaxed);
                self.maint_recomputes
                    .fetch_add(c.recomputes, Ordering::Relaxed);
                self.maint_us
                    .fetch_add(start.elapsed().as_micros() as u64, Ordering::Relaxed);
                Ok(())
            })?;
        }
        // Durability point: the commit record (appended under the stamp
        // lock inside `txn.commit()`) must reach the log file before the
        // commit is acknowledged. Group commit batches this flush — and its
        // fsync — with other sessions committing concurrently.
        let flushed = match self.catalog.wal() {
            Some(wal) => wal.flush_for_commit().map_err(XnfError::from),
            None => Ok(()),
        };
        self.maybe_checkpoint();
        // Opportunistic GC: the commit (and its maintenance) may have
        // pushed some heap past the reclaim-pressure threshold; vacuum it
        // now, on the committing thread, outside every lock.
        self.maybe_auto_vacuum();
        flushed
    }

    /// Run `write` as the last step of `txn` under the maintenance lock,
    /// then commit `txn`, or abort it and return the error when `write`
    /// fails: what `write` adds commits or rolls back with the
    /// transaction's other writes.
    pub(crate) fn commit_with<T>(
        &self,
        mut txn: Transaction,
        write: impl FnOnce(&mut Transaction) -> Result<T>,
    ) -> Result<T> {
        let _m = self.maintenance.lock();
        match write(&mut txn) {
            Ok(v) => {
                txn.commit();
                Ok(v)
            }
            Err(e) => {
                txn.abort()?;
                Err(e)
            }
        }
    }

    /// Take a fuzzy checkpoint: capture the redo point and catalog state,
    /// flush every dirty page, then log the checkpoint record — bounding
    /// how much log the next restart replays. Commits keep running during
    /// the page flush (the checkpoint is *fuzzy*): anything they change
    /// after the captured redo point is covered by redo. No-op on
    /// in-memory databases.
    pub fn checkpoint(&self) -> Result<()> {
        if self.catalog.wal().is_none() {
            return Ok(());
        }
        let _m = self.maintenance.lock();
        self.checkpoint_locked()
    }

    /// Checkpoint body; caller holds the maintenance lock (so a checkpoint
    /// never lands in the middle of one transaction's view maintenance).
    fn checkpoint_locked(&self) -> Result<()> {
        let Some(wal) = self.catalog.wal() else {
            return Ok(());
        };
        // The redo point comes *before* the state capture and page flush:
        // anything that changes while the checkpoint is being taken is then
        // at an LSN past `redo_lsn`, and restart redo reapplies it.
        let redo_lsn = wal.last_lsn();
        let (next_table_id, tables, views) = self.catalog.checkpoint_snapshot();
        let txn = self.catalog.txns().snapshot_state();
        let pool = self.catalog.buffer_pool();
        pool.flush_all()?;
        pool.disk().sync()?;
        wal.append_checkpoint(CheckpointSnap {
            redo_lsn,
            next_table_id,
            txn,
            tables,
            views,
        })?;
        Ok(())
    }

    /// Checkpoint when enough log has accumulated since the last one.
    /// Contending commits skip (try-lock): one checkpointer is plenty, and
    /// a commit must never block behind someone else's page flush.
    fn maybe_checkpoint(&self) {
        let interval = self.config.checkpoint_interval;
        if interval == 0 {
            return;
        }
        let Some(wal) = self.catalog.wal() else {
            return;
        };
        if wal.bytes_since_checkpoint() < interval {
            return;
        }
        let Some(_m) = self.maintenance.try_lock() else {
            return;
        };
        // Re-check under the lock: a racing commit may have checkpointed.
        if wal.bytes_since_checkpoint() < interval {
            return;
        }
        // Checkpoint failure must never fail the commit that triggered it;
        // the byte counter keeps growing, so the next commit retries.
        let _ = self.checkpoint_locked();
    }

    /// Vacuum every heap whose reclaim pressure reached the configured
    /// threshold (no-op when the trigger is disabled or nothing qualifies).
    /// A heap another committer's trigger has claimed is left to it.
    fn maybe_auto_vacuum(&self) {
        let threshold = self.config.auto_vacuum_threshold;
        if threshold == 0 {
            return;
        }
        let pressured = self.catalog.gc_pressured_tables(threshold);
        if pressured.is_empty() {
            return;
        }
        // GC failure must never fail the commit that triggered it: the
        // pressure counters survive, and a failed pass releases its claim,
        // so the next trigger retries.
        let _ = self.catalog.vacuum_claimed(pressured);
    }

    // -- garbage collection -----------------------------------------------

    /// Run MVCC garbage collection (the `VACUUM [table]` statement's
    /// engine): reclaim dead versions behind the live-snapshot
    /// low-watermark, freeze old committed versions and prune the
    /// commit-stamp table. `None` vacuums every heap; naming a
    /// materialized view vacuums all of its backing streams.
    pub fn vacuum(&self, table: Option<&str>) -> Result<VacuumReport> {
        Ok(self.catalog.vacuum(table)?)
    }

    /// Cumulative GC counters (manual and opportunistic vacuums).
    pub fn gc_stats(&self) -> GcStats {
        self.catalog.gc_stats()
    }

    /// Execute VACUUM and render its report as a result stream (one row
    /// per scanned heap; see docs/EXPLAIN.md § VACUUM for the columns).
    fn run_vacuum(&self, table: Option<&str>) -> Result<QueryResult> {
        // Vacuum logs its page rewrites (tombstones, freezes); report the
        // log traffic this run generated.
        let wal_before = self.wal_stats();
        let report = self.vacuum(table)?;
        let (wal_bytes_logged, wal_fsyncs) = match (wal_before, self.wal_stats()) {
            (Some(b), Some(a)) => (
                a.bytes_logged.saturating_sub(b.bytes_logged),
                a.fsyncs.saturating_sub(b.fsyncs),
            ),
            _ => (0, 0),
        };
        let rows: Vec<Vec<Value>> = report
            .tables
            .iter()
            .map(|t| {
                vec![
                    Value::Str(t.table.clone()),
                    Value::Int(t.versions_reclaimed as i64),
                    Value::Int(t.versions_frozen as i64),
                    Value::Int(t.pages_compacted as i64),
                    Value::Int(t.remaining_dead as i64),
                ]
            })
            .collect();
        let stats = ExecStats {
            rows_emitted: rows.len() as u64,
            snapshot_seq: report.watermark,
            gc_versions_reclaimed: report.versions_reclaimed(),
            gc_versions_frozen: report.versions_frozen(),
            gc_stamps_pruned: report.stamps_pruned,
            wal_bytes_logged,
            wal_fsyncs,
            ..ExecStats::default()
        };
        Ok(QueryResult {
            streams: vec![StreamResult {
                name: "vacuum".to_string(),
                kind: OutputKind::Table,
                columns: vec![
                    "table".to_string(),
                    "reclaimed_versions".to_string(),
                    "frozen_versions".to_string(),
                    "pages_compacted".to_string(),
                    "remaining_dead".to_string(),
                ],
                rows,
            }],
            stats,
        })
    }

    // -- compiled-statement path (sessions, prepared statements) ----------

    /// Look `key` (normalized statement text) up in the shared plan cache,
    /// compiling on miss. Returns the compiled statement and whether it was
    /// a cache hit.
    pub(crate) fn compile_cached(&self, key: &str) -> Result<(Arc<CompiledStmt>, bool)> {
        let generation = self.catalog.generation();
        if let Some(compiled) = self.plan_cache.lock().get(key, generation) {
            return Ok((compiled, true));
        }
        // Compile outside the cache lock: compilation can be expensive and
        // concurrent sessions must not serialize on it.
        let compiled = Arc::new(self.compile_statement(key, generation)?);
        self.plan_cache
            .lock()
            .insert(key.to_string(), Arc::clone(&compiled));
        Ok((compiled, false))
    }

    /// Parse one statement and compile it as far as its class allows.
    fn compile_statement(&self, text: &str, generation: u64) -> Result<CompiledStmt> {
        let (stmt, n_params) = parse_statement_params(text)?;
        let body = self.compile_body(&stmt)?;
        let co_schema = match &stmt {
            Statement::Xnf(q) => Some(Arc::new(derive_co_schema(self, q)?)),
            _ => None,
        };
        Ok(CompiledStmt {
            stmt,
            body,
            co_schema,
            n_params,
            generation,
        })
    }

    /// The one front end below the parser: QGM → rewrite → plan. Queries,
    /// recursive COs included, compile to a QEP; INSERT, UPDATE and DELETE
    /// compile to a [`Dml`], planned like the SELECT that reads their rows;
    /// only DDL keeps its AST and is interpreted at execution time.
    fn compile_body(&self, stmt: &Statement) -> Result<CompiledBody> {
        if let Some(dml) = self.compile_dml(stmt)? {
            return Ok(CompiledBody::Dml(Arc::new(dml)));
        }
        Ok(match self.rewritten_qgm(stmt)? {
            Some((qgm, _)) => {
                CompiledBody::Query(Arc::new(plan_query(&self.catalog, &qgm, self.config.plan)?))
            }
            None => CompiledBody::Statement,
        })
    }

    /// QGM → rewrite for a SELECT or XNF query; `None` for any other
    /// statement.
    fn rewritten_qgm(&self, stmt: &Statement) -> Result<Option<(Qgm, RewriteReport)>> {
        let mut qgm = match stmt {
            Statement::Select(s) => build_select_query(&self.catalog, s)?,
            Statement::Xnf(q) => build_xnf_query(&self.catalog, q)?,
            _ => return Ok(None),
        };
        let report = rewrite(&mut qgm, self.config.rewrite)?;
        Ok(Some((qgm, report)))
    }

    /// Execute a compiled statement inside `scope`: reads run against the
    /// scope's snapshot, writes join its transaction.
    pub(crate) fn execute_compiled_scoped(
        &self,
        compiled: &CompiledStmt,
        params: Params,
        scope: Scope<'_>,
    ) -> Result<ExecOutcome> {
        match &compiled.body {
            CompiledBody::Statement => self.execute_stmt_scoped(&compiled.stmt, &params, scope),
            body => self.run_compiled(body, params, scope),
        }
    }

    /// Run a compiled query or DML body inside `scope`.
    fn run_compiled(
        &self,
        body: &CompiledBody,
        params: Params,
        scope: Scope<'_>,
    ) -> Result<ExecOutcome> {
        Ok(match body {
            CompiledBody::Dml(dml) => ExecOutcome::Affected(self.run_dml(dml, &params, scope)?),
            body => ExecOutcome::Rows(Box::new(self.run_body(
                body,
                params,
                scope_visibility(scope),
            )?)),
        })
    }

    /// Run a compiled query body under an explicit visibility handle
    /// (`Some(snapshot)` pins reads to that snapshot; `None` reads
    /// latest-committed).
    pub(crate) fn run_body(
        &self,
        body: &CompiledBody,
        params: Params,
        vis: Visibility,
    ) -> Result<QueryResult> {
        match body {
            CompiledBody::Query(qep) => Ok(execute_qep_with_visibility(
                &self.catalog,
                qep,
                params,
                vis,
            )?),
            _ => Err(XnfError::Api("expected SELECT or OUT OF".to_string())),
        }
    }

    // -- statement execution ----------------------------------------------

    /// Execute a parsed statement with parameter bindings inside `scope`:
    /// DDL is interpreted, queries and DML compile uncached first.
    pub(crate) fn execute_stmt_scoped(
        &self,
        stmt: &Statement,
        params: &Params,
        scope: Scope<'_>,
    ) -> Result<ExecOutcome> {
        match stmt {
            Statement::Select(_)
            | Statement::Xnf(_)
            | Statement::Insert { .. }
            | Statement::Update { .. }
            | Statement::Delete { .. } => {
                self.run_compiled(&self.compile_body(stmt)?, params.clone(), scope)
            }
            Statement::CreateTable { name, columns } => {
                let schema = Schema::new(columns.iter().map(column_def).collect());
                self.catalog.create_table(name, schema)?;
                Ok(ExecOutcome::Done)
            }
            Statement::CreateIndex {
                name,
                table,
                columns,
                unique,
            } => {
                let t = self.catalog.table(table)?;
                let mut ords = Vec::with_capacity(columns.len());
                for c in columns {
                    ords.push(t.column_index(c)?);
                }
                t.create_index(name, ords, *unique)?;
                // A new access path changes plan choices: invalidate.
                self.catalog.bump_generation();
                Ok(ExecOutcome::Done)
            }
            Statement::CreateView {
                name,
                body,
                materialized,
            } => {
                if *materialized {
                    crate::matview::create_materialized(self, name, body)?;
                    return Ok(ExecOutcome::Done);
                }
                let (kind, text) = match body {
                    ViewBody::Select(s) => {
                        // Validate by building.
                        build_select_query(&self.catalog, s)?;
                        (ViewKind::Sql, s.to_string())
                    }
                    ViewBody::Xnf(q) => {
                        build_xnf_query(&self.catalog, q)?;
                        (ViewKind::Xnf, q.to_string())
                    }
                };
                self.catalog.create_view(name, kind, &text)?;
                Ok(ExecOutcome::Done)
            }
            Statement::RefreshView { name } => {
                crate::matview::refresh(self, name)?;
                Ok(ExecOutcome::Done)
            }
            Statement::DropTable { name } => {
                self.restrict_drop("table", name)?;
                self.catalog.drop_table(name)?;
                Ok(ExecOutcome::Done)
            }
            Statement::DropView { name } => {
                self.restrict_drop("view", name)?;
                self.catalog.drop_view(name)?;
                Ok(ExecOutcome::Done)
            }
            Statement::Vacuum { table } => Ok(ExecOutcome::Rows(Box::new(
                self.run_vacuum(table.as_deref())?,
            ))),
            Statement::Analyze { table } => {
                match table {
                    Some(t) => {
                        self.catalog.table(t)?.analyze()?;
                    }
                    None => {
                        for name in self.catalog.table_names() {
                            self.catalog.table(&name)?.analyze()?;
                        }
                    }
                }
                // Fresh statistics change cost-based plan choices.
                self.catalog.bump_generation();
                Ok(ExecOutcome::Done)
            }
        }
    }

    /// RESTRICT semantics against materialized views: dropping a base table
    /// or a view out from under one would leave it serving stale contents
    /// with maintenance silently disabled.
    fn restrict_drop(&self, what: &str, name: &str) -> Result<()> {
        let key = name.to_ascii_uppercase();
        for plan in self.matview_plans()?.iter() {
            if plan.deps.contains(&key) || plan.views.contains(&key) {
                return Err(XnfError::Api(format!(
                    "cannot drop {what} '{name}': materialized view '{}' \
                     depends on it; drop the view first",
                    plan.name
                )));
            }
        }
        Ok(())
    }

    /// Compile a SELECT or XNF query down to a QEP without running it.
    pub fn compile(&self, text: &str) -> Result<Qep> {
        let (qgm, _) = self.compile_to_qgm(text)?;
        Ok(plan_query(&self.catalog, &qgm, self.config.plan)?)
    }

    /// Compile to rewritten QGM (exposed for experiments: op counting,
    /// EXPLAIN, figure dumps).
    pub fn compile_to_qgm(&self, text: &str) -> Result<(Qgm, RewriteReport)> {
        self.rewritten_qgm(&parse_statement(text)?)?
            .ok_or_else(|| XnfError::Api("compile() expects SELECT or OUT OF".to_string()))
    }

    /// EXPLAIN: the physical plan as text, with this instance's durability
    /// mode and matview-maintenance counters added after the `visibility:`
    /// header (the plan itself is storage-agnostic; whether commits hit a
    /// log — and how much maintenance this instance has done — are
    /// database properties).
    pub fn explain(&self, text: &str) -> Result<String> {
        let plan = self.compile(text)?.explain();
        let headers = format!("{}{}", self.durability_line(), self.maintenance_line());
        let vis = "visibility: snapshot (MVCC begin/end stamps)\n";
        Ok(match plan.find(vis) {
            Some(i) => {
                let at = i + vis.len();
                format!("{}{}{}", &plan[..at], headers, &plan[at..])
            }
            None => format!("{headers}{plan}"),
        })
    }

    /// The `durability:` EXPLAIN header for this instance.
    fn durability_line(&self) -> String {
        match self.catalog.wal() {
            Some(_) => {
                let s = self.integrity_stats();
                format!(
                    "durability: wal (group commit, fsync={}, doublewrite={}); \
                     pages_verified={} torn_pages_repaired={} dw_batches={}\n",
                    if self.config.wal_fsync { "on" } else { "off" },
                    if self.catalog.buffer_pool().disk().doublewrite_enabled() {
                        "on"
                    } else {
                        "off"
                    },
                    s.pages_verified,
                    s.torn_pages_repaired,
                    s.dw_batches
                )
            }
            None => "durability: none (in-memory)\n".to_string(),
        }
    }

    /// The `maintenance:` EXPLAIN header: the commit-time matview pipeline
    /// plus this instance's cumulative counters.
    fn maintenance_line(&self) -> String {
        let s = self.maint_stats();
        format!(
            "maintenance: incremental (coalesce, in-place edit, recompute fallback, \
             stamp-ordered apply); mv_nodes_rewritten={} mv_links_edited={} \
             mv_recomputes={} mv_maint_us={}\n",
            s.mv_nodes_rewritten, s.mv_links_edited, s.mv_recomputes, s.mv_maint_us
        )
    }

    // -- DML ---------------------------------------------------------------

    /// Reject DML aimed at a view name (materialized views resolve to
    /// backing storage through the catalog fallback; writing there directly
    /// would silently corrupt maintenance state).
    fn dml_target(&self, table: &str) -> Result<Arc<Table>> {
        if self.catalog.view(table).is_some() {
            return Err(XnfError::Api(format!(
                "cannot run DML against view '{table}'; modify its base tables"
            )));
        }
        Ok(self.catalog.table(table)?)
    }

    /// Compile an INSERT, UPDATE or DELETE through the front end; `None`
    /// for any other statement. `UPDATE t SET c = e WHERE w` plans as
    /// `SELECT *, e FROM t WHERE w`, DELETE as the same without `e`, and
    /// INSERT as one FROM-less `SELECT e…` of every row's values in turn.
    fn compile_dml(&self, stmt: &Statement) -> Result<Option<Dml>> {
        let over = |table: &str, items: Vec<SelectItem>, w: &Option<Expr>| Select {
            items: [vec![SelectItem::Wildcard], items].concat(),
            from: vec![TableRef::Named {
                name: table.to_string(),
                alias: None,
            }],
            where_clause: w.clone(),
            ..Select::empty()
        };
        let (table, op) = match stmt {
            Statement::Insert {
                table,
                columns,
                rows,
            } => {
                let t = self.dml_target(table)?;
                let targets: Vec<usize> = if columns.is_empty() {
                    (0..t.schema.len()).collect()
                } else {
                    columns
                        .iter()
                        .map(|c| t.column_index(c))
                        .collect::<xnf_storage::Result<_>>()?
                };
                if let Some(row) = rows.iter().find(|r| r.len() != targets.len()) {
                    return Err(XnfError::Api(format!(
                        "INSERT row has {} values for {} columns",
                        row.len(),
                        targets.len()
                    )));
                }
                let select = Select {
                    items: value_items(rows.iter().flatten())?,
                    ..Select::empty()
                };
                let (None, values) = self.plan_access(&select, true)? else {
                    unreachable!("a FROM-less SELECT reads no table");
                };
                (t, DmlOp::Insert { targets, values })
            }
            Statement::Update {
                table,
                sets,
                where_clause,
            } => {
                let t = self.dml_target(table)?;
                let select = over(
                    table,
                    value_items(sets.iter().map(|(_, e)| e))?,
                    where_clause,
                );
                let (Some(access), head) = self.plan_access(&select, true)? else {
                    unreachable!("an UPDATE reads its table");
                };
                let sets = sets
                    .iter()
                    .zip(head.into_iter().skip(t.schema.len()))
                    .map(|((c, _), e)| Ok((t.column_index(c)?, e)))
                    .collect::<Result<_>>()?;
                (t, DmlOp::Update { access, sets })
            }
            Statement::Delete {
                table,
                where_clause,
            } => {
                let t = self.dml_target(table)?;
                let (Some(access), _) =
                    self.plan_access(&over(table, vec![], where_clause), true)?
                else {
                    unreachable!("a DELETE reads its table");
                };
                (t, DmlOp::Delete(access))
            }
            _ => return Ok(None),
        };
        Ok(Some(Dml {
            table: table.name.clone(),
            op,
        }))
    }

    /// Build, rewrite and plan `select` serially, and take its one output
    /// apart: the planner's leaf over the FROM table (`None` for a
    /// FROM-less select) and the head expressions over the leaf's rows
    /// (empty when the head passes the row through). Any other shape — a
    /// join, a subquery, an aggregate — is refused. `use_indexes: false`
    /// keeps every predicate in the leaf's filter.
    fn plan_access(
        &self,
        select: &Select,
        use_indexes: bool,
    ) -> Result<(Option<Access>, Vec<PhysExpr>)> {
        let refuse = || {
            XnfError::Api(format!(
                "'{select}' must read one table row by row: a join or subquery is not allowed here"
            ))
        };
        let mut qgm = build_select_query(&self.catalog, select)?;
        rewrite(&mut qgm, self.config.rewrite)?;
        let options = PlanOptions {
            dop: 1,
            use_indexes: use_indexes && self.config.plan.use_indexes,
            ..self.config.plan
        };
        let qep = plan_query(&self.catalog, &qgm, options)?;
        let [output] = <[_; 1]>::try_from(qep.outputs).map_err(|_| refuse())?;
        if !qep.shared.is_empty() {
            return Err(refuse());
        }
        let (plan, head) = match output.plan {
            PhysPlan::Project { input, exprs } => (*input, exprs),
            plan => (plan, Vec::new()),
        };
        let (plan, post) = match plan {
            PhysPlan::Filter { input, preds } => (*input, preds),
            plan => (plan, Vec::new()),
        };
        let access = match plan {
            PhysPlan::Values { rows } if rows == [Vec::new()] && post.is_empty() => None,
            PhysPlan::SeqScan { filter, .. } => Some(Access {
                probe: None,
                filter: [filter, post].concat(),
            }),
            PhysPlan::IndexEq {
                table,
                index,
                key,
                filter,
            } => {
                let def = self.catalog.table(&table)?.index_def(&index);
                let (Some(def), [key]) = (def, &key[..]) else {
                    return Err(refuse());
                };
                Some(Access {
                    probe: Some((def.columns[0], key.clone())),
                    filter: [filter, post].concat(),
                })
            }
            _ => return Err(refuse()),
        };
        Ok((access, head))
    }

    /// The selection of a one-table `select` — its FROM and WHERE, aliases
    /// included — compiled over the table's rows: the conjuncts a row must
    /// pass. Materialized-view maintenance filters delta rows with it.
    pub(crate) fn row_filter(&self, select: &Select) -> Result<Vec<PhysExpr>> {
        let all = Select {
            items: vec![SelectItem::Wildcard],
            from: select.from.clone(),
            where_clause: select.where_clause.clone(),
            ..Select::empty()
        };
        match self.plan_access(&all, false)?.0 {
            Some(Access {
                probe: None,
                filter,
            }) => Ok(filter),
            _ => Err(XnfError::Api(format!("'{select}' does not read one table"))),
        }
    }

    /// Run a compiled INSERT, UPDATE or DELETE inside `scope`. Every row
    /// to write is evaluated or found before the first write: UPDATE and
    /// DELETE collect their matches under the scope's snapshot, and the
    /// writes conflict-check against the latest row state
    /// (first-writer-wins). In autocommit the statement is atomic: a
    /// mid-loop error (unique violation, write conflict, SET evaluation)
    /// aborts its transaction, rows written before it included. Inside a
    /// session transaction those rows stay in the transaction.
    fn run_dml(&self, dml: &Dml, params: &Params, scope: Scope<'_>) -> Result<usize> {
        let t = &self.catalog.table(&dml.table)?;
        let outer = OuterCtx::with_params(params.clone());
        let coerced = |ord: usize, e: &PhysExpr, row: &[Value]| -> Result<Value> {
            Ok(coerce(eval(e, row, &outer, &[])?, t.schema.column(ord).ty))
        };
        let mut ws = WriteScope::open(self, scope);
        let applied = (|| {
            let mut n = 0;
            match &dml.op {
                DmlOp::Insert { targets, values } => {
                    let mut tuples = Vec::new();
                    for row in values.chunks(targets.len().max(1)) {
                        let mut values = vec![Value::Null; t.schema.len()];
                        for (&ord, e) in targets.iter().zip(row) {
                            values[ord] = coerced(ord, e, &[])?;
                        }
                        tuples.push(Tuple::new(values));
                    }
                    for tuple in &tuples {
                        let rid = t.insert_txn(tuple, ws.xid())?;
                        ws.log_insert(t, rid, tuple);
                        n += 1;
                    }
                }
                DmlOp::Update { access, sets } => {
                    for (rid, tuple) in access.matches(t, &outer, &ws.snapshot())? {
                        let mut values = tuple.values.clone();
                        for (ord, e) in sets {
                            values[*ord] = coerced(*ord, e, &tuple.values)?;
                        }
                        let new = Tuple::new(values);
                        let (old, new_rid) = t.update_txn(rid, &new, ws.xid())?;
                        ws.log_update(t, rid, new_rid, old, &new);
                        n += 1;
                    }
                }
                DmlOp::Delete(access) => {
                    for (rid, _) in access.matches(t, &outer, &ws.snapshot())? {
                        let old = t.mark_delete_txn(rid, ws.xid())?;
                        ws.log_delete(t, rid, old);
                        n += 1;
                    }
                }
            }
            Ok(n)
        })();
        ws.finish(applied)
    }
}

/// An INSERT, UPDATE or DELETE compiled through the front end: its target
/// and what the planner made of it.
#[derive(Debug)]
pub(crate) struct Dml {
    /// The target table's name.
    table: String,
    op: DmlOp,
}

#[derive(Debug)]
enum DmlOp {
    /// The target columns' ordinals, and their values row after row.
    Insert {
        targets: Vec<usize>,
        values: Vec<PhysExpr>,
    },
    /// The matched rows take the new value of each `(ordinal, value)`.
    Update {
        access: Access,
        sets: Vec<(usize, PhysExpr)>,
    },
    Delete(Access),
}

/// The planner's leaf over a DML target: the rows that pass `filter`
/// among those whose column equals the `probe` key (an `IndexEq`, read
/// through the index on that column) or among all visible rows (a
/// `SeqScan`).
#[derive(Debug)]
struct Access {
    probe: Option<(usize, PhysExpr)>,
    filter: Vec<PhysExpr>,
}

impl Access {
    /// The rows of `t` visible to `snap` that this access selects.
    fn matches(&self, t: &Table, outer: &OuterCtx, snap: &Snapshot) -> Result<Vec<(Rid, Tuple)>> {
        let (mut out, mut failed) = (Vec::new(), None);
        let mut keep = |rid, tuple: Tuple| match passes(&self.filter, &tuple.values, outer) {
            Ok(pass) => {
                if pass {
                    out.push((rid, tuple));
                }
                Ok(true)
            }
            Err(e) => {
                failed = Some(e);
                Ok(false)
            }
        };
        match &self.probe {
            Some((col, key)) => {
                let key = eval(key, &[], outer, &[])?;
                t.scan_by_values(*col, &[key], snap, &mut keep)?
            }
            None => t.for_each_visible(snap, &mut keep)?,
        }
        match failed {
            Some(e) => Err(e.into()),
            None => Ok(out),
        }
    }
}

impl Default for Database {
    fn default() -> Self {
        Self::new()
    }
}

fn column_def(c: &ColumnDef) -> Column {
    let ty = match c.ty {
        TypeName::Int => DataType::Int,
        TypeName::Double => DataType::Double,
        TypeName::Varchar => DataType::Str,
        TypeName::Boolean => DataType::Bool,
    };
    if c.not_null {
        Column::not_null(&c.name, ty)
    } else {
        Column::new(&c.name, ty)
    }
}

/// A DML statement's value expressions as select items. An aggregate is
/// refused here, where it still reads as a SET or VALUES error.
fn value_items<'e>(exprs: impl IntoIterator<Item = &'e Expr>) -> Result<Vec<SelectItem>> {
    (exprs.into_iter())
        .map(|e| match e.contains_aggregate() {
            true => Err(XnfError::Api(format!(
                "aggregate '{e}' not allowed in SET or VALUES"
            ))),
            false => Ok(SelectItem::Expr {
                expr: e.clone(),
                alias: None,
            }),
        })
        .collect()
}

/// Coerce ints into double columns (the only implicit widening we allow).
fn coerce(v: Value, ty: DataType) -> Value {
    match (&v, ty) {
        (Value::Int(i), DataType::Double) => Value::Double(*i as f64),
        _ => v,
    }
}
