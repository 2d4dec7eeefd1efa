//! The `Database` facade: the paper's integrated DBMS handling "both the
//! tabular as well as the CO data" (Sect. 3) behind one SQL/XNF interface.
//!
//! `Database` owns no transaction state of its own — transactions belong to
//! [`Session`]s (one per client, per the paper's multi-workstation
//! processing model), and `Database: Send + Sync` holds by construction so
//! one instance can be shared across threads behind an `Arc`. Statements
//! executed directly on the facade run in *autocommit*: each one gets a
//! fresh latest-committed snapshot, and DML runs as a short transaction
//! committed (with materialized-view maintenance) when the statement
//! finishes.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use xnf_exec::{
    eval, execute_qep_with_visibility, ExecStats, OuterCtx, Params, QueryResult, StreamResult,
    Visibility,
};
use xnf_plan::{plan_query, PhysExpr, PlanOptions, Qep};
use xnf_qgm::{build_select_query, build_xnf_query, OutputKind, Qgm};
use xnf_rewrite::{rewrite, RewriteError, RewriteOptions, RewriteReport};
use xnf_sql::{
    parse_statement, parse_statement_params, parse_statements, ColumnDef, Expr, Statement,
    TypeName, ViewBody,
};
use xnf_storage::{
    recover, BufferPool, Catalog, CheckpointSnap, Column, DataType, DiskManager, DiskStats,
    GcStats, RecoveryReport, Schema, Snapshot, Tuple, TxnId, VacuumReport, Value, ViewKind, Wal,
    WalStats,
};

use crate::error::{Result, XnfError};
use crate::matview::{MaintPlan, MaintTracker};
use crate::session::{ActiveTxn, CompiledBody, CompiledStmt, PlanCache, PlanCacheStats, Session};

/// The transaction scope a statement executes in: a session's transaction
/// slot (the statement joins the open transaction, if any), or `None` for
/// the facade's autocommit paths.
pub(crate) type Scope<'a> = Option<&'a crate::session::TxnSlot>;

/// The snapshot reads in `scope` should run against: the open
/// transaction's begin-snapshot, else `None` (a fresh latest-committed
/// snapshot, resolved by the executor per run).
pub(crate) fn scope_visibility(scope: Scope<'_>) -> Visibility {
    scope.and_then(|slot| slot.lock().as_ref().map(|a| a.snapshot.clone()))
}

/// An open DML write scope: either the session's own transaction (held
/// locked for the duration of the statement) or a fresh autocommit
/// transaction that commits — propagating its matview deltas — when the
/// statement finishes. All row writes go through the scope so undo logging
/// and delta capture cannot be forgotten.
pub(crate) struct WriteScope<'a> {
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
    Auto(Option<ActiveTxn>),
}

impl<'a> WriteScope<'a> {
    pub(crate) fn open(db: &'a Database, scope: Scope<'a>) -> WriteScope<'a> {
        if let Some(slot) = scope {
            let guard = slot.lock();
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
        }
        // Autocommit consumes its delta at the end of this statement, so
        // the view-existence check now is exact.
        WriteScope {
            db,
            track: db.catalog().has_matviews(),
            inner: ScopeInner::Auto(Some(ActiveTxn::begin(db))),
        }
    }

    fn active(&self) -> &ActiveTxn {
        match &self.inner {
            ScopeInner::Session(guard) => guard.as_ref().expect("open transaction"),
            ScopeInner::Auto(a) => a.as_ref().expect("open transaction"),
        }
    }

    fn active_mut(&mut self) -> &mut ActiveTxn {
        match &mut self.inner {
            ScopeInner::Session(guard) => guard.as_mut().expect("open transaction"),
            ScopeInner::Auto(a) => a.as_mut().expect("open transaction"),
        }
    }

    /// The transaction id this scope's writes are tagged with.
    pub(crate) fn xid(&self) -> TxnId {
        self.active().txn.id()
    }

    /// The snapshot this scope's reads (e.g. DML match collection) run
    /// against: the transaction's begin-snapshot plus its own writes.
    pub(crate) fn snapshot(&self) -> Snapshot {
        self.active().snapshot.clone()
    }

    pub(crate) fn log_insert(
        &mut self,
        t: &Arc<xnf_storage::Table>,
        rid: xnf_storage::Rid,
        tuple: &Tuple,
    ) {
        let track = self.track;
        let active = self.active_mut();
        active.txn.log_insert(t, rid);
        if track {
            active.delta.record_insert(&t.name, tuple.clone());
        }
    }

    pub(crate) fn log_update(
        &mut self,
        t: &Arc<xnf_storage::Table>,
        old_rid: xnf_storage::Rid,
        new_rid: xnf_storage::Rid,
        old: Tuple,
        new: &Tuple,
    ) {
        let track = self.track;
        let active = self.active_mut();
        active.txn.log_update_at(t, old_rid, new_rid);
        if track {
            active.delta.record_update(&t.name, old, new.clone());
        }
    }

    pub(crate) fn log_delete(
        &mut self,
        t: &Arc<xnf_storage::Table>,
        rid: xnf_storage::Rid,
        old: Tuple,
    ) {
        let track = self.track;
        let active = self.active_mut();
        active.txn.log_delete_at(t, rid);
        if track {
            active.delta.record_delete(&t.name, old);
        }
    }

    /// Close the scope. Inside a session transaction this is a no-op (the
    /// work commits later); in autocommit it commits the statement's
    /// transaction and runs materialized-view maintenance. Called even when
    /// the statement failed part-way: the applied prefix commits, matching
    /// the engine's non-atomic-statement semantics.
    pub(crate) fn finish(self) -> Result<()> {
        match self.inner {
            ScopeInner::Session(_guard) => Ok(()),
            ScopeInner::Auto(active) => self.db.commit_active(active.expect("open transaction")),
        }
    }

    /// Abort the scope's transaction if it owns one (used by write-back,
    /// which *is* atomic as a unit); inside a session transaction this is
    /// a no-op — the error propagates and the session decides.
    pub(crate) fn abort_if_auto(self) -> Result<()> {
        match self.inner {
            ScopeInner::Session(_guard) => Ok(()),
            ScopeInner::Auto(active) => {
                active
                    .expect("open transaction")
                    .txn
                    .abort()
                    .map_err(XnfError::from)?;
                Ok(())
            }
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
    /// Capacity (statements) of the shared compiled-plan cache.
    pub plan_cache_capacity: usize,
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
            plan_cache_capacity: 128,
            auto_vacuum_threshold: 512,
        }
    }
}

/// Result of [`Database::execute`].
#[derive(Debug, Clone)]
pub enum ExecOutcome {
    /// DDL executed.
    Done,
    /// Rows affected by DML.
    Affected(usize),
    /// A query result (SQL table or XNF CO streams).
    Rows(QueryResult),
}

impl ExecOutcome {
    /// The query result, or an error if the statement produced none
    /// (DDL/DML).
    pub fn try_rows(self) -> Result<QueryResult> {
        match self {
            ExecOutcome::Rows(r) => Ok(r),
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

/// Counting semaphore sized to the machine: hands out at most
/// `available_parallelism()` permits. Commit-time matview maintenance
/// acquires one for its CPU-bound phase so concurrent committers never
/// oversubscribe the cores with derivation work (see
/// [`Database::commit_active`]).
pub(crate) struct MaintGate {
    slots: std::sync::Mutex<usize>,
    available: std::sync::Condvar,
}

impl MaintGate {
    fn sized_to_hardware() -> Self {
        let permits = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        MaintGate {
            slots: std::sync::Mutex::new(permits.max(1)),
            available: std::sync::Condvar::new(),
        }
    }

    pub(crate) fn acquire(&self) -> MaintPermit<'_> {
        let mut slots = self.slots.lock().unwrap_or_else(|e| e.into_inner());
        while *slots == 0 {
            slots = self
                .available
                .wait(slots)
                .unwrap_or_else(|e| e.into_inner());
        }
        *slots -= 1;
        MaintPermit { gate: self }
    }
}

/// RAII permit from [`MaintGate::acquire`]; returns the slot on drop.
pub(crate) struct MaintPermit<'a> {
    gate: &'a MaintGate,
}

impl Drop for MaintPermit<'_> {
    fn drop(&mut self) {
        let mut slots = self.gate.slots.lock().unwrap_or_else(|e| e.into_inner());
        *slots += 1;
        drop(slots);
        self.gate.available.notify_one();
    }
}

/// An embedded XNF database instance. Shareable across threads
/// (`Send + Sync`): transaction state lives on [`Session`]s, not here.
pub struct Database {
    catalog: Arc<Catalog>,
    config: DbConfig,
    /// Serializes the *apply* phase of materialized-view maintenance in
    /// commit-stamp order. The expensive re-extraction work runs before
    /// this lock is taken (against the committing snapshot, in parallel
    /// across root keys); the lock covers only stamp assignment plus the
    /// stamp-ordered apply, so concurrent committers no longer serialize
    /// behind each other's view derivation work.
    maintenance: Mutex<()>,
    /// Admission control for the pre-lock maintenance phase: at most
    /// `available_parallelism()` committers run CPU-bound re-extraction
    /// concurrently. Running more buys no throughput — the cores are
    /// already saturated — and deepens the run queue, inflating the tail
    /// latency of unrelated readers (acute on small machines, where four
    /// busy committers can turn a 30 µs point read into a 4 ms one).
    maint_gate: MaintGate,
    /// Which view keys were applied at which commit stamp — how the apply
    /// phase detects precomputations invalidated by an interposed commit.
    maint_tracker: MaintTracker,
    /// Cumulative maintenance counters (see [`Database::maint_stats`]).
    maint_roots: AtomicU64,
    maint_nodes_reused: AtomicU64,
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
        let plan_cache = Mutex::new(PlanCache::new(config.plan_cache_capacity));
        Database {
            catalog: Arc::new(Catalog::new(pool)),
            config,
            maintenance: Mutex::new(()),
            maint_gate: MaintGate::sized_to_hardware(),
            maint_tracker: MaintTracker::default(),
            maint_roots: AtomicU64::new(0),
            maint_nodes_reused: AtomicU64::new(0),
            maint_us: AtomicU64::new(0),
            plan_cache,
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
        let plan_cache = Mutex::new(PlanCache::new(config.plan_cache_capacity));
        let mut db = Database {
            catalog,
            config,
            maintenance: Mutex::new(()),
            maint_gate: MaintGate::sized_to_hardware(),
            maint_tracker: MaintTracker::default(),
            maint_roots: AtomicU64::new(0),
            maint_nodes_reused: AtomicU64::new(0),
            maint_us: AtomicU64::new(0),
            plan_cache,
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

    /// Drop every cached plan (they recompile on next use).
    pub fn clear_plan_cache(&self) {
        self.plan_cache.lock().clear();
    }

    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.catalog
    }

    pub fn config(&self) -> &DbConfig {
        &self.config
    }

    /// The lock serializing the apply phase of view maintenance (and
    /// REFRESH / checkpoints) in commit-stamp order.
    pub(crate) fn maintenance_lock(&self) -> &Mutex<()> {
        &self.maintenance
    }

    /// Applied-key tracker for the two-phase maintenance pipeline.
    pub(crate) fn maint_tracker(&self) -> &MaintTracker {
        &self.maint_tracker
    }

    /// Cumulative materialized-view maintenance counters, reported in the
    /// `mv_*` fields of an otherwise-zero [`ExecStats`] (EXPLAIN surfaces
    /// them in its `maintenance:` header).
    pub fn maint_stats(&self) -> ExecStats {
        ExecStats {
            mv_roots_respliced: self.maint_roots.load(Ordering::Relaxed),
            mv_nodes_reused: self.maint_nodes_reused.load(Ordering::Relaxed),
            mv_maint_us: self.maint_us.load(Ordering::Relaxed),
            ..ExecStats::default()
        }
    }

    // -- transactions -----------------------------------------------------

    /// Commit an open transaction: assign its commit stamp and — when it
    /// produced base-table deltas and materialized views exist — propagate
    /// the deltas to dependent views. Maintenance runs as a two-phase
    /// pipeline: the per-statement delta chains are coalesced to their net
    /// per-commit effect, the affected keyed subtrees are re-extracted
    /// against this transaction's snapshot *before* the maintenance lock
    /// is taken (in parallel across root keys), and the lock is held only
    /// for stamp assignment plus the stamp-ordered apply — precomputations
    /// invalidated by an interposed commit are redone under the lock, so
    /// the result is always identical to serial commit-order maintenance.
    pub(crate) fn commit_active(&self, active: ActiveTxn) -> Result<()> {
        let ActiveTxn { txn, delta, .. } = active;
        let maintained = if !delta.is_empty() && self.catalog.has_matviews() {
            let start = std::time::Instant::now();
            let delta = delta.coalesce();
            if delta.is_empty() {
                // The transaction's statements cancelled out.
                txn.commit();
                Ok(())
            } else {
                // The permit bounds how many committers run the CPU-bound
                // phases at once to the core count; the mutex below then
                // serializes only stamp assignment + the apply.
                let _permit = self.maint_gate.acquire();
                let pre = crate::matview::prepare_maintenance(self, &delta);
                let _m = self.maintenance.lock();
                let stamp = txn.commit();
                let res = crate::matview::maintain(self, &delta, pre.as_ref(), stamp);
                drop(_m);
                res.map(|c| {
                    self.maint_roots
                        .fetch_add(c.roots_respliced, Ordering::Relaxed);
                    self.maint_nodes_reused
                        .fetch_add(c.nodes_reused, Ordering::Relaxed);
                    self.maint_us
                        .fetch_add(start.elapsed().as_micros() as u64, Ordering::Relaxed);
                })
            }
        } else {
            txn.commit();
            Ok(())
        };
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
        // now, on the committing thread, outside every lock. The committed
        // transaction's snapshot registration is already gone, so its own
        // garbage is reclaimable immediately (watermark permitting).
        self.maybe_auto_vacuum();
        maintained.and(flushed)
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
        // pressure counters survive, so the next trigger retries.
        let _ = self.catalog.vacuum_tables(&pressured);
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
        Ok(CompiledStmt {
            stmt,
            body,
            n_params,
            generation,
        })
    }

    /// The one front end below the parser: QGM → rewrite → plan. Queries
    /// compile to a QEP; recursive COs (cyclic schema graph, Sect. 2) and
    /// DDL/DML keep their AST and are interpreted at execution time.
    fn compile_body(&self, stmt: &Statement) -> Result<CompiledBody> {
        match self.rewritten_qgm(stmt) {
            Ok(Some((qgm, _))) => Ok(CompiledBody::Query(Arc::new(plan_query(
                &self.catalog,
                &qgm,
                self.config.plan,
            )?))),
            Ok(None) => Ok(CompiledBody::Statement),
            Err(XnfError::Rewrite(RewriteError::RecursiveCo))
                if matches!(stmt, Statement::Xnf(_)) =>
            {
                Ok(CompiledBody::RecursiveCo)
            }
            Err(e) => Err(e),
        }
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
            body => Ok(ExecOutcome::Rows(self.run_body(
                &compiled.stmt,
                body,
                params,
                scope_visibility(scope),
            )?)),
        }
    }

    /// Compile (uncached) and run a SELECT or XNF statement under an
    /// explicit visibility handle (`Some(snapshot)` pins reads to that
    /// snapshot; `None` reads latest-committed).
    pub(crate) fn run_query(
        &self,
        stmt: &Statement,
        params: Params,
        vis: Visibility,
    ) -> Result<QueryResult> {
        let body = self.compile_body(stmt)?;
        self.run_body(stmt, &body, params, vis)
    }

    /// Run the query body compiled from `stmt`.
    fn run_body(
        &self,
        stmt: &Statement,
        body: &CompiledBody,
        params: Params,
        vis: Visibility,
    ) -> Result<QueryResult> {
        match (body, stmt) {
            (CompiledBody::Query(qep), _) => Ok(execute_qep_with_visibility(
                &self.catalog,
                qep,
                params,
                vis,
            )?),
            (CompiledBody::RecursiveCo, Statement::Xnf(q)) => {
                if !params.is_empty() {
                    return Err(XnfError::Api(
                        "parameters are not supported in recursive CO queries".to_string(),
                    ));
                }
                crate::recursion::evaluate_recursive(self, q, vis)
            }
            _ => Err(XnfError::Api("expected SELECT or OUT OF".to_string())),
        }
    }

    // -- statement execution ----------------------------------------------

    /// Execute one statement (SQL or XNF). Routed through the shared plan
    /// cache, so repeated statements skip the compilation pipeline.
    pub fn execute(&self, text: &str) -> Result<ExecOutcome> {
        let key = crate::session::normalize_statement(text);
        let (compiled, _) = self.compile_cached(&key)?;
        compiled.require_bound("")?;
        self.execute_compiled_scoped(&compiled, Params::default(), None)
    }

    /// Execute a batch of semicolon-separated statements; returns the last
    /// outcome.
    pub fn execute_batch(&self, text: &str) -> Result<ExecOutcome> {
        let stmts = parse_statements(text)?;
        let mut last = ExecOutcome::Done;
        for s in &stmts {
            last = self.execute_stmt(s)?;
        }
        Ok(last)
    }

    pub fn execute_stmt(&self, stmt: &Statement) -> Result<ExecOutcome> {
        self.execute_stmt_scoped(stmt, &Params::default(), None)
    }

    /// Execute a parsed statement with parameter bindings inside `scope`
    /// (the interpreted path for DDL/DML and for uncached queries).
    pub(crate) fn execute_stmt_scoped(
        &self,
        stmt: &Statement,
        params: &Params,
        scope: Scope<'_>,
    ) -> Result<ExecOutcome> {
        match stmt {
            Statement::Select(_) | Statement::Xnf(_) => Ok(ExecOutcome::Rows(self.run_query(
                stmt,
                params.clone(),
                scope_visibility(scope),
            )?)),
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
                // RESTRICT semantics against materialized views: dropping a
                // base table out from under one would leave it serving
                // stale contents with maintenance silently disabled.
                for plan in self.matview_plans()?.iter() {
                    if plan.deps.contains(&name.to_ascii_uppercase()) {
                        return Err(XnfError::Api(format!(
                            "cannot drop table '{name}': materialized view '{}' \
                             depends on it; drop the view first",
                            plan.name
                        )));
                    }
                }
                self.catalog.drop_table(name)?;
                Ok(ExecOutcome::Done)
            }
            Statement::DropView { name } => {
                self.catalog.drop_view(name)?;
                Ok(ExecOutcome::Done)
            }
            Statement::Vacuum { table } => {
                Ok(ExecOutcome::Rows(self.run_vacuum(table.as_deref())?))
            }
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
            Statement::Insert {
                table,
                columns,
                rows,
            } => Ok(ExecOutcome::Affected(
                self.run_insert(table, columns, rows, params, scope)?,
            )),
            Statement::Update {
                table,
                sets,
                where_clause,
            } => Ok(ExecOutcome::Affected(self.run_update(
                table,
                sets,
                where_clause.as_ref(),
                params,
                scope,
            )?)),
            Statement::Delete {
                table,
                where_clause,
            } => Ok(ExecOutcome::Affected(self.run_delete(
                table,
                where_clause.as_ref(),
                params,
                scope,
            )?)),
        }
    }

    /// Run a SELECT (or `OUT OF`) and return its stream(s). Routed through
    /// the shared plan cache.
    pub fn query(&self, sql: &str) -> Result<QueryResult> {
        let key = crate::session::normalize_statement(sql);
        let (compiled, _) = self.compile_cached(&key)?;
        match &compiled.body {
            CompiledBody::Statement => Err(XnfError::Api(
                "query() expects SELECT or OUT OF".to_string(),
            )),
            body => {
                compiled.require_bound("")?;
                self.run_body(&compiled.stmt, body, Params::default(), None)
            }
        }
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
            "maintenance: incremental (coalesce, diff splice, parallel re-extract, \
             stamp-ordered apply); mv_roots_respliced={} mv_nodes_reused={} mv_maint_us={}\n",
            s.mv_roots_respliced, s.mv_nodes_reused, s.mv_maint_us
        )
    }

    // -- DML ---------------------------------------------------------------

    /// Reject DML aimed at a view name (materialized views resolve to
    /// backing storage through the catalog fallback; writing there directly
    /// would silently corrupt maintenance state).
    fn dml_target(&self, table: &str) -> Result<Arc<xnf_storage::Table>> {
        if self.catalog.view(table).is_some() {
            return Err(XnfError::Api(format!(
                "cannot run DML against view '{table}'; modify its base tables"
            )));
        }
        Ok(self.catalog.table(table)?)
    }

    fn run_insert(
        &self,
        table: &str,
        columns: &[String],
        rows: &[Vec<Expr>],
        params: &Params,
        scope: Scope<'_>,
    ) -> Result<usize> {
        let t = self.dml_target(table)?;
        let schema = &t.schema;
        // Column list → target ordinals.
        let targets: Vec<usize> = if columns.is_empty() {
            (0..schema.len()).collect()
        } else {
            let mut v = Vec::with_capacity(columns.len());
            for c in columns {
                v.push(t.column_index(c)?);
            }
            v
        };
        // Evaluate every row up front so value errors (arity, bad
        // expressions) surface before any row is applied.
        let outer = OuterCtx::with_params(params.clone());
        let mut tuples = Vec::with_capacity(rows.len());
        for row in rows {
            if row.len() != targets.len() {
                return Err(XnfError::Api(format!(
                    "INSERT row has {} values for {} columns",
                    row.len(),
                    targets.len()
                )));
            }
            let mut values = vec![Value::Null; schema.len()];
            for (expr, &ord) in row.iter().zip(&targets) {
                let pe = const_expr(expr)?;
                values[ord] = coerce(eval(&pe, &[], &outer, &[])?, schema.column(ord).ty);
            }
            tuples.push(Tuple::new(values));
        }
        let mut ws = WriteScope::open(self, scope);
        let mut n = 0;
        // A storage error (e.g. unique violation) can still stop the loop
        // mid-way; the applied prefix stays logged (and, in autocommit,
        // commits with its maintenance when the scope closes).
        let apply: Result<()> = (|| {
            for tuple in &tuples {
                let rid = t.insert_txn(tuple, ws.xid())?;
                ws.log_insert(&t, rid, tuple);
                n += 1;
            }
            Ok(())
        })();
        let closed = ws.finish();
        apply.and(closed).map(|()| n)
    }

    /// Rows matching a DML WHERE clause under `snap` (the writing scope's
    /// snapshot: its transaction's begin-state plus its own writes). A
    /// single `col = constant` conjunct goes through
    /// [`xnf_storage::Table::find_by_value_visible`] (index point lookup
    /// when one exists); anything else scans. Returns the candidate rows
    /// plus the residual filter still to evaluate per row (`None` when the
    /// index probe was exact).
    fn dml_matches(
        &self,
        t: &Arc<xnf_storage::Table>,
        where_clause: Option<&Expr>,
        outer: &OuterCtx,
        snap: &Snapshot,
    ) -> Result<DmlMatches> {
        if let Some(Expr::Binary { left, op, right }) = where_clause {
            if *op == xnf_sql::BinOp::Eq {
                let col_and_const = match (&**left, &**right) {
                    (
                        Expr::Column {
                            qualifier: None,
                            name,
                        },
                        v,
                    ) if is_const_expr(v) => Some((name, v)),
                    (
                        v,
                        Expr::Column {
                            qualifier: None,
                            name,
                        },
                    ) if is_const_expr(v) => Some((name, v)),
                    _ => None,
                };
                if let Some((name, v)) = col_and_const {
                    if let Ok(col) = t.column_index(name) {
                        let key = eval(&const_expr(v)?, &[], outer, &[])?;
                        if key.is_null() {
                            // `col = NULL` is never TRUE (three-valued
                            // logic); the index would match stored NULL
                            // keys, so short-circuit to no rows instead.
                            return Ok((Vec::new(), None));
                        }
                        return Ok((t.find_by_value_visible(col, &key, snap)?, None));
                    }
                }
            }
        }
        let filter = match where_clause {
            Some(w) => Some(table_expr(&t.schema, &t.name, w)?),
            None => None,
        };
        let mut matches = Vec::new();
        t.for_each_visible(snap, |rid, tuple| {
            matches.push((rid, tuple));
            Ok(true)
        })?;
        Ok((matches, filter))
    }

    fn run_update(
        &self,
        table: &str,
        sets: &[(String, Expr)],
        where_clause: Option<&Expr>,
        params: &Params,
        scope: Scope<'_>,
    ) -> Result<usize> {
        let t = self.dml_target(table)?;
        let set_exprs: Vec<(usize, PhysExpr)> = sets
            .iter()
            .map(|(c, e)| Ok((t.column_index(c)?, table_expr(&t.schema, &t.name, e)?)))
            .collect::<Result<_>>()?;

        let outer = OuterCtx::with_params(params.clone());
        let mut ws = WriteScope::open(self, scope);
        // Collect matching RIDs first (stable against mutation) under the
        // scope's snapshot; the writes below conflict-check against the
        // latest row state (first-writer-wins).
        let (matches, filter) = self.dml_matches(&t, where_clause, &outer, &ws.snapshot())?;
        let mut n = 0;
        // A mid-loop error (unique violation, write conflict, eval failure)
        // leaves earlier rows applied and logged.
        let apply: Result<()> = (|| {
            for (rid, tuple) in matches {
                if let Some(f) = &filter {
                    if !xnf_exec::truthy(&eval(f, &tuple.values, &outer, &[])?) {
                        continue;
                    }
                }
                let mut new_vals = tuple.values.clone();
                for (ord, e) in &set_exprs {
                    new_vals[*ord] = coerce(
                        eval(e, &tuple.values, &outer, &[])?,
                        t.schema.column(*ord).ty,
                    );
                }
                let new_tuple = Tuple::new(new_vals);
                let (old, new_rid) = t.update_txn(rid, &new_tuple, ws.xid())?;
                ws.log_update(&t, rid, new_rid, old, &new_tuple);
                n += 1;
            }
            Ok(())
        })();
        let closed = ws.finish();
        apply.and(closed).map(|()| n)
    }

    fn run_delete(
        &self,
        table: &str,
        where_clause: Option<&Expr>,
        params: &Params,
        scope: Scope<'_>,
    ) -> Result<usize> {
        let t = self.dml_target(table)?;
        let outer = OuterCtx::with_params(params.clone());
        let mut ws = WriteScope::open(self, scope);
        let (matches, filter) = self.dml_matches(&t, where_clause, &outer, &ws.snapshot())?;
        let mut n = 0;
        let apply: Result<()> = (|| {
            for (rid, tuple) in matches {
                if let Some(f) = &filter {
                    if !xnf_exec::truthy(&eval(f, &tuple.values, &outer, &[])?) {
                        continue;
                    }
                }
                let old = t.mark_delete_txn(rid, ws.xid())?;
                ws.log_delete(&t, rid, old);
                n += 1;
            }
            Ok(())
        })();
        let closed = ws.finish();
        apply.and(closed).map(|()| n)
    }
}

/// Candidate rows for a DML statement plus the residual row filter.
type DmlMatches = (Vec<(xnf_storage::Rid, Tuple)>, Option<PhysExpr>);

/// Is this expression constant (usable as an index key at DML time)?
fn is_const_expr(e: &Expr) -> bool {
    matches!(e, Expr::Literal(_) | Expr::Param(_))
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

/// Coerce ints into double columns (the only implicit widening we allow).
fn coerce(v: Value, ty: DataType) -> Value {
    match (&v, ty) {
        (Value::Int(i), DataType::Double) => Value::Double(*i as f64),
        _ => v,
    }
}

/// Lower a constant AST expression (no column references) to a PhysExpr.
pub(crate) fn const_expr(e: &Expr) -> Result<PhysExpr> {
    lower_expr(e, &mut |q, name| {
        Err(XnfError::Api(format!(
            "column reference '{}{name}' not allowed here",
            q.map(|s| format!("{s}.")).unwrap_or_default()
        )))
    })
}

/// Lower an AST expression over one table's row (UPDATE/DELETE filters).
pub(crate) fn table_expr(schema: &Schema, table: &str, e: &Expr) -> Result<PhysExpr> {
    lower_expr(e, &mut |q, name| {
        if let Some(qn) = q {
            if !qn.eq_ignore_ascii_case(table) {
                return Err(XnfError::Api(format!("unknown table qualifier '{qn}'")));
            }
        }
        schema
            .index_of(name)
            .map(PhysExpr::Col)
            .ok_or_else(|| XnfError::Api(format!("unknown column '{name}' in '{table}'")))
    })
}

/// Lower an AST expression with a custom column resolver (used by the
/// recursive-CO evaluator).
pub(crate) fn lower_expr_with(
    e: &Expr,
    col: &mut impl FnMut(Option<&str>, &str) -> Result<PhysExpr>,
) -> Result<PhysExpr> {
    lower_expr(e, col)
}

fn lower_expr(
    e: &Expr,
    col: &mut impl FnMut(Option<&str>, &str) -> Result<PhysExpr>,
) -> Result<PhysExpr> {
    Ok(match e {
        Expr::Literal(l) => PhysExpr::Literal(xnf_qgm::literal_value(l)),
        Expr::Param(i) => PhysExpr::Param(*i),
        Expr::Column { qualifier, name } => col(qualifier.as_deref(), name)?,
        Expr::Unary { op, expr } => PhysExpr::Unary {
            op: *op,
            expr: Box::new(lower_expr(expr, col)?),
        },
        Expr::Binary { left, op, right } => PhysExpr::Binary {
            left: Box::new(lower_expr(left, col)?),
            op: *op,
            right: Box::new(lower_expr(right, col)?),
        },
        Expr::IsNull { expr, negated } => PhysExpr::IsNull {
            expr: Box::new(lower_expr(expr, col)?),
            negated: *negated,
        },
        Expr::Like {
            expr,
            pattern,
            negated,
        } => PhysExpr::Like {
            expr: Box::new(lower_expr(expr, col)?),
            pattern: pattern.clone(),
            negated: *negated,
        },
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            let x = lower_expr(expr, col)?;
            let both = PhysExpr::Binary {
                left: Box::new(PhysExpr::Binary {
                    left: Box::new(x.clone()),
                    op: xnf_sql::BinOp::GtEq,
                    right: Box::new(lower_expr(low, col)?),
                }),
                op: xnf_sql::BinOp::And,
                right: Box::new(PhysExpr::Binary {
                    left: Box::new(x),
                    op: xnf_sql::BinOp::LtEq,
                    right: Box::new(lower_expr(high, col)?),
                }),
            };
            if *negated {
                PhysExpr::Unary {
                    op: xnf_sql::UnaryOp::Not,
                    expr: Box::new(both),
                }
            } else {
                both
            }
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => PhysExpr::InList {
            expr: Box::new(lower_expr(expr, col)?),
            list: list
                .iter()
                .map(|x| lower_expr(x, col))
                .collect::<Result<_>>()?,
            negated: *negated,
        },
        Expr::Func { func, args } => PhysExpr::Func {
            func: *func,
            args: args
                .iter()
                .map(|x| lower_expr(x, col))
                .collect::<Result<_>>()?,
        },
        other => {
            return Err(XnfError::Api(format!(
                "expression '{other}' not allowed in this context"
            )))
        }
    })
}
